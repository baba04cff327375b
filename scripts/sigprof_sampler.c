// A sampling profiler to LD_PRELOAD into any program built with debug info
// (see profile_fabricbench.sh). A POSIX timer raises SIGPROF every 100
// microseconds of wall time. It runs on
// CLOCK_MONOTONIC because the kernel checks CPU-clock timers only on its
// scheduler tick, which gave one sample per ~26 ms on a 4-vCPU VM;
// fabricbench is single-threaded and CPU-bound, so its wall time is its CPU
// time. The handler stores the interrupted PC in a preallocated buffer, so
// a sample allocates nothing and takes no lock. At exit the PCs are counted
// and written to SDA_PROFILE_OUT, one "count offset" line per distinct PC:
// offsets are relative to the main executable's load base, which is what
// `addr2line -e <exe>` takes for a PIE. PCs outside the executable are
// counted by the shared object that holds them ("count @libc.so.6").
#define _GNU_SOURCE
#include <link.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1u << 22)

static uintptr_t* samples;
static volatile sig_atomic_t sample_count;
static timer_t timer;
static int armed;

static void on_sigprof(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "unsupported architecture"
#endif
  const sig_atomic_t n = sample_count;
  if ((unsigned)n < MAX_SAMPLES) {
    samples[n] = pc;
    sample_count = n + 1;
  }
}

__attribute__((constructor)) static void sampler_start(void) {
  if (getenv("SDA_PROFILE_OUT") == NULL) return;
  samples = mmap(NULL, MAX_SAMPLES * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (samples == MAP_FAILED) return;
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) return;
  struct sigevent ev;
  memset(&ev, 0, sizeof ev);
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_MONOTONIC, &ev, &timer) != 0) return;
  struct itimerspec spec;
  spec.it_interval.tv_sec = 0;
  spec.it_interval.tv_nsec = 100 * 1000;
  spec.it_value = spec.it_interval;
  armed = timer_settime(timer, 0, &spec, NULL) == 0;
}

struct Object {
  uintptr_t base;
  uintptr_t begin;
  uintptr_t end;
  const char* name;
};

#define MAX_OBJECTS 64
static struct Object objects[MAX_OBJECTS];
static int object_count;

static int collect_object(struct dl_phdr_info* info, size_t size, void* data) {
  (void)size;
  (void)data;
  if (object_count == MAX_OBJECTS) return 1;
  struct Object* o = &objects[object_count++];
  o->base = info->dlpi_addr;
  o->begin = UINTPTR_MAX;
  o->end = 0;
  o->name = info->dlpi_name;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)* ph = &info->dlpi_phdr[i];
    if (ph->p_type != PT_LOAD || (ph->p_flags & PF_X) == 0) continue;
    const uintptr_t begin = info->dlpi_addr + ph->p_vaddr;
    if (begin < o->begin) o->begin = begin;
    if (begin + ph->p_memsz > o->end) o->end = begin + ph->p_memsz;
  }
  return 0;
}

static int by_pc(const void* a, const void* b) {
  const uintptr_t x = *(const uintptr_t*)a;
  const uintptr_t y = *(const uintptr_t*)b;
  return (x > y) - (x < y);
}

static void write_pc(FILE* out, uintptr_t pc, unsigned long count) {
  for (int i = 0; i < object_count; ++i) {
    if (pc < objects[i].begin || pc >= objects[i].end) continue;
    if (i == 0) {  // dl_iterate_phdr lists the main executable first
      fprintf(out, "%lu 0x%lx\n", count, (unsigned long)(pc - objects[i].base));
    } else {
      const char* slash = strrchr(objects[i].name, '/');
      fprintf(out, "%lu @%s\n", count, slash != NULL ? slash + 1 : objects[i].name);
    }
    return;
  }
  fprintf(out, "%lu @unknown\n", count);
}

__attribute__((destructor)) static void sampler_stop(void) {
  if (!armed) return;
  timer_delete(timer);
  armed = 0;
  const unsigned n = (unsigned)sample_count;
  FILE* out = fopen(getenv("SDA_PROFILE_OUT"), "w");
  if (out == NULL) return;
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  exe[len > 0 ? len : 0] = '\0';
  fprintf(out, "# exe %s\n# samples %u\n", exe, n);
  dl_iterate_phdr(collect_object, NULL);
  qsort(samples, n, sizeof(uintptr_t), by_pc);
  for (unsigned i = 0; i < n;) {
    unsigned j = i;
    while (j < n && samples[j] == samples[i]) ++j;
    write_pc(out, samples[i], j - i);
    i = j;
  }
  fclose(out);
}
