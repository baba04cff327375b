// fabricbench: drives the real SdaFabric through one seeded workload and
// prints its metrics; the last line of stdout is one JSON object.
//
//   fabricbench --workload <cached_16e|miss_failover_16e|roam_16e|roam_200e>
//               --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 reports the end-to-end metrics of one untraced arm, advanced
// tick by tick with Simulator::run_until and a calibration slice before
// every tick. --trace 1 builds three arms on the same schedule and
// interleaves them three ticks at a time: U (untraced, as --trace 0), O
// (telemetry off) and T (driven one Simulator::step() at a time, each step
// attributed to a layer); it reports the per-layer metrics. --smoke runs the
// few-second 2-edge shape of the workload.
//
// Exit status: 0 when every correctness check passed, 1 when one failed
// (the JSON is still printed), 2 on bad arguments.
#include <sys/resource.h>
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calibration.hpp"
#include "workload.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FABRICBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define FABRICBENCH_SANITIZED 1
#endif
#endif
#ifndef FABRICBENCH_SANITIZED
#define FABRICBENCH_SANITIZED 0
#endif
#ifndef FABRICBENCH_BUILD_TYPE
#define FABRICBENCH_BUILD_TYPE "unknown"
#endif
#ifndef FABRICBENCH_CXX_FLAGS
#define FABRICBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace fabricbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (!(a.seconds > 0)) return std::nullopt;
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (a.trace != 0 && a.trace != 1) return std::nullopt;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (a.workload.empty()) return std::nullopt;
  return a;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

/// Median of the last `window` yardstick slices. One 500-iteration slice is
/// short enough for a single interrupt or cold line to skew it; the window
/// (well under a second of wall time) is still short against the machine's
/// slow phases, which last seconds.
class Yardstick {
 public:
  /// Runs one slice and returns the windowed ns per iteration.
  double next() {
    const double ns = calibration_.slice();
    if (recent_.size() < kWindow) {
      recent_.push_back(ns);
    } else {
      recent_[next_++ % kWindow] = ns;
    }
    slices_.push_back(ns);
    return median(recent_);
  }

  /// Every slice's own ns per iteration.
  [[nodiscard]] const std::vector<double>& slices() const { return slices_; }

 private:
  static constexpr std::size_t kWindow = 15;
  Calibration calibration_;
  std::vector<double> recent_;
  std::vector<double> slices_;
  std::size_t next_ = 0;
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Metrics in report order, printed as "name value unit" lines and as JSON.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
      value = 0;
    }
    metrics_.push_back({name, value, unit});
  }

  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "fabricbench: FAILED: %s\n", e.c_str());
    }
    for (const Metric& m : metrics_) {
      std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                errors.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit);
    }
    std::printf("}}\n");
  }

  std::vector<std::string> errors;

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// The machine and build every result was measured on.
void print_machine_record() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  const bool sanitized = FABRICBENCH_SANITIZED != 0;
  std::printf(
      "machine: {\"nproc\": %ld, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"optimized\": %s, \"sanitized\": %s, \"assertions\": %s}\n",
      sysconf(_SC_NPROCESSORS_ONLN), json_escape(cpu_model()).c_str(),
      json_escape(__VERSION__).c_str(), FABRICBENCH_BUILD_TYPE,
      json_escape(FABRICBENCH_CXX_FLAGS).c_str(), optimized ? "true" : "false",
      sanitized ? "true" : "false", assertions ? "true" : "false");
  if (!optimized || sanitized) {
    std::fprintf(stderr,
                 "fabricbench: WARNING: %s build; wall-time figures are not comparable to an "
                 "optimised one\n",
                 sanitized ? "sanitised" : "unoptimised");
  }
}

/// Peak RSS of this program image. Linux's getrusage() max RSS also counts
/// the parent's image the process was forked from (run.py's 12-15 MB
/// outweighed a 7 MB run), so VmHWM is read where /proc has it.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Wall ns of Simulator::step() on a no-op event, in a private simulator
/// whose queue holds `depth` events (the fabric's median queue depth).
double measure_dispatch_ns(std::size_t depth) {
  sim::Simulator s;
  std::uint64_t state = 0x2545F4914F6CDD1Dull;
  const auto delay = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return sim::Duration{1000 + static_cast<std::int64_t>(state % 1'000'000)};
  };
  depth = std::max<std::size_t>(depth, 1);
  for (std::size_t i = 0; i < depth; ++i) s.schedule_after(delay(), [] {});
  const std::size_t batch = std::clamp<std::size_t>(depth / 4, 16, 1024);
  std::vector<double> rounds;
  for (int round = 0; round < 7; ++round) {
    std::uint64_t ns = 0;
    std::uint64_t steps = 0;
    while (steps < 100'000) {
      for (std::size_t k = 0; k < batch; ++k) s.schedule_after(delay(), [] {});
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t k = 0; k < batch; ++k) s.step();
      const auto t1 = std::chrono::steady_clock::now();
      ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      steps += batch;
    }
    rounds.push_back(static_cast<double>(ns) / static_cast<double>(steps));
  }
  return median(rounds);
}

/// Share of the measured phase's sends that were delivered. Below 1 only
/// where the fabric drops (and counts) packets, as in a handover window.
double delivered_frac(const ArmResults& r) {
  return ratio(static_cast<double>(r.phase_delivered), static_cast<double>(r.phase_sent));
}

void check_arm(Report& report, const char* arm, const ArmResults& r) {
  for (const std::string& e : r.errors) report.errors.push_back(std::string(arm) + ": " + e);
}

/// Yardstick ns per iteration that setup_s is scaled to: the compute-only
/// yardstick on a 4-vCPU Xeon VM in its fast phase.
constexpr double kReferenceYardstickNs = 30.0;

int run_end_to_end(const WorkloadSpec& spec, const Args& args) {
  const double measure_s = spec.sim_s_per_wall_s * args.seconds;
  // Set-up time is wall time scaled by a compute-only yardstick taken just
  // before and after each set-up, so that a slow machine phase (up to 1.8x
  // for minutes) does not read as a slower set-up. The last set-up is the
  // arm that is measured.
  Calibration setup_yardstick;
  std::vector<double> setups;
  const auto timed_setup = [&]() {
    const double before = setup_yardstick.slice();
    auto built = std::make_unique<Arm>(spec, args.seed, measure_s, true);
    const double yardstick = (before + setup_yardstick.slice()) / 2;
    setups.push_back(built->setup_s() * kReferenceYardstickNs / yardstick);
    return built;
  };
  std::unique_ptr<Arm> arm = timed_setup();
  for (unsigned i = 1; i < spec.setups; ++i) {
    arm.reset();
    arm = timed_setup();
  }
  Yardstick yardstick;
  std::vector<double> cost, raw;
  std::uint64_t measured_wall_ns = 0;
  while (arm->measuring()) {
    const double calib_ns = yardstick.next();
    const Tick tick = arm->run_tick();
    measured_wall_ns += tick.wall_ns;
    if (tick.delivered == 0) continue;
    const double ns = static_cast<double>(tick.wall_ns) / static_cast<double>(tick.delivered);
    raw.push_back(ns);
    cost.push_back(ns / calib_ns);
  }
  const ArmResults& r = arm->finish();

  Report report;
  check_arm(report, "run", r);
  report.add("pkt_cost.p50", percentile(cost, 50), "ratio");
  report.add("events_per_pkt",
             ratio(static_cast<double>(r.events_measured),
                   static_cast<double>(r.delivered_measured)),
             "count");
  report.add("delivered_frac", delivered_frac(r), "ratio");
  report.add("pkt_latency_us.p50", r.latency_ns->quantile(50) / 1e3, "us");
  report.add("pkt_latency_us.p99", r.latency_ns->quantile(99) / 1e3, "us");
  report.add("first_pkt_us.p50", r.first_packet_ns->quantile(50) / 1e3, "us");
  report.add("onboard_ms.p50", percentile(r.onboard_ms, 50), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("setup_s", median(setups), "s");
  // Raw wall figures for human readers; they are not gated.
  std::printf("wall: pkt_ns.p50 %.1f calib_ns.p50 %.2f pkt_cost.p90 %.4f ticks %zu",
              percentile(raw, 50), median(yardstick.slices()), percentile(cost, 90), cost.size());
  std::printf(" measured_s %.2f\n", static_cast<double>(measured_wall_ns) / 1e9);
  std::printf("first_pkt_us: from %s\n",
              r.first_packet_from_setup ? "set-up warm-up sends (no measured send missed)"
                                        : "measured-phase sends");
  std::printf("digest: %016llx\n", static_cast<unsigned long long>(r.digest));
  report.print(r.attempted, r.failed);
  return report.errors.empty() ? 0 : 1;
}

int run_traced(const WorkloadSpec& spec, const Args& args) {
  // Three arms share the measured time, so each gets a third of the schedule.
  const double measure_s = spec.sim_s_per_wall_s * args.seconds / 3.0;
  Arm untraced(spec, args.seed, measure_s, true);
  Arm telemetry_off(spec, args.seed, measure_s, false);
  Arm traced(spec, args.seed, measure_s, true);
  LayerTrace trace;
  Yardstick yardstick;

  std::vector<double> cost, raw_after_calib, raw_after_tick, on_off, trace_overhead, depth;
  double traced_wall = 0;
  // One round is three ticks of each arm in turn. U's first tick starts
  // cold (the other arms ran last) and only counts toward the totals; its
  // second follows its own tick; its third follows its own tick and a
  // yardstick slice, as every tick of --trace 0 does. The third against the
  // second shows how much the slice perturbs the figure it normalises.
  const auto per_pkt = [](const Tick& t) {
    return static_cast<double>(t.wall_ns) / static_cast<double>(t.delivered);
  };
  while (untraced.measuring()) {
    Tick u[3], o[3], t[3];
    double calib_ns = 0;
    int n = 0;
    for (; n < 3 && untraced.measuring(); ++n) {
      if (n == 2) calib_ns = yardstick.next();
      u[n] = untraced.run_tick();
    }
    for (int k = 0; k < n; ++k) o[k] = telemetry_off.run_tick();
    for (int k = 0; k < n; ++k) t[k] = traced.run_tick_traced(trace);
    std::uint64_t u_wall = 0, t_wall = 0;
    for (int k = 0; k < n; ++k) {
      depth.push_back(static_cast<double>(u[k].queue_depth));
      u_wall += u[k].wall_ns;
      t_wall += t[k].wall_ns;
    }
    traced_wall += static_cast<double>(t_wall);
    trace_overhead.push_back(ratio(static_cast<double>(t_wall), static_cast<double>(u_wall)));
    if (n < 3 || u[1].delivered == 0 || u[2].delivered == 0) continue;
    raw_after_tick.push_back(per_pkt(u[1]));
    raw_after_calib.push_back(per_pkt(u[2]));
    cost.push_back(per_pkt(u[2]) / calib_ns);
    on_off.push_back(ratio(static_cast<double>(u[1].wall_ns), static_cast<double>(o[1].wall_ns)));
  }
  const ArmResults& r = untraced.finish();
  const ArmResults& ro = telemetry_off.finish();
  const ArmResults& rt = traced.finish();

  Report report;
  check_arm(report, "untraced", r);
  check_arm(report, "telemetry-off", ro);
  check_arm(report, "traced", rt);
  // Tracing and telemetry observe the fabric; neither may change what it does.
  if (ro.digest != r.digest) report.errors.push_back("telemetry-off arm simulated other events");
  if (rt.digest != r.digest) report.errors.push_back("traced arm simulated other events");

  const double queue_p50 = percentile(depth, 50);
  const double dispatch_ns = measure_dispatch_ns(static_cast<std::size_t>(queue_p50));
  const auto self_p50 = [&](LayerTrace::Class c) {
    const LogHistogram& h = trace.step_ns[c];
    return h.total() == 0 ? 0.0 : h.quantile(50) - dispatch_ns;
  };
  const auto pkts = static_cast<double>(r.delivered_measured);
  const auto roams = static_cast<double>(r.roams);
  const double queries = static_cast<double>(std::max<std::uint64_t>(trace.queries, 1));
  const double lookup_ns = static_cast<double>(trace.lookup_ns) / queries;
  const double route_ns = static_cast<double>(trace.route_ns) / queries;
  const LogHistogram& control = trace.step_ns[LayerTrace::kControl];
  const double control_ns = static_cast<double>(control.sum()) -
                            dispatch_ns * static_cast<double>(control.total()) +
                            static_cast<double>(trace.roam_call_ns);
  double step_sum = 0;
  for (const LogHistogram& h : trace.step_ns) step_sum += static_cast<double>(h.sum());
  const double layer_sum =
      static_cast<double>(trace.send_ns.sum()) + step_sum + static_cast<double>(trace.roam_call_ns);

  report.add("pkt_cost.p90", percentile(cost, 90), "ratio");
  report.add("allocs_per_pkt", ratio(static_cast<double>(r.allocs_measured), pkts), "count");
  // Failed operations plus undelivered packets the fabric counted as drops.
  report.add("fail_frac",
             ratio(static_cast<double>(r.failed + r.drops), static_cast<double>(r.attempted)),
             "ratio");
  report.add("first_pkt_us.p99", r.first_packet_ns->quantile(99) / 1e3, "us");
  report.add("handover_ms.p50", percentile(r.handover_ms, 50), "ms");
  report.add("handover_ms.p99", percentile(r.handover_ms, 99), "ms");
  report.add("failover_ms", std::max(r.failover_ms, 0.0), "ms");
  report.add("fabric.send_ns.p50", trace.send_ns.quantile(50), "ns");
  report.add("fabric.send_ns.p99", trace.send_ns.quantile(99), "ns");
  report.add("fabric.lookup_ns", lookup_ns, "ns");
  report.add("underlay.route_ns", route_ns, "ns");
  report.add("dataplane.ingress_ns", trace.send_ns.mean() - lookup_ns - route_ns, "ns");
  report.add("fabric.send_allocs",
             ratio(static_cast<double>(trace.send_allocs),
                   static_cast<double>(trace.send_ns.total())),
             "count");
  report.add("sim.dispatch_ns", dispatch_ns, "ns");
  report.add("sim.queue_depth.p50", queue_p50, "count");
  report.add("sim.queue_depth.max", percentile(depth, 100), "count");
  report.add("dataplane.egress_ns.p50", self_p50(LayerTrace::kEgress), "ns");
  report.add("dataplane.egress_allocs",
             ratio(static_cast<double>(trace.egress_allocs),
                   static_cast<double>(rt.delivered_measured)),
             "count");
  report.add("dataplane.hairpin_ns.p50", self_p50(LayerTrace::kHairpin), "ns");
  report.add("lisp.mapserver_ns.p50", self_p50(LayerTrace::kMapServer), "ns");
  report.add("lisp.mapserver_wait_us.p50", r.mapserver_wait_ns.quantile(50) / 1e3, "us");
  report.add("lisp.mapserver_wait_us.p99", r.mapserver_wait_ns.quantile(99) / 1e3, "us");
  report.add("lisp.map_cache.hit_frac",
             ratio(static_cast<double>(r.cache_hits),
                   static_cast<double>(r.cache_hits + r.cache_misses)),
             "ratio");
  report.add("lisp.map_cache.evictions_per_pkt",
             ratio(static_cast<double>(r.cache_evictions), pkts), "count");
  report.add("control.step_ns.p50", self_p50(LayerTrace::kControl), "ns");
  report.add("control.roam_ns", ratio(control_ns, roams), "ns");
  report.add("dataplane.smr_per_roam", ratio(static_cast<double>(r.smr_sent), roams), "count");
  report.add("dataplane.stale_fwd_per_roam", ratio(static_cast<double>(r.stale_forwards), roams),
             "count");
  report.add("ha.failovers", static_cast<double>(r.ha_failovers), "count");
  report.add("ha.heartbeat_steps", static_cast<double>(trace.heartbeat_steps), "count");
  report.add("setup.onboard_ns", untraced.onboard_wall_ns_per_host(), "ns");
  report.add("telemetry.on_off_ratio", median(on_off), "ratio");
  report.add("calib_ns", median(yardstick.slices()), "ns");
  report.add("calib.perturbation", ratio(median(raw_after_calib), median(raw_after_tick)) - 1.0,
             "ratio");
  report.add("wall.pkt_ns.p50", percentile(raw_after_calib, 50), "ns");
  report.add("wall.pkt_ns.p99", percentile(raw_after_calib, 99), "ns");
  report.add("trace.overhead", median(trace_overhead), "ratio");
  report.add("layers.sum_ratio", ratio(layer_sum, traced_wall), "ratio");
  report.print(r.attempted, r.failed);
  return report.errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // A fixed threshold serves every large block (the map server's growing
  // sample vectors) from its own mapping, returned on free. glibc's default
  // raises the threshold after such a free, and whether later blocks then
  // reuse the heap depends on allocation order, so peak RSS moved by 14%
  // between seeds of one workload.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: fabricbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--smoke]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> spec = find_workload(args->workload, args->smoke);
  if (!spec) {
    std::fprintf(stderr, "fabricbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  print_machine_record();
  std::printf("workload: %s seed %llu seconds %g trace %d%s\n", spec->name.c_str(),
              static_cast<unsigned long long>(args->seed), args->seconds, args->trace,
              args->smoke ? " (smoke)" : "");
  std::fflush(stdout);
  return args->trace == 0 ? run_end_to_end(*spec, *args) : run_traced(*spec, *args);
}
