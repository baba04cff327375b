// Micro-benchmarks (google-benchmark) for the hot paths behind the paper's
// design choices:
//  * Patricia-trie lookup/insert across database sizes — the flatness here
//    is the root cause of Fig. 7a/7b;
//  * wire codecs (VXLAN-GPO stack, LISP control messages);
//  * map-cache hit path and SGACL evaluation (the per-packet pipeline);
//  * SPF recomputation at campus and warehouse scale;
//  * telemetry hot paths (counter cells, recorder, idle tracer hooks) —
//    the instrumentation tax must stay ~0 when idle, tiny when enabled.
//
// The custom main serves only scripts/check_perf.sh: after the suite, when
// $SDA_BENCH_JSON is set, it runs the perf-gate probes (steady_clock-timed
// hot loops plus a global-new allocation counter) and writes the
// machine-readable summary check_perf.sh diffs against the committed
// baseline in bench/BENCH_micro.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

// Sanitized builds run the same probes but the numbers are meaningless for
// regression gating; the JSON carries this flag so check_perf.sh can skip.
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define SDA_BENCH_SANITIZED 1
#endif
#endif
#if !defined(SDA_BENCH_SANITIZED) && \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define SDA_BENCH_SANITIZED 1
#endif
#ifndef SDA_BENCH_SANITIZED
#define SDA_BENCH_SANITIZED 0
#endif

#include "bgp/rib.hpp"
#include "dataplane/sgacl.hpp"
#include "fabric/fabric.hpp"
#include "l2/slaac.hpp"
#include "lisp/map_cache.hpp"
#include "lisp/map_server.hpp"
#include "lisp/messages.hpp"
#include "net/packet.hpp"
#include "policy/sxp.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/path_trace.hpp"
#include "trie/patricia.hpp"
#include "underlay/spf.hpp"

// --- Counting allocator ---------------------------------------------------
// Global operator new replacement that counts every heap allocation, so the
// perf probe can assert the dispatch loop is allocation-free at steady
// state. Frees are not counted (only allocation growth matters); all forms
// forward to malloc/aligned_alloc so ASan interception still works.

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc contract
  if (void* p = std::aligned_alloc(a, rounded != 0 ? rounded : a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t al) { return ::operator new(size, al); }

// GCC pairs the replaced operator new with operator delete and warns when a
// pointer it produced reaches std::free(); it cannot see that every form
// above forwards to malloc/aligned_alloc, so the pairing is in fact exact.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

using namespace sda;

net::VnEid eid_of(std::uint32_t i) {
  return net::VnEid{net::VnId{1}, net::Eid{net::Ipv4Address{0x0A000000u + i}}};
}

void BM_TrieLookup(benchmark::State& state) {
  const auto routes = static_cast<std::uint32_t>(state.range(0));
  trie::PatriciaTrie<int> trie;
  for (std::uint32_t i = 0; i < routes; ++i) {
    trie.insert(trie::BitKey::from_ipv4(net::Ipv4Address{0x0A000000u + i}), static_cast<int>(i));
  }
  std::uint32_t q = 0;
  for (auto _ : state) {
    const auto* v =
        trie.find_exact(trie::BitKey::from_ipv4(net::Ipv4Address{0x0A000000u + (q++ % routes)}));
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_TrieLookup)->Arg(1)->Arg(100)->Arg(10000)->Arg(100000);

void BM_TrieLongestMatch(benchmark::State& state) {
  const auto routes = static_cast<std::uint32_t>(state.range(0));
  trie::PatriciaTrie<int> trie;
  trie.insert(trie::BitKey::from_ipv4_prefix(*net::Ipv4Prefix::parse("0.0.0.0/0")), -1);
  for (std::uint32_t i = 0; i < routes; ++i) {
    trie.insert(trie::BitKey::from_ipv4(net::Ipv4Address{0x0A000000u + i}), static_cast<int>(i));
  }
  std::uint32_t q = 0;
  for (auto _ : state) {
    const auto m =
        trie.longest_match(trie::BitKey::from_ipv4(net::Ipv4Address{0x0A000000u + (q++ % (2 * routes))}));
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TrieLongestMatch)->Arg(100)->Arg(10000)->Arg(100000);

void BM_TrieInsertErase(benchmark::State& state) {
  trie::PatriciaTrie<int> trie;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    trie.insert(trie::BitKey::from_ipv4(net::Ipv4Address{0x0A000000u + i}), static_cast<int>(i));
  }
  std::uint32_t q = 0;
  for (auto _ : state) {
    const auto key = trie::BitKey::from_ipv4(net::Ipv4Address{0x0B000000u + (q++ % 1024)});
    trie.insert(key, 1);
    trie.erase(key);
  }
}
BENCHMARK(BM_TrieInsertErase);

void BM_MapServerAnswer(benchmark::State& state) {
  lisp::MapServer server;
  const auto routes = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < routes; ++i) {
    lisp::MappingRecord record;
    record.rlocs = {net::Rloc{net::Ipv4Address{0xC0A80001u}}};
    server.register_mapping(eid_of(i), record);
  }
  lisp::MapRequest request;
  std::uint32_t q = 0;
  for (auto _ : state) {
    request.eid = eid_of(q++ % routes);
    const auto reply = server.answer(request);
    benchmark::DoNotOptimize(reply);
  }
}
BENCHMARK(BM_MapServerAnswer)->Arg(100)->Arg(10000)->Arg(100000);

void BM_SimulatorScheduleDispatch(benchmark::State& state) {
  sim::Simulator simulator;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (std::int64_t i = 0; i < 64; ++i) {
      simulator.schedule_after(sim::Duration{i}, [&sink] { ++sink; });
    }
    simulator.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SimulatorScheduleDispatch);

void BM_MapCacheHit(benchmark::State& state) {
  lisp::MapCache cache;
  lisp::MapReply reply;
  reply.rlocs = {net::Rloc{net::Ipv4Address{0xC0A80001u}}};
  reply.ttl_seconds = 1 << 30;
  for (std::uint32_t i = 0; i < 1000; ++i) cache.install(eid_of(i), reply, sim::SimTime{});
  std::uint32_t q = 0;
  for (auto _ : state) {
    const auto* entry = cache.lookup(eid_of(q++ % 1000), sim::SimTime{});
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_MapCacheHit);

void BM_VxlanEncodeDecode(benchmark::State& state) {
  net::FabricFrame frame;
  frame.outer_source = net::Ipv4Address{10, 0, 0, 1};
  frame.outer_destination = net::Ipv4Address{10, 0, 0, 2};
  frame.vn = net::VnId{100};
  frame.source_group = net::GroupId{20};
  net::OverlayFrame inner;
  inner.source_mac = net::MacAddress::from_u64(0x02AA);
  inner.destination_mac = net::MacAddress::from_u64(0x02BB);
  net::Ipv4Datagram dgram;
  dgram.source = net::Ipv4Address{10, 1, 0, 1};
  dgram.destination = net::Ipv4Address{10, 1, 0, 2};
  dgram.payload_size = 1400;
  inner.l3 = dgram;
  frame.inner = inner;
  for (auto _ : state) {
    const auto bytes = frame.encode();
    const auto decoded = net::FabricFrame::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_VxlanEncodeDecode);

void BM_LispMessageCodec(benchmark::State& state) {
  lisp::MapReply reply;
  reply.nonce = 42;
  reply.eid = eid_of(7);
  reply.rlocs = {net::Rloc{net::Ipv4Address{10, 0, 0, 1}},
                 net::Rloc{net::Ipv4Address{10, 0, 0, 2}}};
  const lisp::Message message{reply};
  for (auto _ : state) {
    const auto bytes = lisp::encode_message(message);
    const auto decoded = lisp::decode_message(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_LispMessageCodec);

void BM_SgaclEvaluate(benchmark::State& state) {
  dataplane::Sgacl sgacl{policy::Action::Allow};
  for (std::uint16_t s = 1; s <= 32; ++s) {
    for (std::uint16_t d = 1; d <= 32; ++d) {
      if ((s + d) % 4 == 0) {
        sgacl.install_rule(net::VnId{1},
                           {{net::GroupId{s}, net::GroupId{d}}, policy::Action::Deny});
      }
    }
  }
  std::uint16_t q = 0;
  for (auto _ : state) {
    ++q;
    const auto action = sgacl.evaluate(net::VnId{1}, net::GroupId{static_cast<std::uint16_t>(1 + q % 32)},
                                       net::GroupId{static_cast<std::uint16_t>(1 + (q / 32) % 32)});
    benchmark::DoNotOptimize(action);
  }
}
BENCHMARK(BM_SgaclEvaluate);

void BM_SxpCodec(benchmark::State& state) {
  policy::SxpRuleInstall install;
  install.vn = net::VnId{100};
  install.destination = net::GroupId{20};
  for (std::uint16_t s = 1; s <= 16; ++s) {
    install.rules.push_back(
        {{net::GroupId{s}, net::GroupId{20}}, policy::Action::Deny});
  }
  const policy::SxpMessage message{install};
  for (auto _ : state) {
    const auto bytes = policy::encode_sxp(message);
    const auto decoded = policy::decode_sxp(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_SxpCodec);

void BM_SlaacDerivation(benchmark::State& state) {
  const auto prefix = *net::Ipv6Prefix::parse("2001:db8:100::/64");
  std::uint64_t i = 0;
  for (auto _ : state) {
    const auto addr = l2::slaac_address(prefix, net::MacAddress::from_u64(++i));
    benchmark::DoNotOptimize(addr);
  }
}
BENCHMARK(BM_SlaacDerivation);

void BM_RibInstall(benchmark::State& state) {
  bgp::Rib rib;
  std::uint64_t version = 0;
  std::uint32_t i = 0;
  for (auto _ : state) {
    ++i;
    const bool changed = rib.install(eid_of(i % 16000),
                                     net::Ipv4Address{0x0A000001u + (i % 200)},
                                     sim::SimTime{}, ++version);
    benchmark::DoNotOptimize(changed);
  }
}
BENCHMARK(BM_RibInstall);

void BM_SpfCompute(benchmark::State& state) {
  // Star topology like the warehouse: border hub + N edges.
  const auto edges = static_cast<std::uint32_t>(state.range(0));
  underlay::Topology topo;
  const auto hub = topo.add_node("hub", net::Ipv4Address{10, 0, 0, 1});
  for (std::uint32_t i = 0; i < edges; ++i) {
    const auto n = topo.add_node("e" + std::to_string(i), net::Ipv4Address{0x0A010000u + i});
    topo.add_link(hub, n, std::chrono::microseconds{50});
  }
  for (auto _ : state) {
    const auto table = underlay::compute_spf(topo, 1);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_SpfCompute)->Arg(13)->Arg(200);

// --- Telemetry hot paths --------------------------------------------------
// Pull probes cost nothing until snapshot(); these measure the paths that
// do run per event: owned cells, the flight-recorder ring, and the
// compiled-in-but-idle tracer hooks every data-plane stage calls.

void BM_TelemetryCounterInc(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::Counter& counter = registry.counter("edge[0].map_cache.hits");
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_TelemetryCounterInc);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  telemetry::MetricsRegistry registry;
  telemetry::LatencyHistogram& hist =
      registry.histogram("fabric.first_packet_us", {0.0, 20'000.0, 50});
  double sample = 0;
  for (auto _ : state) {
    hist.observe(sample);
    sample = sample < 20'000.0 ? sample + 7.0 : 0.0;
  }
  benchmark::DoNotOptimize(hist);
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_TelemetryRecorderRecord(benchmark::State& state) {
  telemetry::FlightRecorder recorder{2048};
  recorder.set_enabled(state.range(0) != 0);
  for (auto _ : state) {
    // The guard-then-build idiom every instrumented call site uses.
    if (recorder.enabled()) {
      recorder.record(sim::SimTime{}, telemetry::EventKind::MapRequest, "edge-0",
                      "for 10.1.0.5");
    }
    benchmark::DoNotOptimize(recorder);
  }
}
BENCHMARK(BM_TelemetryRecorderRecord)->Arg(1)->Arg(0);

void BM_TelemetryTracerIdleNote(benchmark::State& state) {
  // Nothing armed, nothing open: the per-packet cost of compiled-in hooks.
  telemetry::PathTracer tracer;
  net::OverlayFrame frame;
  frame.source_mac = net::MacAddress::from_u64(0x02AA);
  frame.destination_mac = net::MacAddress::from_u64(0x02BB);
  net::Ipv4Datagram dgram;
  dgram.source = net::Ipv4Address{10, 1, 0, 1};
  dgram.destination = net::Ipv4Address{10, 1, 0, 2};
  frame.l3 = dgram;
  const std::string node = "edge-0";
  for (auto _ : state) {
    tracer.note(net::VnId{1}, frame, telemetry::HopKind::Transit, node, sim::SimTime{});
    benchmark::DoNotOptimize(tracer);
  }
}
BENCHMARK(BM_TelemetryTracerIdleNote);

void BM_TelemetryRegistrySnapshot(benchmark::State& state) {
  // A registry the size of a mid-size fabric: 40 nodes x 8 pull probes.
  telemetry::MetricsRegistry registry;
  std::vector<std::uint64_t> cells(320);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    registry.register_counter(
        "edge[" + std::to_string(i / 8) + "].counter" + std::to_string(i % 8),
        [&cells, i] { return cells[i]; });
  }
  for (auto _ : state) {
    const telemetry::Snapshot snap = registry.snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_TelemetryRegistrySnapshot);

// --- Perf-gate probes -----------------------------------------------------
// Fixed-iteration steady_clock loops (deliberately independent of the
// google-benchmark runner so the JSON shape stays stable) measured per
// batch; per-op p50/p99 come from the sorted batch samples. The committed
// baseline lives in bench/BENCH_micro.json; scripts/check_perf.sh fails the
// build on a >25% throughput regression or any steady-state allocation.

struct ProbeResult {
  double ops_per_sec = 0;
  double p50_ns = 0;
  double p99_ns = 0;
};

template <typename Batch>
ProbeResult run_probe(Batch&& batch, std::size_t ops_per_batch) {
  using Clock = std::chrono::steady_clock;
  constexpr int kWarmupBatches = 50;
  constexpr int kMeasuredBatches = 400;
  for (int i = 0; i < kWarmupBatches; ++i) batch();
  std::vector<double> per_op_ns;
  per_op_ns.reserve(kMeasuredBatches);
  double total_ns = 0;
  for (int i = 0; i < kMeasuredBatches; ++i) {
    const auto begin = Clock::now();
    batch();
    const auto end = Clock::now();
    const double ns = std::chrono::duration<double, std::nano>(end - begin).count();
    total_ns += ns;
    per_op_ns.push_back(ns / static_cast<double>(ops_per_batch));
  }
  std::sort(per_op_ns.begin(), per_op_ns.end());
  const auto percentile = [&per_op_ns](double q) {
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(per_op_ns.size() - 1));
    return per_op_ns[idx];
  };
  ProbeResult result;
  result.ops_per_sec =
      static_cast<double>(kMeasuredBatches) * static_cast<double>(ops_per_batch) * 1e9 / total_ns;
  result.p50_ns = percentile(0.50);
  result.p99_ns = percentile(0.99);
  return result;
}

ProbeResult probe_schedule_dispatch() {
  sim::Simulator simulator;
  std::uint64_t sink = 0;
  return run_probe(
      [&] {
        for (std::int64_t i = 0; i < 256; ++i) {
          simulator.schedule_after(sim::Duration{i}, [&sink] { ++sink; });
        }
        simulator.run();
        benchmark::DoNotOptimize(sink);
      },
      256);
}

ProbeResult probe_map_cache_hit() {
  lisp::MapCache cache;
  lisp::MapReply reply;
  reply.rlocs = {net::Rloc{net::Ipv4Address{0xC0A80001u}}};
  reply.ttl_seconds = 1 << 30;
  for (std::uint32_t i = 0; i < 1000; ++i) cache.install(eid_of(i), reply, sim::SimTime{});
  std::uint32_t q = 0;
  return run_probe(
      [&] {
        for (int i = 0; i < 1024; ++i) {
          const auto* entry = cache.lookup(eid_of(q++ % 1000), sim::SimTime{});
          benchmark::DoNotOptimize(entry);
        }
      },
      1024);
}

ProbeResult probe_sgacl_verdict() {
  dataplane::Sgacl sgacl{policy::Action::Allow};
  for (std::uint16_t s = 1; s <= 32; ++s) {
    for (std::uint16_t d = 1; d <= 32; ++d) {
      if ((s + d) % 4 == 0) {
        sgacl.install_rule(net::VnId{1},
                           {{net::GroupId{s}, net::GroupId{d}}, policy::Action::Deny});
      }
    }
  }
  std::uint16_t q = 0;
  return run_probe(
      [&] {
        for (int i = 0; i < 1024; ++i) {
          ++q;
          const auto action =
              sgacl.evaluate(net::VnId{1}, net::GroupId{static_cast<std::uint16_t>(1 + q % 32)},
                             net::GroupId{static_cast<std::uint16_t>(1 + (q / 32) % 32)});
          benchmark::DoNotOptimize(action);
        }
      },
      1024);
}

/// Allocation count over 64 schedule+dispatch cycles after the scheduler's
/// containers have reached their high-water marks. Must be zero: small
/// callables live in the InlineAction SBO buffer and the queue/slot/free-
/// list vectors plateau after warmup.
std::uint64_t probe_dispatch_steady_state_allocs() {
  sim::Simulator simulator;
  std::uint64_t sink = 0;
  const auto cycle = [&] {
    for (std::int64_t i = 0; i < 256; ++i) {
      simulator.schedule_after(sim::Duration{i}, [&sink] { ++sink; });
    }
    simulator.run();
  };
  for (int i = 0; i < 64; ++i) cycle();
  const std::uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) cycle();
  benchmark::DoNotOptimize(sink);
  return g_heap_allocations.load(std::memory_order_relaxed) - before;
}

/// Disabled causal tracer: the full per-hook call pattern the fabric pays
/// when causal_tracing is off — an enabled() check guarding begin(), then
/// span_begin/span_end/finish on the 0 trace id. Every call must early-out;
/// this is the "tracing costs one predictable branch when off" claim,
/// measured.
ProbeResult probe_causal_idle() {
  telemetry::CausalTracer tracer{16};  // disabled: set_enabled never called
  const std::string node = "edge0";
  const sim::SimTime now{};
  std::uint64_t sink = 0;
  return run_probe(
      [&] {
        for (int i = 0; i < 1024; ++i) {
          std::uint64_t trace = 0;
          if (tracer.enabled()) {
            trace = tracer.begin(telemetry::OpKind::Register, node, now);
          }
          const std::uint64_t span = tracer.span_begin(trace, 0, "map-register", node, now);
          tracer.span_end(trace, span, now);
          tracer.finish(trace, now);
          sink += trace + span;
        }
        benchmark::DoNotOptimize(sink);
      },
      1024);
}

/// Allocation count over the disabled-tracer call pattern. Must be zero:
/// a disabled tracer that allocates would tax every control-plane hook in
/// every untraced fabric.
std::uint64_t probe_tracing_disabled_allocs() {
  telemetry::CausalTracer tracer{16};
  const std::string node = "edge0";
  const sim::SimTime now{};
  std::uint64_t sink = 0;
  const auto cycle = [&] {
    for (int i = 0; i < 1024; ++i) {
      std::uint64_t trace = 0;
      if (tracer.enabled()) {
        trace = tracer.begin(telemetry::OpKind::Register, node, now);
      }
      const std::uint64_t span = tracer.span_begin(trace, 0, "map-register", node, now);
      tracer.span_end(trace, span, now);
      tracer.finish(trace, now);
      sink += trace + span;
    }
  };
  for (int i = 0; i < 8; ++i) cycle();
  const std::uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) cycle();
  benchmark::DoNotOptimize(sink);
  return g_heap_allocations.load(std::memory_order_relaxed) - before;
}

/// First-packet latency p50 (microseconds) from a deterministic two-edge
/// fabric run — sim-time, so identical on every host; a regression here
/// means the resolution pipeline itself got longer, not the machine slower.
double probe_first_packet_p50_us() {
  sim::Simulator sim;
  fabric::FabricConfig config;
  config.l2_gateway = false;
  config.seed = 0x5DA;
  config.trace_first_packets = true;  // feeds fabric.first_packet_us
  fabric::SdaFabric fabric{sim, config};
  fabric.add_border("b0");
  fabric.add_edge("e0");
  fabric.add_edge("e1");
  fabric.link("e0", "b0");
  fabric.link("e1", "b0");
  fabric.finalize();
  fabric.define_vn({net::VnId{1}, "corp", *net::Ipv4Prefix::parse("10.1.0.0/16")});
  std::array<net::Ipv4Address, 2> ips;
  for (int i = 0; i < 2; ++i) {
    fabric::EndpointDefinition def;
    def.credential = "h" + std::to_string(i);
    def.secret = "pw";
    def.mac = net::MacAddress::from_u64(0x0400u + static_cast<std::uint64_t>(i));
    def.vn = net::VnId{1};
    def.group = net::GroupId{10};
    fabric.provision_endpoint(def);
    fabric.connect_endpoint(def.credential, i == 0 ? "e0" : "e1", 1,
                            [&ips, i](const fabric::OnboardResult& r) {
                              ips[static_cast<std::size_t>(i)] = r.ip;
                            });
  }
  sim.run();
  fabric.endpoint_send_udp(net::MacAddress::from_u64(0x0400u), ips[1], 443, 200);
  fabric.endpoint_send_udp(net::MacAddress::from_u64(0x0401u), ips[0], 443, 200);
  sim.run();
  const telemetry::Snapshot snap = fabric.telemetry().metrics.snapshot();
  const auto it = snap.histograms.find("fabric.first_packet_us");
  if (it == snap.histograms.end() || it->second.total == 0) return 0.0;
  return it->second.quantile(0.5);
}

/// Runs every perf probe and writes the gate JSON to $SDA_BENCH_JSON.
/// No-op when the variable is unset.
void export_perf_probe() {
  const char* path = std::getenv("SDA_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
#if defined(NDEBUG)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const bool sanitized = SDA_BENCH_SANITIZED != 0;
  const ProbeResult schedule = probe_schedule_dispatch();
  const ProbeResult cache_hit = probe_map_cache_hit();
  const ProbeResult sgacl = probe_sgacl_verdict();
  const ProbeResult causal_idle = probe_causal_idle();
  const std::uint64_t allocs = probe_dispatch_steady_state_allocs();
  const std::uint64_t tracing_allocs = probe_tracing_disabled_allocs();
  const double first_packet_us = probe_first_packet_p50_us();
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf probe: cannot open %s for writing\n", path);
    return;
  }
  const auto metric = [f](const char* name, const ProbeResult& r, const char* trailer) {
    std::fprintf(f, "    \"%s\": {\"ops_per_sec\": %.1f, \"p50_ns\": %.2f, \"p99_ns\": %.2f}%s\n",
                 name, r.ops_per_sec, r.p50_ns, r.p99_ns, trailer);
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"sda-bench-micro-v1\",\n");
  std::fprintf(f, "  \"optimized\": %s,\n", optimized ? "true" : "false");
  std::fprintf(f, "  \"sanitized\": %s,\n", sanitized ? "true" : "false");
  std::fprintf(f, "  \"metrics\": {\n");
  metric("schedule_dispatch", schedule, ",");
  metric("map_cache_hit", cache_hit, ",");
  metric("sgacl_verdict", sgacl, ",");
  metric("causal_idle", causal_idle, "");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fabric_first_packet_us_p50\": %.2f,\n", first_packet_us);
  std::fprintf(f, "  \"dispatch_steady_state_allocs\": %llu,\n",
               static_cast<unsigned long long>(allocs));
  std::fprintf(f, "  \"tracing_disabled_allocs\": %llu\n",
               static_cast<unsigned long long>(tracing_allocs));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("perf probe written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  export_perf_probe();
  return 0;
}
