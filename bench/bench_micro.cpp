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
// A developer tool: no gate reads these numbers, which depend on the
// machine. The fabric's own wall-clock cost is fabricbench's pkt_cost.
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "dataplane/sgacl.hpp"
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

}  // namespace
