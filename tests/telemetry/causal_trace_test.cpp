#include "telemetry/causal_trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sda::telemetry {
namespace {

sim::SimTime at_us(int us) { return sim::SimTime{} + std::chrono::microseconds{us}; }

TEST(CausalTracer, DisabledTracerIsInert) {
  CausalTracer tracer;
  ASSERT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.begin(OpKind::Register, "10.0.0.1", at_us(0)), 0u);
  // Every entry point early-outs on trace 0 — the untraced hot-path pattern.
  EXPECT_EQ(tracer.span_begin(0, 0, "map-register", "rs0", at_us(1)), 0u);
  tracer.span_end(0, 0, at_us(2));
  tracer.finish(0, at_us(3));
  tracer.abandon(0);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.completed_count(), 0u);
}

TEST(CausalTracer, BeginDedupsByKindAndLabel) {
  CausalTracer tracer;
  tracer.set_enabled(true);
  const auto t1 = tracer.begin(OpKind::Register, "10.0.0.1", at_us(0));
  ASSERT_NE(t1, 0u);
  // A retransmitted registration reuses the open op; a different label or
  // kind opens a fresh one.
  EXPECT_EQ(tracer.begin(OpKind::Register, "10.0.0.1", at_us(5)), t1);
  const auto t2 = tracer.begin(OpKind::Register, "10.0.0.2", at_us(5));
  const auto t3 = tracer.begin(OpKind::Move, "10.0.0.1", at_us(5));
  EXPECT_NE(t2, t1);
  EXPECT_NE(t3, t1);
  EXPECT_NE(t3, t2);
  EXPECT_EQ(tracer.open_count(), 3u);
  // The dedup holds until the op finishes; then the key opens a fresh op.
  EXPECT_EQ(tracer.begin(OpKind::Move, "10.0.0.1", at_us(6)), t3);
  tracer.finish(t1, at_us(7));
  EXPECT_NE(tracer.begin(OpKind::Register, "10.0.0.1", at_us(8)), t1);
}

TEST(CausalTracer, SpanLifecycleAndNesting) {
  CausalTracer tracer;
  tracer.set_enabled(true);
  const auto trace = tracer.begin(OpKind::Move, "02:00:00:00:00:01", at_us(0));
  const auto outer = tracer.span_begin(trace, 0, "mobility-notify", "edge[0]", at_us(10));
  ASSERT_NE(outer, 0u);
  const auto inner = tracer.span_begin(trace, outer, "notify-ack", "edge[1]", at_us(20));
  ASSERT_NE(inner, 0u);
  tracer.span_end(trace, inner, at_us(30));
  tracer.span_end(trace, outer, at_us(40));
  tracer.finish(trace, at_us(50));

  ASSERT_EQ(tracer.completed().size(), 1u);
  const Operation& op = tracer.completed().back();
  EXPECT_EQ(op.kind, OpKind::Move);
  EXPECT_EQ(op.duration(), std::chrono::microseconds{50});
  ASSERT_EQ(op.spans.size(), 2u);
  EXPECT_EQ(op.spans[0].parent, 0u);
  EXPECT_EQ(op.spans[1].parent, outer);
  EXPECT_EQ(op.spans[1].node, "edge[1]");
  EXPECT_FALSE(op.spans[0].open);
  EXPECT_FALSE(op.spans[1].open);
}

TEST(CausalTracer, FinishClampsOpenSpansAndIsIdempotent) {
  CausalTracer tracer;
  tracer.set_enabled(true);
  const auto trace = tracer.begin(OpKind::SmrFanout, "10.0.0.1->edge[2]", at_us(0));
  tracer.span_begin(trace, 0, "smr", "edge[2]", at_us(5));  // never ended
  tracer.finish(trace, at_us(40));
  tracer.finish(trace, at_us(99));  // second ack: harmless no-op
  EXPECT_EQ(tracer.completed_count(), 1u);
  const Operation& op = tracer.completed().back();
  EXPECT_EQ(op.end, at_us(40));
  ASSERT_EQ(op.spans.size(), 1u);
  // The dangling span is clamped to the operation end, not left open.
  EXPECT_EQ(op.spans[0].end, at_us(40));
  EXPECT_FALSE(op.spans[0].open);
  // Spans on a finished trace are ignored.
  EXPECT_EQ(tracer.span_begin(trace, 0, "late", "edge[2]", at_us(50)), 0u);
}

TEST(CausalTracer, AbandonDropsWithoutCallbackOrRetention) {
  CausalTracer tracer;
  tracer.set_enabled(true);
  int completions = 0;
  tracer.set_completion_callback([&](const Operation&) { ++completions; });
  const auto trace = tracer.begin(OpKind::Register, "10.0.0.9", at_us(0));
  tracer.abandon(trace);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.completed_count(), 0u);
  EXPECT_EQ(tracer.abandoned_count(), 1u);
  EXPECT_EQ(completions, 0);
  // The (kind, label) key is released: a new begin opens a distinct op.
  EXPECT_NE(tracer.begin(OpKind::Register, "10.0.0.9", at_us(10)), trace);
}

TEST(CausalTracer, CompletedRingIsBounded) {
  CausalTracer tracer{3};
  tracer.set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    const auto trace = tracer.begin(OpKind::Register, "eid-" + std::to_string(i), at_us(i));
    tracer.finish(trace, at_us(i + 1));
  }
  EXPECT_EQ(tracer.completed_count(), 10u);  // lifetime count keeps counting
  ASSERT_EQ(tracer.completed().size(), 3u);  // retention drops the oldest
  EXPECT_EQ(tracer.completed().front().label, "eid-7");
  EXPECT_EQ(tracer.completed().back().label, "eid-9");
}

TEST(CausalTracer, CompletionCallbackFiresWithFinalOp) {
  CausalTracer tracer;
  tracer.set_enabled(true);
  std::vector<OpKind> seen;
  sim::Duration last_duration{};
  tracer.set_completion_callback([&](const Operation& op) {
    seen.push_back(op.kind);
    last_duration = op.duration();
  });
  const auto trace = tracer.begin(OpKind::FailoverRehome, "epoch 2", at_us(100));
  tracer.finish(trace, at_us(350));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], OpKind::FailoverRehome);
  EXPECT_EQ(last_duration, std::chrono::microseconds{250});
}

TEST(CausalTracer, OpenLabelsReportLeaks) {
  CausalTracer tracer;
  tracer.set_enabled(true);
  tracer.begin(OpKind::Register, "10.0.0.1", at_us(0));
  tracer.begin(OpKind::Move, "02:aa", at_us(0));
  const auto labels = tracer.open_labels();
  ASSERT_EQ(labels.size(), 2u);
  // Labels are prefixed with the op kind for diagnostics.
  bool saw_register = false, saw_move = false;
  for (const auto& l : labels) {
    if (l.find("10.0.0.1") != std::string::npos) saw_register = true;
    if (l.find("02:aa") != std::string::npos) saw_move = true;
  }
  EXPECT_TRUE(saw_register);
  EXPECT_TRUE(saw_move);
}

TEST(CausalTracer, ChromeTraceJsonShape) {
  CausalTracer tracer;
  tracer.set_enabled(true);
  const auto trace = tracer.begin(OpKind::Register, "10.0.0.1", at_us(0));
  const auto span = tracer.span_begin(trace, 0, "map-register", "routing_server[0]", at_us(2));
  tracer.span_end(trace, span, at_us(8));
  tracer.finish(trace, at_us(10));

  const std::string json = tracer.to_chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete events
  EXPECT_NE(json.find("\"map-register\""), std::string::npos);
  EXPECT_NE(json.find("10.0.0.1"), std::string::npos);
  // Deterministic: same tracer renders the same bytes.
  EXPECT_EQ(json, tracer.to_chrome_trace());
}

// --- First packets: frames match an armed flow ------------------------------

constexpr net::VnId kVn{7};

net::OverlayFrame ip_frame(net::Ipv4Address source, net::Ipv4Address destination) {
  net::OverlayFrame frame;
  frame.source_mac = net::MacAddress::from_u64(0x02AA);
  frame.destination_mac = net::MacAddress::from_u64(0x02BB);
  net::Ipv4Datagram dgram;
  dgram.source = source;
  dgram.destination = destination;
  dgram.payload_size = 100;
  frame.l3 = dgram;
  return frame;
}

net::VnEid eid(net::Ipv4Address ip) { return net::VnEid{kVn, net::Eid{ip}}; }

std::vector<std::string> span_names(const Operation& op) {
  std::vector<std::string> names;
  for (const Span& span : op.spans) names.push_back(span.name + "@" + span.node);
  return names;
}

TEST(CausalTracer, FirstPacketArmedFlowRecordsHopsUntilTerminal) {
  CausalTracer tracer;  // disabled: arming a flow is its own opt-in
  const net::Ipv4Address src{10, 1, 0, 1};
  const net::Ipv4Address dst{10, 1, 0, 2};
  EXPECT_FALSE(tracer.tracing_flows());
  const std::uint64_t id = tracer.arm_flow(eid(src), eid(dst));
  ASSERT_NE(id, 0u);
  EXPECT_TRUE(tracer.tracing_flows());
  EXPECT_EQ(tracer.open_count(), 0u);  // armed, not yet entered

  const net::OverlayFrame frame = ip_frame(src, dst);
  EXPECT_EQ(tracer.ingress(kVn, frame, "edge-0", at_us(1)), id);
  EXPECT_EQ(tracer.open_count(), 1u);
  // A resolution the miss sends nests under the operation by its id.
  const auto request = tracer.span_begin(id, 0, "map-request", "edge-0", at_us(1));
  EXPECT_NE(request, 0u);
  tracer.hop(kVn, frame, "encap", "edge-0", at_us(3));
  tracer.hop(kVn, frame, "transit", "underlay", at_us(53));
  tracer.hop(kVn, frame, "decap", "edge-1", at_us(55));
  tracer.hop(kVn, frame, "sgacl-permit", "edge-1", at_us(56));
  EXPECT_EQ(tracer.completed_count(), 0u);
  tracer.hop(kVn, frame, "deliver", "edge-1", at_us(57));

  EXPECT_FALSE(tracer.tracing_flows());
  EXPECT_EQ(tracer.open_count(), 0u);
  ASSERT_EQ(tracer.completed().size(), 1u);
  const Operation& op = tracer.completed().back();
  EXPECT_EQ(op.trace, id);
  EXPECT_EQ(op.kind, OpKind::FirstPacket);
  EXPECT_EQ(op.label, eid(src).to_string() + " -> " + eid(dst).to_string());
  EXPECT_FALSE(op.dropped);
  EXPECT_EQ(op.duration(), std::chrono::microseconds{56});  // 1us ingress -> 57us deliver
  EXPECT_EQ(span_names(op),
            (std::vector<std::string>{"ingress@edge-0", "map-request@edge-0", "encap@edge-0",
                                      "transit@underlay", "decap@edge-1", "sgacl-permit@edge-1",
                                      "deliver@edge-1"}));
  // Hops are zero-length and closed; the unanswered request is clamped.
  for (const Span& span : op.spans) {
    EXPECT_FALSE(span.open) << span.name;
    if (span.name != "map-request") {
      EXPECT_EQ(span.start, span.end) << span.name;
    }
  }
  EXPECT_EQ(op.spans[1].end, at_us(57));
}

TEST(CausalTracer, FirstPacketSgaclDenyIsTerminalAndNotDelivered) {
  CausalTracer tracer;
  const net::Ipv4Address src{10, 1, 0, 1};
  const net::Ipv4Address dst{10, 1, 0, 9};
  tracer.arm_flow(eid(src), eid(dst));
  const net::OverlayFrame frame = ip_frame(src, dst);
  tracer.ingress(kVn, frame, "edge-0", at_us(0));
  tracer.hop(kVn, frame, "sgacl-deny", "edge-1", at_us(9));
  ASSERT_EQ(tracer.completed().size(), 1u);
  EXPECT_TRUE(tracer.completed().front().dropped);
  EXPECT_EQ(tracer.completed().front().end, at_us(9));
  // Hops after the terminal one are ignored.
  tracer.hop(kVn, frame, "deliver", "edge-1", at_us(10));
  EXPECT_EQ(tracer.completed_count(), 1u);
  EXPECT_EQ(tracer.completed().front().spans.size(), 2u);
}

TEST(CausalTracer, FirstPacketIdleHooksIgnoreUnmatchedTraffic) {
  CausalTracer tracer;
  const net::OverlayFrame frame = ip_frame({10, 0, 0, 1}, {10, 0, 0, 2});
  EXPECT_EQ(tracer.ingress(kVn, frame, "edge-0", at_us(0)), 0u);
  tracer.hop(kVn, frame, "deliver", "edge-0", at_us(0));
  EXPECT_FALSE(tracer.tracing_flows());
  EXPECT_EQ(tracer.completed_count(), 0u);

  // Armed for a different flow: unrelated frames still pass through.
  tracer.arm_flow(eid({10, 9, 9, 9}), eid({10, 9, 9, 8}));
  EXPECT_EQ(tracer.ingress(kVn, frame, "edge-0", at_us(0)), 0u);
  tracer.hop(kVn, frame, "deliver", "edge-0", at_us(1));
  // The same addresses in another VN are another flow.
  EXPECT_EQ(tracer.ingress(net::VnId{8}, ip_frame({10, 9, 9, 9}, {10, 9, 9, 8}), "edge-0",
                           at_us(1)),
            0u);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.completed_count(), 0u);
  EXPECT_TRUE(tracer.tracing_flows());
}

TEST(CausalTracer, FirstPacketNonIpFramesNeverMatch) {
  CausalTracer tracer;
  tracer.arm_flow(eid({10, 1, 0, 1}), eid({10, 1, 0, 2}));
  net::OverlayFrame arp;
  arp.source_mac = net::MacAddress::from_u64(0x02AA);
  arp.destination_mac = net::MacAddress::broadcast();
  arp.l3 = net::ArpPacket{};
  EXPECT_EQ(tracer.ingress(kVn, arp, "edge-0", at_us(0)), 0u);
  tracer.hop(kVn, arp, "deliver", "edge-0", at_us(1));
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.completed_count(), 0u);
}

TEST(CausalTracer, FirstPacketReArmingAbandonsTheOpenOperation) {
  CausalTracer tracer;
  const net::Ipv4Address src{10, 1, 0, 1};
  const net::Ipv4Address dst{10, 1, 0, 2};
  const std::uint64_t first = tracer.arm_flow(eid(src), eid(dst));
  // Re-arming a flow that has not entered yet replaces the armed id and
  // abandons nothing.
  const std::uint64_t armed = tracer.arm_flow(eid(src), eid(dst));
  EXPECT_NE(armed, first);
  EXPECT_EQ(tracer.abandoned_count(), 0u);
  const net::OverlayFrame frame = ip_frame(src, dst);
  EXPECT_EQ(tracer.ingress(kVn, frame, "edge-0", at_us(0)), armed);
  // A later frame of the flow in flight belongs to the same operation.
  EXPECT_EQ(tracer.ingress(kVn, frame, "edge-0", at_us(1)), armed);
  EXPECT_EQ(tracer.open_count(), 1u);
  // The packet died silently (e.g. underlay loss); the flow is re-armed.
  const std::uint64_t again = tracer.arm_flow(eid(src), eid(dst));
  EXPECT_EQ(tracer.abandoned_count(), 1u);
  EXPECT_EQ(tracer.open_count(), 0u);
  EXPECT_EQ(tracer.ingress(kVn, frame, "edge-0", at_us(2)), again);
  tracer.hop(kVn, frame, "deliver", "edge-0", at_us(3));
  ASSERT_EQ(tracer.completed().size(), 1u);
  EXPECT_EQ(tracer.completed().front().trace, again);
  EXPECT_EQ(tracer.completed().front().start, at_us(2));
}

TEST(CausalTracer, FirstPacketRingIsBounded) {
  CausalTracer tracer{2};
  tracer.set_enabled(true);
  // Control operations and first packets share the one ring.
  tracer.finish(tracer.begin(OpKind::Register, "10.1.0.2", at_us(0)), at_us(1));
  for (std::uint8_t i = 0; i < 5; ++i) {
    const net::Ipv4Address src{10, 1, 0, static_cast<std::uint8_t>(10 + i)};
    const net::Ipv4Address dst{10, 1, 0, 2};
    tracer.arm_flow(eid(src), eid(dst));
    const net::OverlayFrame frame = ip_frame(src, dst);
    tracer.ingress(kVn, frame, "edge-0", at_us(i));
    tracer.hop(kVn, frame, "deliver", "edge-0", at_us(i + 1));
  }
  EXPECT_EQ(tracer.completed_count(), 6u);
  ASSERT_EQ(tracer.completed().size(), 2u);
  // Oldest dropped: the survivors are the last two first packets.
  EXPECT_EQ(tracer.completed().front().label.rfind(eid({10, 1, 0, 13}).to_string(), 0), 0u);
  EXPECT_EQ(tracer.completed().back().label.rfind(eid({10, 1, 0, 14}).to_string(), 0), 0u);
}

TEST(CausalTracer, FirstPacketCallbackFiresOnceWithTheOutcome) {
  CausalTracer tracer;
  std::vector<std::pair<OpKind, bool>> seen;
  tracer.set_completion_callback(
      [&](const Operation& op) { seen.emplace_back(op.kind, op.dropped); });
  // Every terminal hop finishes the operation; only a deny or a drop marks
  // it dropped. A non-terminal hop finishes nothing.
  const std::vector<std::pair<const char*, bool>> terminals = {
      {"deliver", false}, {"external-out", false}, {"sgacl-deny", true}, {"drop", true}};
  std::uint8_t host = 1;
  for (const auto& [terminal, dropped] : terminals) {
    seen.clear();
    const net::Ipv4Address src{10, 1, 0, host++};
    const net::Ipv4Address dst{10, 1, 1, 1};
    tracer.arm_flow(eid(src), eid(dst));
    const net::OverlayFrame frame = ip_frame(src, dst);
    tracer.ingress(kVn, frame, "edge-0", at_us(0));
    tracer.hop(kVn, frame, "stale-forward", "edge-1", at_us(1));
    EXPECT_TRUE(seen.empty()) << terminal;
    tracer.hop(kVn, frame, terminal, "border-0", at_us(4));
    tracer.hop(kVn, frame, terminal, "border-0", at_us(5));
    ASSERT_EQ(seen.size(), 1u) << terminal;
    EXPECT_EQ(seen[0].first, OpKind::FirstPacket) << terminal;
    EXPECT_EQ(seen[0].second, dropped) << terminal;
  }
  EXPECT_FALSE(tracer.tracing_flows());
  EXPECT_EQ(tracer.completed_count(), terminals.size());
}

}  // namespace
}  // namespace sda::telemetry
