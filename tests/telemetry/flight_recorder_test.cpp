#include "telemetry/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <string>

namespace sda::telemetry {
namespace {

sim::SimTime at_ms(int ms) { return sim::SimTime{std::chrono::milliseconds{ms}}; }

TEST(FlightRecorder, RecordsEventsInOrder) {
  FlightRecorder recorder{16};
  recorder.record(at_ms(1), EventKind::MapRequest, "edge-0", "for 10.1.0.5");
  recorder.record(at_ms(2), EventKind::MapReply, "edge-0", "for 10.1.0.5");
  recorder.record(at_ms(3), EventKind::Smr, "edge-1");

  ASSERT_EQ(recorder.size(), 3u);
  const auto events = recorder.events();
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, EventKind::MapRequest);
  EXPECT_EQ(events[2].seq, 3u);
  EXPECT_EQ(events[2].node, "edge-1");
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.overwritten(), 0u);
}

TEST(FlightRecorder, RingWrapsAroundKeepingNewest) {
  FlightRecorder recorder{4};
  for (int i = 1; i <= 10; ++i) {
    recorder.record(at_ms(i), EventKind::Publish, "map_server", std::to_string(i));
  }
  EXPECT_EQ(recorder.size(), 4u);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.overwritten(), 6u);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest -> newest: sequences 7, 8, 9, 10 survive.
  EXPECT_EQ(events.front().seq, 7u);
  EXPECT_EQ(events.back().seq, 10u);
  EXPECT_EQ(events.back().detail, "10");
}

TEST(FlightRecorder, TailReturnsNewestN) {
  FlightRecorder recorder{8};
  for (int i = 1; i <= 5; ++i) recorder.record(at_ms(i), EventKind::Onboard, "e0");
  const auto tail = recorder.tail(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 4u);
  EXPECT_EQ(tail[1].seq, 5u);
  // Asking for more than held clamps.
  EXPECT_EQ(recorder.tail(100).size(), 5u);
}

TEST(FlightRecorder, ForNodeScopesTheTimeline) {
  FlightRecorder recorder{8};
  recorder.record(at_ms(1), EventKind::Roam, "edge-0");
  recorder.record(at_ms(2), EventKind::Roam, "edge-1");
  recorder.record(at_ms(3), EventKind::Onboard, "edge-0");
  const auto scoped = recorder.for_node("edge-0");
  ASSERT_EQ(scoped.size(), 2u);
  EXPECT_EQ(scoped[0].kind, EventKind::Roam);
  EXPECT_EQ(scoped[1].kind, EventKind::Onboard);
}

TEST(FlightRecorder, DisabledRecorderDropsEverything) {
  FlightRecorder recorder{8};
  recorder.set_enabled(false);
  recorder.record(at_ms(1), EventKind::Fault, "faults", "link down");
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  recorder.set_enabled(true);
  recorder.record(at_ms(2), EventKind::Fault, "faults", "link up");
  EXPECT_EQ(recorder.size(), 1u);
}

TEST(FlightRecorder, DumpMentionsOverwritesKindsAndNodes) {
  FlightRecorder recorder{2};
  recorder.record(at_ms(1), EventKind::MapRegister, "edge-0", "10.1.0.5");
  recorder.record(at_ms(2), EventKind::LinkState, "fabric", "e0 <-> b0 down");
  recorder.record(at_ms(3), EventKind::Resync, "border-0");
  const std::string dump = recorder.dump();
  EXPECT_NE(dump.find("(1 earlier events overwritten)"), std::string::npos);
  EXPECT_NE(dump.find("link-state fabric: e0 <-> b0 down"), std::string::npos);
  EXPECT_NE(dump.find("resync border-0"), std::string::npos);
  EXPECT_EQ(dump.find("map-register"), std::string::npos);  // overwritten
}

TEST(FlightRecorder, ClearResetsRing) {
  FlightRecorder recorder{4};
  for (int i = 0; i < 6; ++i) recorder.record(at_ms(i), EventKind::Custom, "n");
  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.overwritten(), 0u);
  recorder.record(at_ms(9), EventKind::Custom, "n");
  EXPECT_EQ(recorder.events().front().seq, 1u);
}

TEST(FlightRecorder, ForNodeSurvivesWraparound) {
  // Per-node scoping must read through the ring, not a side index: after a
  // wrap, for_node returns exactly the surviving events for that node, in
  // order, with their original sequence numbers.
  FlightRecorder recorder{6};
  for (int i = 1; i <= 12; ++i) {
    const std::string node = (i % 2 == 0) ? "routing_server[0]" : "routing_server[1]";
    recorder.record(at_ms(i), EventKind::FeedState, node, "seq " + std::to_string(i));
  }
  // Sequences 7..12 survive; three of them (8, 10, 12) belong to server 0.
  const auto scoped = recorder.for_node("routing_server[0]");
  ASSERT_EQ(scoped.size(), 3u);
  EXPECT_EQ(scoped[0].seq, 8u);
  EXPECT_EQ(scoped[1].seq, 10u);
  EXPECT_EQ(scoped[2].seq, 12u);
  EXPECT_EQ(scoped[2].detail, "seq 12");
  // A node fully rotated out of the ring scopes to nothing.
  EXPECT_TRUE(recorder.for_node("edge-gone").empty());
}

TEST(FlightRecorder, DeposedLeaderEventsStayAttributedThroughChurn) {
  // Election-churn timeline: the old leader's events keep their node
  // attribution after it is deposed and the fabric re-homes — the recorder
  // never rewrites history, so post-mortems can see both reigns.
  FlightRecorder recorder{16};
  recorder.record(at_ms(10), EventKind::FeedState, "routing_server[0]", "leader epoch 1");
  recorder.record(at_ms(20), EventKind::Publish, "routing_server[0]", "10.1.0.5");
  recorder.record(at_ms(30), EventKind::Fault, "routing_server[0]", "killed");
  recorder.record(at_ms(40), EventKind::FeedState, "routing_server[1]", "leader epoch 2");
  recorder.record(at_ms(41), EventKind::Resync, "border-0", "re-home epoch 2");
  recorder.record(at_ms(42), EventKind::SnapshotApplied, "border-0", "epoch 2");
  recorder.record(at_ms(50), EventKind::Publish, "routing_server[1]", "10.1.0.5");

  const auto deposed = recorder.for_node("routing_server[0]");
  ASSERT_EQ(deposed.size(), 3u);
  EXPECT_EQ(deposed.back().kind, EventKind::Fault);
  EXPECT_EQ(deposed.back().detail, "killed");

  const auto elected = recorder.for_node("routing_server[1]");
  ASSERT_EQ(elected.size(), 2u);
  EXPECT_EQ(elected.front().detail, "leader epoch 2");

  // The global timeline interleaves both reigns in seq order.
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 7u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  // Churn long enough to wrap the ring still keeps attribution straight:
  // flood epoch-3 events from server 0 (re-elected) until the epoch-2
  // history rotates out.
  for (int i = 0; i < 20; ++i) {
    recorder.record(at_ms(100 + i), EventKind::Publish, "routing_server[0]", "epoch 3");
  }
  EXPECT_EQ(recorder.size(), recorder.capacity());
  EXPECT_TRUE(recorder.for_node("routing_server[1]").empty());
  for (const auto& e : recorder.for_node("routing_server[0]")) {
    EXPECT_EQ(e.detail, "epoch 3");
  }
}

// Field-recorded events render to the same text the call sites used to
// format eagerly. These goldens pin that text for the first packet's
// events, on a fresh ring and after it has wrapped.
void record_first_packet_events(FlightRecorder& recorder, int base_ms) {
  const net::VnEid host{net::VnId{100}, net::Eid{net::Ipv4Address{10, 100, 0, 7}}};
  const net::VnEid mac{net::VnId{100}, net::Eid{net::MacAddress::from_u64(0x020000000042ull)}};
  const net::Ipv4Address server{10, 0, 0, 1};
  recorder.record(at_ms(base_ms + 1), EventKind::MapRequest, "edge-3", DetailForm::ForEidToRloc,
                  host, server);
  recorder.record(at_ms(base_ms + 2), EventKind::MapReply, "edge-3", DetailForm::ForEid, host);
  recorder.record(at_ms(base_ms + 3), EventKind::MapReply, "edge-3", DetailForm::NegativeForEid,
                  mac);
  recorder.record(at_ms(base_ms + 4), EventKind::Shed, "edge-4", DetailForm::RequestForEid, host);
  recorder.record(at_ms(base_ms + 5), EventKind::Shed, "edge-4", DetailForm::RegisterForEid,
                  host);
  recorder.record(at_ms(base_ms + 6), EventKind::Publish, "map_server", DetailForm::PublishSeq,
                  host, {}, 41);
  recorder.record(at_ms(base_ms + 7), EventKind::Publish, "routing_server[1]",
                  DetailForm::WithdrawSeq, host, {}, 42);
  recorder.record(at_ms(base_ms + 8), EventKind::MapRegister, "edge-3", DetailForm::ForEid, mac);
}

const char* const kFirstPacketGolden[] = {
    "[0:00:00.001] map-request edge-3: for vn:100/10.100.0.7 -> 10.0.0.1",
    "[0:00:00.002] map-reply edge-3: for vn:100/10.100.0.7",
    "[0:00:00.003] map-reply edge-3: negative for vn:100/02:00:00:00:00:42",
    "[0:00:00.004] shed edge-4: map-request for vn:100/10.100.0.7",
    "[0:00:00.005] shed edge-4: map-register for vn:100/10.100.0.7",
    "[0:00:00.006] publish map_server: publish vn:100/10.100.0.7 seq 41",
    "[0:00:00.007] publish routing_server[1]: withdraw vn:100/10.100.0.7 seq 42",
    "[0:00:00.008] map-register edge-3: for vn:100/02:00:00:00:00:42",
};

TEST(FlightRecorder, FieldEventsRenderGoldenText) {
  FlightRecorder recorder{16};
  record_first_packet_events(recorder, 0);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 8u);
  std::string expected_dump;
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].to_string(), kFirstPacketGolden[i]);
    expected_dump += kFirstPacketGolden[i];
    expected_dump += "\n";
  }
  EXPECT_EQ(events[0].detail, "for vn:100/10.100.0.7 -> 10.0.0.1");
  EXPECT_EQ(recorder.dump(), expected_dump);
  const auto edge = recorder.for_node("edge-3");
  ASSERT_EQ(edge.size(), 4u);
  EXPECT_EQ(edge[3].to_string(), kFirstPacketGolden[7]);
}

TEST(FlightRecorder, FieldEventsRenderGoldenTextAfterWraparound) {
  // Free-text events fill and wrap a ring of 8 first; the field events
  // then overwrite those slots and must render exactly as on a fresh ring
  // (no stale text or fields leak from the slot's previous occupant).
  FlightRecorder recorder{8};
  for (int i = 0; i < 13; ++i) {
    recorder.record(at_ms(0), EventKind::Custom, "a-much-longer-node-name-" + std::to_string(i),
                    "free text that is longer than any rendered detail " + std::to_string(i));
  }
  record_first_packet_events(recorder, 0);
  EXPECT_EQ(recorder.overwritten(), 13u);
  const auto tail = recorder.tail(8);
  ASSERT_EQ(tail.size(), 8u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].to_string(), kFirstPacketGolden[i]);
    EXPECT_EQ(tail[i].seq, 14 + i);
  }
  EXPECT_EQ(recorder.dump(2), "(13 earlier events overwritten)\n" +
                                  std::string{kFirstPacketGolden[6]} + "\n" +
                                  kFirstPacketGolden[7] + "\n");
  // Free text through the same call still wins over the slot's old fields.
  recorder.record(at_ms(9), EventKind::MapRequest, "edge-3", "for 10.1.0.5");
  EXPECT_EQ(recorder.tail(1).front().to_string(), "[0:00:00.009] map-request edge-3: for 10.1.0.5");
}

// The same for a roam's events: the mobility Map-Notify, the SMR and the
// Roam / Onboard completion.
void record_roam_events(FlightRecorder& recorder) {
  const net::VnEid host{net::VnId{100}, net::Eid{net::Ipv4Address{10, 100, 0, 7}}};
  recorder.record(at_ms(1), EventKind::MapNotify, "map_server", DetailForm::MoveNotify, host, {},
                  0, "edge-3");
  recorder.record(at_ms(2), EventKind::MapNotify, "routing_server[1]", DetailForm::MoveNotify,
                  host, {}, 0, "edge-12");
  recorder.record(at_ms(3), EventKind::Smr, "edge-3", DetailForm::ForEidToName, host, {}, 0,
                  "edge-5");
  recorder.record(at_ms(4), EventKind::Roam, "edge-4", DetailForm::RoamedTo, host, {}, 0,
                  "host-7");
  recorder.record(at_ms(5), EventKind::Onboard, "edge-0", DetailForm::OnboardedAt, host, {}, 0,
                  "host-123");
}

const char* const kRoamGolden[] = {
    "[0:00:00.001] map-notify map_server: move of vn:100/10.100.0.7, notify old edge edge-3",
    "[0:00:00.002] map-notify routing_server[1]: move of vn:100/10.100.0.7, notify old edge "
    "edge-12",
    "[0:00:00.003] smr edge-3: for vn:100/10.100.0.7 -> edge-5",
    "[0:00:00.004] roam edge-4: host-7 roamed to edge-4",
    "[0:00:00.005] onboard edge-0: host-123 onboarded at edge-0",
};

TEST(FlightRecorder, RoamEventsRenderGoldenText) {
  FlightRecorder recorder{16};
  record_roam_events(recorder);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].to_string(), kRoamGolden[i]);
  }
  EXPECT_EQ(events[3].detail, "host-7 roamed to edge-4");
}

TEST(FlightRecorder, RoamEventsRenderGoldenTextAfterWraparound) {
  // Longer free text and node names held the slots first; the quoted names
  // must replace them whole.
  FlightRecorder recorder{5};
  for (int i = 0; i < 7; ++i) {
    recorder.record(at_ms(0), EventKind::Custom, "a-much-longer-node-name-" + std::to_string(i),
                    "free text that is longer than any rendered detail " + std::to_string(i));
  }
  record_roam_events(recorder);
  const auto tail = recorder.tail(5);
  ASSERT_EQ(tail.size(), 5u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].to_string(), kRoamGolden[i]);
  }
  // A free-text event after them renders its own text, not the old name.
  recorder.record(at_ms(6), EventKind::Roam, "edge-1", "x");
  EXPECT_EQ(recorder.tail(1).front().to_string(), "[0:00:00.006] roam edge-1: x");
}

TEST(FlightRecorder, InternedNodeRefsNameTheirEvents) {
  // A busy site interns its node's name once and records by ref; a rare
  // site passing the name itself lands on the same ref.
  FlightRecorder recorder{8};
  const NodeRef edge = recorder.intern("edge-3");
  const NodeRef server = recorder.intern("map_server");
  EXPECT_NE(edge, server);
  EXPECT_EQ(recorder.intern("edge-3"), edge);
  const net::VnEid host{net::VnId{100}, net::Eid{net::Ipv4Address{10, 100, 0, 7}}};
  recorder.record(at_ms(1), EventKind::MapReply, edge, DetailForm::ForEid, host);
  recorder.record(at_ms(2), EventKind::Reboot, "edge-3", "down");
  recorder.record(at_ms(3), EventKind::Publish, server, DetailForm::PublishSeq, host, {}, 7);
  const auto timeline = recorder.for_node("edge-3");
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].to_string(), "[0:00:00.001] map-reply edge-3: for vn:100/10.100.0.7");
  EXPECT_EQ(timeline[1].to_string(), "[0:00:00.002] reboot edge-3: down");
  EXPECT_TRUE(recorder.for_node("edge-4").empty());
}

TEST(FlightRecorder, ZeroCapacityClampsToOne) {
  FlightRecorder recorder{0};
  recorder.record(at_ms(1), EventKind::Custom, "a");
  recorder.record(at_ms(2), EventKind::Custom, "b");
  EXPECT_EQ(recorder.capacity(), 1u);
  EXPECT_EQ(recorder.size(), 1u);
  EXPECT_EQ(recorder.events().front().node, "b");
}

}  // namespace
}  // namespace sda::telemetry
