#include "lisp/messages.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <variant>
#include <vector>

namespace sda::lisp {
namespace {

using net::Eid;
using net::Ipv4Address;
using net::Rloc;
using net::VnEid;
using net::VnId;

VnEid sample_eid() { return VnEid{VnId{100}, Eid{Ipv4Address{10, 1, 2, 3}}}; }

TEST(Messages, MapRequestRoundTrip) {
  const MapRequest m{0xDEADBEEF12345678ull, sample_eid(), Ipv4Address{10, 0, 0, 5}, true};
  const auto bytes = encode_message(Message{m});
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MapRequest>(*decoded), m);
}

TEST(Messages, MapReplyPositiveRoundTrip) {
  MapReply m;
  m.nonce = 7;
  m.eid = sample_eid();
  m.rlocs = {Rloc{Ipv4Address{10, 0, 0, 2}, 1, 50}, Rloc{Ipv4Address{10, 0, 0, 3}, 2, 50}};
  m.action = MapReplyAction::NoAction;
  m.ttl_seconds = 3600;
  m.group = 42;
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MapReply>(*decoded), m);
  EXPECT_FALSE(std::get<MapReply>(*decoded).negative());
}

TEST(Messages, MapReplyNegativeRoundTrip) {
  MapReply m;
  m.nonce = 9;
  m.eid = sample_eid();
  m.action = MapReplyAction::NativelyForward;
  m.ttl_seconds = 60;
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<MapReply>(*decoded).negative());
  EXPECT_EQ(std::get<MapReply>(*decoded).action, MapReplyAction::NativelyForward);
}

TEST(Messages, MapRegisterRoundTrip) {
  MapRegister m;
  m.nonce = 11;
  m.eid = VnEid{VnId{5}, Eid{net::MacAddress::from_u64(0x02AB)}};  // MAC EID (§3.5)
  m.rlocs = {Rloc{Ipv4Address{10, 0, 0, 9}}};
  m.ttl_seconds = 86400;
  m.want_notify = false;
  m.group = 30;
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MapRegister>(*decoded), m);
}

TEST(Messages, MapNotifyRoundTrip) {
  const MapNotify m{3, sample_eid(), {Rloc{Ipv4Address{10, 0, 0, 4}}}};
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MapNotify>(*decoded), m);
}

TEST(Messages, SmrRoundTrip) {
  const SolicitMapRequest m{sample_eid(), Ipv4Address{10, 0, 0, 6}};
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SolicitMapRequest>(*decoded), m);
}

TEST(Messages, SubscribeAndPublishRoundTrip) {
  const Subscribe s{Ipv4Address{10, 0, 0, 1}, 0};
  const auto ds = decode_message(encode_message(Message{s}));
  ASSERT_TRUE(ds.has_value());
  EXPECT_EQ(std::get<Subscribe>(*ds), s);

  Publish p;
  p.eid = sample_eid();
  p.rlocs = {Rloc{Ipv4Address{10, 0, 0, 2}}};
  p.ttl_seconds = 100;
  const auto dp = decode_message(encode_message(Message{p}));
  ASSERT_TRUE(dp.has_value());
  EXPECT_EQ(std::get<Publish>(*dp), p);
  EXPECT_FALSE(std::get<Publish>(*dp).withdrawal());

  Publish withdrawal;
  withdrawal.eid = sample_eid();
  const auto dw = decode_message(encode_message(Message{withdrawal}));
  ASSERT_TRUE(dw.has_value());
  EXPECT_TRUE(std::get<Publish>(*dw).withdrawal());
}

TEST(Messages, PublishSequenceNumberRoundTrip) {
  Publish p;
  p.eid = sample_eid();
  p.rlocs = {Rloc{Ipv4Address{10, 0, 0, 2}}};
  p.ttl_seconds = 100;
  p.seq = 0x0123456789ABCDEFull;  // exercises all eight bytes on the wire
  const auto decoded = decode_message(encode_message(Message{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<Publish>(*decoded).seq, p.seq);
  EXPECT_EQ(std::get<Publish>(*decoded), p);
}

TEST(Messages, Ipv6EidRoundTrip) {
  MapRequest m;
  m.eid = VnEid{VnId{2}, Eid{*net::Ipv6Address::parse("2001:db8::42")}};
  m.itr_rloc = Ipv4Address{10, 0, 0, 1};
  const auto decoded = decode_message(encode_message(Message{m}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MapRequest>(*decoded).eid, m.eid);
}

TEST(Messages, UnknownTypeTagRejected) {
  std::vector<std::uint8_t> bytes = {99, 0, 0, 0};
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Messages, EmptyInputRejected) {
  EXPECT_FALSE(decode_message({}).has_value());
}

TEST(Messages, EveryTruncationRejected) {
  MapReply m;
  m.nonce = 7;
  m.eid = sample_eid();
  m.rlocs = {Rloc{Ipv4Address{10, 0, 0, 2}}};
  const auto full = encode_message(Message{m});
  for (std::size_t len = 1; len < full.size(); ++len) {
    EXPECT_FALSE(decode_message({full.data(), len}).has_value()) << len;
  }
}

TEST(Messages, InvalidActionRejected) {
  MapReply m;
  m.eid = sample_eid();
  auto bytes = encode_message(Message{m});
  // action byte sits right after nonce(8) + vn(3) + family(1) + addr(4) +
  // rloc count(1); tag(1) first.
  const std::size_t action_offset = 1 + 8 + 3 + 1 + 4 + 1;
  bytes[action_offset] = 7;
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Messages, WireSizeMatchesEncoding) {
  MapRegister m;
  m.eid = sample_eid();
  m.rlocs = {Rloc{Ipv4Address{10, 0, 0, 9}}};
  EXPECT_EQ(m.wire_size(), encode_message(Message{m}).size());
}

TEST(Messages, TraceIdRoundTripsOnEveryCarryingMessage) {
  // The causal trace id is a trailing optional on all six control messages
  // that carry it; a nonzero id must survive encode/decode exactly.
  constexpr std::uint64_t kTrace = 0xFEEDFACE00C0FFEEull;

  MapRequest req{1, sample_eid(), Ipv4Address{10, 0, 0, 5}, false};
  req.trace = kTrace;
  EXPECT_EQ(std::get<MapRequest>(*decode_message(encode_message(Message{req}))).trace, kTrace);

  MapReply rep;
  rep.eid = sample_eid();
  rep.trace = kTrace;
  EXPECT_EQ(std::get<MapReply>(*decode_message(encode_message(Message{rep}))).trace, kTrace);

  MapRegister reg;
  reg.eid = sample_eid();
  reg.rlocs = {Rloc{Ipv4Address{10, 0, 0, 9}}};
  reg.trace = kTrace;
  EXPECT_EQ(std::get<MapRegister>(*decode_message(encode_message(Message{reg}))).trace, kTrace);

  MapNotify notify{3, sample_eid(), {Rloc{Ipv4Address{10, 0, 0, 4}}}};
  notify.epoch = 5;  // trace rides after the epoch fence field
  notify.trace = kTrace;
  const auto dn = std::get<MapNotify>(*decode_message(encode_message(Message{notify})));
  EXPECT_EQ(dn.trace, kTrace);
  EXPECT_EQ(dn.epoch, 5u);

  SolicitMapRequest smr{sample_eid(), Ipv4Address{10, 0, 0, 6}};
  smr.trace = kTrace;
  EXPECT_EQ(std::get<SolicitMapRequest>(*decode_message(encode_message(Message{smr}))).trace,
            kTrace);

  Publish pub;
  pub.eid = sample_eid();
  pub.rlocs = {Rloc{Ipv4Address{10, 0, 0, 2}}};
  pub.trace = kTrace;
  EXPECT_EQ(std::get<Publish>(*decode_message(encode_message(Message{pub}))).trace, kTrace);
}

TEST(Messages, ZeroTraceKeepsPreTraceWireFormat) {
  // trace == 0 must encode to exactly the pre-assurance byte stream: the
  // optional field is simply absent, so untraced fabrics interoperate with
  // recordings made before the field existed.
  MapRegister m;
  m.eid = sample_eid();
  m.rlocs = {Rloc{Ipv4Address{10, 0, 0, 9}}};
  const auto untraced = encode_message(Message{m});
  m.trace = 1;
  const auto traced = encode_message(Message{m});
  EXPECT_EQ(traced.size(), untraced.size() + 8);  // one trailing u64
  // The traced encoding is a strict extension: shared prefix is identical.
  EXPECT_TRUE(std::equal(untraced.begin(), untraced.end(), traced.begin()));
  // Decoding the untraced bytes yields trace == 0, not garbage.
  EXPECT_EQ(std::get<MapRegister>(*decode_message(untraced)).trace, 0u);
  // wire_size accounting agrees in both shapes.
  m.trace = 0;
  EXPECT_EQ(m.wire_size(), untraced.size());
  m.trace = 1;
  EXPECT_EQ(m.wire_size(), traced.size());
}

TEST(Messages, RequestAndReplyWireSizeMatchesEncoding) {
  // The fabric charges each Map-Request / Map-Reply leg wire_size() bytes
  // instead of encoding it: every EID family, locator count and trace
  // shape must agree with the encoder.
  const VnEid eids[] = {sample_eid(),
                        VnEid{VnId{7}, Eid{*net::Ipv6Address::parse("2001:db8::5")}},
                        VnEid{VnId{9}, Eid{net::MacAddress::from_u64(0x020000000042ull)}}};
  for (const VnEid& eid : eids) {
    for (const std::uint64_t trace : {std::uint64_t{0}, std::uint64_t{77}}) {
      const MapRequest request{5, eid, Ipv4Address{10, 0, 0, 5}, true, trace};
      EXPECT_EQ(request.wire_size(), encode_message(Message{request}).size());
      MapReply reply;
      reply.eid = eid;
      reply.trace = trace;
      for (std::size_t n = 0; n < 3; ++n) {
        EXPECT_EQ(reply.wire_size(), encode_message(Message{reply}).size());
        reply.rlocs.push_back(Rloc{Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(n + 2)}});
      }
    }
  }
}

TEST(Messages, EveryAlternativeWireSizeMatchesEncoding) {
  // The fabric charges every control leg wire_size() bytes instead of
  // encoding it. The round-trip corpus: each alternative over every EID
  // family, 0-2 locators and both trace shapes.
  const VnEid eids[] = {sample_eid(),
                        VnEid{VnId{7}, Eid{*net::Ipv6Address::parse("2001:db8::5")}},
                        VnEid{VnId{9}, Eid{net::MacAddress::from_u64(0x020000000042ull)}}};
  std::vector<Message> corpus{Message{Subscribe{Ipv4Address{10, 0, 0, 1}, 0}},
                              Message{Subscribe{Ipv4Address{10, 0, 0, 1}, 0xABCDEF}}};
  for (const VnEid& eid : eids) {
    for (const std::uint64_t trace : {std::uint64_t{0}, std::uint64_t{77}}) {
      corpus.emplace_back(MapRequest{5, eid, Ipv4Address{10, 0, 0, 5}, true, trace});
      corpus.emplace_back(SolicitMapRequest{eid, Ipv4Address{10, 0, 0, 6}, trace});
      std::vector<Rloc> rlocs;
      for (std::uint8_t n = 0; n < 3; ++n) {
        corpus.emplace_back(MapReply{7, eid, rlocs, MapReplyAction::NoAction, 60, 42, trace});
        corpus.emplace_back(MapRegister{11, eid, rlocs, 86400, false, 30, trace});
        corpus.emplace_back(MapNotify{3, eid, rlocs, 5, trace});
        corpus.emplace_back(Publish{eid, rlocs, 100, 0x0123456789ABCDEFull, 2, trace});
        rlocs.push_back(Rloc{Ipv4Address{10, 0, 0, static_cast<std::uint8_t>(n + 2)}});
      }
    }
  }
  std::vector<bool> seen(std::variant_size_v<Message>);
  for (const Message& m : corpus) {
    const std::size_t size = std::visit([](const auto& msg) { return msg.wire_size(); }, m);
    EXPECT_EQ(size, encode_message(m).size()) << message_type_name(m);
    seen[m.index()] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true), std::variant_size_v<Message>);
}

TEST(Messages, TypeNames) {
  EXPECT_EQ(message_type_name(Message{MapRequest{}}), "map-request");
  EXPECT_EQ(message_type_name(Message{MapReply{}}), "map-reply");
  EXPECT_EQ(message_type_name(Message{MapRegister{}}), "map-register");
  EXPECT_EQ(message_type_name(Message{MapNotify{}}), "map-notify");
  EXPECT_EQ(message_type_name(Message{SolicitMapRequest{}}), "smr");
  EXPECT_EQ(message_type_name(Message{Subscribe{}}), "subscribe");
  EXPECT_EQ(message_type_name(Message{Publish{}}), "publish");
}

}  // namespace
}  // namespace sda::lisp
