// Fuzz-style robustness: random and mutated byte strings must never crash
// the control-plane codecs, and valid messages must survive mutation
// checks (decode either fails cleanly or yields a re-encodable message).
#include <gtest/gtest.h>

#include "lisp/messages.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"

namespace sda::lisp {
namespace {

struct FuzzCase {
  std::uint64_t seed;
  std::int64_t iterations;
};

// Test names carry this printout instead of the struct's raw bytes.
void PrintTo(const FuzzCase& c, std::ostream* os) {
  *os << "seed" << c.seed << "_iters" << c.iterations;
}

class MessageFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MessageFuzz, RandomBytesNeverCrash) {
  sim::Rng rng{GetParam().seed};
  int decoded_ok = 0;
  for (int i = 0; i < GetParam().iterations; ++i) {
    std::vector<std::uint8_t> bytes(rng.next_below(120));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto message = decode_message(bytes);
    if (message) {
      ++decoded_ok;
      // Anything that decodes must re-encode without crashing.
      const auto re = encode_message(*message);
      EXPECT_FALSE(re.empty());
    }
  }
  // Random bytes rarely form a valid message; mostly they are rejected.
  EXPECT_LT(decoded_ok, GetParam().iterations / 4);
}

TEST_P(MessageFuzz, MutatedValidMessagesNeverCrash) {
  sim::Rng rng{GetParam().seed ^ 0xF00D};
  MapReply reply;
  reply.nonce = 7;
  reply.eid = net::VnEid{net::VnId{100}, net::Eid{net::Ipv4Address{10, 1, 2, 3}}};
  reply.rlocs = {net::Rloc{net::Ipv4Address{10, 0, 0, 1}},
                 net::Rloc{net::Ipv4Address{10, 0, 0, 2}}};
  const auto base = encode_message(Message{reply});

  for (int i = 0; i < GetParam().iterations; ++i) {
    auto mutated = base;
    // 1-3 random byte mutations, possibly a truncation or extension.
    const auto mutations = 1 + rng.next_below(3);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      mutated[rng.next_below(mutated.size())] =
          static_cast<std::uint8_t>(rng.next_below(256));
    }
    if (rng.chance(0.3)) mutated.resize(rng.next_below(mutated.size()) + 1);
    if (rng.chance(0.2)) mutated.push_back(static_cast<std::uint8_t>(rng.next_below(256)));

    const auto message = decode_message(mutated);
    if (message) {
      const auto re = encode_message(*message);
      EXPECT_FALSE(re.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzz,
                         ::testing::Values(FuzzCase{1, 3000}, FuzzCase{2, 3000},
                                           FuzzCase{3, 3000}));

TEST(FrameFuzz, RandomBytesNeverCrashFrameDecoders) {
  sim::Rng rng{99};
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> bytes(rng.next_below(200));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)net::OverlayFrame::decode(bytes);
    (void)net::FabricFrame::decode(bytes);
  }
  SUCCEED();
}

}  // namespace
}  // namespace sda::lisp
