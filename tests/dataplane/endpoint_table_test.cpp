// The edge's endpoint table against a reference model: seeded random
// attach, detach, re-attach at another port, retag and reboot over two VNs
// whose hosts share IPv4 addresses, some with IPv6 and MAC identities too.
// After every operation each lookup (by MAC, by recorded slot, by every
// identity, and the VRF's port and group) must agree with a std::map. The
// population stays under a dozen hosts, so the identity and MAC indexes
// stay at 16-32 entries and their probe clusters wrap around the end.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dataplane/edge_router.hpp"
#include "sim/random.hpp"

namespace sda::dataplane {
namespace {

using net::GroupId;
using net::MacAddress;
using net::VnEid;
using net::VnId;

constexpr std::size_t kHosts = 12;

struct Attachment {
  PortId port = 0;
  GroupId group;
};

std::vector<AttachedEndpoint> make_hosts() {
  std::vector<AttachedEndpoint> hosts(kHosts);
  for (std::size_t h = 0; h < kHosts; ++h) {
    AttachedEndpoint& e = hosts[h];
    e.mac = MacAddress::from_u64(0x0200'0000'0000ull + h);
    e.vn = VnId{static_cast<std::uint32_t>(1 + h % 2)};
    // Hosts 2k and 2k+1 share an IPv4 address, one in each VN.
    e.ip = net::Ipv4Address{static_cast<std::uint32_t>(0x0A00'0000u + h / 2)};
    if (h % 3 == 0) {
      e.ipv6 = *net::Ipv6Address::parse("2001:db8::" + std::to_string(h / 2 + 1));
    }
    e.register_mac = h % 4 < 2;
    e.credential = "host" + std::to_string(h);
  }
  return hosts;
}

class Model {
 public:
  Model(EdgeRouter& edge, const std::vector<AttachedEndpoint>& hosts)
      : edge_(edge), hosts_(hosts), slots_(hosts.size(), VrfSet::kNoSlot) {}

  void attach(std::size_t h, PortId port, GroupId group) {
    AttachedEndpoint e = hosts_[h];
    e.port = port;
    e.group = group;
    slots_[h] = edge_.attach_endpoint(e);
    attached_[h] = {port, group};
  }
  void detach(std::size_t h, bool deregister) {
    edge_.detach_endpoint(hosts_[h].mac, deregister);
    attached_.erase(h);
  }
  void retag(std::size_t h, GroupId group) {
    EXPECT_EQ(edge_.retag_endpoint(hosts_[h].mac, group), attached_.contains(h));
    if (const auto it = attached_.find(h); it != attached_.end()) it->second.group = group;
  }
  void reboot() {
    edge_.reboot();
    attached_.clear();
  }
  [[nodiscard]] bool attached(std::size_t h) const { return attached_.contains(h); }

  /// Every lookup the edge offers, for every host, against the model.
  void check(const std::string& step) const {
    SCOPED_TRACE(step);
    ASSERT_EQ(edge_.endpoint_count(), attached_.size());
    std::size_t identities = 0;
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      const AttachedEndpoint& host = hosts_[h];
      const auto it = attached_.find(h);
      const AttachedEndpoint* by_mac = edge_.find_endpoint(host.mac);
      if (it == attached_.end()) {
        EXPECT_EQ(by_mac, nullptr) << "host " << h;
        EXPECT_EQ(edge_.vrf().at(slots_[h], host.mac), nullptr) << "host " << h;
      } else {
        ASSERT_NE(by_mac, nullptr) << "host " << h;
        EXPECT_EQ(by_mac->port, it->second.port);
        EXPECT_EQ(by_mac->group, it->second.group);
        EXPECT_EQ(by_mac->ip, host.ip);
        EXPECT_EQ(by_mac->vn, host.vn);
        EXPECT_EQ(edge_.vrf().at(slots_[h], host.mac), by_mac) << "host " << h;
      }
      for_each_identity(host, [&](const VnEid& eid) {
        const AttachedEndpoint* found = edge_.find_endpoint(eid);
        EXPECT_EQ(found, by_mac) << "host " << h << " " << eid.eid.to_string();
        if (it == attached_.end()) return;
        ++identities;
        const AttachedEndpoint* vrf = edge_.vrf().lookup(eid);
        ASSERT_NE(vrf, nullptr);
        EXPECT_EQ(vrf->port, it->second.port);
        EXPECT_EQ(vrf->group, it->second.group);
        EXPECT_EQ(vrf->mac, host.mac);
      });
    }
    EXPECT_EQ(edge_.vrf().size(), identities);
  }

 private:
  EdgeRouter& edge_;
  const std::vector<AttachedEndpoint>& hosts_;
  std::vector<VrfSet::Slot> slots_;  // the slot each host last attached in
  std::map<std::size_t, Attachment> attached_;
};

TEST(EndpointTable, MatchesReferenceModelUnderChurn) {
  const std::vector<AttachedEndpoint> hosts = make_hosts();
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Simulator simulator;
    EdgeRouterConfig config;
    config.name = "e0";
    config.rloc = net::Ipv4Address{0x0A01'0001u};
    EdgeRouter edge(simulator, config);
    Model model(edge, hosts);
    sim::Rng rng(seed);
    const auto any_host = [&] { return static_cast<std::size_t>(rng.next_below(kHosts)); };
    const auto any_port = [&] { return static_cast<PortId>(1 + rng.next_below(48)); };
    const auto any_group = [&] {
      return GroupId{static_cast<std::uint16_t>(10 + rng.next_below(4))};
    };
    for (int step = 0; step < 2000; ++step) {
      const std::uint64_t op = rng.next_below(100);
      const std::size_t h = any_host();
      std::string what;
      if (op < 40) {
        what = "attach";
        model.attach(h, any_port(), any_group());
      } else if (op < 55 && model.attached(h)) {
        what = "re-attach at another port";
        const AttachedEndpoint& now = *edge.find_endpoint(hosts[h].mac);
        model.attach(h, static_cast<PortId>(now.port % 48 + 1), now.group);
      } else if (op < 80) {
        what = "detach";
        model.detach(h, rng.next_below(2) == 0);
      } else if (op < 98) {
        what = "retag";
        model.retag(h, any_group());
      } else {
        what = "reboot";
        model.reboot();
      }
      model.check("step " + std::to_string(step) + ": " + what + " host " + std::to_string(h));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace sda::dataplane
