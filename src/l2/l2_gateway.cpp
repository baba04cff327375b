#include "l2/l2_gateway.hpp"
#include "telemetry/metrics.hpp"


namespace sda::l2 {

void L2Gateway::handle_broadcast(dataplane::EdgeRouter& router,
                                 const dataplane::AttachedEndpoint& source,
                                 const net::OverlayFrame& frame) {
  if (!frame.is_arp() || frame.arp().op != net::ArpPacket::Op::Request) {
    ++counters_.non_arp_broadcast;  // absorbed: broadcast never enters the fabric
    return;
  }
  ++counters_.arp_requests;

  const net::VnEid target_ip_eid{source.vn, net::Eid{frame.arp().target_ip}};

  // Fast path: target attached to the same edge — answer via the local L2
  // pipeline. The frame already passed the source port's ingress checks
  // (its VLAN tag is stripped), so it must not run them again.
  if (const dataplane::AttachedEndpoint* local = router.find_endpoint(target_ip_eid)) {
    ++counters_.answered_locally;
    net::OverlayFrame unicast = frame;
    unicast.destination_mac = local->mac;
    auto& arp = std::get<net::ArpPacket>(unicast.l3);
    arp.target_mac = local->mac;
    router.forward_by_mac(source, unicast);
    return;
  }

  const net::MacAddress source_mac = source.mac;
  lookup_mac_(router.rloc(), target_ip_eid,
              [this, &router, source_mac, frame,
               vn = source.vn](std::optional<net::MacAddress> mac) {
    if (!mac) {
      ++counters_.unknown_target;  // no binding: silently absorbed
      return;
    }
    // Unicast conversion (§3.5): replace the broadcast MAC with the bound
    // one and push the frame through the L2 pipeline toward its edge.
    net::OverlayFrame unicast = frame;
    unicast.destination_mac = *mac;
    auto& arp = std::get<net::ArpPacket>(unicast.l3);
    arp.target_mac = *mac;
    ++counters_.converted_unicast;

    const net::VnEid mac_eid{vn, net::Eid{*mac}};
    lookup_rloc_(router.rloc(), mac_eid,
                 [this, &router, source_mac, unicast](std::optional<net::Ipv4Address> rloc) {
      const dataplane::AttachedEndpoint* src = router.find_endpoint(source_mac);
      if (!src) return;  // source detached while resolving
      if (rloc) {
        router.transmit_l2(*src, unicast, *rloc);
      } else {
        // RLOC unknown: let the router's resolve-and-buffer L2 path try.
        router.forward_by_mac(*src, unicast);
      }
    });
  });
}

void L2Gateway::register_metrics(telemetry::MetricsRegistry& registry,
                                 const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "arp_requests"),
                            [this] { return counters_.arp_requests; });
  registry.register_counter(telemetry::join(prefix, "converted_unicast"),
                            [this] { return counters_.converted_unicast; });
  registry.register_counter(telemetry::join(prefix, "answered_locally"),
                            [this] { return counters_.answered_locally; });
  registry.register_counter(telemetry::join(prefix, "unknown_target"),
                            [this] { return counters_.unknown_target; });
  registry.register_counter(telemetry::join(prefix, "non_arp_broadcast"),
                            [this] { return counters_.non_arp_broadcast; });
}

}  // namespace sda::l2
