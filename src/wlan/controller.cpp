#include "wlan/controller.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include "telemetry/metrics.hpp"


namespace sda::wlan {

WlanController::WlanController(fabric::SdaFabric& fabric, WlanConfig config)
    : fabric_(fabric),
      config_(std::move(config)),
      cpu_free_at_(kWorkers, sim::SimTime::zero()) {
  // Fail fast if the anchor edge does not exist.
  (void)fabric_.edge(config_.controller_edge);
}

void WlanController::add_access_point(const AccessPointConfig& ap) {
  (void)fabric_.edge(ap.edge);  // must exist
  aps_[ap.name] = ap;
}

sim::SimTime WlanController::reserve_cpu(sim::Duration service) {
  auto it = std::min_element(cpu_free_at_.begin(), cpu_free_at_.end());
  const sim::SimTime start = std::max(*it, fabric_.simulator().now());
  const sim::SimTime finish = start + service;
  *it = finish;
  return finish;
}

const std::string& WlanController::ingress_edge(const std::string& ap) const {
  return config_.mode == DataPlaneMode::Centralized ? config_.controller_edge
                                                    : aps_.at(ap).edge;
}

void WlanController::associate(const std::string& credential, const std::string& ap,
                               AssociationCallback callback) {
  const auto it = aps_.find(ap);
  if (it == aps_.end()) throw std::invalid_argument("unknown AP: " + ap);
  ++stats_.associations;
  const sim::SimTime started = fabric_.simulator().now();

  // Association + 802.1X exchange serialized through the controller CPU.
  const sim::SimTime ready = reserve_cpu(kAssociationProcessing);
  fabric_.simulator().schedule_at(ready, [this, credential, ap, started,
                                          cb = std::move(callback)] {
    fabric_.connect_endpoint(
        credential, ingress_edge(ap), aps_.at(ap).port,
        [this, credential, ap, started, cb](const fabric::OnboardResult& r) {
          if (r.success) stations_[r.mac] = Station{credential, ap};
          if (cb) {
            cb(AssociationResult{r.success, ap, r.ip, fabric_.simulator().now() - started});
          }
        });
  });
}

void WlanController::roam(const net::MacAddress& mac, const std::string& ap,
                          AssociationCallback callback) {
  const auto station = stations_.find(mac);
  if (station == stations_.end()) throw std::invalid_argument("unknown station");
  if (aps_.find(ap) == aps_.end()) throw std::invalid_argument("unknown AP: " + ap);
  ++stats_.roams;
  const sim::SimTime started = fabric_.simulator().now();

  if (config_.mode == DataPlaneMode::Centralized) {
    // The anchor never moves: only the AP-side tunnel endpoint changes.
    // Key hand-off still costs controller CPU.
    const sim::SimTime ready = reserve_cpu(kAssociationProcessing / 2);
    fabric_.simulator().schedule_at(ready, [this, mac, ap, started, cb = std::move(callback)] {
      stations_.at(mac).ap = ap;
      if (cb) {
        AssociationResult result;
        result.success = true;
        result.ap = ap;
        result.elapsed = fabric_.simulator().now() - started;
        cb(result);
      }
    });
    return;
  }

  // Distributed: 802.11r fast transition, then L3 re-registration at the
  // new AP's edge (Fig. 5 machinery).
  const sim::SimTime ready = reserve_cpu(kAssociationProcessing / 2);
  fabric_.simulator().schedule_at(ready, [this, mac, ap, started, cb = std::move(callback)] {
    fabric_.roam_endpoint(mac, aps_.at(ap).edge, aps_.at(ap).port,
                          [this, mac, ap, started, cb](const fabric::OnboardResult& r) {
                            if (r.success) stations_.at(mac).ap = ap;
                            if (cb) {
                              cb(AssociationResult{r.success, ap, r.ip,
                                                   fabric_.simulator().now() - started});
                            }
                          });
  });
}

void WlanController::disassociate(const net::MacAddress& mac) {
  if (stations_.erase(mac) > 0) fabric_.disconnect_endpoint(mac);
}

bool WlanController::station_send_udp(const net::MacAddress& mac, net::Ipv4Address destination,
                                      std::uint16_t dport, std::uint16_t payload_bytes) {
  const auto station = stations_.find(mac);
  if (station == stations_.end()) return false;

  if (config_.mode == DataPlaneMode::Distributed) {
    return fabric_.endpoint_send_udp(mac, destination, dport, payload_bytes);
  }

  // Centralized: the frame tunnels from the AP's edge to the controller
  // anchor across the underlay, queues on the controller CPU, and only
  // then enters the overlay (triangular routing + bottleneck, §2).
  const AccessPointConfig& ap = aps_.at(station->second.ap);
  const auto ap_node = fabric_.edge(ap.edge).config().node;
  const auto anchor_rloc = fabric_.edge(config_.controller_edge).rloc();
  const auto tunnel = fabric_.underlay().transit_delay(
      ap_node, anchor_rloc, mac.to_u64(), payload_bytes + 50u /* CAPWAP-ish overhead */);
  if (!tunnel) return false;

  ++stats_.frames_tunneled;
  stats_.bytes_tunneled += payload_bytes;
  fabric_.simulator().schedule_after(*tunnel, [this, mac, destination, dport, payload_bytes] {
    const sim::SimTime done = reserve_cpu(kFrameProcessing);
    stats_.busy_time += kFrameProcessing;
    fabric_.simulator().schedule_at(done, [this, mac, destination, dport, payload_bytes] {
      fabric_.endpoint_send_udp(mac, destination, dport, payload_bytes);
    });
  });
  return true;
}

void WlanController::set_station_delivery_listener(StationDeliveryListener listener) {
  fabric_.set_delivery_listener([this, listener = std::move(listener)](
                                    const dataplane::AttachedEndpoint& endpoint,
                                    const net::OverlayFrame& frame, sim::SimTime at) {
    const auto station = stations_.find(endpoint.mac);
    if (station == stations_.end() || config_.mode == DataPlaneMode::Distributed) {
      listener(endpoint, frame, at);
      return;
    }
    // Centralized: the frame arrived at the anchor; it still has to tunnel
    // down to the station's AP (controller CPU + underlay transit).
    const AccessPointConfig& ap = aps_.at(station->second.ap);
    const auto anchor_node = fabric_.edge(config_.controller_edge).config().node;
    const auto ap_rloc = fabric_.edge(ap.edge).rloc();
    const auto down = fabric_.underlay().transit_delay(anchor_node, ap_rloc,
                                                       endpoint.mac.to_u64(),
                                                       frame.wire_size() + 50u);
    ++stats_.frames_tunneled;
    stats_.busy_time += kFrameProcessing;
    const sim::SimTime cpu_done = reserve_cpu(kFrameProcessing);
    const sim::SimTime delivered_at = down ? cpu_done + *down : cpu_done;
    fabric_.simulator().schedule_at(delivered_at, [listener, endpoint, frame, delivered_at] {
      listener(endpoint, frame, delivered_at);
    });
  });
}

std::optional<std::string> WlanController::ap_of(const net::MacAddress& mac) const {
  const auto it = stations_.find(mac);
  if (it == stations_.end()) return std::nullopt;
  return it->second.ap;
}

void WlanController::register_metrics(telemetry::MetricsRegistry& registry,
                                      const std::string& prefix) const {
  registry.register_counter(telemetry::join(prefix, "associations"),
                            [this] { return stats_.associations; });
  registry.register_counter(telemetry::join(prefix, "roams"), [this] { return stats_.roams; });
  registry.register_counter(telemetry::join(prefix, "frames_tunneled"),
                            [this] { return stats_.frames_tunneled; });
  registry.register_counter(telemetry::join(prefix, "bytes_tunneled"),
                            [this] { return stats_.bytes_tunneled; });
  registry.register_gauge(telemetry::join(prefix, "busy_seconds"), [this] {
    return std::chrono::duration<double>(stats_.busy_time).count();
  });
}

}  // namespace sda::wlan
