// Wireless LAN layer: access points + a centralized WLAN controller.
//
// The paper (§2 "Mobility", Table 1) contrasts two architectures:
//   * the traditional one — the WLAN controller is a *sink* for all
//     wireless traffic (centralized control AND data plane): every frame
//     tunnels from the AP to the controller before entering the network,
//     creating triangular routing and a scalability bottleneck;
//   * SDA's — the control plane stays centralized (association,
//     authentication, key caching for 802.11r fast transitions), but data
//     is routed directly from the AP's edge router (distributed data
//     plane).
// This module implements both modes against the same SdaFabric so the
// trade-off can be measured (bench_ablation_wlan_dataplane).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "fabric/fabric.hpp"

namespace sda::telemetry {
class MetricsRegistry;
}

namespace sda::wlan {

enum class DataPlaneMode {
  Distributed,  // SDA: AP traffic enters the fabric at the local edge
  Centralized,  // legacy: AP traffic tunnels to the controller anchor first
};

struct AccessPointConfig {
  std::string name;
  std::string edge;  // the edge router this AP is wired to
  dataplane::PortId port = 1;
};

struct WlanConfig {
  DataPlaneMode mode = DataPlaneMode::Distributed;
  /// Edge hosting the controller (and anchoring traffic in centralized
  /// mode). Must exist in the fabric.
  std::string controller_edge;
};

/// Result of an association (wraps fabric onboarding).
struct AssociationResult {
  bool success = false;
  std::string ap;
  net::Ipv4Address ip;
  sim::Duration elapsed{};
};

class WlanController {
 public:
  using AssociationCallback = std::function<void(const AssociationResult&)>;

  WlanController(fabric::SdaFabric& fabric, WlanConfig config);

  void add_access_point(const AccessPointConfig& ap);

  /// Associates a provisioned endpoint with an AP: the controller runs the
  /// (capacity-limited) association/auth exchange, then the station
  /// onboards — at the AP's edge in distributed mode, at the controller's
  /// anchor edge in centralized mode.
  void associate(const std::string& credential, const std::string& ap,
                 AssociationCallback callback = {});

  /// Roams a station to another AP. Distributed mode pays the fabric
  /// re-registration (802.11r fast re-auth); centralized mode only moves
  /// the tunnel endpoint (the anchor never changes).
  void roam(const net::MacAddress& mac, const std::string& ap,
            AssociationCallback callback = {});

  void disassociate(const net::MacAddress& mac);

  /// Sends a UDP datagram from an associated station. In centralized mode
  /// the frame first tunnels AP-edge -> controller (queueing at the
  /// controller CPU) before entering the overlay.
  bool station_send_udp(const net::MacAddress& mac, net::Ipv4Address destination,
                        std::uint16_t dport, std::uint16_t payload_bytes);

  [[nodiscard]] std::optional<std::string> ap_of(const net::MacAddress& mac) const;
  [[nodiscard]] std::size_t station_count() const { return stations_.size(); }

  /// Station-level delivery listener: fires when a frame reaches the
  /// *station over the air*, i.e. including the anchor->AP downstream
  /// tunnel in centralized mode. Takes over the fabric's delivery-listener
  /// slot; non-station deliveries pass through with no added delay.
  using StationDeliveryListener =
      std::function<void(const dataplane::AttachedEndpoint&, const net::OverlayFrame&,
                         sim::SimTime)>;
  void set_station_delivery_listener(StationDeliveryListener listener);

  struct Stats {
    std::uint64_t associations = 0;
    std::uint64_t roams = 0;
    std::uint64_t frames_tunneled = 0;   // data frames through the controller
    std::uint64_t bytes_tunneled = 0;
    sim::Duration busy_time{};           // controller CPU consumed by data
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] DataPlaneMode mode() const { return config_.mode; }

  /// Registers pull probes for the stats fields (busy_time exported as a
  /// busy_seconds gauge) under `prefix` (e.g. "wlan"). Probes capture `this`.
  void register_metrics(telemetry::MetricsRegistry& registry, const std::string& prefix) const;

 private:
  struct Station {
    std::string credential;
    std::string ap;
  };

  /// Controller CPU per association / key exchange.
  static constexpr sim::Duration kAssociationProcessing = std::chrono::milliseconds{1};
  /// Controller CPU per tunneled data frame (centralized mode only) —
  /// this is the §2 scalability bottleneck.
  static constexpr sim::Duration kFrameProcessing = std::chrono::microseconds{8};
  /// Controller CPU cores the association and frame work queue on.
  static constexpr std::size_t kWorkers = 4;

  /// Reserves controller CPU; returns the completion time.
  sim::SimTime reserve_cpu(sim::Duration service);

  /// The edge a station's traffic enters the fabric at, per mode.
  [[nodiscard]] const std::string& ingress_edge(const std::string& ap) const;

  fabric::SdaFabric& fabric_;
  WlanConfig config_;
  std::unordered_map<std::string, AccessPointConfig> aps_;
  std::unordered_map<net::MacAddress, Station> stations_;
  std::vector<sim::SimTime> cpu_free_at_;
  Stats stats_;
};

}  // namespace sda::wlan
