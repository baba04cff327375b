// LISP control-plane messages (modeled on draft-ietf-lisp-rfc6833bis and
// draft-ietf-lisp-pubsub, simplified to the fields SDA uses).
//
// The simulator passes these as structured values; encode/decode to wire
// bytes exists for every message and is exercised by tests so the
// structured model stays faithful to a real implementation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/buffer.hpp"
#include "net/eid.hpp"
#include "sim/time.hpp"

namespace sda::lisp {

enum class MessageType : std::uint8_t {
  MapRequest = 1,
  MapReply = 2,
  MapRegister = 3,
  MapNotify = 4,
  SolicitMapRequest = 5,  // the data-triggered stale-entry refresh (Fig. 6)
  Subscribe = 6,
  Publish = 7,
};

/// Negative-reply actions (what an ITR should do on a miss).
enum class MapReplyAction : std::uint8_t {
  NoAction = 0,
  NativelyForward = 1,  // SDA: fall back to the border default route
  Drop = 2,
};

struct MapRequest {
  std::uint64_t nonce = 0;
  net::VnEid eid;
  net::Ipv4Address itr_rloc;  // where to send the reply
  bool smr_invoked = false;   // set when triggered by an SMR
  /// Causal trace id (assurance plane). Encoded as a trailing optional
  /// field only when nonzero, so the wire format is unchanged when tracing
  /// is off. 0 = untraced.
  std::uint64_t trace = 0;

  /// The encoded size, tag byte included, computed without encoding.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::ByteWriter& w) const;
  [[nodiscard]] static std::optional<MapRequest> decode(net::ByteReader& r);
  friend bool operator==(const MapRequest&, const MapRequest&) = default;
};

struct MapReply {
  std::uint64_t nonce = 0;
  net::VnEid eid;
  std::vector<net::Rloc> rlocs;  // empty for a negative reply
  MapReplyAction action = MapReplyAction::NoAction;
  std::uint32_t ttl_seconds = 1440 * 60;
  std::uint16_t group = 0;  // destination SGT when distributed (§5.3 ablation)
  /// Causal trace id, copied from the Map-Request being answered. Trailing
  /// optional on the wire; 0 = untraced.
  std::uint64_t trace = 0;

  [[nodiscard]] bool negative() const { return rlocs.empty(); }

  /// The encoded size, tag byte included, computed without encoding.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::ByteWriter& w) const;
  [[nodiscard]] static std::optional<MapReply> decode(net::ByteReader& r);
  friend bool operator==(const MapReply&, const MapReply&) = default;
};

struct MapRegister {
  std::uint64_t nonce = 0;
  net::VnEid eid;
  std::vector<net::Rloc> rlocs;
  std::uint32_t ttl_seconds = 1440 * 60;
  bool want_notify = true;
  std::uint16_t group = 0;  // endpoint SGT when distributed (§5.3 ablation)
  /// Causal trace id of the registration operation. Trailing optional on
  /// the wire; 0 = untraced.
  std::uint64_t trace = 0;

  /// The encoded size, tag byte included, computed without encoding.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::ByteWriter& w) const;
  [[nodiscard]] static std::optional<MapRegister> decode(net::ByteReader& r);
  friend bool operator==(const MapRegister&, const MapRegister&) = default;
};

/// Sent by the map server: acks a registration, and — on a mobility event —
/// tells the *previous* edge router that the EID moved (Fig. 5 step 2).
struct MapNotify {
  std::uint64_t nonce = 0;
  net::VnEid eid;
  std::vector<net::Rloc> rlocs;  // the new locator set
  /// Election epoch of the sending routing server (split-brain fence): a
  /// receiver that has observed a newer epoch rejects the notify, so a
  /// deposed primary cannot ack registers. 0 = unfenced (no election).
  std::uint64_t epoch = 0;
  /// Causal trace id: the registration op being acked, or the move op for
  /// a mobility notify. Trailing optional on the wire; 0 = untraced.
  std::uint64_t trace = 0;

  /// The encoded size, tag byte included, computed without encoding.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::ByteWriter& w) const;
  [[nodiscard]] static std::optional<MapNotify> decode(net::ByteReader& r);
  friend bool operator==(const MapNotify&, const MapNotify&) = default;
};

/// Data-triggered control message (Fig. 6): the old edge router, on seeing
/// traffic for a departed EID, tells the *sender* to re-resolve.
struct SolicitMapRequest {
  net::VnEid eid;
  net::Ipv4Address source_rloc;  // who is soliciting
  /// Causal trace id of the SMR fan-out op. Trailing optional; 0 = untraced.
  std::uint64_t trace = 0;

  /// The encoded size, tag byte included, computed without encoding.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::ByteWriter& w) const;
  [[nodiscard]] static std::optional<SolicitMapRequest> decode(net::ByteReader& r);
  friend bool operator==(const SolicitMapRequest&, const SolicitMapRequest&) = default;
};

/// Border routers subscribe to the full mapping feed (draft-ietf-lisp-pubsub;
/// the "sync" arrow of Fig. 1).
struct Subscribe {
  net::Ipv4Address subscriber_rloc;
  std::uint32_t vn = 0;  // 0 = all VNs

  /// The encoded size, tag byte included, computed without encoding.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::ByteWriter& w) const;
  [[nodiscard]] static std::optional<Subscribe> decode(net::ByteReader& r);
  friend bool operator==(const Subscribe&, const Subscribe&) = default;
};

struct Publish {
  net::VnEid eid;
  std::vector<net::Rloc> rlocs;  // empty = withdrawal
  std::uint32_t ttl_seconds = 1440 * 60;
  /// Feed sequence number (1-based, strictly increasing per feed). A
  /// subscriber that observes a gap lost an update and must pull a
  /// snapshot. 0 = unsequenced (direct injection in tests).
  std::uint64_t seq = 0;
  /// Election epoch of the publishing routing server (split-brain fence):
  /// subscribers reject pushes from a stale epoch and re-home to the new
  /// leader on a higher one. 0 = unfenced (no election).
  std::uint64_t epoch = 0;
  /// Causal trace id of the move op that produced this update. Trailing
  /// optional on the wire; 0 = untraced.
  std::uint64_t trace = 0;

  [[nodiscard]] bool withdrawal() const { return rlocs.empty(); }

  /// The encoded size, tag byte included, computed without encoding.
  [[nodiscard]] std::size_t wire_size() const;
  void encode(net::ByteWriter& w) const;
  [[nodiscard]] static std::optional<Publish> decode(net::ByteReader& r);
  friend bool operator==(const Publish&, const Publish&) = default;
};

using Message = std::variant<MapRequest, MapReply, MapRegister, MapNotify, SolicitMapRequest,
                             Subscribe, Publish>;

/// Serializes any control message with a one-byte type tag.
[[nodiscard]] std::vector<std::uint8_t> encode_message(const Message& message);
[[nodiscard]] std::optional<Message> decode_message(std::span<const std::uint8_t> bytes);

[[nodiscard]] std::string message_type_name(const Message& message);

}  // namespace sda::lisp
