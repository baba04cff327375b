#include "lisp/messages.hpp"

namespace sda::lisp {

namespace {

void encode_rlocs(net::ByteWriter& w, const std::vector<net::Rloc>& rlocs) {
  w.write_u8(static_cast<std::uint8_t>(rlocs.size()));
  for (const auto& r : rlocs) r.encode(w);
}

std::optional<std::vector<net::Rloc>> decode_rlocs(net::ByteReader& r) {
  const auto count = r.read_u8();
  if (!count) return std::nullopt;
  std::vector<net::Rloc> rlocs;
  rlocs.reserve(*count);
  for (std::uint8_t i = 0; i < *count; ++i) {
    const auto rloc = net::Rloc::decode(r);
    if (!rloc) return std::nullopt;
    rlocs.push_back(*rloc);
  }
  return rlocs;
}

// The causal trace id is a *trailing optional* field: written only when
// nonzero, so an untraced message is byte-identical to the pre-assurance
// wire format, and a pre-assurance decoder simply ignores the extra tail.
void encode_trace(net::ByteWriter& w, std::uint64_t trace) {
  if (trace != 0) w.write_u64(trace);
}

std::uint64_t decode_trace(net::ByteReader& r) {
  const auto trace = r.read_u64();
  return trace ? *trace : 0;
}

// Encoded sizes of the shared fields (see the encoders below).
constexpr std::size_t kTagBytes = 1;
constexpr std::size_t kRlocBytes = 6;

std::size_t vn_eid_wire_size(const net::VnEid& eid) {
  std::size_t address = 6;  // MAC
  if (eid.eid.family() == net::EidFamily::Ipv4) address = 4;
  if (eid.eid.family() == net::EidFamily::Ipv6) address = 16;
  return 3 + 1 + address;  // u24 VN, family byte, address
}

std::size_t trace_wire_size(std::uint64_t trace) { return trace != 0 ? 8 : 0; }

std::size_t rlocs_wire_size(const std::vector<net::Rloc>& rlocs) {
  return 1 + kRlocBytes * rlocs.size();  // count byte, then the locators
}

}  // namespace

std::size_t MapRequest::wire_size() const {
  return kTagBytes + 8 + vn_eid_wire_size(eid) + 4 + 1 + trace_wire_size(trace);
}

std::size_t MapReply::wire_size() const {
  return kTagBytes + 8 + vn_eid_wire_size(eid) + rlocs_wire_size(rlocs) + 1 + 4 + 2 +
         trace_wire_size(trace);
}

std::size_t MapRegister::wire_size() const {
  return kTagBytes + 8 + vn_eid_wire_size(eid) + rlocs_wire_size(rlocs) + 4 + 1 + 2 +
         trace_wire_size(trace);
}

std::size_t MapNotify::wire_size() const {
  return kTagBytes + 8 + vn_eid_wire_size(eid) + rlocs_wire_size(rlocs) + 8 +
         trace_wire_size(trace);
}

std::size_t SolicitMapRequest::wire_size() const {
  return kTagBytes + vn_eid_wire_size(eid) + 4 + trace_wire_size(trace);
}

std::size_t Subscribe::wire_size() const { return kTagBytes + 4 + 3; }

std::size_t Publish::wire_size() const {
  return kTagBytes + vn_eid_wire_size(eid) + rlocs_wire_size(rlocs) + 4 + 8 + 8 +
         trace_wire_size(trace);
}

void MapRequest::encode(net::ByteWriter& w) const {
  w.write_u64(nonce);
  eid.encode(w);
  w.write_array(itr_rloc.bytes());
  w.write_u8(smr_invoked ? 1 : 0);
  encode_trace(w, trace);
}

std::optional<MapRequest> MapRequest::decode(net::ByteReader& r) {
  const auto nonce = r.read_u64();
  if (!nonce) return std::nullopt;
  const auto eid = net::VnEid::decode(r);
  const auto itr = r.read_array<4>();
  const auto smr = r.read_u8();
  if (!eid || !itr || !smr) return std::nullopt;
  return MapRequest{*nonce, *eid, net::Ipv4Address::from_bytes(*itr), *smr != 0,
                    decode_trace(r)};
}

void MapReply::encode(net::ByteWriter& w) const {
  w.write_u64(nonce);
  eid.encode(w);
  encode_rlocs(w, rlocs);
  w.write_u8(static_cast<std::uint8_t>(action));
  w.write_u32(ttl_seconds);
  w.write_u16(group);
  encode_trace(w, trace);
}

std::optional<MapReply> MapReply::decode(net::ByteReader& r) {
  const auto nonce = r.read_u64();
  if (!nonce) return std::nullopt;
  const auto eid = net::VnEid::decode(r);
  if (!eid) return std::nullopt;
  auto rlocs = decode_rlocs(r);
  const auto action = r.read_u8();
  const auto ttl = r.read_u32();
  const auto group = r.read_u16();
  if (!rlocs || !action || !ttl || !group || *action > 2) return std::nullopt;
  return MapReply{*nonce,        *eid, std::move(*rlocs), static_cast<MapReplyAction>(*action),
                  *ttl,          *group, decode_trace(r)};
}

void MapRegister::encode(net::ByteWriter& w) const {
  w.write_u64(nonce);
  eid.encode(w);
  encode_rlocs(w, rlocs);
  w.write_u32(ttl_seconds);
  w.write_u8(want_notify ? 1 : 0);
  w.write_u16(group);
  encode_trace(w, trace);
}

std::optional<MapRegister> MapRegister::decode(net::ByteReader& r) {
  const auto nonce = r.read_u64();
  if (!nonce) return std::nullopt;
  const auto eid = net::VnEid::decode(r);
  if (!eid) return std::nullopt;
  auto rlocs = decode_rlocs(r);
  const auto ttl = r.read_u32();
  const auto notify = r.read_u8();
  const auto group = r.read_u16();
  if (!rlocs || !ttl || !notify || !group) return std::nullopt;
  return MapRegister{*nonce, *eid, std::move(*rlocs), *ttl, *notify != 0, *group,
                     decode_trace(r)};
}

void MapNotify::encode(net::ByteWriter& w) const {
  w.write_u64(nonce);
  eid.encode(w);
  encode_rlocs(w, rlocs);
  w.write_u64(epoch);
  encode_trace(w, trace);
}

std::optional<MapNotify> MapNotify::decode(net::ByteReader& r) {
  const auto nonce = r.read_u64();
  if (!nonce) return std::nullopt;
  const auto eid = net::VnEid::decode(r);
  if (!eid) return std::nullopt;
  auto rlocs = decode_rlocs(r);
  const auto epoch = r.read_u64();
  if (!rlocs || !epoch) return std::nullopt;
  return MapNotify{*nonce, *eid, std::move(*rlocs), *epoch, decode_trace(r)};
}

void SolicitMapRequest::encode(net::ByteWriter& w) const {
  eid.encode(w);
  w.write_array(source_rloc.bytes());
  encode_trace(w, trace);
}

std::optional<SolicitMapRequest> SolicitMapRequest::decode(net::ByteReader& r) {
  const auto eid = net::VnEid::decode(r);
  const auto src = r.read_array<4>();
  if (!eid || !src) return std::nullopt;
  return SolicitMapRequest{*eid, net::Ipv4Address::from_bytes(*src), decode_trace(r)};
}

void Subscribe::encode(net::ByteWriter& w) const {
  w.write_array(subscriber_rloc.bytes());
  w.write_u24(vn);
}

std::optional<Subscribe> Subscribe::decode(net::ByteReader& r) {
  const auto rloc = r.read_array<4>();
  const auto vn = r.read_u24();
  if (!rloc || !vn) return std::nullopt;
  return Subscribe{net::Ipv4Address::from_bytes(*rloc), *vn};
}

void Publish::encode(net::ByteWriter& w) const {
  eid.encode(w);
  encode_rlocs(w, rlocs);
  w.write_u32(ttl_seconds);
  w.write_u64(seq);
  w.write_u64(epoch);
  encode_trace(w, trace);
}

std::optional<Publish> Publish::decode(net::ByteReader& r) {
  const auto eid = net::VnEid::decode(r);
  if (!eid) return std::nullopt;
  auto rlocs = decode_rlocs(r);
  const auto ttl = r.read_u32();
  const auto seq = r.read_u64();
  const auto epoch = r.read_u64();
  if (!rlocs || !ttl || !seq || !epoch) return std::nullopt;
  return Publish{*eid, std::move(*rlocs), *ttl, *seq, *epoch, decode_trace(r)};
}

std::vector<std::uint8_t> encode_message(const Message& message) {
  net::ByteWriter w{64};
  w.write_u8(static_cast<std::uint8_t>(message.index() + 1));  // MessageType tag
  std::visit([&w](const auto& m) { m.encode(w); }, message);
  return std::move(w).take();
}

std::optional<Message> decode_message(std::span<const std::uint8_t> bytes) {
  net::ByteReader r{bytes};
  const auto type = r.read_u8();
  if (!type) return std::nullopt;
  switch (static_cast<MessageType>(*type)) {
    case MessageType::MapRequest: {
      const auto m = MapRequest::decode(r);
      if (m) return Message{*m};
      break;
    }
    case MessageType::MapReply: {
      auto m = MapReply::decode(r);
      if (m) return Message{std::move(*m)};
      break;
    }
    case MessageType::MapRegister: {
      auto m = MapRegister::decode(r);
      if (m) return Message{std::move(*m)};
      break;
    }
    case MessageType::MapNotify: {
      auto m = MapNotify::decode(r);
      if (m) return Message{std::move(*m)};
      break;
    }
    case MessageType::SolicitMapRequest: {
      const auto m = SolicitMapRequest::decode(r);
      if (m) return Message{*m};
      break;
    }
    case MessageType::Subscribe: {
      const auto m = Subscribe::decode(r);
      if (m) return Message{*m};
      break;
    }
    case MessageType::Publish: {
      auto m = Publish::decode(r);
      if (m) return Message{std::move(*m)};
      break;
    }
  }
  return std::nullopt;
}

std::string message_type_name(const Message& message) {
  switch (static_cast<MessageType>(message.index() + 1)) {
    case MessageType::MapRequest: return "map-request";
    case MessageType::MapReply: return "map-reply";
    case MessageType::MapRegister: return "map-register";
    case MessageType::MapNotify: return "map-notify";
    case MessageType::SolicitMapRequest: return "smr";
    case MessageType::Subscribe: return "subscribe";
    case MessageType::Publish: return "publish";
  }
  return "unknown";
}

}  // namespace sda::lisp
