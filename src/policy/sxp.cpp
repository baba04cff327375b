#include "policy/sxp.hpp"

namespace sda::policy {

void SxpBinding::encode(net::ByteWriter& w) const {
  w.write_u24(vn.value());
  w.write_array(ip.bytes());
  w.write_u16(group.value());
  w.write_u8(withdraw ? 1 : 0);
}

std::optional<SxpBinding> SxpBinding::decode(net::ByteReader& r) {
  const auto vn = r.read_u24();
  const auto ip = r.read_array<4>();
  const auto group = r.read_u16();
  const auto withdraw = r.read_u8();
  if (!vn || !ip || !group || !withdraw) return std::nullopt;
  return SxpBinding{net::VnId{*vn}, net::Ipv4Address::from_bytes(*ip), net::GroupId{*group},
                    *withdraw != 0};
}

void SxpBindingUpdate::encode(net::ByteWriter& w) const {
  w.write_u32(sequence);
  w.write_u16(static_cast<std::uint16_t>(bindings.size()));
  for (const auto& binding : bindings) binding.encode(w);
}

std::optional<SxpBindingUpdate> SxpBindingUpdate::decode(net::ByteReader& r) {
  const auto sequence = r.read_u32();
  const auto count = r.read_u16();
  if (!sequence || !count) return std::nullopt;
  SxpBindingUpdate update;
  update.sequence = *sequence;
  update.bindings.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto binding = SxpBinding::decode(r);
    if (!binding) return std::nullopt;
    update.bindings.push_back(*binding);
  }
  return update;
}

void SxpRuleInstall::encode(net::ByteWriter& w) const {
  w.write_u32(sequence);
  w.write_u24(vn.value());
  w.write_u16(destination.value());
  w.write_u16(static_cast<std::uint16_t>(rules.size()));
  for (const auto& rule : rules) {
    w.write_u16(rule.pair.source.value());
    w.write_u16(rule.pair.destination.value());
    w.write_u8(static_cast<std::uint8_t>(rule.action));
  }
}

std::optional<SxpRuleInstall> SxpRuleInstall::decode(net::ByteReader& r) {
  const auto sequence = r.read_u32();
  const auto vn = r.read_u24();
  const auto destination = r.read_u16();
  const auto count = r.read_u16();
  if (!sequence || !vn || !destination || !count) return std::nullopt;
  SxpRuleInstall install;
  install.sequence = *sequence;
  install.vn = net::VnId{*vn};
  install.destination = net::GroupId{*destination};
  install.rules.reserve(*count);
  for (std::uint16_t i = 0; i < *count; ++i) {
    const auto source = r.read_u16();
    const auto dest = r.read_u16();
    const auto action = r.read_u8();
    if (!source || !dest || !action || *action > 1) return std::nullopt;
    install.rules.push_back(Rule{{net::GroupId{*source}, net::GroupId{*dest}},
                                 static_cast<Action>(*action)});
  }
  return install;
}

void SxpGroupReassign::encode(net::ByteWriter& w) const {
  w.write_u32(sequence);
  w.write_u24(vn.value());
  w.write_array(endpoint.bytes());
  w.write_u16(new_group.value());
}

std::optional<SxpGroupReassign> SxpGroupReassign::decode(net::ByteReader& r) {
  const auto sequence = r.read_u32();
  const auto vn = r.read_u24();
  const auto mac = r.read_array<6>();
  const auto group = r.read_u16();
  if (!sequence || !vn || !mac || !group) return std::nullopt;
  return SxpGroupReassign{*sequence, net::VnId{*vn}, net::MacAddress{*mac},
                          net::GroupId{*group}};
}

std::vector<std::uint8_t> encode_sxp(const SxpMessage& message) {
  net::ByteWriter w{64};
  w.write_u8(static_cast<std::uint8_t>(message.index() + 1));
  std::visit([&w](const auto& m) { m.encode(w); }, message);
  return std::move(w).take();
}

std::optional<SxpMessage> decode_sxp(std::span<const std::uint8_t> bytes) {
  net::ByteReader r{bytes};
  const auto type = r.read_u8();
  if (!type) return std::nullopt;
  // Each message is built in place inside the result.
  std::optional<SxpMessage> message;
  switch (static_cast<SxpMessageType>(*type)) {
    case SxpMessageType::BindingUpdate:
      if (auto m = SxpBindingUpdate::decode(r)) {
        message.emplace(std::in_place_type<SxpBindingUpdate>, std::move(*m));
      }
      break;
    case SxpMessageType::RuleInstall:
      if (auto m = SxpRuleInstall::decode(r)) {
        message.emplace(std::in_place_type<SxpRuleInstall>, std::move(*m));
      }
      break;
    case SxpMessageType::GroupReassign:
      if (const auto m = SxpGroupReassign::decode(r)) {
        message.emplace(std::in_place_type<SxpGroupReassign>, *m);
      }
      break;
  }
  return message;
}

}  // namespace sda::policy
