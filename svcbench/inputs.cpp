#include "inputs.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "config/acl_format.h"
#include "net/packet_set.h"

namespace svcbench {

using namespace jinjing;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t uniform(Rng& rng, std::uint64_t n) { return n == 0 ? 0 : rng() % n; }

template <typename T>
const T& pick(const std::vector<T>& items, Rng& rng) {
  if (items.empty()) throw std::logic_error("svcbench: pick from an empty list");
  return items[uniform(rng, items.size())];
}

std::string all_devices(const topo::Topology& topo) {
  std::string out;
  for (topo::DeviceId d = 0; d < topo.device_count(); ++d) {
    if (d > 0) out += ", ";
    out += topo.device_name(d);
  }
  return out;
}

/// The program text and wire bodies for `update`, one modify line per slot
/// in slot-name order, bodies named `<stem><i>`.
void add_modifies(const topo::Topology& topo, const topo::AclUpdate& update,
                  const std::string& stem, Proposal& p, std::string& program) {
  std::map<std::string, const net::Acl*> ordered;
  for (const auto& [slot, acl] : update) ordered.emplace(slot_name(topo, slot), &acl);
  std::size_t i = 0;
  for (const auto& [name, acl] : ordered) {
    const std::string body_name = stem + std::to_string(i++);
    program += "modify " + name + " to " + body_name + "\n";
    p.acls.emplace(body_name, config::print_acl(*acl));
  }
  p.update = update;
}

bool is_gateway_slot(const Network& net, topo::AclSlot slot) {
  const auto& gw = net.wan.gateway_slots;
  return std::find(gw.begin(), gw.end(), slot) != gw.end();
}

bool starts_at_core(const Network& net, const topo::Path& path) {
  const auto& entries = net.wan.core_entry_ifaces;
  return std::find(entries.begin(), entries.end(), path.entry()) != entries.end();
}

net::Prefix narrowed(const net::Prefix& outer, unsigned len, Rng& rng) {
  const auto bits = static_cast<std::uint32_t>(rng());
  const std::uint32_t host_mask = outer.len >= 32 ? 0u : (0xFFFFFFFFu >> outer.len);
  return net::Prefix{net::Ipv4{outer.addr.value | (bits & host_mask)},
                     static_cast<std::uint8_t>(len)};
}

/// Packets that exercise a rewritten ACL: half inside the touched rules'
/// matches, half across the entering traffic.
std::vector<net::Packet> rewrite_samples(const Network& net, const std::vector<net::Match>& touched,
                                         Rng& rng) {
  std::vector<net::Packet> out;
  for (int i = 0; i < 32; ++i) {
    const net::Match& m = touched[static_cast<std::size_t>(i) % touched.size()];
    out.push_back(sample_packet(net::PacketSet{m.cube()}, rng));
  }
  for (int i = 0; i < 32; ++i) out.push_back(sample_packet(pick(net.carried, rng), rng));
  return out;
}

}  // namespace

Rng rng_for(std::uint64_t seed, std::uint64_t stream, std::uint64_t index) {
  return Rng{splitmix(splitmix(splitmix(seed) ^ stream) ^ index)};
}

std::shared_ptr<const Network> make_network() {
  auto net = std::make_shared<Network>();
  net->wan = gen::make_wan(gen::medium_wan());
  net->paths = topo::enumerate_paths(net->wan.topo, net->wan.scope);
  for (const auto& path : net->paths) {
    net->carried.push_back(topo::forwarding_set(net->wan.topo, path) & net->wan.traffic);
  }
  net->scope_line = "scope " + all_devices(net->wan.topo);

  const gen::Wan& wan = net->wan;
  for (std::size_t g = 0; g < wan.gateways.size(); ++g) {
    for (const net::Prefix& block : wan.gateway_prefixes[g]) {
      for (std::uint32_t z = 0; z < 4; ++z) {
        const net::Prefix p24{net::Ipv4{block.addr.value | (z << 8)}, 24};
        const net::PacketSet region{net::Match::dst_prefix(p24).cube()};
        bool clean = true;
        for (const auto& slot : wan.agg_slots) {
          for (const auto& rule : wan.topo.acl(slot).rules()) {
            if (!rule.match.is_any() && net::PacketSet{rule.match.cube()}.intersects(region)) {
              clean = false;
            }
          }
        }
        if (clean) net->open_candidates.emplace_back(g, p24);
      }
    }
  }
  if (net->open_candidates.empty()) throw std::logic_error("svcbench: no openable /24");
  return net;
}

std::string slot_name(const topo::Topology& topo, topo::AclSlot slot) {
  return topo.qualified_name(slot.iface) + (slot.dir == topo::Dir::In ? "-in" : "-out");
}

const char* to_string(Kind kind) {
  switch (kind) {
    case Kind::Rewrite: return "rewrite";
    case Kind::Witness: return "witness";
    case Kind::Fix: return "fix";
    case Kind::Generate: return "generate";
    case Kind::Isolate: return "isolate";
    case Kind::Recheck: return "recheck";
  }
  return "?";
}

net::Packet sample_packet(const net::PacketSet& set, Rng& rng) {
  const net::HyperCube& cube = pick(set.cubes(), rng);
  net::Packet h;
  for (const net::Field f : net::kAllFields) {
    const net::Interval iv = cube.interval(f);
    h.set_field(f, iv.lo + uniform(rng, iv.hi - iv.lo + 1));
  }
  return h;
}

Proposal make_rewrite(const Network& net, const topo::Topology& topo, SlotClass where,
                      Rng& rng) {
  std::vector<topo::AclSlot> slots = net.wan.gateway_slots;
  if (where == SlotClass::Any) {
    slots.insert(slots.end(), net.wan.agg_slots.begin(), net.wan.agg_slots.end());
  }
  const topo::AclSlot slot = pick(slots, rng);
  const net::Acl& before = topo.acl(slot);
  std::vector<net::AclRule> rules = before.rules();
  if (rules.empty()) throw std::logic_error("svcbench: rewrite of an empty ACL");

  std::vector<net::Match> touched;
  const int edits = 1 + static_cast<int>(uniform(rng, 2));
  for (int e = 0; e < edits; ++e) {
    const std::size_t i = uniform(rng, rules.size());
    const net::AclRule rule = rules[i];
    touched.push_back(rule.match);
    switch (uniform(rng, 3)) {
      case 0:
        if (rule.match.dst.len < 32) {
          // Prefix split: one rule becomes its two halves.
          const auto len = static_cast<std::uint8_t>(rule.match.dst.len + 1);
          net::AclRule lo = rule;
          net::AclRule hi = rule;
          lo.match.dst = net::Prefix{rule.match.dst.addr, len};
          hi.match.dst =
              net::Prefix{net::Ipv4{rule.match.dst.addr.value | (0x80000000u >> rule.match.dst.len)},
                          len};
          rules[i] = lo;
          rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(i) + 1, hi);
          break;
        }
        [[fallthrough]];
      case 1:
        // Duplicated rule: the copy can never be the first match.
        rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(i) + 1, rule);
        break;
      default: {
        // Shadowed rule: a narrower match right behind a rule covering it,
        // with a random action it never gets to apply.
        net::AclRule shadow = rule;
        const unsigned len = std::min(32u, rule.match.dst.len + 1 + static_cast<unsigned>(uniform(rng, 8)));
        shadow.match.dst = narrowed(rule.match.dst, len, rng);
        shadow.action = uniform(rng, 2) == 0 ? net::Action::Permit : net::Action::Deny;
        rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(i) + 1, shadow);
        break;
      }
    }
  }
  const net::Acl after{std::move(rules), before.default_action()};
  for (const net::Packet& h : rewrite_samples(net, touched, rng)) {
    if (before.evaluate(h) != after.evaluate(h)) {
      throw std::logic_error("svcbench: rewrite changed the decision of " + net::to_string(h));
    }
  }

  Proposal p;
  p.kind = Kind::Rewrite;
  p.program = net.scope_line + "\n";
  add_modifies(topo, topo::AclUpdate{{slot, after}}, "rw", p, p.program);
  p.program += "check\n";
  p.expect_consistent = true;
  p.original.emplace(slot, before);
  return p;
}

Proposal make_witness(const Network& net, const topo::Topology& topo, SlotClass where,
                      Rng& rng) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    const std::size_t pi = uniform(rng, net.paths.size());
    const topo::Path& path = net.paths[pi];
    if (where == SlotClass::Gateway && !starts_at_core(net, path)) continue;
    net::Packet h = sample_packet(net.carried[pi], rng);
    if (where == SlotClass::Gateway) {
      // Stay clear of the /24s the churn applies isolate.
      h.dip.value = (h.dip.value & 0xFFFF00FFu) |
                    (static_cast<std::uint32_t>(uniform(rng, kIsolateOctet)) << 8);
    }
    if (!net.carried[pi].contains(h) || !topo::path_permits(topo, path, h)) continue;

    std::vector<topo::AclSlot> candidates;
    for (const auto& hop : path.hops()) {
      if (where == SlotClass::Any || is_gateway_slot(net, hop.slot())) {
        candidates.push_back(hop.slot());
      }
    }
    if (candidates.empty()) continue;
    const topo::AclSlot slot = pick(candidates, rng);

    net::Match m;
    m.dst = net::Prefix::host(h.dip);
    if (uniform(rng, 2) == 0) {
      // The exact 5-tuple; otherwise every packet to the host.
      m.src = net::Prefix::host(h.sip);
      m.sport = net::PortRange::single(h.sport);
      m.dport = net::PortRange::single(h.dport);
      m.proto = net::ProtoMatch{h.proto};
    }
    net::Acl after = topo.acl(slot);
    after.prepend({net::AclRule::deny(m)});

    Proposal p;
    p.kind = Kind::Witness;
    p.program = net.scope_line + "\n";
    add_modifies(topo, topo::AclUpdate{{slot, std::move(after)}}, "w", p, p.program);
    p.program += "check\n";
    p.witnesses.push_back({h, pi});
    p.expect_consistent = false;
    p.original.emplace(slot, topo.acl(slot));
    if (!oracle_witness(net, topo, p).empty()) continue;
    return p;
  }
  throw std::logic_error("svcbench: no witness packet found");
}

Proposal make_fix(const Network& net, const topo::Topology& topo, Rng& rng) {
  const Proposal witness = make_witness(net, topo, SlotClass::Any, rng);
  Proposal p;
  p.kind = Kind::Fix;
  p.program = net.scope_line + "\nallow " + all_devices(topo) + "\n";
  add_modifies(topo, witness.update, "w", p, p.program);
  p.program += "check\nfix\n";
  p.witnesses = witness.witnesses;
  p.original = witness.original;
  p.expect_consistent = false;
  return p;
}

Proposal make_generate(const Network& net, Rng& rng) {
  const gen::Wan& wan = net.wan;
  std::vector<std::pair<std::size_t, net::Prefix>> candidates = net.open_candidates;
  std::shuffle(candidates.begin(), candidates.end(), rng);
  const std::size_t opened = 1 + uniform(rng, 3);

  Proposal p;
  p.kind = Kind::Generate;
  p.program = net.scope_line + "\nallow ";
  for (std::size_t i = 0; i < wan.gateway_slots.size(); ++i) {
    if (i > 0) p.program += ", ";
    p.program += slot_name(wan.topo, wan.gateway_slots[i]);
  }
  p.program += "\n";
  std::string entries;
  for (std::size_t i = 0; i < wan.core_entry_ifaces.size(); ++i) {
    if (i > 0) entries += ", ";
    entries += wan.topo.qualified_name(wan.core_entry_ifaces[i]);
  }
  for (std::size_t i = 0; i < std::min(opened, candidates.size()); ++i) {
    const auto& [g, prefix] = candidates[i];
    lai::ControlIntent intent;
    intent.from = wan.core_entry_ifaces;
    intent.to = {wan.gateway_egress_slots[g].iface};
    intent.verb = lai::ControlVerb::Open;
    intent.header = net::PacketSet{net::Match::dst_prefix(prefix).cube()};
    p.intents.push_back(std::move(intent));
    p.program += "control " + entries + " -> " +
                 wan.topo.qualified_name(wan.gateway_egress_slots[g].iface) + "-out open dst " +
                 net::to_string(prefix) + "\n";
  }
  p.program += "generate\n";
  return p;
}

Proposal make_isolate(const Network& net, const topo::Topology& head, std::size_t k) {
  const gen::Wan& wan = net.wan;
  const std::size_t cores = wan.core_entry_ifaces.size();
  const std::size_t gws = wan.gateways.size();
  const std::size_t blocks = wan.gateway_prefixes.front().size();
  const std::size_t c = k % cores;
  const std::size_t g = (k / cores) % gws;
  const std::size_t j = (k / (cores * gws)) % blocks;
  const auto z = static_cast<std::uint32_t>(kIsolateOctet + (k / (cores * gws * blocks)) % 16);
  const net::Prefix prefix{net::Ipv4{wan.gateway_prefixes[g][j].addr.value | (z << 8)}, 24};
  const net::PacketSet region{net::Match::dst_prefix(prefix).cube()};
  const topo::InterfaceId entry = wan.core_entry_ifaces[c];
  const topo::InterfaceId exit = wan.gateway_egress_slots[g].iface;

  topo::AclUpdate update;
  for (std::size_t pi = 0; pi < net.paths.size(); ++pi) {
    const topo::Path& path = net.paths[pi];
    if (path.entry() != entry || path.exit() != exit || !net.carried[pi].intersects(region)) {
      continue;
    }
    for (const auto& hop : path.hops()) {
      const auto& aggs = wan.agg_slots;
      if (std::find(aggs.begin(), aggs.end(), hop.slot()) == aggs.end()) continue;
      if (update.contains(hop.slot())) continue;
      net::Acl acl = head.acl(hop.slot());
      acl.prepend({net::AclRule::deny(net::Match::dst_prefix(prefix))});
      update.emplace(hop.slot(), std::move(acl));
    }
  }
  if (update.empty()) throw std::logic_error("svcbench: isolate prefix carried by no path");

  Proposal p;
  p.kind = Kind::Isolate;
  p.program = net.scope_line + "\n";
  add_modifies(head, update, "iso", p, p.program);
  p.program += "control " + wan.topo.qualified_name(entry) + " -> " +
               wan.topo.qualified_name(exit) + "-out isolate dst " + net::to_string(prefix) +
               "\ncheck\n";
  lai::ControlIntent intent;
  intent.from = {entry};
  intent.to = {exit};
  intent.verb = lai::ControlVerb::Isolate;
  intent.header = region;
  p.intents.push_back(std::move(intent));
  p.expect_consistent = true;
  const std::string wrong = oracle_intents(net, head, p, p.update, k);
  if (!wrong.empty()) throw std::logic_error("svcbench: isolate update " + wrong);
  return p;
}

Proposal make_recheck(const Network& net, const topo::Topology& topo,
                      const topo::AclUpdate& plan) {
  Proposal p;
  p.kind = Kind::Recheck;
  p.program = net.scope_line + "\n";
  add_modifies(topo, plan, "fx", p, p.program);
  p.program += "check\n";
  p.expect_consistent = true;
  return p;
}

topo::AclUpdate parse_plan(const topo::Topology& topo, const std::string& text) {
  topo::AclUpdate plan;
  std::istringstream in{text};
  std::string line;
  std::optional<topo::AclSlot> slot;
  std::string body;
  net::Action empty_default = net::Action::Permit;
  while (std::getline(in, line)) {
    if (line.rfind("acl ", 0) == 0) {
      std::string name = line.substr(4);
      topo::Dir dir = topo::Dir::In;
      if (name.size() > 4 && name.ends_with("-out")) {
        dir = topo::Dir::Out;
        name.resize(name.size() - 4);
      } else if (name.size() > 3 && name.ends_with("-in")) {
        name.resize(name.size() - 3);
      }
      const auto iface = topo.find_interface(name);
      if (!iface) throw std::runtime_error("plan names an unknown interface: " + name);
      slot = topo::AclSlot{*iface, dir};
      body.clear();
      empty_default = net::Action::Permit;
    } else if (line == "end") {
      if (!slot) throw std::runtime_error("plan: 'end' outside an acl block");
      net::Acl acl = config::parse_acl(body);
      if (acl.empty()) acl = net::Acl{{}, empty_default};
      plan.insert_or_assign(*slot, std::move(acl));
      slot.reset();
    } else if (slot && line.find("# no rules - deny all") != std::string::npos) {
      empty_default = net::Action::Deny;
    } else if (slot) {
      body += line + "\n";
    }
  }
  if (slot) throw std::runtime_error("plan: unterminated acl block");
  return plan;
}

std::shared_ptr<const topo::Topology> apply_copy(const topo::Topology& topo,
                                                 const topo::AclUpdate& update) {
  auto next = std::make_shared<topo::Topology>(topo);
  for (const auto& [slot, acl] : update) next->bind_acl(slot, acl);
  return next;
}

bool expected_decision(const std::vector<lai::ControlIntent>& intents, const topo::Path& path,
                       const net::Packet& h, bool original) {
  for (const auto& intent : intents) {
    const bool from = std::find(intent.from.begin(), intent.from.end(), path.entry()) !=
                      intent.from.end();
    const bool to =
        std::find(intent.to.begin(), intent.to.end(), path.exit()) != intent.to.end();
    if (!from || !to || !intent.header.contains(h)) continue;
    switch (intent.verb) {
      case lai::ControlVerb::Open: return true;
      case lai::ControlVerb::Isolate: return false;
      case lai::ControlVerb::Maintain: return original;
    }
  }
  return original;
}

std::string oracle_unchanged(const topo::Topology& topo, const Proposal& p) {
  for (const auto& [slot, acl] : p.original) {
    if (!(topo.acl(slot) == acl)) {
      return "slot " + slot_name(topo, slot) + " changed under the proposal";
    }
  }
  return {};
}

std::string oracle_witness(const Network& net, const topo::Topology& topo, const Proposal& p) {
  if (std::string wrong = oracle_unchanged(topo, p); !wrong.empty()) return wrong;
  if (p.witnesses.empty()) return "no witness packet";
  for (const WitnessPoint& w : p.witnesses) {
    const topo::Path& path = net.paths[w.path];
    if (!net.carried[w.path].contains(w.packet)) return "witness packet not carried";
    if (!topo::path_permits(topo::ConfigView{topo}, path, w.packet)) {
      return "witness packet already denied: " + net::to_string(w.packet);
    }
    if (topo::path_permits(topo::ConfigView{topo, &p.update}, path, w.packet)) {
      return "witness packet still permitted: " + net::to_string(w.packet);
    }
  }
  return {};
}

std::string oracle_fix(const Network& net, const topo::Topology& topo, const Proposal& p,
                       const topo::AclUpdate& plan) {
  const topo::ConfigView before{topo};
  const topo::ConfigView after{topo, &plan};
  for (const WitnessPoint& w : p.witnesses) {
    for (std::size_t pi = 0; pi < net.paths.size(); ++pi) {
      if (!net.carried[pi].contains(w.packet)) continue;
      if (topo::path_permits(before, net.paths[pi], w.packet) !=
          topo::path_permits(after, net.paths[pi], w.packet)) {
        return "fix leaves " + net::to_string(w.packet) + " changed on path " +
               std::to_string(pi);
      }
    }
  }
  return {};
}

std::string oracle_intents(const Network& net, const topo::Topology& topo, const Proposal& p,
                           const topo::AclUpdate& plan, std::uint64_t seed) {
  Rng rng = rng_for(seed, 0x0a11, p.intents.size());
  std::vector<net::Packet> samples;
  for (const auto& intent : p.intents) {
    for (int i = 0; i < 16; ++i) samples.push_back(sample_packet(intent.header, rng));
  }
  for (int i = 0; i < 48; ++i) samples.push_back(sample_packet(pick(net.carried, rng), rng));

  const topo::ConfigView before{topo};
  const topo::ConfigView after{topo, &plan};
  for (const net::Packet& h : samples) {
    for (std::size_t pi = 0; pi < net.paths.size(); ++pi) {
      if (!net.carried[pi].contains(h)) continue;
      const topo::Path& path = net.paths[pi];
      const bool want =
          expected_decision(p.intents, path, h, topo::path_permits(before, path, h));
      if (topo::path_permits(after, path, h) != want) {
        return "decision of " + net::to_string(h) + " on path " + std::to_string(pi) +
               " is not the intent's";
      }
    }
  }
  return {};
}

}  // namespace svcbench
