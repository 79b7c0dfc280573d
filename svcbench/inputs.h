// Seeded inputs for the service benchmark and the verdict oracle that
// checks every answer against a result fixed by construction.
//
// The oracle never calls the verdict engine (core::Checker, core/batch,
// smt). It evaluates concrete packets on its own copy of the configuration
// with first-match ACL semantics (net::Acl::evaluate through
// topo::path_permits), so a wrong verdict from any engine shows up as a
// mismatch here:
//
//  * rewrite proposals are semantics-preserving rewrites of one ACL
//    (prefix split, duplicated rule, shadowed rule) — expected consistent;
//  * witness proposals prepend a deny for one packet that a path in scope
//    carries and permits — expected inconsistent;
//  * fix plans must restore every witness packet's pre-update decision on
//    every path that carries it;
//  * generate plans must give every sampled packet the decision of the §6
//    rule: the first matching intent wins, open permits, isolate denies,
//    anything else keeps the original decision;
//  * isolate updates (the churn workload's applies) deny one /24 on every
//    aggregation slot that carries it from one entry, under a matching
//    isolate intent — expected consistent.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "gen/wan.h"
#include "lai/sema.h"
#include "net/acl.h"
#include "topo/paths.h"
#include "topo/topology.h"

namespace svcbench {

using Rng = std::mt19937_64;

/// One independent random stream per (seed, stream, index), so the inputs
/// of job i do not depend on how many jobs ran before it.
[[nodiscard]] Rng rng_for(std::uint64_t seed, std::uint64_t stream, std::uint64_t index);

/// The medium WAN plus what the generators and the oracle derive from it.
struct Network {
  jinjing::gen::Wan wan;
  std::vector<jinjing::topo::Path> paths;            // whole-scope paths
  std::vector<jinjing::net::PacketSet> carried;      // per path: traffic ∩ forwarding
  std::string scope_line;                            // "scope d1, d2, ..."
  /// Gateway-protected /24s (the gateway ACLs deny them) that no
  /// aggregation rule touches, by gateway index: opening one at the
  /// gateway layer is always achievable.
  std::vector<std::pair<std::size_t, jinjing::net::Prefix>> open_candidates;
};

[[nodiscard]] std::shared_ptr<const Network> make_network();

/// "agg0:u0-in" — the LAI / plan name of a slot.
[[nodiscard]] std::string slot_name(const jinjing::topo::Topology& topo,
                                    jinjing::topo::AclSlot slot);

enum class Kind : std::uint8_t { Rewrite, Witness, Fix, Generate, Isolate, Recheck };

[[nodiscard]] const char* to_string(Kind kind);

/// A packet the oracle follows, and the path it was drawn from.
struct WitnessPoint {
  jinjing::net::Packet packet;
  std::size_t path = 0;
};

/// One job's inputs: the wire form (program + named ACL bodies) and what
/// the oracle needs to judge the answer.
struct Proposal {
  Kind kind = Kind::Rewrite;
  std::string program;
  std::map<std::string, std::string> acls;  // name -> canonical body
  jinjing::topo::AclUpdate update;          // the modify statements, resolved
  std::vector<WitnessPoint> witnesses;      // Witness / Fix
  std::vector<jinjing::lai::ControlIntent> intents;  // Generate / Isolate
  /// The ACL each touched slot held when the proposal was made; the
  /// construction only holds at versions where these are unchanged.
  jinjing::topo::AclUpdate original;
  bool expect_consistent = true;            // check verdict by construction
};

/// Where a generator may place its change.
enum class SlotClass : std::uint8_t { Any, Gateway };

/// A semantics-preserving rewrite of one configured ACL.
[[nodiscard]] Proposal make_rewrite(const Network& net, const jinjing::topo::Topology& topo,
                                    SlotClass where, Rng& rng);
/// A deny for one carried, permitted packet, prepended on its path. With
/// SlotClass::Gateway the packet avoids the isolate pool (third octet
/// >= kIsolateOctet), so it stays permitted at every churn version.
[[nodiscard]] Proposal make_witness(const Network& net, const jinjing::topo::Topology& topo,
                                    SlotClass where, Rng& rng);
/// A witness proposal followed by `fix`, any device allowed.
[[nodiscard]] Proposal make_fix(const Network& net, const jinjing::topo::Topology& topo,
                                Rng& rng);
/// Control-open intents on gateway-protected /24s followed by `generate`.
[[nodiscard]] Proposal make_generate(const Network& net, Rng& rng);
/// The k-th isolate update of a churn run against `head`: deny one /24 of
/// the isolate pool on every aggregation slot that carries it from one core
/// entry, with the matching isolate intent, then `check`.
[[nodiscard]] Proposal make_isolate(const Network& net, const jinjing::topo::Topology& head,
                                    std::size_t k);
/// A `check` of every slot of a plan (the re-check after a fix).
[[nodiscard]] Proposal make_recheck(const Network& net, const jinjing::topo::Topology& topo,
                                    const jinjing::topo::AclUpdate& plan);

inline constexpr unsigned kIsolateOctet = 240;

/// Parses a core::format_plan text ("acl NAME / rules / end" blocks).
[[nodiscard]] jinjing::topo::AclUpdate parse_plan(const jinjing::topo::Topology& topo,
                                                  const std::string& text);

/// A copy of `topo` with `update` bound.
[[nodiscard]] std::shared_ptr<const jinjing::topo::Topology> apply_copy(
    const jinjing::topo::Topology& topo, const jinjing::topo::AclUpdate& update);

// ---- The oracle. Each returns an empty string when the answer is right,
// ---- else a one-line reason.

/// Every slot the proposal touches still holds the ACL it was made from.
[[nodiscard]] std::string oracle_unchanged(const jinjing::topo::Topology& topo, const Proposal& p);
/// The witness packet is carried and permitted on its path at `topo`, and
/// denied once the proposal's update is applied.
[[nodiscard]] std::string oracle_witness(const Network& net, const jinjing::topo::Topology& topo,
                                         const Proposal& p);
/// Every witness packet keeps its pre-update decision on every path that
/// carries it under the fixed plan.
[[nodiscard]] std::string oracle_fix(const Network& net, const jinjing::topo::Topology& topo,
                                     const Proposal& p, const jinjing::topo::AclUpdate& plan);
/// Sampled packets (inside every intent header and across the traffic)
/// get the §6 decision on every path that carries them under `plan`.
[[nodiscard]] std::string oracle_intents(const Network& net, const jinjing::topo::Topology& topo,
                                         const Proposal& p, const jinjing::topo::AclUpdate& plan,
                                         std::uint64_t seed);

/// §6: the first intent whose endpoints and header match decides; open
/// permits, isolate denies, maintain (or no match) keeps `original`.
[[nodiscard]] bool expected_decision(const std::vector<jinjing::lai::ControlIntent>& intents,
                                     const jinjing::topo::Path& path,
                                     const jinjing::net::Packet& h, bool original);

/// A uniformly drawn packet of one uniformly drawn cube of `set`.
[[nodiscard]] jinjing::net::Packet sample_packet(const jinjing::net::PacketSet& set, Rng& rng);

}  // namespace svcbench
