// Self-test of the verdict oracle in inputs.h.
//
// Two directions. The oracle's expectations must agree with the verdict
// engine on generated inputs (core::Checker for checks, core::Engine for
// fix and generate plans), and the oracle must reject answers that are
// wrong by construction (an unfixed plan, an empty generate plan, a
// witness without a flip). Exits non-zero on the first
// disagreement.
#include <cstdlib>
#include <iostream>
#include <string>

#include "config/acl_format.h"
#include "core/checker.h"
#include "core/deploy.h"
#include "core/engine.h"
#include "inputs.h"
#include "lai/parser.h"
#include "smt/context.h"

namespace svcbench {
namespace {

using namespace jinjing;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

lai::UpdateTask resolve(const Proposal& p, const topo::Topology& topo) {
  lai::AclLibrary acls;
  for (const auto& [name, body] : p.acls) acls.emplace(name, config::parse_acl_auto(body));
  return lai::resolve(lai::parse(p.program), topo, acls);
}

bool engine_consistent(const Network& net, const topo::Topology& topo, const Proposal& p) {
  const lai::UpdateTask task = resolve(p, topo);
  smt::SmtContext smt;
  core::Checker checker{smt, topo, task.scope};
  return checker.check(task.modify, net.wan.traffic, task.controls).consistent;
}

core::EngineReport engine_run(const Network& net, const topo::Topology& topo, const Proposal& p) {
  core::Engine engine{topo};
  return engine.run(resolve(p, topo), net.wan.traffic);
}

void test_expected_decision(const Network& net) {
  const topo::Path& path = net.paths.front();
  Rng rng{7};
  const net::Packet h = sample_packet(net.carried.front(), rng);
  lai::ControlIntent open;
  open.from = {path.entry()};
  open.to = {path.exit()};
  open.verb = lai::ControlVerb::Open;
  open.header = net::PacketSet::point(h);
  lai::ControlIntent isolate = open;
  isolate.verb = lai::ControlVerb::Isolate;
  lai::ControlIntent maintain = open;
  maintain.verb = lai::ControlVerb::Maintain;
  lai::ControlIntent elsewhere = isolate;
  elsewhere.from = {path.exit()};

  expect(expected_decision({open, isolate}, path, h, false), "first intent (open) wins");
  expect(!expected_decision({isolate, open}, path, h, true), "first intent (isolate) wins");
  expect(expected_decision({maintain, isolate}, path, h, true), "maintain keeps permit");
  expect(!expected_decision({maintain, open}, path, h, false), "maintain keeps deny");
  expect(expected_decision({elsewhere}, path, h, true), "non-matching intent keeps decision");
  expect(!expected_decision({}, path, h, false), "no intent keeps decision");
}

void test_checks(const Network& net) {
  const topo::Topology& topo = net.wan.topo;
  for (std::uint64_t i = 0; i < 24; ++i) {
    Rng rng = rng_for(11, 1, i);
    const SlotClass where = i % 3 == 0 ? SlotClass::Gateway : SlotClass::Any;
    const Proposal rewrite = make_rewrite(net, topo, where, rng);
    expect(engine_consistent(net, topo, rewrite), "rewrite " + std::to_string(i) + " consistent");
    expect(!oracle_witness(net, topo, rewrite).empty(),
           "oracle rejects a rewrite presented as a witness");

    const Proposal witness = make_witness(net, topo, where, rng);
    expect(oracle_witness(net, topo, witness).empty(), "witness construction holds");
    expect(!engine_consistent(net, topo, witness), "witness " + std::to_string(i) + " inconsistent");
    Proposal no_flip = witness;
    no_flip.update.clear();
    expect(!oracle_witness(net, topo, no_flip).empty(), "oracle rejects a witness that never flips");
  }
}

void test_fix_and_generate(const Network& net) {
  const topo::Topology& topo = net.wan.topo;
  for (std::uint64_t i = 0; i < 3; ++i) {
    Rng rng = rng_for(12, 1, i);
    const Proposal fix = make_fix(net, topo, rng);
    const core::EngineReport report = engine_run(net, topo, fix);
    expect(report.success(), "fix " + std::to_string(i) + " succeeds");
    const topo::AclUpdate plan = parse_plan(topo, core::format_plan(topo, report.final_update));
    expect(plan == report.final_update, "plan text round-trips");
    expect(oracle_fix(net, topo, fix, plan).empty(), "fix plan restores the witness");
    expect(!oracle_fix(net, topo, fix, fix.update).empty(), "oracle rejects the unfixed update");
    expect(engine_consistent(net, topo, make_recheck(net, topo, plan)), "fixed plan re-checks");

    const Proposal gen = make_generate(net, rng);
    const core::EngineReport generated = engine_run(net, topo, gen);
    expect(generated.success(), "generate " + std::to_string(i) + " succeeds");
    const topo::AclUpdate gen_plan =
        parse_plan(topo, core::format_plan(topo, generated.final_update));
    expect(oracle_intents(net, topo, gen, gen_plan, i).empty(), "generate plan obeys §6");
    expect(!oracle_intents(net, topo, gen, {}, i).empty(), "oracle rejects an empty plan");
  }
}

void test_isolate_chain(const Network& net) {
  auto head = std::make_shared<const topo::Topology>(net.wan.topo);
  for (std::size_t k = 0; k < 20; ++k) {
    const Proposal iso = make_isolate(net, *head, k);
    if (k % 5 == 0) {
      expect(engine_consistent(net, *head, iso), "isolate " + std::to_string(k) + " consistent");
    }
    // Gateway-slot witnesses stay valid at every version the chain makes.
    Rng rng = rng_for(13, 1, k);
    const Proposal witness = make_witness(net, net.wan.topo, SlotClass::Gateway, rng);
    expect(oracle_witness(net, *head, witness).empty(), "gateway witness valid at version");
    head = apply_copy(*head, iso.update);
  }
}

}  // namespace
}  // namespace svcbench

int main() {
  try {
    const auto net = svcbench::make_network();
    svcbench::test_expected_decision(*net);
    svcbench::test_checks(*net);
    svcbench::test_fix_and_generate(*net);
    svcbench::test_isolate_chain(*net);
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  if (svcbench::failures > 0) {
    std::cerr << svcbench::failures << " oracle self-test failure(s)\n";
    return 1;
  }
  std::cout << "oracle self-test passed\n";
  return 0;
}
