// FabricScope-Check, dynamic half (src/sim/scope.hpp): ScopeAuditor
// semantics, the detached/attached digest-transparency pin, and the
// mutation self-test — the deliberately mislabeled post() seam
// (SwitchConfig::mutation_mislabel_wire_scope) must be caught by the
// auditor on live traffic, proving the runtime gate can actually fail.
// scripts/scope_check.py --mutation proves the same for the static half.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/invariant.hpp"
#include "core/calibration.hpp"
#include "core/cluster.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/scope.hpp"
#include "topo/spec.hpp"
#include "verbs/verbs.hpp"

namespace fabsim {
namespace {

// --- ScopeAuditor unit semantics -------------------------------------

TEST(ScopeAuditor, ConfinedEventMayOnlyTouchItsOwnNode) {
  check::InvariantMonitor monitor(/*fatal=*/false);
  scope::ScopeAuditor auditor(&monitor);

  auditor.begin_event(us(1), /*event_scope=*/2);
  auditor.owned_access(check::Layer::kHw, /*owner_node=*/2, "own node");
  EXPECT_EQ(auditor.violations(), 0u);
  auditor.owned_access(check::Layer::kHw, /*owner_node=*/3, "foreign node");
  EXPECT_EQ(auditor.violations(), 1u);
  auditor.end_event({});

  EXPECT_EQ(monitor.violation_count(), 1u);
  EXPECT_GE(auditor.checks(), 2u);
}

TEST(ScopeAuditor, SharedStateRequiresUnconfinedScope) {
  check::InvariantMonitor monitor(/*fatal=*/false);
  scope::ScopeAuditor auditor(&monitor);

  // Scope -1 ("touches anything") events may touch shared state...
  auditor.begin_event(us(1), /*event_scope=*/-1);
  auditor.shared_access(check::Layer::kHw, /*node=*/0, "fabric graph");
  auditor.owned_access(check::Layer::kHw, /*owner_node=*/5, "any node");
  EXPECT_EQ(auditor.violations(), 0u);
  auditor.end_event({});

  // ...confined events may not.
  auditor.begin_event(us(2), /*event_scope=*/4);
  auditor.shared_access(check::Layer::kHw, /*node=*/4, "fabric graph");
  EXPECT_EQ(auditor.violations(), 1u);
  auditor.end_event({});
}

TEST(ScopeAuditor, InactiveOutsideDispatchAndThrowsWithoutMonitor) {
  scope::ScopeAuditor auditor;  // no monitor: violations are fatal

  // Accesses outside any dispatched event (setup code) are not audited.
  auditor.owned_access(check::Layer::kHw, /*owner_node=*/9, "setup");
  EXPECT_EQ(auditor.checks(), 0u);
  EXPECT_EQ(auditor.violations(), 0u);

  auditor.begin_event(us(1), /*event_scope=*/1);
  EXPECT_THROW(auditor.owned_access(check::Layer::kHw, /*owner_node=*/2, "foreign"),
               check::InvariantViolationError);
  auditor.end_event({});
}

// --- Whole-stack runs -------------------------------------------------

struct WriteRun {
  std::uint64_t digest = 0;
  std::uint64_t events = 0;
  std::uint64_t checks = 0;
  std::uint64_t violations = 0;
};

// Three concurrent RDMA Writes into the highest node, the
// tests/topo_test.cpp traffic shape; works on any fabric the profile
// names. With `attach_auditor` the caller-owned ScopeAuditor (counting
// monitor) rides along on every dispatched event.
WriteRun run_writes(const core::NetworkProfile& profile, int nodes, bool attach_auditor) {
  // The auditor outlives the cluster: the engine detaches it on death.
  check::InvariantMonitor monitor(/*fatal=*/false);
  scope::ScopeAuditor auditor(&monitor);
  core::Cluster cluster(nodes, profile);
  if (attach_auditor) cluster.engine().attach(auditor);

  const int dst_node = nodes - 1;
  const std::uint32_t len = 8 * 1024;
  std::vector<std::unique_ptr<verbs::CompletionQueue>> cqs;
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  for (int s = 0; s < 3 && s < dst_node; ++s) {
    auto& src = cluster.node(s).mem().alloc(len, false);
    auto& dst = cluster.node(dst_node).mem().alloc(len, false);
    cqs.push_back(std::make_unique<verbs::CompletionQueue>(cluster.engine()));
    auto dst_qp = cluster.device(dst_node).create_qp(*cqs.back(), *cqs.back());
    auto src_qp = cluster.device(s).create_qp(*cqs.back(), *cqs.back());
    cluster.device(dst_node).establish(*dst_qp, *src_qp);
    cluster.engine().spawn([](core::Cluster& c, verbs::QueuePair& qp, int sender, int sink,
                              std::uint64_t sa, std::uint64_t da, std::uint32_t n) -> Task<> {
      auto lkey = co_await c.device(sender).reg_mr(sa, n);
      auto rkey = co_await c.device(sink).reg_mr(da, n);
      auto watch = c.device(sink).watch_placement(da, n);
      co_await qp.post_send(verbs::SendWr{.wr_id = 1,
                                          .opcode = verbs::Opcode::kRdmaWrite,
                                          .sge = {sa, n, lkey},
                                          .remote_addr = da,
                                          .rkey = rkey});
      co_await watch->wait();
    }(cluster, *src_qp, s, dst_node, src.addr(), dst.addr(), len));
    qps.push_back(std::move(dst_qp));
    qps.push_back(std::move(src_qp));
  }
  cluster.engine().run();

  return WriteRun{cluster.engine().run_digest(), cluster.engine().events_processed(),
                  auditor.checks(), auditor.violations()};
}

// The auditor is an observer: attaching it must not perturb the
// schedule. Same workload with and without it -> byte-identical digest.
TEST(ScopeAuditor, AttachedAuditorLeavesRunDigestIdentical) {
  const core::NetworkProfile profile = core::iwarp_profile();
  const WriteRun plain = run_writes(profile, 4, /*attach_auditor=*/false);
  const WriteRun audited = run_writes(profile, 4, /*attach_auditor=*/true);
  EXPECT_EQ(plain.digest, audited.digest);
  EXPECT_EQ(plain.events, audited.events);
  EXPECT_GT(audited.checks, 0u);       // the traps actually fired
  EXPECT_EQ(audited.violations, 0u);   // and the labels were honest
}

// A routed (multi-switch) run exercises the Switch shared-state traps
// too; an honestly-labelled tree stays clean under audit.
TEST(ScopeAuditor, CleanClosRunAuditsCleanly) {
  core::NetworkProfile profile = core::iwarp_profile();
  profile.fabric = topo::FabricSpec{2, 8, 1.0, hw::FlowControl::kLossy};
  const WriteRun r = run_writes(profile, 8, /*attach_auditor=*/true);
  EXPECT_GT(r.checks, 0u);
  EXPECT_EQ(r.violations, 0u);
}

// The mutation self-test: arm the deliberately mislabeled wire-hop post
// (src/hw/fabric.cpp labels the switch-internal admit event with the
// frame's source node instead of scope -1). The Switch's shared-state
// trap must catch the lie on every routed frame.
TEST(ScopeAuditor, CatchesMislabeledWireScopeMutation) {
  core::NetworkProfile profile = core::iwarp_profile();
  profile.fabric = topo::FabricSpec{2, 8, 1.0, hw::FlowControl::kLossy};
  profile.switch_cfg.mutation_mislabel_wire_scope = true;
  const WriteRun r = run_writes(profile, 8, /*attach_auditor=*/true);
  EXPECT_GT(r.violations, 0u);
}

}  // namespace
}  // namespace fabsim
