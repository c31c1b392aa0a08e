// FabricScope-Check: scope/ownership annotations + the runtime ScopeAuditor.
//
// The Engine's `post(at, scope, fn)` scope labels are the foundation the
// parallel engine (ROADMAP item 3) will stand on: `ready_events_commute`
// treats two co-enabled events with different non-negative scopes as
// commuting, and a cross-shard barrier will one day trust the same labels
// to decide which continuations may run on which worker. A mislabeled
// capture therefore silently breaks DPOR soundness today and digest
// deterministic parallelism tomorrow. This header provides both halves of
// the gate that keeps the labels honest:
//
//  1. *Static annotations* — `FABSIM_OWNED_BY(node)`, `FABSIM_SHARED` and
//     `FABSIM_ENGINE_LOCAL` are section markers placed among the member
//     declarations of every class whose state posted continuations touch
//     (NIC/HCA/endpoint/QP/Conn/Switch/Topology...). They expand to
//     nothing at compile time; `scripts/scope_check.py` parses them and
//     proves, per `Engine::post` call site, that the scope label's
//     confinement claim is supported by the lambda's explicit captures
//     (rule 6 of conventions_lint bans `[&]`, so captures are enumerable).
//
//     Vocabulary (see docs/static_analysis.md for the full contract):
//       FABSIM_OWNED_BY(expr)  following members are mutable state of the
//                              node identified by `expr` (e.g. `port_`);
//                              only events labelled with that scope — or
//                              scope -1 — may touch them.
//       FABSIM_SHARED          following members are mutable cross-node
//                              state (switch queues, LFTs, failover
//                              bookkeeping); touching them requires
//                              scope -1 ("conflicts with everything").
//       FABSIM_ENGINE_LOCAL    following members are engine plumbing or
//                              run-constant wiring (Engine*/Tracer*
//                              pointers, configs, peer tables fixed at
//                              build time); safe to read from any scope.
//
//  2. *Dynamic corroboration* — a ScopeAuditor attached to the Engine as
//     an EngineObserver (src/sim/observer.hpp; one branch per event and
//     per trap when nothing is attached). The dispatch loop tells it the
//     scope label of the event being dispatched; annotated state entry
//     points call the FABSIM_AUDIT_OWNED / FABSIM_AUDIT_SHARED trap
//     macros, and an access whose owner does not match the dispatching
//     event's claimed scope is reported as a FabricCheck violation
//     (`sim.scope_confinement` / `sim.scope_shared_state` family rules).
//     Every FABSIM_CHECK bench and the chaos soak thereby cross-check the
//     static verdicts on real traffic.
//
// The auditor never posts events and never advances time: attaching one
// leaves the simulated timeline byte-identical (pinned by
// tests/scope_test.cpp), exactly like the InvariantMonitor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "sim/hot.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/time.hpp"

// --- Static annotation markers (parsed by scripts/scope_check.py) ----------
//
// Section markers: place among member declarations like an access
// specifier; every member that follows (until the next marker) is in the
// declared ownership class. They compile to nothing — the analyzer reads
// the source text.
#define FABSIM_OWNED_BY(owner_expr) static_assert(true, "scope-check section marker")
#define FABSIM_SHARED static_assert(true, "scope-check section marker")
#define FABSIM_ENGINE_LOCAL static_assert(true, "scope-check section marker")

// Mutation seam for the gate's self-test: expands to `clean` unless the
// (runtime) `armed` expression is true. scripts/scope_check.py reads the
// first argument by default and the second under --mutation, so CI can
// prove the static gate actually fails on a mislabeled scope while the
// shipped schedule stays untouched.
#define FABSIM_MUTATION_SCOPE(clean, mutated, armed) ((armed) ? (mutated) : (clean))

namespace fabsim::scope {

/// Runtime scope auditor. Attach with Engine::attach(); the dispatch loop
/// brackets every event with begin_event/end_event, and the FABSIM_AUDIT_*
/// traps below land in owned_access/shared_access. Violations are
/// funnelled through an InvariantMonitor when one is set (so counting-mode
/// FABSIM_CHECK runs surface them as check.sim.scope_* counters and the
/// assert_clean.py gate catches them); without a monitor the auditor is
/// fatal and throws check::InvariantViolationError directly.
class ScopeAuditor final : public EngineObserver {
 public:
  explicit ScopeAuditor(check::InvariantMonitor* monitor = nullptr) : monitor_(monitor) {}

  void begin_event(Time at, int event_scope) override {
    at_ = at;
    current_scope_ = event_scope;
    active_ = true;
  }
  void end_event(const EventAllocs& /*allocs*/) override {
    active_ = false;
    current_scope_ = -1;
  }

  /// Trap: state owned by `owner_node` is being touched. Legal from an
  /// event labelled with that node's scope or with -1 (no claim).
  void owned_access(check::Layer layer, int owner_node, const char* what) override {
    if (!active_) return;
    ++checks_;
    if (current_scope_ >= 0 && owner_node >= 0 && current_scope_ != owner_node) {
      violation(layer, owner_node, "scope_confinement",
                std::string(what) + ": state owned by node " + std::to_string(owner_node) +
                    " touched by an event labelled scope " + std::to_string(current_scope_));
    }
  }

  /// Trap: cross-node shared state is being touched. Legal only from an
  /// event labelled -1 — a confined label claims the event cannot reach
  /// shared state, which is exactly what DPOR reduction relies on.
  void shared_access(check::Layer layer, int node, const char* what) override {
    if (!active_) return;
    ++checks_;
    if (current_scope_ >= 0) {
      violation(layer, node, "scope_shared_state",
                std::string(what) + ": shared state touched by an event labelled scope " +
                    std::to_string(current_scope_) + " (shared state requires scope -1)");
    }
  }

  std::uint64_t checks() const { return checks_; }
  std::uint64_t violations() const { return violations_; }

  /// scope.checks / scope.violations. A zero scope.checks with the
  /// auditor on means the traps never ran — as suspicious as a violation.
  void publish(MetricRegistry& registry) const override {
    registry.counter("scope.checks").set(checks_);
    registry.counter("scope.violations").set(violations_);
  }

 private:
  FABSIM_COLD void violation(check::Layer layer, int node, const char* rule, std::string detail) {
    ++violations_;
    if (monitor_ != nullptr) {
      monitor_->report(at_, layer, node, rule, std::move(detail));
      return;
    }
    throw check::InvariantViolationError(
        check::InvariantViolation{at_, layer, node, rule, std::move(detail)});
  }

  check::InvariantMonitor* monitor_ = nullptr;
  // Traps are no-ops outside dispatch: spawn()'s run-to-first-suspension
  // happens in caller context, where no scope label exists to check.
  bool active_ = false;
  int current_scope_ = -1;  ///< label of the dispatching event; -1 = unconfined
  Time at_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace fabsim::scope

// --- Dynamic access traps ---------------------------------------------------
//
// Placed at the entry points posted continuations funnel through (deliver,
// pump, timeout handlers, switch admission, failover). One branch when no
// observer is attached, like every other FabricCheck hook. `eng` must be
// an Engine (lvalue).
#define FABSIM_AUDIT_OWNED(eng, layer, owner_node, what) \
  (eng).audit_owned((layer), (owner_node), (what))

#define FABSIM_AUDIT_SHARED(eng, layer, node, what) (eng).audit_shared((layer), (node), (what))
