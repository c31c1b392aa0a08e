// FabricHot-Check: hot-path purity annotations + the runtime allocation
// budget auditor.
//
// The engine speed campaign (ROADMAP item 1) is judged in events/sec,
// and that number is only trustworthy if the dispatch path stays *pure*:
// no heap allocation, no wall-clock or syscall/IO, no throw on the
// steady-state path every event funnels through. Convention cannot hold
// that line — one `std::function` capture or one `push_back` into an
// unbounded vector silently re-introduces a malloc per event. This
// header provides both halves of the gate that makes purity a checked
// contract, in the same playbook as FabricScope-Check (scope.hpp):
//
//  1. *Static annotations* — `FABSIM_HOT` and `FABSIM_COLD` mark function
//     definitions (place before the return type, e.g.
//     `FABSIM_HOT void Rnic::emit_segment(...)`). They expand to nothing;
//     `scripts/hotpath_check.py` parses them and computes call-graph
//     reachability from `Engine::dispatch` through every `post()`
//     continuation body:
//       FABSIM_HOT   this function is on the per-event dispatch path and
//                    must satisfy the purity rules (also scanned even if
//                    the call-graph walk cannot reach it).
//       FABSIM_COLD  this function is reachable from hot code but runs
//                    only on exceptional paths (error handling, teardown,
//                    retry exhaustion); traversal stops here and its body
//                    is exempt from the purity rules.
//     A hot-reachable impurity the analyzer cannot prove harmless needs
//     an inline `// HOT-OK(rationale)` waiver — allowed, but only with a
//     written rationale, recorded in results/hotpath_report.json.
//
//  2. *Dynamic corroboration* — a HotpathAuditor attached to the Engine
//     as an EngineObserver (src/sim/observer.hpp). The dispatch loop
//     measures each event's prof::CountingAllocator traffic and hands
//     it to end_event(); the auditor charges it against a per-event
//     budget (default 0). The Engine excuses the amortized growth of its
//     own event-queue storage (a doubling reallocation is the one
//     allocation the zero-alloc contract permits); everything else over
//     budget is reported through the InvariantMonitor as a
//     `hot_alloc_budget` violation, so every FABSIM_CHECK bench
//     cross-checks the static verdicts on real traffic. Attaching the
//     auditor never posts events or advances time: run digests stay
//     byte-identical (pinned by tests/hotpath_test.cpp).
#pragma once

#include <cstdint>
#include <string>

#include "check/invariant.hpp"
#include "sim/metrics.hpp"
#include "sim/observer.hpp"
#include "sim/prof.hpp"
#include "sim/time.hpp"

// --- Static annotation markers (parsed by scripts/hotpath_check.py) --------
//
// Placed before a function definition's return type. They compile to
// nothing — the analyzer reads the source text.
#define FABSIM_HOT
#define FABSIM_COLD

// Mutation seam for the gate's self-test: when the (runtime) `armed`
// expression is true, performs one deliberate tracked allocation on the
// dispatch path. scripts/hotpath_check.py ignores the dormant seam but
// flags it as a hot allocation under --mutation, and the HotpathAuditor
// traps it dynamically when armed (tests/hotpath_test.cpp) — proving the
// gate can actually fail, both statically and at runtime.
#define FABSIM_MUTATION_HOTALLOC(armed)                                     \
  do {                                                                      \
    if (armed) {                                                            \
      ::fabsim::prof::CountingAllocator<char> fabsim_hotalloc_allocator_;   \
      char* fabsim_hotalloc_block_ = fabsim_hotalloc_allocator_.allocate(1); \
      fabsim_hotalloc_allocator_.deallocate(fabsim_hotalloc_block_, 1);     \
    }                                                                       \
  } while (0)

namespace fabsim::hot {

/// Runtime per-dispatch allocation budget auditor. Attach with
/// Engine::attach(); violations are funnelled through an
/// InvariantMonitor when one is set (counting-mode FABSIM_CHECK runs
/// surface them as check.sim.hot_alloc_budget counters, gated by
/// scripts/assert_clean.py); without a monitor the auditor throws
/// check::InvariantViolationError directly.
class HotpathAuditor final : public EngineObserver {
 public:
  explicit HotpathAuditor(check::InvariantMonitor* monitor = nullptr,
                          std::uint64_t allocs_per_event_budget = 0)
      : monitor_(monitor), budget_(allocs_per_event_budget) {}

  /// The allocation tally behind prof::CountingAllocator is armed only
  /// while someone watches it (refcounted, so the auditor and a Profiler
  /// can co-exist).
  void on_attach() override {
    if (attached_) return;
    attached_ = true;
    prof::acquire_alloc_tracking();
  }
  void on_detach() override {
    if (!attached_) return;
    attached_ = false;
    prof::release_alloc_tracking();
  }

  void begin_event(Time at, int /*scope*/) override { at_ = at; }
  void end_event(const EventAllocs& allocs) override {
    ++checks_;
    if (allocs.allocs > allocs.excused + budget_) violation(allocs.allocs - allocs.excused);
  }

  /// hot.checks / hot.violations — a zero hot.checks with the auditor
  /// on means no event was bracketed.
  void publish(MetricRegistry& registry) const override {
    registry.counter("hot.checks").set(checks_);
    registry.counter("hot.violations").set(violations_);
  }

  std::uint64_t checks() const { return checks_; }
  std::uint64_t violations() const { return violations_; }

 private:
  FABSIM_COLD void violation(std::uint64_t unexcused) {
    ++violations_;
    std::string detail = "event dispatched " + std::to_string(unexcused) +
                         " tracked allocation(s); the hot-path budget is " +
                         std::to_string(budget_) +
                         " (amortized queue growth is excused separately)";
    if (monitor_ != nullptr) {
      monitor_->report(at_, check::Layer::kSim, -1, "hot_alloc_budget", std::move(detail));
      return;
    }
    throw check::InvariantViolationError(
        check::InvariantViolation{at_, check::Layer::kSim, -1, "hot_alloc_budget",
                                  std::move(detail)});
  }

  check::InvariantMonitor* monitor_ = nullptr;
  std::uint64_t budget_ = 0;
  bool attached_ = false;
  Time at_ = 0;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace fabsim::hot
