// EngineObserver: the one attach/detach seam for host-side watchers of
// the dispatch loop (Profiler, scope::ScopeAuditor, hot::HotpathAuditor).
//
// Contract:
//   * caller-owned; Engine::attach() calls on_attach(), Engine::detach()
//     calls on_detach(), and the engine's death detaches every observer
//     still attached — so an observer must outlive its engine or be
//     detached first; attach and detach between events, never from a
//     callback;
//   * begin hooks run in attach order, end hooks in reverse;
//   * observers never post, cancel or reorder events, so any set of them
//     leaves run_digest() byte-identical (pinned by tests);
//   * with none attached, post/step/dispatch and each FABSIM_AUDIT_* trap
//     cost one `observers_.empty()` branch.
// Every hook defaults to a no-op; an observer overrides what it watches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "check/invariant.hpp"
#include "sim/time.hpp"

namespace fabsim {

class MetricRegistry;

/// prof::CountingAllocator traffic of one event callback, measured once
/// by the Engine for every observer.
struct EventAllocs {
  std::uint64_t allocs = 0;   ///< tracked allocations the callback made
  std::uint64_t excused = 0;  ///< of those, the event queue's amortized growth
};

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  virtual void on_attach() {}
  virtual void on_detach() {}

  /// Queue traffic: a post (depth after), a pop (depth before), a
  /// SchedulePolicy requeue (depth after), and a backing-store growth
  /// that cost `allocs` tracked allocations.
  virtual void on_post(std::size_t /*depth_after*/) {}
  virtual void on_dequeue(std::size_t /*depth_before*/) {}
  virtual void on_requeue(std::size_t /*depth_after*/) {}
  virtual void on_queue_growth(std::uint64_t /*allocs*/) {}

  /// Bracket one event callback, with the scope label it was posted under.
  virtual void begin_event(Time /*at*/, int /*scope*/) {}
  virtual void end_event(const EventAllocs& /*allocs*/) {}

  /// Bracket one Engine::run / run_until loop.
  virtual void on_run_begin(std::uint64_t /*events_processed*/) {}
  virtual void on_run_end(std::uint64_t /*events_processed*/) {}

  /// FABSIM_AUDIT_OWNED / FABSIM_AUDIT_SHARED traps (src/sim/scope.hpp).
  virtual void owned_access(check::Layer /*layer*/, int /*owner_node*/, const char* /*what*/) {}
  virtual void shared_access(check::Layer /*layer*/, int /*node*/, const char* /*what*/) {}

  /// Export this observer's counters (Cluster::collect_metrics).
  virtual void publish(MetricRegistry& /*registry*/) const {}
};

}  // namespace fabsim
