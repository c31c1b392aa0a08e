// FabricProf: host-side engine profiler.
//
// Everything else in this tree observes *simulated* time; the Profiler
// is the one component that is allowed to look at the host clock. It is
// an EngineObserver (src/sim/observer.hpp): caller-owned, attached with
// Engine::attach(), and free when detached — one predictable branch per
// event, pinned by a byte-identical run_digest() test and by the
// events/sec trajectory in BENCH_engine.json.
//
// What it measures, and how the cost is bounded:
//   * dispatch host time — wall-clock nanoseconds spent inside event
//     callbacks, attributed per scope label (the node-confinement label
//     Engine::post() already carries for FabricExplore). The clock is
//     only read for 1-in-N dispatches (Config::sample_stride), and the
//     sampling decision is a counter test, never a clock read, so the
//     *simulated* results are invariant under any stride (pinned by
//     tests).
//   * event-queue churn — posts, heap pops, policy requeues, the peak
//     queue depth, and an accumulated "heapify cost" (sum of
//     bit_width(depth) over every heap operation — the O(log n) work a
//     binary heap does per push/pop). This is the number the ROADMAP's
//     calendar-queue replacement must drive toward O(1) per event.
//   * allocation churn — a counting-allocator seam (prof::
//     CountingAllocator) that the Engine's event-queue storage runs on.
//     Tracking is off unless a Profiler is attached; the delta since
//     attach is published, so per-post heap traffic becomes a visible,
//     regressable number. Only CountingAllocator traffic counts: other
//     heap allocations (coroutine frames, payload snapshots) are not
//     seen by this seam.
//   * host-time trace lanes — the sampled dispatch slices are retained
//     (up to Config::max_slices) and exported by the Chrome-trace
//     writer as duration events on a dedicated "host (profiler)"
//     process, next to the simulated-time lanes.
//
// Results surface through publish() as a `prof.*` taxonomy in the
// MetricRegistry (counters plus a prof.host.events_per_sec gauge) and
// through accessors for benches that want the numbers directly.
//
// Not thread-safe: like the Engine itself, one Profiler serves one
// single-threaded simulation at a time.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/observer.hpp"
#include "sim/time.hpp"

namespace fabsim {

class MetricRegistry;

namespace prof {

/// Global allocation tally behind the counting-allocator seam. The
/// Profiler snapshots it at attach and publishes the delta.
struct AllocStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes_allocated = 0;
  std::uint64_t bytes_freed = 0;
};

namespace detail {
// NOLINT(global-state): operator new/delete have no object to hang state
// off — the counting-allocator seam is necessarily process-global. It is
// host-side observability only (like the wall clock, rule 10): nothing
// simulated reads it, so it can't couple event scopes or feed the digest.
inline AllocStats alloc_stats_storage;   // NOLINT(global-state): see above
inline int alloc_tracking_refs = 0;      // NOLINT(global-state): see above
}  // namespace detail

inline AllocStats& alloc_stats() { return detail::alloc_stats_storage; }
inline bool alloc_tracking_enabled() { return detail::alloc_tracking_refs > 0; }

/// The tracking seam is refcounted: a Profiler and a hot::HotpathAuditor
/// each hold one reference while attached, so either can arm it without
/// the other's detach disarming it underneath them.
inline void acquire_alloc_tracking() { ++detail::alloc_tracking_refs; }
inline void release_alloc_tracking() {
  if (detail::alloc_tracking_refs > 0) --detail::alloc_tracking_refs;
}

/// std::allocator with accounting: containers on the event/continuation
/// posting path (the Engine's queue storage) allocate through this, so
/// heap traffic per posted event is measurable instead of folklore.
/// Costs one branch per (rare, amortized) container growth when
/// tracking is off.
template <typename T>
struct CountingAllocator {
  using value_type = T;

  CountingAllocator() noexcept = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  T* allocate(std::size_t n) {
    if (alloc_tracking_enabled()) {
      AllocStats& stats = alloc_stats();
      ++stats.allocs;
      stats.bytes_allocated += n * sizeof(T);
    }
    return std::allocator<T>{}.allocate(n);
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (alloc_tracking_enabled()) {
      AllocStats& stats = alloc_stats();
      ++stats.frees;
      stats.bytes_freed += n * sizeof(T);
    }
    std::allocator<T>{}.deallocate(p, n);
  }

  template <typename U>
  bool operator==(const CountingAllocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace prof

class Profiler final : public EngineObserver {
 public:
  struct Config {
    /// Read the host clock for 1 in this many dispatches. 1 = every
    /// event (max detail, max overhead); larger strides bound the
    /// profiler's own cost on hot runs. Never affects simulated results.
    std::uint32_t sample_stride = 16;
    /// Retained sampled slices for the Chrome-trace host lanes; further
    /// samples still feed the aggregates but drop their slice record.
    /// (No digit separator: scripts/cxx_scan.py would read its `'` as a
    /// char literal and hide this class's hooks from hotpath_check.)
    std::size_t max_slices = 65536;
  };

  /// One sampled dispatch, in host time relative to attach.
  struct Slice {
    double host_us_start;
    double host_us_dur;
    Time sim_at;  ///< simulated clock when the event ran
    int scope;    ///< Engine::post scope label; -1 = shared
  };

  Profiler() { sanitize(); }
  explicit Profiler(Config config) : config_(config) { sanitize(); }

  // --- EngineObserver hooks (hot path) -----------------------------
  // Everything here is O(1) and clock-free except the 1-in-stride
  // sampled begin_event / end_event pair.

  void on_attach() override;  ///< host epoch + allocation baseline; enables alloc tracking
  void on_detach() override;  ///< disables alloc tracking

  void on_post(std::size_t depth_after) override {
    ++posts_;
    note_heap_op(depth_after);
  }
  void on_dequeue(std::size_t depth_before) override {
    ++pops_;
    heapify_cost_ += std::bit_width(depth_before);
  }
  void on_requeue(std::size_t depth_after) override {
    ++requeues_;
    note_heap_op(depth_after);
  }
  /// Counted wherever it happens; the share inside a dispatch arrives
  /// as EventAllocs::excused, so allocs_per_event() reflects only the
  /// steady-state per-event cost.
  void on_queue_growth(std::uint64_t /*allocs*/) override { ++queue_growths_; }

  /// Samples the host clock for 1 in Config::sample_stride events (a
  /// counter test, never a clock read); tallies allocations for all.
  void begin_event(Time sim_now, int scope) override {
    in_sample_ = dispatch_tick_++ % config_.sample_stride == 0;
    if (in_sample_) begin_sampled(sim_now, scope);
  }
  void end_event(const EventAllocs& allocs) override;

  /// Bracket a dispatch loop (Engine::run / run_until): accumulates the
  /// wall time and event count the events/sec figure is computed from.
  void on_run_begin(std::uint64_t events_processed) override;
  void on_run_end(std::uint64_t events_processed) override;

  // --- results ------------------------------------------------------

  std::uint64_t posts() const { return posts_; }
  std::uint64_t pops() const { return pops_; }
  std::uint64_t requeues() const { return requeues_; }
  std::size_t peak_depth() const { return peak_depth_; }
  std::uint64_t heapify_cost() const { return heapify_cost_; }
  std::uint64_t sampled_dispatches() const { return sampled_; }
  std::uint64_t sampled_dispatch_ns() const { return sampled_ns_; }
  std::uint64_t run_host_ns() const { return run_ns_; }
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Events dispatched per host second across all run windows so far.
  double events_per_sec() const {
    return run_ns_ > 0 ? static_cast<double>(dispatched_) * 1e9 / static_cast<double>(run_ns_)
                       : 0.0;
  }

  /// (samples, host ns) per scope label, ordered: -1 (shared) first.
  const std::map<int, std::pair<std::uint64_t, std::uint64_t>>& by_scope() const {
    return by_scope_;
  }

  const std::vector<Slice>& slices() const { return slices_; }
  std::uint64_t slices_dropped() const { return slices_dropped_; }

  /// Allocation tally across every attach window so far (tracked
  /// containers only; the global seam is off while detached).
  prof::AllocStats alloc_delta() const;

  std::uint64_t queue_growths() const { return queue_growths_; }
  std::uint64_t dispatch_allocs() const { return dispatch_allocs_; }
  std::uint64_t dispatch_growth_allocs() const { return dispatch_growth_allocs_; }
  std::uint64_t alloc_events() const { return alloc_events_; }

  /// prof::CountingAllocator allocations per dispatched event in steady
  /// state (amortized event-queue growth excluded). Only the queue's
  /// storage runs on that allocator, so this is not all heap traffic:
  /// it reads 0.0 while FabricBench measures 0.2-1.2 heap allocations
  /// per event (sim.heap_allocs_per_event).
  double allocs_per_event() const {
    return alloc_events_ > 0 ? static_cast<double>(dispatch_allocs_ - dispatch_growth_allocs_) /
                                   static_cast<double>(alloc_events_)
                             : 0.0;
  }

  /// Export everything under "prof.": counters for the queue/dispatch/
  /// alloc tallies plus a prof.host.events_per_sec gauge. Per-scope
  /// detail lands under prof.dispatch.node<k>.* so Report::aggregate_key
  /// trims it.
  void publish(MetricRegistry& registry) const override;

  void reset();

 private:
  void sanitize() {
    if (config_.sample_stride == 0) config_.sample_stride = 1;
  }
  void note_heap_op(std::size_t depth) {
    if (depth > peak_depth_) peak_depth_ = depth;
    heapify_cost_ += std::bit_width(depth);
  }
  void begin_sampled(Time sim_now, int scope);

  Config config_{};
  std::uint64_t posts_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t requeues_ = 0;
  std::size_t peak_depth_ = 0;
  std::uint64_t heapify_cost_ = 0;

  std::uint64_t dispatch_tick_ = 0;
  std::uint64_t sampled_ = 0;
  std::uint64_t sampled_ns_ = 0;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> by_scope_;

  std::uint64_t run_ns_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t run_begin_events_ = 0;
  std::int64_t run_begin_ns_ = 0;
  bool in_run_ = false;

  std::int64_t epoch_ns_ = 0;
  std::int64_t sample_begin_ns_ = 0;
  Time sample_sim_at_ = 0;
  int sample_scope_ = -1;
  bool in_sample_ = false;

  std::uint64_t queue_growths_ = 0;
  std::uint64_t dispatch_allocs_ = 0;
  std::uint64_t dispatch_growth_allocs_ = 0;
  std::uint64_t alloc_events_ = 0;

  std::vector<Slice> slices_;
  std::uint64_t slices_dropped_ = 0;

  prof::AllocStats alloc_baseline_{};  ///< global tally at last attach
  prof::AllocStats alloc_accum_{};     ///< closed attach windows' delta
  bool attached_ = false;
};

}  // namespace fabsim
