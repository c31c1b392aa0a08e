#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <ranges>
#include <stdexcept>
#include <string>

#include "check/audits.hpp"
#include "check/invariant.hpp"

namespace fabsim {

namespace detail {

void Driver::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) const noexcept {
  Engine* engine = h.promise().engine;
  engine->drivers_.erase(h.address());
  engine->daemons_.erase(h.address());
  h.destroy();
}

}  // namespace detail

Engine::~Engine() {
  // Destroy any still-suspended processes. Driver frames own their Task
  // parameter, whose destructor recursively destroys child frames.
  // Hash order is fine here: this runs after the event loop, so nothing
  // it does can reach the run digest or any simulated state.
  for (void* address : drivers_) {  // NOLINT(unordered-iteration)
    std::coroutine_handle<>::from_address(address).destroy();
  }
  // Dying with observers attached must not leave the global allocation
  // seam armed for whatever engine comes next.
  for (EngineObserver* observer : std::views::reverse(observers_)) observer->on_detach();
}

void Engine::attach(EngineObserver& observer) {
  if (std::ranges::find(observers_, &observer) != observers_.end()) return;
  observers_.push_back(&observer);
  observer.on_attach();
}

void Engine::detach(EngineObserver& observer) {
  const auto it = std::ranges::find(observers_, &observer);
  if (it == observers_.end()) return;
  observers_.erase(it);
  observer.on_detach();
}

FABSIM_HOT void Engine::observe_post(std::uint64_t growths) {
  if (growths > 0) {
    event_growth_ += growths;
    for (EngineObserver* observer : observers_) observer->on_queue_growth(growths);
  }
  for (EngineObserver* observer : observers_) observer->on_post(queue_.size());
}

FABSIM_COLD void Engine::report_past_post(Time at) {
  monitor_->report(now_, check::Layer::kSim, -1, "time_monotone",
                   "event posted into the past: at " + std::to_string(to_us(at)) +
                       "us < now " + std::to_string(to_us(now_)) + "us");
}

void Engine::post_resume(Time at, std::coroutine_handle<> h) {
  post(at, [h] { h.resume(); });
}

detail::Driver Engine::drive(Engine* engine, Task<> task,
                             std::shared_ptr<detail::ProcessState> state) {
  try {
    co_await std::move(task);
  } catch (...) {
    engine->note_exception(std::current_exception());
  }
  state->done = true;
  for (std::coroutine_handle<> joiner : state->joiners) {
    engine->post_resume(engine->now(), joiner);
  }
  state->joiners.clear();
}

Process Engine::spawn_impl(Task<> task, bool daemon) {
  auto state = std::make_shared<detail::ProcessState>();
  detail::Driver driver = drive(this, std::move(task), state);
  driver.handle.promise().engine = this;
  drivers_.insert(driver.handle.address());
  if (daemon) daemons_.insert(driver.handle.address());
  driver.handle.resume();  // run to first suspension point
  check_exception();
  return Process{std::move(state)};
}

Process Engine::spawn(Task<> task) { return spawn_impl(std::move(task), /*daemon=*/false); }

Process Engine::spawn_daemon(Task<> task) { return spawn_impl(std::move(task), /*daemon=*/true); }

void Engine::check_exception() {
  if (pending_exception_) {
    std::exception_ptr e = std::exchange(pending_exception_, nullptr);
    std::rethrow_exception(e);
  }
}

void Engine::account_event(Time at, std::uint64_t seq) {
  assert(at >= now_);
  if (monitor_ != nullptr && at < now_) {
    monitor_->report(now_, check::Layer::kSim, -1, "time_monotone",
                     "event dequeued behind the clock: at " + std::to_string(to_us(at)) +
                         "us < now " + std::to_string(to_us(now_)) + "us");
  }
  now_ = at;
  ++events_processed_;
  // FNV-1a over (at, seq): a cheap, order-sensitive fingerprint of the
  // full event schedule. Any nondeterminism — iteration over pointer-
  // keyed containers, uninitialized padding, wall-clock leakage — shows
  // up as a digest mismatch between repeated runs.
  digest_mix(static_cast<std::uint64_t>(at));
  digest_mix(seq);
}

void Engine::on_drain() {
  if (monitor_ == nullptr) return;
  check::audit_quiescence(drivers_.size(), daemons_.size())
      .report(monitor_, now_, check::Layer::kSim, -1);
  monitor_->run_final_checks();
}

FABSIM_HOT Engine::Item Engine::pop_next() {
  // Materialize the co-enabled set: every queued event sharing the head
  // timestamp. The heap yields them in ascending seq order, so index 0
  // is the default insertion-order pick. ready_/view_ are members whose
  // capacity persists across calls.
  const Time head = queue_.top().at;
  ready_.clear();
  while (!queue_.empty() && queue_.top().at == head) {
    for (EngineObserver* observer : observers_) observer->on_dequeue(queue_.size());
    // HOT-OK(policy materialization scratch; member capacity reused across calls)
    ready_.push_back(queue_.pop_top());
  }
  std::size_t pick = 0;
  if (ready_.size() > 1) {
    view_.clear();
    // HOT-OK(policy materialization scratch; member capacity reused across calls)
    view_.reserve(ready_.size());
    // HOT-OK(policy materialization scratch; member capacity reused across calls)
    for (const Item& item : ready_) view_.push_back(ReadyEvent{item.at, item.seq, item.scope});
    pick = policy_->choose(view_);
    if (pick >= ready_.size()) pick = 0;  // defensive: contract says < size
  }
  Item chosen = std::move(ready_[pick]);
  for (std::size_t i = 0; i < ready_.size(); ++i) {
    if (i != pick) {
      const int growths =
          queue_.push(ready_[i].at, ready_[i].seq, ready_[i].scope, std::move(ready_[i].fn));
      // Outside the dispatch bracket, so growth here is counted but
      // never charged against (nor excused from) the per-event budget.
      for (EngineObserver* observer : observers_) {
        if (growths > 0) observer->on_queue_growth(static_cast<std::uint64_t>(growths));
        observer->on_requeue(queue_.size());
      }
    }
  }
  ready_.clear();
  return chosen;
}

// One loop iteration. Without a SchedulePolicy the callback runs
// in place from its slab slot — the slot is address-stable across any
// posts the callback makes and is only destroyed + recycled afterwards
// — so the pop side of dispatch moves zero payload bytes. The policy
// path still materializes owned Items (it must park candidates in
// ready_), which is fine: schedule exploration is not a perf path.
void Engine::step() {
  if (policy_ == nullptr) {
    for (EngineObserver* observer : observers_) observer->on_dequeue(queue_.size());
    const EventQueue::Key key = queue_.pop_key();
    account_event(key.at, key.seq);
    dispatch(key.scope, queue_.payload(key.slot));
    queue_.release(key.slot);
  } else {
    Item item = pop_next();
    account_event(item.at, item.seq);
    dispatch(item.scope, item.fn);
  }
  check_exception();
}

void Engine::run() {
  for (EngineObserver* observer : observers_) observer->on_run_begin(events_processed_);
  while (!queue_.empty()) step();
  for (EngineObserver* observer : std::views::reverse(observers_)) {
    observer->on_run_end(events_processed_);
  }
  on_drain();
}

void Engine::run_until(Time t) {
  for (EngineObserver* observer : observers_) observer->on_run_begin(events_processed_);
  while (!queue_.empty() && queue_.top().at <= t) step();
  for (EngineObserver* observer : std::views::reverse(observers_)) {
    observer->on_run_end(events_processed_);
  }
  if (t > now_) now_ = t;
}

}  // namespace fabsim
