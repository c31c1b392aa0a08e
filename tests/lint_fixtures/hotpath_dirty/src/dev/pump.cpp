#include "dev/pump.hpp"

namespace fixdev {

void Engine::dispatch(int ev) {
  buf_ = new char[64];                          // -> hot_alloc
  log_.push_back(ev);                           // -> hot_growth
  std::function<void(int)> cb;                  // -> hot_stdfunction
  auto t0 = std::chrono::steady_clock::now();   // -> hot_wallclock
  std::cout << ev;                              // -> hot_io
  for (EngineObserver* observer : observers_) observer->end_event(ev);  // virtual seam
  FABSIM_MUTATION_HOTALLOC(armed_);             // dormant; -> mutation_hotalloc under --mutation
  queue_.post(1.0, [this] { buf_ = new char[8]; });  // -> hot_alloc in the lambda
  if (ev < 0) throw ev;                         // -> hot_throw
  ctr_ += 1;  // HOT-OK()                          -> empty_waiver (no rationale)
}

FABSIM_HOT void Rnic::deliver(int ev) { place(ev); }  // base-class method

void Nic::place(int ev) {
  log_.push_back(ev);  // -> hot_growth, reached only through Rnic
  transmit(ev);        // virtual: reaches Rnic::transmit
  Conn conn;
  fail(conn);
}

void Nic::fail(Conn& conn) { conn.peer->peer_failed(conn.peer_id); }  // peer: a Conn member

void Nic::peer_failed(int id) { throw id; }  // -> hot_throw, reached only through Conn::peer

void Rnic::transmit(int ev) { buf_ = new char[ev]; }  // -> hot_alloc in the override

void Spy::end_event(int ev) { buf_ = new char[ev]; }  // -> hot_alloc, reached only through EngineObserver

}  // namespace fixdev
