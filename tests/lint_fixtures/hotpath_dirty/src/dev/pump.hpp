#pragma once
// hotpath_check self-test fixture: the dirty tree. Engine::dispatch
// commits one violation per rule (plus one inside a post() lambda and a
// dormant mutation seam for the --mutation polarity case); the
// self-test asserts every tag fires. Nic/Rnic check that the walk
// follows calls into a base class and into a derived override; Conn
// checks that it types `conn.peer->` through a member of a local's type;
// Spy checks that a call through an EngineObserver reaches every override.

namespace fixdev {

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  virtual void end_event(int /*ev*/) {}
};

class Spy final : public EngineObserver {
 public:
  void end_event(int ev) override;

 private:
  char* buf_ = nullptr;
};

class Engine {
 public:
  void dispatch(int ev);

 private:
  char* buf_ = nullptr;
  int ctr_ = 0;
  bool armed_ = true;
  EngineObserver* observers_[2] = {};
};

class Nic;

struct Conn {
  Nic* peer = nullptr;
  int peer_id = -1;
};

class Nic {
 protected:
  void place(int ev);
  void fail(Conn& conn);
  void peer_failed(int id);
  virtual void transmit(int ev) = 0;
  int log_[4] = {};
};

class Rnic final : public Nic {
 public:
  void deliver(int ev);

 private:
  void transmit(int ev) override;
  char* buf_ = nullptr;
};

}  // namespace fixdev
