#pragma once
// hotpath_check self-test fixture: the clean tree. One Engine::dispatch
// root, one FABSIM_HOT leaf, one FABSIM_COLD stop whose body allocates
// (legally: the walk must not scan past the cold marker), one post()
// continuation lambda, and exactly one waived finding with a rationale.
// Registry::dump's `for (int v : snapshot()) {` is a call closing a
// for-range header, not a definition of `snapshot`: if the analyzer took
// it for one, Engine::dispatch's `pump_.buffer().snapshot(ev)` would
// resolve to that loop body and flag its printf.

namespace fixdev {

class Buffer {
 public:
  int snapshot(int n) const;
};

class Registry {
 public:
  void dump();

 private:
  std::vector<int> snapshot() const;
};

class Pump {
 public:
  FABSIM_HOT void step(int token);
  FABSIM_COLD void rebuild();
  Buffer& buffer();

 private:
  int credits_ = 0;
  int* table_ = nullptr;
};

class Engine {
 public:
  void dispatch(int ev);

 private:
  Pump pump_;
};

}  // namespace fixdev
