#include "dev/pump.hpp"

namespace fixdev {

FABSIM_HOT void Pump::step(int token) { credits_ += token; }

FABSIM_COLD void Pump::rebuild() {
  // Cold by declaration: build/recovery path, allocation is fine here
  // and the analyzer must not flag it.
  table_ = new int[16];
}

void Registry::dump() {
  for (int v : snapshot()) {
    std::printf("%d\n", v);
  }
}

void Engine::dispatch(int ev) {
  pump_.step(ev);
  pump_.buffer().snapshot(ev);
  if (ev == 0) {
    pump_.rebuild();
  }
  queue_.post(1.0, [this] { pump_.step(1); });
  if (ev < 0) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw ev;
  }
}

}  // namespace fixdev
