// Fixture: behavioural-rule positives, one per rule.
#include <sys/mman.h>  // Rule 13: page mappings outside src/hw/memory.cpp.

#include <chrono>
#include <cstdlib>

namespace fixture {

void Bad::tick() {
  // Rule 3: host clock in simulation code.
  auto t0 = std::chrono::steady_clock::now();
  // Rule 4: raw new outside a smart-pointer constructor.
  int* leak = new int(3);
  // Rule 5: unseeded C randomness.
  int r = rand();
  // Rule 6: [&] default capture handed to Engine::post.
  engine().post(now(), [&] { *leak += r; });
  // Rule 7: range-for over an unordered container.
  for (auto& kv : table_) {
    kv.second += 1;
  }
  // Rule 8: hand-built Switch outside src/topo/.
  auto sw = std::make_unique<hw::Switch>(config());
  // Rule 9: failure seam driven outside src/topo/ and src/fault/.
  sw->set_switch_down(true);
  // Rule 13: a private mapping nothing in hw::Buffer accounts for.
  void* pages = mmap(nullptr, 4096, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
}

}  // namespace fixture
