#include "probe.hpp"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cstdlib>
#include <new>

namespace fabricbench {
namespace {
// The benchmark is single-threaded, so a plain counter is exact.
std::uint64_t g_heap_allocs = 0;  // NOLINT(global-state): operator new has no object to hang it on

void* counted_alloc(std::size_t size) {
  ++g_heap_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_heap_allocs;
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

rusage self_usage() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}
}  // namespace

double wall_now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t heap_allocs() { return g_heap_allocs; }

std::uint64_t minor_faults() { return static_cast<std::uint64_t>(self_usage().ru_minflt); }

double peak_rss_mb() { return static_cast<double>(self_usage().ru_maxrss) / 1024.0; }

}  // namespace fabricbench

// Counting replacements of the global allocation functions. Coroutine
// frames, std::function boxes, shared_ptr control blocks and container
// growth all pass through here, so the tally sees heap traffic that the
// simulator's own CountingAllocator seam (event-queue storage only)
// does not.
void* operator new(std::size_t size) { return fabricbench::counted_alloc(size); }
void* operator new[](std::size_t size) { return fabricbench::counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return fabricbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return fabricbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return fabricbench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return fabricbench::counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
