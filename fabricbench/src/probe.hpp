// Outside-in host counters of the benchmark process: host clocks, the
// global heap-allocation count and getrusage page faults / peak RSS.
// Nothing here is read by the simulator; the benchmark samples them
// around each call it makes into the simulator.
#pragma once

#include <cstdint>

namespace fabricbench {

/// Wall-clock seconds on a monotonic clock. Only the length of a run is
/// measured with it.
double wall_now_s();

/// CPU seconds (user + system) this process has used. Every timed phase
/// is measured with it: on a shared host, time the scheduler gives to
/// other processes would otherwise count as the simulator's.
double cpu_now_s();

/// Every global operator new / new[] (all overloads) since process start.
std::uint64_t heap_allocs();

/// Minor page faults of this process since start.
std::uint64_t minor_faults();

/// Peak resident set size of this process, in MB (2^20 bytes).
double peak_rss_mb();

}  // namespace fabricbench
