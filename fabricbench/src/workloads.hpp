// FabricBench workloads: seeded job generators and the job executor.
//
// A job is one fresh core::Cluster built from generated inputs, driven
// through five timed phases in its own closed loop:
//   core.build     Cluster construction (topology, LFTs, NICs)
//   mpi.setup |    Cluster::setup_mpi() or QP create/establish/reg_mr,
//   verbs.setup    run to quiescence in its own Engine::run()
//   sim.run        spawn the workload processes, Engine::run()
//   core.collect   Cluster::collect_metrics()
//   core.teardown  destruction of the cluster and everything on it
// Everything between those calls (input generation, the output checks)
// is the job's own, unattributed time.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/calibration.hpp"
#include "sim/time.hpp"
#include "topo/spec.hpp"
#include "verbs/verbs.hpp"

namespace fabricbench {

using fabsim::Time;
using fabsim::core::Network;

enum class Workload { kMpiMesh, kVerbsStream, kClosIncast };

const char* workload_name(Workload workload);
bool parse_workload(const std::string& name, Workload* out);

// --- Generated inputs -------------------------------------------------

struct MeshStep {
  enum class Kind : std::uint8_t {
    kEagerRing,   ///< sendrecv with a ring neighbour, below every eager threshold
    kRndvRing,    ///< sendrecv with a ring neighbour, above every eager threshold
    kBurst,       ///< k eager sends received in reverse tag order (queue depth)
    kBarrier,
    kBcast,
    kAllreduce8,  ///< one double
    kAllreduce32k,
    kAlltoall,
  };
  Kind kind = Kind::kBarrier;
  std::uint32_t bytes = 0;
  int param = 0;  ///< ring shift, burst length or bcast root
};

struct MeshJob {
  Network network = Network::kIwarp;
  int ranks = 2;
  std::size_t eager_buffers = 16;
  std::vector<MeshStep> steps;
};

struct StreamConn {
  fabsim::verbs::Opcode op = fabsim::verbs::Opcode::kRdmaWrite;  ///< MX: always a send
  std::uint32_t bytes = 0;
  int messages = 1;
};

struct StreamJob {
  Network network = Network::kIwarp;
  std::vector<StreamConn> conns;
};

struct ClosJob {
  Network network = Network::kIwarp;
  fabsim::topo::FabricSpec fabric;
  int endpoints = 0;
  std::vector<std::pair<int, int>> flows;  ///< (src, dst)
  std::uint32_t chunk = 0;
  int chunks = 1;
  bool faults = false;
  std::uint64_t fault_seed = 0;  ///< picks the faulted links and seeds the FaultPlan
};

struct JobSpec {
  std::string id;  ///< "r<round>.j<slot>" for seeded jobs, "fixed.<name>" otherwise
  std::variant<MeshJob, StreamJob, ClosJob> job;
};

/// Jobs per round: one per (network, size class) stratum, so every round
/// carries the same mix and rounds are comparable with each other.
int round_size(Workload workload);

/// The seeded job at (round, slot). Depends only on its arguments, never
/// on how many jobs ran before it.
JobSpec make_job(Workload workload, std::uint64_t seed, int round, int slot);

/// Seed-independent jobs at the top of the generator's size range, one
/// per network; they run once per run so that the process's peak RSS is
/// set by fixed inputs rather than by the largest seeded job.
std::vector<JobSpec> envelope_jobs(Workload workload);

// --- Results ------------------------------------------------------------

/// The timed phases of a job, in order.
enum PhaseIndex { kBuild, kSetup, kRun, kCollect, kTeardown, kPhases };

/// Simulated counters harvested from collect_metrics().
struct Counters {
  std::uint64_t app_bytes = 0;  ///< payload bytes the job handed to the transports
  std::uint64_t wrs = 0;        ///< verbs work requests completed
  std::uint64_t read_wrs = 0;
  std::uint64_t error_completions = 0;
  std::uint64_t iwarp_segments = 0, iwarp_retx_bytes = 0;
  std::uint64_t ib_packets = 0, ib_retx_bytes = 0, ib_ctx_hits = 0, ib_ctx_misses = 0;
  std::uint64_t mx_frames = 0, mx_resent_bytes = 0;
  std::uint64_t tail_drops = 0, credit_stalls = 0, lft_epochs = 0;
  std::uint64_t mpi_eager = 0, mpi_rndv = 0, pin_hits = 0, pin_misses = 0;
  double unexpected_max = 0, posted_max = 0;
  double sim_host_us = 0, sim_nic_us = 0, sim_wire_us = 0;  ///< traced only (push-path phases)
};

/// Host-time profile of the workload Engine::run (traced jobs only).
struct ProfilerCounters {
  std::uint64_t run_ns = 0;
  std::uint64_t dispatch_ns = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t heapify_cost = 0;
  std::size_t peak_depth = 0;
};

struct JobRecord {
  std::string id;
  Network network = Network::kIwarp;
  double start_s = 0;                 ///< process CPU seconds, absolute
  std::array<double, kPhases> phase_s{};
  double total_s = 0;
  std::array<std::uint64_t, kPhases> phase_minflt{};
  std::uint64_t run_allocs = 0;       ///< global operator new calls inside sim.run
  std::uint64_t setup_events = 0;
  std::uint64_t run_events = 0;
  std::uint64_t ops = 0;              ///< application operations attempted
  std::uint64_t failed = 0;           ///< of which failed or delivered wrong data
  std::uint64_t digest = 0;           ///< Engine::run_digest() after both phases
  Time sim_end = 0;                   ///< simulated clock at the end of the run
  Counters counters;
  ProfilerCounters prof;
  std::string failure;                ///< first failure seen, empty if none
};

struct RunOptions {
  bool traced = false;     ///< attach a stride-1 Profiler and a MetricRegistry
  bool flip_byte = false;  ///< self-test: corrupt one delivered byte before the check
};

/// Build, set up, run, collect, check and tear down one job.
JobRecord run_job(const JobSpec& spec, const RunOptions& options);

// --- Paper reference points (tab_headline) -------------------------------

struct HeadlineResult {
  std::string name;
  double paper = 0;
  double measured = 0;
  std::uint64_t digest = 0;
};

/// The tab_headline points this workload covers, measured with the
/// library's own runners. Empty for clos_incast, which has no reference.
std::vector<HeadlineResult> run_headline(Workload workload);

}  // namespace fabricbench
