#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <string_view>

#include "core/cluster.hpp"
#include "core/runners.hpp"
#include "fault/plan.hpp"
#include "probe.hpp"
#include "sim/metrics.hpp"
#include "sim/prof.hpp"

namespace fabricbench {

using namespace fabsim;
using core::Cluster;
using core::NetworkProfile;

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kMpiMesh: return "mpi_mesh";
    case Workload::kVerbsStream: return "verbs_stream";
    case Workload::kClosIncast: return "clos_incast";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kMpiMesh, Workload::kVerbsStream, Workload::kClosIncast}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

namespace {

constexpr Network kAllNetworks[] = {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom};
constexpr Network kClosNetworks[] = {Network::kIwarp, Network::kIb, Network::kMxoe};
constexpr int kSizeClasses = 3;
/// Cost of one successful CQ poll in the benchmark's completion loops.
constexpr Time kPollCost = ns(100);
/// Bytes one verbs_stream job may move in total; bounds job time and the
/// data-carrying buffers (twice this, source plus sink).
constexpr std::uint64_t kStreamJobBytes = 4ull << 20;
constexpr std::uint32_t kMaxStreamMessage = 1u << 20;
/// ranks^2 x eager_buffers cap for seeded mpi_mesh jobs: 16 ranks x 16
/// slots. The envelope job (16 x 64, as ext_scaling) sits above it.
constexpr std::size_t kMeshArenaBudget = 16 * 16 * 16;

/// splitmix64: a small, fully specified generator, so inputs depend on
/// nothing but the seed.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Log-uniform in [lo, hi].
  std::uint32_t log_uniform(std::uint32_t lo, std::uint32_t hi) {
    const double l = std::log(static_cast<double>(lo));
    const double h = std::log(static_cast<double>(hi));
    const auto v = static_cast<std::uint32_t>(std::exp(l + (h - l) * unit()));
    return std::clamp(v, lo, hi);
  }
};

Rng job_rng(std::uint64_t seed, Workload workload, int round, int slot) {
  Rng rng{seed * 0xd1b54a32d192ed03ull ^ (static_cast<std::uint64_t>(workload) + 1) << 56 ^
          static_cast<std::uint64_t>(round) << 16 ^ static_cast<std::uint64_t>(slot)};
  rng.next();
  return rng;
}

std::string job_id(int round, int slot) {
  return "r" + std::to_string(round) + ".j" + std::to_string(slot);
}

// --- mpi_mesh ------------------------------------------------------------

MeshJob make_mesh(Network network, int size_class, Rng& rng) {
  MeshJob job;
  job.network = network;
  static constexpr int kRankLo[kSizeClasses] = {2, 5, 12};
  static constexpr int kRankHi[kSizeClasses] = {4, 8, 16};
  job.ranks = rng.range(kRankLo[size_class], kRankHi[size_class]);
  // The largest power-of-two ring that keeps ranks^2 x slots in budget.
  job.eager_buffers = 64;
  while (job.eager_buffers > 8 &&
         static_cast<std::size_t>(job.ranks * job.ranks) * job.eager_buffers > kMeshArenaBudget) {
    job.eager_buffers /= 2;
  }
  using K = MeshStep::Kind;
  job.steps.push_back({K::kBarrier, 0, 0});
  const int steps = rng.range(6, 12);
  for (int s = 0; s < steps; ++s) {
    MeshStep step;
    const double u = rng.unit();
    if (u < 0.22) {
      step = {K::kEagerRing, rng.log_uniform(8, 2048), rng.range(1, job.ranks - 1)};
    } else if (u < 0.34) {
      step = {K::kRndvRing, rng.log_uniform(64 << 10, 256 << 10), rng.range(1, job.ranks - 1)};
    } else if (u < 0.44) {
      step = {K::kBurst, rng.log_uniform(8, 1024), rng.range(2, 8)};
    } else if (u < 0.54) {
      step = {K::kBarrier, 0, 0};
    } else if (u < 0.64) {
      step = {K::kBcast, rng.log_uniform(8, 64 << 10), rng.range(0, job.ranks - 1)};
    } else if (u < 0.76) {
      step = {K::kAllreduce8, 8, 0};
    } else if (u < 0.88) {
      step = {K::kAllreduce32k, 32 << 10, 0};
    } else {
      step = {K::kAlltoall, rng.log_uniform(64, 2048), 0};
    }
    job.steps.push_back(step);
  }
  return job;
}

// --- verbs_stream --------------------------------------------------------

StreamJob make_stream(Network network, int size_class, Rng& rng) {
  StreamJob job;
  job.network = network;
  static constexpr int kConnLo[kSizeClasses] = {1, 5, 17};
  static constexpr int kConnHi[kSizeClasses] = {4, 16, 64};
  const int conns = rng.range(kConnLo[size_class], kConnHi[size_class]);
  const bool verbs = network == Network::kIwarp || network == Network::kIb;
  for (int c = 0; c < conns; ++c) {
    StreamConn conn;
    const double u = rng.unit();
    conn.op = !verbs || u >= 0.75 ? verbs::Opcode::kSend
              : u < 0.5           ? verbs::Opcode::kRdmaWrite
                                  : verbs::Opcode::kRdmaRead;
    conn.messages = rng.range(1, 4);
    const std::uint64_t cap = kStreamJobBytes / static_cast<std::uint64_t>(conns * conn.messages);
    conn.bytes =
        rng.log_uniform(64, static_cast<std::uint32_t>(std::min<std::uint64_t>(kMaxStreamMessage, cap)));
    job.conns.push_back(conn);
  }
  return job;
}

// --- clos_incast ---------------------------------------------------------

ClosJob make_clos(Network network, int fabric_class, bool incast, Rng& rng) {
  ClosJob job;
  job.network = network;
  if (fabric_class == 0) {
    job.fabric = topo::FabricSpec{2, 16, 1.0};
    job.endpoints = rng.range(32, 64);
  } else {
    job.fabric = topo::FabricSpec{3, 8, 1.0};
    job.endpoints = rng.range(64, 128);
  }
  const int n = job.endpoints;
  if (incast) {
    const int dst = rng.range(0, n - 1);
    const int senders = rng.range(4, 24);
    std::vector<int> others;
    for (int i = 0; i < n; ++i) {
      if (i != dst) others.push_back(i);
    }
    for (int s = 0; s < senders; ++s) {
      const auto pick = static_cast<std::size_t>(rng.range(s, n - 2));
      std::swap(others[static_cast<std::size_t>(s)], others[pick]);
      job.flows.emplace_back(others[static_cast<std::size_t>(s)], dst);
    }
    job.chunks = rng.range(1, 3);
  } else {
    const int shift = rng.range(1, n - 1);
    for (int i = 0; i < n; ++i) job.flows.emplace_back(i, (i + shift) % n);
    job.chunks = 1;
  }
  job.chunk = rng.log_uniform(16 << 10, 64 << 10);
  job.faults = rng.unit() < 1.0 / 3.0;
  job.fault_seed = rng.next();
  return job;
}

// --- Output checking helpers ----------------------------------------------

/// Deterministic content for message `key`: distinct per connection and
/// per message, so a stale retransmit or a misplaced segment shows.
std::uint64_t pattern_word(std::uint64_t key, std::uint64_t i) {
  std::uint64_t v = (key ^ (i * 0x9e3779b97f4a7c15ull)) * 0xbf58476d1ce4e5b9ull;
  return v ^ (v >> 29);
}

void fill_pattern(std::span<std::byte> bytes, std::uint64_t key) {
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const std::uint64_t w = pattern_word(key, i);
    std::memcpy(bytes.data() + i, &w, 8);
  }
  const std::uint64_t tail = pattern_word(key, i);
  std::memcpy(bytes.data() + i, &tail, bytes.size() - i);
}

bool matches_pattern(std::span<const std::byte> bytes, std::uint64_t key) {
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    const std::uint64_t w = pattern_word(key, i);
    if (std::memcmp(bytes.data() + i, &w, 8) != 0) return false;
  }
  const std::uint64_t tail = pattern_word(key, i);
  return std::memcmp(bytes.data() + i, &tail, bytes.size() - i) == 0;
}

std::uint64_t message_key(std::size_t conn, int message) {
  return (static_cast<std::uint64_t>(conn) << 20) ^ static_cast<std::uint64_t>(message) ^
         0x5eed0000000ull;
}

/// Outcome tally shared by a job's processes.
struct Outcome {
  std::uint64_t good = 0;
  std::uint64_t wrs = 0;
  std::uint64_t read_wrs = 0;
  std::uint64_t error_completions = 0;
  std::string failure;
  void fail(std::string what) {
    if (failure.empty()) failure = std::move(what);
  }
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

void harvest(const MetricRegistry& reg, bool mpi, Counters& c) {
  std::uint64_t crossbar_tail_drops = 0;
  bool routed = false;
  for (const auto& [name, counter] : reg.counters()) {
    const std::uint64_t v = counter.value();
    const std::string_view n = name;
    if (n.starts_with("iwarp.")) {
      if (ends_with(n, ".segments_sent")) c.iwarp_segments += v;
      else if (ends_with(n, ".retransmitted_bytes")) c.iwarp_retx_bytes += v;
    } else if (n.starts_with("ib.")) {
      if (ends_with(n, ".packets_sent")) c.ib_packets += v;
      else if (ends_with(n, ".retransmitted_bytes")) c.ib_retx_bytes += v;
      else if (ends_with(n, ".context_hits")) c.ib_ctx_hits += v;
      else if (ends_with(n, ".context_misses")) c.ib_ctx_misses += v;
    } else if (n.starts_with("mx.")) {
      if (ends_with(n, ".frames_sent")) c.mx_frames += v;
      else if (ends_with(n, ".resent_bytes")) c.mx_resent_bytes += v;
      // ChMx hands every MPI message to MX, so MX's protocol split is MPI's.
      else if (mpi && ends_with(n, ".eager_sends")) c.mpi_eager += v;
      else if (mpi && ends_with(n, ".rndv_sends")) c.mpi_rndv += v;
    } else if (n.starts_with("mpi.")) {
      if (ends_with(n, ".eager_sends")) c.mpi_eager += v;
      else if (ends_with(n, ".rndv_sends")) c.mpi_rndv += v;
      else if (ends_with(n, ".pin_hits")) c.pin_hits += v;
      else if (ends_with(n, ".pin_misses")) c.pin_misses += v;
    } else if (n == "switch.tail_drops") {
      routed = true;
      c.tail_drops = v;
    } else if (n == "switch.credit_stalls") {
      c.credit_stalls = v;
    } else if (n == "topo.lft_epochs") {
      c.lft_epochs = v;
    } else if (n.starts_with("switch.port") && ends_with(n, ".tail_drops")) {
      crossbar_tail_drops += v;
    }
  }
  if (!routed) c.tail_drops = crossbar_tail_drops;
  for (const auto& [name, gauge] : reg.gauges()) {
    if (!std::string_view(name).starts_with("mpi.")) continue;
    if (ends_with(name, ".unexpected_max_depth")) c.unexpected_max = std::max(c.unexpected_max, gauge.max());
    if (ends_with(name, ".posted_max_depth")) c.posted_max = std::max(c.posted_max, gauge.max());
  }
  c.sim_host_us = to_us(reg.phase_time(Phase::kHost));
  c.sim_nic_us = to_us(reg.phase_time(Phase::kNic));
  c.sim_wire_us = to_us(reg.phase_time(Phase::kWire));
}

// --- Job worlds ------------------------------------------------------------
// Each world owns one Cluster plus everything the job puts on it, declared
// after the cluster so that it is destroyed first. The executor calls the
// constructor (core.build), prepare() and setup() (the set-up phase) and
// spawn_workload() (sim.run), then checks the world's Outcome.

struct MeshWorld {
  struct RankBuffers {
    std::uint64_t send = 0, recv = 0, scratch = 0, a2a_send = 0, a2a_recv = 0;
  };

  static NetworkProfile make_profile(const MeshJob& job) {
    NetworkProfile p = core::profile(job.network);
    p.mpi.eager_buffers = job.eager_buffers;
    // ChVerbs returns credits only after credit_batch frees; a ring
    // smaller than that can never earn its credits back and deadlocks
    // the first pair that fills it. Return them once the ring is spent.
    p.mpi.credit_batch = std::min<std::uint32_t>(p.mpi.credit_batch,
                                                 static_cast<std::uint32_t>(job.eager_buffers));
    return p;
  }

  explicit MeshWorld(const MeshJob& j, const RunOptions&) : job(j), cluster(j.ranks, make_profile(j)) {}

  std::uint64_t planned_ops() const {
    std::uint64_t ops = 0;
    for (const MeshStep& s : job.steps) {
      ops += s.kind == MeshStep::Kind::kBurst
                 ? 2ull * static_cast<std::uint64_t>(job.ranks / 2 * s.param)
                 : static_cast<std::uint64_t>(job.ranks);
    }
    return ops;
  }
  std::uint64_t app_bytes() const {
    std::uint64_t bytes = 0;
    const auto n = static_cast<std::uint64_t>(job.ranks);
    for (const MeshStep& s : job.steps) {
      switch (s.kind) {
        case MeshStep::Kind::kEagerRing:
        case MeshStep::Kind::kRndvRing: bytes += n * s.bytes; break;
        case MeshStep::Kind::kBurst: bytes += n / 2 * static_cast<std::uint64_t>(s.param) * s.bytes; break;
        case MeshStep::Kind::kBcast: bytes += (n - 1) * s.bytes; break;
        case MeshStep::Kind::kAlltoall: bytes += n * (n - 1) * s.bytes; break;
        default: break;
      }
    }
    return bytes;
  }

  void prepare() {
    std::uint32_t big = 32 << 10, a2a = 64;
    for (const MeshStep& s : job.steps) {
      if (s.kind == MeshStep::Kind::kAlltoall) a2a = std::max(a2a, s.bytes);
      else big = std::max(big, s.bytes);
    }
    const auto n = static_cast<std::uint64_t>(job.ranks);
    for (int r = 0; r < job.ranks; ++r) {
      hw::AddressSpace& mem = cluster.node(r).mem();
      RankBuffers b;
      b.send = mem.alloc(big, false).addr();
      b.recv = mem.alloc(big, false).addr();
      b.scratch = mem.alloc(32 << 10, false).addr();
      b.a2a_send = mem.alloc(n * a2a, false).addr();
      b.a2a_recv = mem.alloc(n * a2a, false).addr();
      buffers.push_back(b);
    }
  }

  Task<> setup() { co_await cluster.setup_mpi(); }

  static Task<> rank_main(MeshWorld& w, int me) {
    using K = MeshStep::Kind;
    mpi::Rank& rank = w.cluster.mpi_rank(me);
    const RankBuffers& b = w.buffers[static_cast<std::size_t>(me)];
    const int n = w.job.ranks;
    int tag = 0;
    for (const MeshStep& s : w.job.steps) {
      ++tag;
      switch (s.kind) {
        case K::kEagerRing:
        case K::kRndvRing: {
          const int right = (me + s.param) % n;
          const int left = (me - s.param + n) % n;
          const mpi::Status st =
              co_await rank.sendrecv(right, tag, b.send, s.bytes, left, tag, b.recv, s.bytes);
          if (st.length == s.bytes && st.source == left) ++w.tally.good;
          else w.tally.fail("sendrecv status mismatch at rank " + std::to_string(me));
          break;
        }
        case K::kBurst: {
          // Legal MPI for any buffering: non-blocking on both sides. The
          // receiver computes first, so the sends arrive unexpected and
          // the reverse-order receives walk the queues.
          if (me / 2 >= n / 2) break;  // odd world: the last rank sits out
          const int peer = me ^ 1;
          std::vector<mpi::RequestPtr> reqs;
          if (me % 2 == 0) {
            for (int t = 0; t < s.param; ++t) {
              reqs.push_back(co_await rank.isend(peer, tag * 64 + t, b.send, s.bytes));
            }
            co_await rank.waitall(reqs);
            w.tally.good += static_cast<std::uint64_t>(s.param);
          } else {
            co_await rank.node().cpu().compute(us(20));
            for (int t = s.param - 1; t >= 0; --t) {
              reqs.push_back(co_await rank.irecv(peer, tag * 64 + t, b.recv, s.bytes));
            }
            co_await rank.waitall(reqs);
            for (const mpi::RequestPtr& r : reqs) {
              if (r->status().length == s.bytes) ++w.tally.good;
              else w.tally.fail("burst receive length mismatch at rank " + std::to_string(me));
            }
          }
          break;
        }
        case K::kBarrier:
          co_await rank.barrier();
          ++w.tally.good;
          break;
        case K::kBcast:
          co_await rank.bcast(s.param, b.send, s.bytes);
          ++w.tally.good;
          break;
        case K::kAllreduce8:
        case K::kAllreduce32k:
          co_await rank.allreduce_sum(b.send, b.scratch, s.bytes / 8);
          ++w.tally.good;
          break;
        case K::kAlltoall:
          co_await rank.alltoall(b.a2a_send, s.bytes, b.a2a_recv);
          ++w.tally.good;
          break;
      }
    }
  }

  void spawn_workload() {
    for (int r = 0; r < job.ranks; ++r) cluster.engine().spawn(rank_main(*this, r));
  }

  const MeshJob& job;
  Cluster cluster;
  std::vector<RankBuffers> buffers;
  Outcome tally;
};

struct StreamWorld {
  struct Conn {
    std::unique_ptr<verbs::CompletionQueue> cq0, cq1;
    std::unique_ptr<verbs::QueuePair> qp0, qp1;
    std::uint64_t local = 0;   ///< node 0: source of Write/Send, sink of Read
    std::uint64_t remote = 0;  ///< node 1: sink of Write/Send, source of Read
    verbs::MrKey lkey = 0, rkey = 0;
  };

  StreamWorld(const StreamJob& j, const RunOptions& options)
      : job(j), flip_byte(options.flip_byte), cluster(2, core::profile(j.network)) {}

  std::uint64_t planned_ops() const {
    std::uint64_t ops = 0;
    for (const StreamConn& c : job.conns) ops += static_cast<std::uint64_t>(c.messages);
    return ops;
  }
  std::uint64_t app_bytes() const {
    std::uint64_t bytes = 0;
    for (const StreamConn& c : job.conns) bytes += static_cast<std::uint64_t>(c.messages) * c.bytes;
    return bytes;
  }

  void prepare() {
    for (const StreamConn& spec : job.conns) {
      Conn c;
      if (cluster.is_verbs()) {
        c.cq0 = std::make_unique<verbs::CompletionQueue>(cluster.engine());
        c.cq1 = std::make_unique<verbs::CompletionQueue>(cluster.engine());
        c.qp0 = cluster.device(0).create_qp(*c.cq0, *c.cq0);
        c.qp1 = cluster.device(1).create_qp(*c.cq1, *c.cq1);
        cluster.device(0).establish(*c.qp0, *c.qp1);
      }
      c.local = cluster.node(0).mem().alloc(spec.bytes, true).addr();
      c.remote = cluster.node(1).mem().alloc(spec.bytes, true).addr();
      conns.push_back(std::move(c));
    }
  }

  Task<> setup() {
    if (!cluster.is_verbs()) co_return;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      conns[i].lkey = co_await cluster.device(0).reg_mr(conns[i].local, job.conns[i].bytes);
      conns[i].rkey = co_await cluster.device(1).reg_mr(conns[i].remote, job.conns[i].bytes);
    }
  }

  /// Check the sink of message `key` and count the op.
  void verify(int node, std::uint64_t addr, std::uint32_t bytes, std::uint64_t key) {
    std::span<std::byte> sink = cluster.node(node).mem().window(addr, bytes);
    if (flip_byte) sink[bytes / 2] ^= std::byte{1};
    if (matches_pattern(sink, key)) ++tally.good;
    else tally.fail("delivered bytes differ from the sent pattern");
  }

  static Task<> verbs_conn(StreamWorld& w, std::size_t i) {
    const StreamConn& spec = w.job.conns[i];
    Conn& c = w.conns[i];
    hw::Node& n0 = w.cluster.node(0);
    hw::Node& n1 = w.cluster.node(1);
    for (int m = 0; m < spec.messages; ++m) {
      const std::uint64_t key = message_key(i, m);
      const auto wr_id = static_cast<std::uint64_t>(m);
      std::shared_ptr<Event> placed;
      if (spec.op == verbs::Opcode::kRdmaRead) {
        fill_pattern(n1.mem().window(c.remote, spec.bytes), key);
      } else {
        fill_pattern(n0.mem().window(c.local, spec.bytes), key);
      }
      if (spec.op == verbs::Opcode::kSend) {
        co_await c.qp1->post_recv(verbs::RecvWr{wr_id, {c.remote, spec.bytes, c.rkey}});
      } else if (spec.op == verbs::Opcode::kRdmaWrite) {
        placed = w.cluster.device(1).watch_placement(c.remote, spec.bytes);
      }
      co_await c.qp0->post_send(verbs::SendWr{.wr_id = wr_id,
                                              .opcode = spec.op,
                                              .sge = {c.local, spec.bytes, c.lkey},
                                              .remote_addr = c.remote,
                                              .rkey = c.rkey});
      const verbs::Completion done = co_await verbs::next_completion(*c.cq0, n0.cpu(), kPollCost);
      ++w.tally.wrs;
      if (spec.op == verbs::Opcode::kRdmaRead) ++w.tally.read_wrs;
      if (done.status != verbs::Completion::Status::kSuccess) {
        ++w.tally.error_completions;
        w.tally.fail("work request completed in error");
        co_return;
      }
      switch (spec.op) {
        case verbs::Opcode::kRdmaWrite:
          co_await placed->wait();
          w.verify(1, c.remote, spec.bytes, key);
          break;
        case verbs::Opcode::kRdmaRead: w.verify(0, c.local, spec.bytes, key); break;
        case verbs::Opcode::kSend: {
          const verbs::Completion recv = co_await verbs::next_completion(*c.cq1, n1.cpu(), kPollCost);
          if (recv.status != verbs::Completion::Status::kSuccess || recv.byte_len != spec.bytes) {
            ++w.tally.error_completions;
            w.tally.fail("receive completion in error or short");
            co_return;
          }
          w.verify(1, c.remote, spec.bytes, key);
          break;
        }
      }
    }
  }

  static Task<> mx_sender(StreamWorld& w, std::size_t i) {
    const StreamConn& spec = w.job.conns[i];
    mx::Endpoint& ep = w.cluster.endpoint(0);
    for (int m = 0; m < spec.messages; ++m) {
      fill_pattern(w.cluster.node(0).mem().window(w.conns[i].local, spec.bytes), message_key(i, m));
      auto req = co_await ep.isend(w.conns[i].local, spec.bytes, w.cluster.endpoint(1).port(), 0x100 + i);
      co_await ep.wait(req);
      if (req->failed()) w.tally.fail("MX send failed");
    }
  }

  static Task<> mx_receiver(StreamWorld& w, std::size_t i) {
    const StreamConn& spec = w.job.conns[i];
    mx::Endpoint& ep = w.cluster.endpoint(1);
    for (int m = 0; m < spec.messages; ++m) {
      auto req = co_await ep.irecv(w.conns[i].remote, spec.bytes, 0x100 + i, ~0ull);
      co_await ep.wait(req);
      if (req->failed() || req->length() != spec.bytes) {
        w.tally.fail("MX receive failed or short");
        continue;
      }
      w.verify(1, w.conns[i].remote, spec.bytes, message_key(i, m));
    }
  }

  void spawn_workload() {
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (cluster.is_verbs()) {
        cluster.engine().spawn(verbs_conn(*this, i));
      } else {
        cluster.engine().spawn(mx_receiver(*this, i));
        cluster.engine().spawn(mx_sender(*this, i));
      }
    }
  }

  const StreamJob& job;
  bool flip_byte;
  Cluster cluster;
  std::vector<Conn> conns;
  Outcome tally;
};

struct ClosWorld {
  struct Flow {
    std::unique_ptr<verbs::CompletionQueue> cq_src, cq_dst;
    std::unique_ptr<verbs::QueuePair> qp_src, qp_dst;
    std::uint64_t src_buf = 0, dst_buf = 0;
    verbs::MrKey lkey = 0, rkey = 0;
  };

  static NetworkProfile make_profile(const ClosJob& job) {
    NetworkProfile p = core::profile(job.network);
    const hw::FlowControl link_layer = p.fabric.flow;  // the network's own
    p.fabric = job.fabric;
    p.fabric.flow = link_layer;
    p.switch_cfg.max_queue_bytes = 32ull << 10;
    p.rnic.rto = us(300);  // short go-back-N rounds at this scale, as ext_incast
    p.mx.rto = us(150);
    return p;
  }

  ClosWorld(const ClosJob& j, const RunOptions&) : job(j), cluster(j.endpoints, make_profile(j)) {
    if (!job.faults) return;
    // Per-link drops on two inter-switch links, well inside every
    // stack's retry budget: every WR must still complete successfully.
    const auto& links = cluster.topology().links();
    Rng rng{job.fault_seed};
    plan = std::make_unique<fault::FaultPlan>(rng.next());
    for (int i = 0; i < 2; ++i) {
      const auto& l = links[rng.next() % links.size()];
      const bool a_side = rng.unit() < 0.5;
      plan->link_drop_probability(a_side ? l.a : l.b, a_side ? l.port_a : l.port_b,
                                  0.002 + 0.008 * rng.unit());
    }
    down_link = static_cast<int>(rng.next() % links.size());
    down_start = us(20 + rng.range(0, 180));
    down_for = us(50 + rng.range(0, 200));
    cluster.engine().set_fault_injector(plan.get());
  }

  std::uint64_t planned_ops() const {
    return job.flows.size() * static_cast<std::uint64_t>(job.chunks);
  }
  std::uint64_t app_bytes() const { return planned_ops() * job.chunk; }

  void prepare() {
    for (const auto& [src, dst] : job.flows) {
      Flow f;
      f.src_buf = cluster.node(src).mem().alloc(job.chunk, false).addr();
      f.dst_buf = cluster.node(dst).mem().alloc(job.chunk, false).addr();
      if (cluster.is_verbs()) {
        f.cq_src = std::make_unique<verbs::CompletionQueue>(cluster.engine());
        f.cq_dst = std::make_unique<verbs::CompletionQueue>(cluster.engine());
        f.qp_dst = cluster.device(dst).create_qp(*f.cq_dst, *f.cq_dst);
        f.qp_src = cluster.device(src).create_qp(*f.cq_src, *f.cq_src);
        cluster.device(dst).establish(*f.qp_dst, *f.qp_src);
      }
      flows.push_back(std::move(f));
    }
  }

  Task<> setup() {
    if (!cluster.is_verbs()) co_return;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const auto [src, dst] = job.flows[i];
      flows[i].lkey = co_await cluster.device(src).reg_mr(flows[i].src_buf, job.chunk);
      flows[i].rkey = co_await cluster.device(dst).reg_mr(flows[i].dst_buf, job.chunk);
    }
  }

  static Task<> verbs_flow(ClosWorld& w, std::size_t i) {
    const auto [src, dst] = w.job.flows[i];
    Flow& f = w.flows[i];
    for (int k = 0; k < w.job.chunks; ++k) {
      auto placed = w.cluster.device(dst).watch_placement(f.dst_buf, w.job.chunk);
      co_await f.qp_src->post_send(verbs::SendWr{.wr_id = static_cast<std::uint64_t>(k),
                                                 .opcode = verbs::Opcode::kRdmaWrite,
                                                 .sge = {f.src_buf, w.job.chunk, f.lkey},
                                                 .remote_addr = f.dst_buf,
                                                 .rkey = f.rkey});
      const verbs::Completion done =
          co_await verbs::next_completion(*f.cq_src, w.cluster.node(src).cpu(), kPollCost);
      ++w.tally.wrs;
      if (done.status != verbs::Completion::Status::kSuccess) {
        ++w.tally.error_completions;
        w.tally.fail("work request completed in error");
        co_return;
      }
      co_await placed->wait();
      ++w.tally.good;
    }
  }

  static Task<> mx_sender(ClosWorld& w, std::size_t i) {
    const auto [src, dst] = w.job.flows[i];
    mx::Endpoint& ep = w.cluster.endpoint(src);
    for (int k = 0; k < w.job.chunks; ++k) {
      auto req = co_await ep.isend(w.flows[i].src_buf, w.job.chunk, w.cluster.endpoint(dst).port(),
                                   0x1000 + i);
      co_await ep.wait(req);
      if (req->failed()) w.tally.fail("MX send failed");
    }
  }

  static Task<> mx_receiver(ClosWorld& w, std::size_t i) {
    const int dst = w.job.flows[i].second;
    mx::Endpoint& ep = w.cluster.endpoint(dst);
    for (int k = 0; k < w.job.chunks; ++k) {
      auto req = co_await ep.irecv(w.flows[i].dst_buf, w.job.chunk, 0x1000 + i, ~0ull);
      co_await ep.wait(req);
      if (req->failed() || req->length() != w.job.chunk) w.tally.fail("MX receive failed or short");
      else ++w.tally.good;
    }
  }

  void spawn_workload() {
    if (plan != nullptr) {
      // One detected link-down window, timed from the start of the
      // traffic: the routing layer recomputes the LFTs around the link
      // and again when it returns (topo.lft_epochs).
      const Time now = cluster.engine().now();
      cluster.topology().schedule_link_down(down_link, now + down_start, now + down_start + down_for);
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (cluster.is_verbs()) {
        cluster.engine().spawn(verbs_flow(*this, i));
      } else {
        cluster.engine().spawn(mx_receiver(*this, i));
        cluster.engine().spawn(mx_sender(*this, i));
      }
    }
  }

  const ClosJob& job;
  std::unique_ptr<fault::FaultPlan> plan;  // outlives the cluster that points at it
  int down_link = -1;
  Time down_start = 0, down_for = 0;
  Cluster cluster;
  std::vector<Flow> flows;
  Outcome tally;
};

struct Stamp {
  double t;
  std::uint64_t minflt;
};
Stamp stamp() { return Stamp{cpu_now_s(), minor_faults()}; }

ProfilerCounters snapshot(const Profiler& p) {
  return ProfilerCounters{p.run_host_ns(), p.sampled_dispatch_ns(), p.events_dispatched(),
                          p.heapify_cost(), p.peak_depth()};
}

template <typename World, typename Job>
JobRecord execute(const std::string& id, const Job& job, const RunOptions& options, bool mpi) {
  JobRecord rec;
  rec.id = id;
  rec.network = job.network;
  // Observers first: they must outlive the engine that points at them.
  Profiler profiler(Profiler::Config{.sample_stride = 1, .max_slices = 0});
  MetricRegistry registry;
  std::unique_ptr<World> world;
  std::array<Stamp, kPhases + 1> at{};
  bool threw = false;
  try {
    at[0] = stamp();
    rec.start_s = at[0].t;
    world = std::make_unique<World>(job, options);
    at[kBuild + 1] = stamp();

    Engine& engine = world->cluster.engine();
    if (options.traced) {
      world->cluster.attach_profiler(profiler);
      engine.set_metrics(&registry);
    }
    rec.counters.app_bytes = world->app_bytes();
    world->prepare();
    engine.spawn(world->setup());
    engine.run();
    rec.setup_events = engine.events_processed();
    const ProfilerCounters before = snapshot(profiler);
    at[kSetup + 1] = stamp();

    const std::uint64_t allocs0 = heap_allocs();
    world->spawn_workload();
    engine.run();
    rec.run_allocs = heap_allocs() - allocs0;
    at[kRun + 1] = stamp();
    rec.run_events = engine.events_processed() - rec.setup_events;
    const ProfilerCounters after = snapshot(profiler);
    rec.prof = ProfilerCounters{after.run_ns - before.run_ns,
                                after.dispatch_ns - before.dispatch_ns,
                                after.dispatched - before.dispatched,
                                after.heapify_cost - before.heapify_cost,
                                after.peak_depth};

    world->cluster.collect_metrics(registry);
    at[kCollect + 1] = stamp();
  } catch (const std::exception& e) {
    threw = true;
    if (world) world->tally.fail(std::string("exception: ") + e.what());
    else rec.failure = std::string("exception during build: ") + e.what();
  }

  if (world) {
    Engine& engine = world->cluster.engine();
    rec.ops = world->planned_ops();
    rec.digest = engine.run_digest();
    rec.sim_end = engine.now();
    harvest(registry, mpi, rec.counters);
    rec.counters.wrs = world->tally.wrs;
    rec.counters.read_wrs = world->tally.read_wrs;
    rec.counters.error_completions = world->tally.error_completions;
    if (engine.live_processes() != 0) {
      world->tally.fail(std::to_string(engine.live_processes()) + " processes never finished");
    }
    rec.failure = world->tally.failure;
    const std::uint64_t good = std::min(world->tally.good, rec.ops);
    rec.failed = rec.failure.empty() ? rec.ops - good : rec.ops;
  }
  if (threw || !world) {
    rec.ops = std::max<std::uint64_t>(rec.ops, 1);
    rec.failed = rec.ops;
  }

  const Stamp before_teardown = stamp();
  world.reset();
  const Stamp end = stamp();
  if (!threw) {
    for (int p = 0; p < kTeardown; ++p) {
      rec.phase_s[p] = at[p + 1].t - at[p].t;
      rec.phase_minflt[p] = at[p + 1].minflt - at[p].minflt;
    }
  }
  rec.phase_s[kTeardown] = end.t - before_teardown.t;
  rec.phase_minflt[kTeardown] = end.minflt - before_teardown.minflt;
  rec.total_s = end.t - rec.start_s;
  return rec;
}

}  // namespace

int round_size(Workload workload) {
  const int networks = workload == Workload::kClosIncast ? 3 : 4;
  return networks * (workload == Workload::kClosIncast ? 4 : kSizeClasses);
}

JobSpec make_job(Workload workload, std::uint64_t seed, int round, int slot) {
  Rng rng = job_rng(seed, workload, round, slot);
  JobSpec spec;
  spec.id = job_id(round, slot);
  switch (workload) {
    case Workload::kMpiMesh:
      spec.job = make_mesh(kAllNetworks[slot / kSizeClasses], slot % kSizeClasses, rng);
      break;
    case Workload::kVerbsStream:
      spec.job = make_stream(kAllNetworks[slot / kSizeClasses], slot % kSizeClasses, rng);
      break;
    case Workload::kClosIncast:
      spec.job = make_clos(kClosNetworks[slot / 4], (slot / 2) % 2, slot % 2 == 0, rng);
      break;
  }
  return spec;
}

std::vector<JobSpec> envelope_jobs(Workload workload) {
  std::vector<JobSpec> out;
  switch (workload) {
    case Workload::kMpiMesh: {
      // ext_scaling's heaviest lane: 16 ranks x 64 eager slots. MX builds
      // no arenas, so the verbs stacks bound the footprint.
      for (Network n : {Network::kIwarp, Network::kIb}) {
        MeshJob job;
        job.network = n;
        job.ranks = 16;
        job.eager_buffers = 64;
        job.steps = {{MeshStep::Kind::kBarrier, 0, 0},
                     {MeshStep::Kind::kAllreduce32k, 32 << 10, 0},
                     {MeshStep::Kind::kRndvRing, 256 << 10, 1}};
        out.push_back({"fixed.envelope." + std::string(core::network_name(n)), job});
      }
      break;
    }
    case Workload::kVerbsStream:
      for (Network n : kAllNetworks) {
        StreamJob job;
        job.network = n;
        const bool verbs = n == Network::kIwarp || n == Network::kIb;
        job.conns.assign(kStreamJobBytes / kMaxStreamMessage,
                         StreamConn{verbs ? verbs::Opcode::kRdmaWrite : verbs::Opcode::kSend,
                                    kMaxStreamMessage, 1});
        out.push_back({"fixed.envelope." + std::string(core::network_name(n)), job});
      }
      break;
    case Workload::kClosIncast:
      for (Network n : kClosNetworks) {
        ClosJob job;
        job.network = n;
        job.fabric = topo::FabricSpec{3, 8, 1.0};
        job.endpoints = 128;
        for (int i = 0; i < job.endpoints; ++i) job.flows.emplace_back(i, (i + 64) % job.endpoints);
        job.chunk = 64 << 10;
        job.chunks = 1;
        out.push_back({"fixed.envelope." + std::string(core::network_name(n)), job});
      }
      break;
  }
  return out;
}

JobRecord run_job(const JobSpec& spec, const RunOptions& options) {
  if (const auto* mesh = std::get_if<MeshJob>(&spec.job)) {
    return execute<MeshWorld>(spec.id, *mesh, options, /*mpi=*/true);
  }
  if (const auto* stream = std::get_if<StreamJob>(&spec.job)) {
    return execute<StreamWorld>(spec.id, *stream, options, /*mpi=*/false);
  }
  return execute<ClosWorld>(spec.id, std::get<ClosJob>(spec.job), options, /*mpi=*/false);
}

std::vector<HeadlineResult> run_headline(Workload workload) {
  using namespace fabsim::core;
  std::vector<HeadlineResult> out;
  auto point = [&](const char* name, double paper, auto&& measure) {
    MetricRegistry metrics;
    const double measured = measure(&metrics);
    out.push_back({name, paper, measured, metrics.counter_value("sim.digest")});
  };
  const NetworkProfile iw = profile(Network::kIwarp), ib = profile(Network::kIb),
                       moe = profile(Network::kMxoe), mom = profile(Network::kMxom);
  if (workload == Workload::kVerbsStream) {
    // 4 B user-level latency and 4 MB one-way bandwidth (tab_headline).
    const std::pair<const char*, double> lat_paper[] = {
        {"iwarp_verbs_4b_us", 9.78}, {"ib_verbs_4b_us", 4.53}, {"mxoe_4b_us", 3.45}, {"mxom_4b_us", 3.05}};
    const NetworkProfile* lat_profile[] = {&iw, &ib, &moe, &mom};
    for (int i = 0; i < 4; ++i) {
      point(lat_paper[i].first, lat_paper[i].second, [&](MetricRegistry* m) {
        return userlevel_pingpong_latency_us(*lat_profile[i], 4, 30, nullptr, m);
      });
    }
    const std::pair<const char*, double> bw_paper[] = {
        {"iwarp_4mb_mbps", 880}, {"ib_4mb_mbps", 970}, {"myri_4mb_mbps", 930}};
    const NetworkProfile* bw_profile[] = {&iw, &ib, &mom};
    for (int i = 0; i < 3; ++i) {
      point(bw_paper[i].first, bw_paper[i].second, [&](MetricRegistry* m) {
        return userlevel_bandwidth_mbps(*bw_profile[i], 4 << 20, 4, nullptr, m);
      });
    }
  } else if (workload == Workload::kMpiMesh) {
    // 4 B MPI latency, 1 MB bidirectional and both-way MPI bandwidth.
    const std::pair<const char*, double> lat_paper[] = {
        {"iwarp_mpi_4b_us", 10.7}, {"ib_mpi_4b_us", 4.8}, {"mxoe_mpi_4b_us", 3.6}, {"mxom_mpi_4b_us", 3.3}};
    const NetworkProfile* lat_profile[] = {&iw, &ib, &moe, &mom};
    for (int i = 0; i < 4; ++i) {
      point(lat_paper[i].first, lat_paper[i].second, [&](MetricRegistry* m) {
        return mpi_pingpong_latency_us(*lat_profile[i], 4, 30, nullptr, m);
      });
    }
    point("iwarp_bidir_1mb_mbps", 856,
          [&](MetricRegistry* m) { return mpi_bidir_bw_mbps(iw, 1 << 20, 8, nullptr, m); });
    point("ib_bidir_1mb_mbps", 960,
          [&](MetricRegistry* m) { return mpi_bidir_bw_mbps(ib, 1 << 20, 8, nullptr, m); });
    const std::pair<const char*, double> both_paper[] = {
        {"iwarp_bothway_1mb_mbps", 950}, {"ib_bothway_1mb_mbps", 1780}, {"myri_bothway_1mb_mbps", 1400}};
    const NetworkProfile* both_profile[] = {&iw, &ib, &mom};
    for (int i = 0; i < 3; ++i) {
      point(both_paper[i].first, both_paper[i].second, [&](MetricRegistry* m) {
        return mpi_bothway_bw_mbps(*both_profile[i], 1 << 20, 12, 3, nullptr, m);
      });
    }
  }
  return out;
}

}  // namespace fabricbench
