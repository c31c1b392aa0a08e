// FabricBench main program: runs one named workload from a seed in a closed
// loop (one client, one thread) for a fixed host time, checks the
// simulator's outputs, and prints every metric by name with its unit.
// The last stdout line is one JSON object (see README.md).
//
//   fabricbench --workload NAME --seed N --seconds S --trace 0|1
//               [--golden FILE] [--out DIR]
//   fabricbench --workload NAME --record-golden ROUNDS
//   fabricbench --self-test --golden FILE
#include <malloc.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

using namespace fabricbench;

namespace {

/// Seed whose jobs the golden table was recorded for.
constexpr std::uint64_t kDefaultSeed = 1;

// --- Golden table -----------------------------------------------------------

/// "<workload> <job id>" -> "<digest hex> <simulated result>". Seeded
/// jobs are recorded for the default seed only; fixed jobs (headline
/// points, envelope) for every seed.
using Golden = std::map<std::string, std::string>;

Golden load_golden(const std::string& path) {
  Golden golden;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, id, digest, result;
    if (fields >> workload >> id >> digest >> result) golden[workload + " " + id] = digest + " " + result;
  }
  return golden;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string job_result(const JobRecord& rec) {
  return hex64(rec.digest) + " " + std::to_string(rec.sim_end);
}
std::string headline_result(const HeadlineResult& h) {
  return hex64(h.digest) + " " + fmt_double(h.measured);
}

/// Empty if `actual` matches the golden entry (or none applies), else why not.
std::string golden_mismatch(const Golden& golden, Workload w, const std::string& id,
                            const std::string& actual, bool required) {
  const auto it = golden.find(std::string(workload_name(w)) + " " + id);
  if (it == golden.end()) return required ? "no golden entry for " + id : "";
  if (it->second == actual) return "";
  return id + ": got " + actual + ", golden " + it->second;
}

// --- Statistics ---------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Mean of the samples between quantiles `lo` and `hi`: a trimmed
/// estimator of the middle quantile that stays steady where the sample
/// has a gap (job times cluster by network and size stratum).
double band_mean(std::vector<double> v, double lo, double hi) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto first = static_cast<std::size_t>(lo * n), last = static_cast<std::size_t>(hi * n);
  if (last <= first) return percentile(v, (lo + hi) / 2);
  double sum = 0;
  for (std::size_t i = first; i < last; ++i) sum += v[i];
  return sum / static_cast<double>(last - first);
}

// --- Run ----------------------------------------------------------------------

struct Options {
  Workload workload = Workload::kMpiMesh;
  bool have_workload = false;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string golden_path;
  std::string out_dir;
  int record_rounds = 0;
  bool self_test = false;
};

struct Failures {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> why;
  void check(bool ok, std::uint64_t ops, const std::string& what) {
    attempted += ops;
    if (ok) return;
    failed += ops;
    if (why.size() < 20) why.push_back(what);
  }
};

/// A traced run keeps every job of both passes (for the per-layer split
/// and the span file).
struct Pass {
  std::vector<JobSpec> specs;
  std::vector<JobRecord> jobs;
  std::vector<int> round_of;  ///< round index of each job
};

/// An untraced run keeps only what the end-to-end metrics need: one
/// double per job plus per-round sums. The benchmark's own bookkeeping
/// then stays far below the simulator's memory, so peak_rss_mb does not
/// grow with the number of jobs a run completes.
struct Tally {
  enum { kOps, kJobS, kEvents, kRunS, kSetupS, kFields };
  std::vector<double> job_ms;
  std::vector<std::array<double, kFields>> rounds;
  double minflt = 0;

  void add(const JobRecord& r, int round) {
    job_ms.push_back(r.total_s * 1e3);
    if (rounds.size() <= static_cast<std::size_t>(round)) rounds.resize(static_cast<std::size_t>(round) + 1);
    auto& sums = rounds[static_cast<std::size_t>(round)];
    sums[kOps] += static_cast<double>(r.ops);
    sums[kJobS] += r.total_s;
    sums[kEvents] += static_cast<double>(r.run_events);
    sums[kRunS] += r.phase_s[kRun];
    sums[kSetupS] += r.phase_s[kBuild] + r.phase_s[kSetup];
    for (std::uint64_t m : r.phase_minflt) minflt += static_cast<double>(m);
  }
};

/// The closed loop: whole rounds, back to back, until `seconds` of wall
/// time have passed (or exactly `replay`'s jobs). Hands each job to
/// `sink(spec, record, round)`.
template <typename Sink>
void run_loop(const Options& opt, double seconds, bool traced, const std::vector<JobSpec>* replay,
              Sink&& sink) {
  const int per_round = round_size(opt.workload);
  const double t0 = wall_now_s();
  for (int round = 0;; ++round) {
    if (replay != nullptr ? round * per_round >= static_cast<int>(replay->size())
                          : round > 0 && wall_now_s() - t0 >= seconds) {
      break;
    }
    for (int slot = 0; slot < per_round; ++slot) {
      JobSpec spec = replay != nullptr ? (*replay)[static_cast<std::size_t>(round * per_round + slot)]
                                       : make_job(opt.workload, opt.seed, round, slot);
      JobRecord rec = run_job(spec, RunOptions{.traced = traced});
      // Hand freed pages back so the next job starts from a cold heap:
      // its page faults then count the memory it touches, whatever ran
      // before it.
      malloc_trim(0);
      sink(std::move(spec), std::move(rec), round);
    }
  }
}

void check_job(const Options& opt, const Golden& golden, const JobRecord& rec, Failures& f) {
  std::string why = rec.failure;
  if (why.empty() && opt.seed == kDefaultSeed) {
    why = golden_mismatch(golden, opt.workload, rec.id, job_result(rec), false);
  }
  f.attempted += rec.ops;
  f.failed += why.empty() ? rec.failed : rec.ops;
  if (!why.empty() && f.why.size() < 20) f.why.push_back(rec.id + ": " + why);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-round mean of a per-job quantity summed over each round's jobs.
template <typename F>
double per_round(const Pass& p, F&& f) {
  if (p.jobs.empty()) return 0;
  double sum = 0;
  for (const JobRecord& r : p.jobs) sum += f(r);
  return sum / static_cast<double>(p.round_of.back() + 1);
}

template <typename F>
double per_job(const Pass& p, F&& f) {
  double sum = 0;
  for (const JobRecord& r : p.jobs) sum += f(r);
  return ratio(sum, static_cast<double>(p.jobs.size()));
}

bool is_mx(Network n) { return n == Network::kMxoe || n == Network::kMxom; }

double events_per_s(const Pass& p) {
  double events = 0, run = 0;
  for (const JobRecord& r : p.jobs) {
    events += static_cast<double>(r.run_events);
    run += r.phase_s[kRun];
  }
  return ratio(events, run);
}

/// Median over rounds of one per-round sum divided by another. Every
/// round carries the same strata, so rounds are comparable, and the
/// median drops rounds that a host hiccup slowed down.
double round_median(const Tally& t, int num, int den = -1) {
  std::vector<double> r;
  for (const auto& sums : t.rounds) {
    r.push_back(den < 0 ? sums[static_cast<std::size_t>(num)]
                        : ratio(sums[static_cast<std::size_t>(num)], sums[static_cast<std::size_t>(den)]));
  }
  return percentile(r, 0.5);
}

std::vector<Metric> end_to_end(const Tally& t, const Failures& f) {
  return {
      {"ops_per_s", round_median(t, Tally::kOps, Tally::kJobS), "ops/s"},
      {"events_per_s", round_median(t, Tally::kEvents, Tally::kRunS), "events/s"},
      {"job_ms_p50", band_mean(t.job_ms, 0.4, 0.6), "ms"},
      {"job_ms_p90", percentile(t.job_ms, 0.9), "ms"},
      {"setup_s", round_median(t, Tally::kSetupS), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"minflt_per_job", ratio(t.minflt, static_cast<double>(t.job_ms.size())), "faults"},
      {"ok_frac", ratio(static_cast<double>(f.attempted - f.failed), static_cast<double>(f.attempted)),
       "ratio"},
  };
}

/// Span name of phase `p`. Set-up belongs to MPI on mpi_mesh and to the
/// verbs/MX layer elsewhere; every job of a run is of the run's workload.
const char* span_name(Workload w, int p) {
  static constexpr const char* kNames[kPhases] = {"core.build", "", "sim.run", "core.collect",
                                                  "core.teardown"};
  if (p == kSetup) return w == Workload::kMpiMesh ? "mpi.setup" : "verbs.setup";
  return kNames[p];
}

std::vector<Metric> per_layer(Workload w, const Pass& a, const Pass& b, double paper_err_pct) {
  std::vector<Metric> m;
  auto add = [&](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  const bool mesh = w == Workload::kMpiMesh;
  double events = 0, run_s = 0, ops = 0, allocs = 0, job_s = 0, child_s = 0;
  Counters c;
  for (const JobRecord& r : a.jobs) {
    events += static_cast<double>(r.run_events);
    run_s += r.phase_s[kRun];
    ops += static_cast<double>(r.ops);
    allocs += static_cast<double>(r.run_allocs);
    job_s += r.total_s;
    for (double s : r.phase_s) child_s += s;
    const Counters& k = r.counters;
    c.wrs += k.wrs;
    c.read_wrs += k.read_wrs;
    c.error_completions += k.error_completions;
    c.mpi_eager += k.mpi_eager;
    c.mpi_rndv += k.mpi_rndv;
    c.pin_hits += k.pin_hits;
    c.pin_misses += k.pin_misses;
    c.unexpected_max = std::max(c.unexpected_max, k.unexpected_max);
    c.posted_max = std::max(c.posted_max, k.posted_max);
    c.ib_ctx_hits += k.ib_ctx_hits;
    c.ib_ctx_misses += k.ib_ctx_misses;
    c.tail_drops += k.tail_drops;
    c.credit_stalls += k.credit_stalls;
    c.lft_epochs += k.lft_epochs;
  }
  ProfilerCounters prof;
  double traced_ops = 0, sim_host_us = 0, sim_nic_us = 0, sim_wire_us = 0;
  for (const JobRecord& r : b.jobs) {
    prof.run_ns += r.prof.run_ns;
    prof.dispatch_ns += r.prof.dispatch_ns;
    prof.dispatched += r.prof.dispatched;
    prof.heapify_cost += r.prof.heapify_cost;
    prof.peak_depth = std::max(prof.peak_depth, r.prof.peak_depth);
    traced_ops += static_cast<double>(r.ops);
    sim_host_us += r.counters.sim_host_us;
    sim_nic_us += r.counters.sim_nic_us;
    sim_wire_us += r.counters.sim_wire_us;
  }
  const double traced_events = static_cast<double>(prof.dispatched);
  const double jobs = static_cast<double>(a.jobs.size());
  const auto phase_s = [](int p) { return [p](const JobRecord& r) { return r.phase_s[static_cast<std::size_t>(p)]; }; };
  const auto phase_minflt = [](int p) {
    return [p](const JobRecord& r) { return static_cast<double>(r.phase_minflt[static_cast<std::size_t>(p)]); };
  };

  // sim
  add("sim.events", ratio(events, jobs), "events");
  add("sim.events_per_op", ratio(events, ops), "events/op");
  add("sim.run_s", per_round(a, phase_s(kRun)), "s");
  add("sim.run_frac", ratio(run_s, job_s), "ratio");
  add("sim.ns_per_event", ratio(run_s * 1e9, events), "ns");
  add("sim.dispatch_ns_per_event", ratio(static_cast<double>(prof.dispatch_ns), traced_events), "ns");
  add("sim.loop_ns_per_event",
      ratio(static_cast<double>(prof.run_ns) - static_cast<double>(prof.dispatch_ns), traced_events), "ns");
  add("sim.queue_peak_depth", static_cast<double>(prof.peak_depth), "events");
  add("sim.heapify_cost_per_event", ratio(static_cast<double>(prof.heapify_cost), traced_events), "levels");
  add("sim.heap_allocs_per_event", ratio(allocs, events), "allocs");
  add("sim.run_minflt", per_job(a, phase_minflt(kRun)), "faults");
  add("sim.trace_overhead_frac", 1.0 - ratio(events_per_s(b), events_per_s(a)), "ratio");

  // core
  add("core.build_s", per_round(a, phase_s(kBuild)), "s");
  add("core.build_minflt", per_job(a, phase_minflt(kBuild)), "faults");
  add("core.collect_s", per_round(a, phase_s(kCollect)), "s");
  add("core.teardown_s", per_round(a, phase_s(kTeardown)), "s");
  add("core.unattributed_frac", ratio(job_s - child_s, job_s), "ratio");
  add("core.paper_err_pct", paper_err_pct, "%");

  // mpi / verbs
  const double setup_s = per_round(a, phase_s(kSetup));
  add("mpi.setup_s", mesh ? setup_s : 0.0, "s");
  add("mpi.setup_minflt", mesh ? per_job(a, phase_minflt(kSetup)) : 0.0, "faults");
  add("mpi.ns_per_op", mesh ? ratio(run_s * 1e9, ops) : 0.0, "ns");
  add("mpi.eager_frac", ratio(double(c.mpi_eager), double(c.mpi_eager + c.mpi_rndv)), "ratio");
  add("mpi.pin_hit_ratio", ratio(double(c.pin_hits), double(c.pin_hits + c.pin_misses)), "ratio");
  add("mpi.unexpected_max_depth", c.unexpected_max, "msgs");
  add("mpi.posted_max_depth", c.posted_max, "msgs");
  add("verbs.setup_s", mesh ? 0.0 : setup_s, "s");
  add("verbs.read_frac", ratio(double(c.read_wrs), double(c.wrs)), "ratio");
  add("verbs.error_completions", double(c.error_completions), "count");

  // iwarp / ib / mx: host time per stack and the wire work per op.
  struct Stack {
    const char* name;
    const char* retx;
    const char* units;
    bool (*owns)(Network);
    std::uint64_t Counters::*sent;
    std::uint64_t Counters::*retx_bytes;
  };
  const Stack stacks[] = {
      {"iwarp", "retx_ratio", "segments_per_op", [](Network n) { return n == Network::kIwarp; },
       &Counters::iwarp_segments, &Counters::iwarp_retx_bytes},
      {"ib", "retx_ratio", "packets_per_op", [](Network n) { return n == Network::kIb; },
       &Counters::ib_packets, &Counters::ib_retx_bytes},
      {"mx", "resend_ratio", "frames_per_op", is_mx, &Counters::mx_frames, &Counters::mx_resent_bytes},
  };
  double wire_frames = 0;
  for (const Stack& s : stacks) {
    double srun = 0, sevents = 0, sops = 0, sent = 0, retx = 0, app = 0;
    for (const JobRecord& r : a.jobs) {
      if (!s.owns(r.network)) continue;
      srun += r.phase_s[kRun];
      sevents += static_cast<double>(r.run_events);
      sops += static_cast<double>(r.ops);
      sent += static_cast<double>(r.counters.*s.sent);
      retx += static_cast<double>(r.counters.*s.retx_bytes);
      app += static_cast<double>(r.counters.app_bytes);
    }
    wire_frames += sent;
    const std::string n = s.name;
    add(n + ".run_s", per_round(a, [&s](const JobRecord& r) { return s.owns(r.network) ? r.phase_s[kRun] : 0.0; }),
        "s");
    add(n + ".ns_per_event", ratio(srun * 1e9, sevents), "ns");
    add(n + "." + s.retx, ratio(retx, app), "ratio");
    add(n + "." + s.units, ratio(sent, sops), "frames/op");
  }
  add("ib.context_miss_ratio",
      ratio(double(c.ib_ctx_misses), double(c.ib_ctx_hits + c.ib_ctx_misses)), "ratio");

  // hw / topo
  add("hw.switch.tail_drops", ratio(double(c.tail_drops), jobs), "frames");
  add("hw.switch.credit_stalls", ratio(double(c.credit_stalls), jobs), "stalls");
  add("hw.switch.drop_ratio", ratio(double(c.tail_drops), wire_frames), "ratio");
  add("hw.sim_host_us_per_op", ratio(sim_host_us, traced_ops), "us");
  add("hw.sim_nic_us_per_op", ratio(sim_nic_us, traced_ops), "us");
  add("hw.sim_wire_us_per_op", ratio(sim_wire_us, traced_ops), "us");
  add("topo.lft_epochs", ratio(double(c.lft_epochs), jobs), "epochs");

  // Span self times, ms per job. Child spans have no children, so their
  // self time is their duration; the job span's self time is what the
  // benchmark itself spent between the calls it times.
  add("span.job.self_ms", ratio((job_s - child_s) * 1e3, jobs), "ms");
  for (int p = 0; p < kPhases; ++p) {
    add(std::string("span.") + span_name(w, p) + ".self_ms", per_job(a, phase_s(p)) * 1e3, "ms");
  }
  add(std::string("span.") + (mesh ? "verbs" : "mpi") + ".setup.self_ms", 0.0, "ms");
  return m;
}

/// Chrome-trace JSON of both passes' spans: job -> core.build,
/// mpi.setup | verbs.setup, sim.run, core.collect, core.teardown.
void write_spans(const std::string& path, Workload w, const Pass& a, const Pass& b, double epoch) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "fabricbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"traceEvents\":[\n");
  bool first = true;
  std::uint64_t next_span = 1;
  auto emit = [&](const char* name, int pid, double start, double dur, const std::string& job,
                  std::uint64_t span, std::uint64_t parent) {
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"fabricbench\",\"ph\":\"X\",\"pid\":%d,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":\"%s\",\"span\":%" PRIu64
                 ",\"parent\":%" PRIu64 "}}",
                 first ? "" : ",\n", name, pid, (start - epoch) * 1e6, dur * 1e6, job.c_str(), span,
                 parent);
    first = false;
  };
  const Pass* passes[] = {&a, &b};
  for (int pid = 1; pid <= 2; ++pid) {
    const Pass& p = *passes[pid - 1];
    std::fprintf(out, "%s{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",\n", pid, pid == 1 ? "untraced pass" : "traced pass");
    first = false;
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
      const JobRecord& r = p.jobs[i];
      const std::uint64_t job_span = next_span++;
      emit("job", pid, r.start_s, r.total_s, r.id, job_span, 0);
      double t = r.start_s;
      for (int ph = 0; ph < kPhases; ++ph) {
        if (ph == kTeardown) t = r.start_s + r.total_s - r.phase_s[kTeardown];
        emit(span_name(w, ph), pid, t, r.phase_s[static_cast<std::size_t>(ph)], r.id, next_span++, job_span);
        t += r.phase_s[static_cast<std::size_t>(ph)];
      }
    }
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
}

void print_result(const Failures& f, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64 ", \"metrics\": {",
              f.failed == 0 ? "true" : "false", f.attempted, f.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

/// Fixed, seed-independent jobs: the paper's headline points (accuracy)
/// and the envelope job (peak memory). Returns core.paper_err_pct.
double run_fixed(const Options& opt, const Golden& golden, Failures& f) {
  double err_sum = 0;
  const std::vector<HeadlineResult> points = run_headline(opt.workload);
  for (const HeadlineResult& h : points) {
    err_sum += std::fabs(h.measured - h.paper) / h.paper * 100.0;
    const std::string why =
        golden_mismatch(golden, opt.workload, "fixed." + h.name, headline_result(h), true);
    f.check(why.empty(), 1, why);
  }
  for (const JobSpec& spec : envelope_jobs(opt.workload)) {
    const JobRecord env = run_job(spec, RunOptions{});
    std::string why = env.failure;
    if (why.empty()) why = golden_mismatch(golden, opt.workload, env.id, job_result(env), true);
    f.check(why.empty(), env.ops, env.id + ": " + why);
  }
  return points.empty() ? 0.0 : err_sum / static_cast<double>(points.size());
}

/// Re-runs `spec`: empty if it reproduces `expected` (digest and
/// simulated result), else why not.
std::string rerun_mismatch(const JobSpec& spec, const std::string& expected) {
  const JobRecord again = run_job(spec, RunOptions{});
  if (!again.failure.empty()) return "re-run of " + spec.id + " failed: " + again.failure;
  if (job_result(again) != expected) {
    return "re-run of " + spec.id + " gave " + job_result(again) + ", first run " + expected;
  }
  return "";
}

int run(const Options& opt) {
  const Golden golden = load_golden(opt.golden_path);
  if (golden.empty()) {
    std::fprintf(stderr, "fabricbench: golden table %s is missing or empty\n", opt.golden_path.c_str());
    return 2;
  }
  const double epoch = cpu_now_s();
  Failures f;
  const double paper_err = run_fixed(opt, golden, f);

  // One seed-chosen job of the first round is re-run at the end and must
  // reproduce its digest.
  const std::size_t rerun_slot =
      static_cast<std::size_t>((opt.seed * 0x9e3779b97f4a7c15ull) >> 33) %
      static_cast<std::size_t>(round_size(opt.workload));
  std::size_t seen = 0;
  JobSpec rerun_spec;
  std::string rerun_result;
  auto note = [&](const JobSpec& spec, const JobRecord& rec) {
    check_job(opt, golden, rec, f);
    if (seen++ == rerun_slot) {
      rerun_spec = spec;
      rerun_result = job_result(rec);
    }
  };

  std::vector<Metric> metrics;
  std::size_t jobs = 0;
  int rounds = 0;
  if (opt.trace) {
    Pass a;
    run_loop(opt, opt.seconds / 2, false, nullptr, [&](JobSpec&& spec, JobRecord&& rec, int round) {
      note(spec, rec);
      a.specs.push_back(std::move(spec));
      a.jobs.push_back(std::move(rec));
      a.round_of.push_back(round);
    });
    // Same jobs again with a stride-1 Profiler and a MetricRegistry
    // attached. Observers must not perturb the simulation: every digest
    // has to match the untraced pass.
    Pass b;
    run_loop(opt, 0, true, &a.specs, [&](JobSpec&& spec, JobRecord&& rec, int round) {
      const std::size_t i = b.jobs.size();
      f.check(job_result(rec) == job_result(a.jobs[i]), 1, rec.id + ": traced run changed the digest");
      b.specs.push_back(std::move(spec));
      b.jobs.push_back(std::move(rec));
      b.round_of.push_back(round);
    });
    metrics = per_layer(opt.workload, a, b, paper_err);
    jobs = a.jobs.size();
    rounds = a.round_of.empty() ? 0 : a.round_of.back() + 1;
    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/fabricbench-" + workload_name(opt.workload) + "-" +
                               std::to_string(opt.seed) + ".trace.json";
      write_spans(path, opt.workload, a, b, epoch);
      std::printf("  spans: %s\n", path.c_str());
    }
  } else {
    Tally t;
    run_loop(opt, opt.seconds, false, nullptr, [&](JobSpec&& spec, JobRecord&& rec, int round) {
      note(spec, rec);
      t.add(rec, round);
    });
    metrics = end_to_end(t, f);
    jobs = t.job_ms.size();
    rounds = static_cast<int>(t.rounds.size());
  }
  const std::string rerun = rerun_mismatch(rerun_spec, rerun_result);
  f.check(rerun.empty(), 1, rerun);

  std::printf("fabricbench %s seed=%" PRIu64 " jobs=%zu rounds=%d trace=%d\n",
              workload_name(opt.workload), opt.seed, jobs, rounds, opt.trace ? 1 : 0);
  if (opt.workload == Workload::kClosIncast) {
    std::printf("  clos_incast has no paper reference; core.paper_err_pct is 0 here\n");
  }
  for (const std::string& why : f.why) std::printf("  FAILED %s\n", why.c_str());
  print_result(f, metrics);
  return 0;
}

int record_golden(const Options& opt) {
  const Workload w = opt.workload;
  for (const HeadlineResult& h : run_headline(w)) {
    std::printf("%s fixed.%s %s\n", workload_name(w), h.name.c_str(), headline_result(h).c_str());
  }
  std::vector<JobSpec> specs = envelope_jobs(w);
  for (int round = 0; round < opt.record_rounds; ++round) {
    for (int slot = 0; slot < round_size(w); ++slot) specs.push_back(make_job(w, kDefaultSeed, round, slot));
  }
  for (const JobSpec& spec : specs) {
    const JobRecord rec = run_job(spec, RunOptions{});
    if (!rec.failure.empty()) {
      std::fprintf(stderr, "%s failed: %s\n", rec.id.c_str(), rec.failure.c_str());
      return 1;
    }
    std::printf("%s %s %s\n", workload_name(w), rec.id.c_str(), job_result(rec).c_str());
  }
  return 0;
}

/// The checker must catch what it exists to catch: a flipped delivered
/// byte, a corrupted golden entry, and a digest that failed to reproduce.
int self_test(const Options& opt) {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("  %-60s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++bad;
  };
  for (Network n : {Network::kIwarp, Network::kIb, Network::kMxoe}) {
    StreamJob job;
    job.network = n;
    job.conns = {{fabsim::verbs::Opcode::kRdmaWrite, 3000, 2},
                 {fabsim::verbs::Opcode::kRdmaRead, 70000, 1},
                 {fabsim::verbs::Opcode::kSend, 5000, 2}};
    if (n == Network::kMxoe) {
      for (StreamConn& c : job.conns) c.op = fabsim::verbs::Opcode::kSend;
    }
    const JobSpec spec{"selftest." + std::string(fabsim::core::network_name(n)), job};
    const JobRecord clean = run_job(spec, RunOptions{});
    const JobRecord flipped = run_job(spec, RunOptions{.flip_byte = true});
    std::printf("  %s:\n", spec.id.c_str());
    expect(clean.failure.empty() && clean.failed == 0, "clean transfers verify");
    expect(!flipped.failure.empty() && flipped.failed == flipped.ops, "a flipped byte is reported");
  }
  const Golden golden = load_golden(opt.golden_path);
  expect(!golden.empty(), "golden table loads");
  for (Workload w : {Workload::kMpiMesh, Workload::kVerbsStream, Workload::kClosIncast}) {
    std::printf("  %s:\n", workload_name(w));
    const JobSpec spec = make_job(w, kDefaultSeed, 0, 1);
    const JobRecord rec = run_job(spec, RunOptions{});
    const std::string actual = job_result(rec);
    expect(golden_mismatch(golden, w, rec.id, actual, true).empty(), "default-seed job matches golden");
    Golden corrupt = golden;
    std::string& entry = corrupt[std::string(workload_name(w)) + " " + rec.id];
    entry[0] = entry[0] == '0' ? '1' : '0';
    expect(!golden_mismatch(corrupt, w, rec.id, actual, true).empty(), "a corrupted golden is reported");
    expect(rerun_mismatch(spec, actual).empty(), "a re-run reproduces its digest");
    JobRecord tampered = rec;
    tampered.digest ^= 1;
    expect(!rerun_mismatch(spec, job_result(tampered)).empty(),
           "a digest that does not reproduce is reported");
  }
  std::printf("self-test: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

/// Re-executes the program once with address-space randomisation off, so
/// that code, stack and heap addresses repeat from run to run. On a 4-core
/// x86-64 VM, four runs of one seed ranged over 17% in ops_per_s with
/// random layouts and over 5% with a fixed one. Where the change is not
/// permitted the run goes on with the layout it has.
void fix_address_layout(char** argv) {
  const int current = personality(0xffffffff);
  if (current == -1 || (current & ADDR_NO_RANDOMIZE) != 0) return;
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n <= 0) return;
  self[n] = '\0';
  if (personality(static_cast<unsigned long>(current) | ADDR_NO_RANDOMIZE) == -1) return;
  execv(self, argv);
}

int usage() {
  std::fprintf(stderr,
               "usage: fabricbench --workload mpi_mesh|verbs_stream|clos_incast --seed N "
               "--seconds S --trace 0|1 --golden FILE [--out DIR]\n"
               "       fabricbench --workload NAME --record-golden ROUNDS\n"
               "       fabricbench --self-test --golden FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fix_address_layout(argv);
  // A fixed mmap threshold stops glibc from raising it after the first
  // large free, so every job's large buffers (MPI arenas, data-carrying
  // payloads) are fresh mappings that fault in and are returned at
  // teardown, as in a fresh bench process. run_pass() trims the heap
  // between jobs for the same reason.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      opt.self_test = true;
    } else if (!has_value) {
      return usage();
    } else if (arg == "--workload") {
      opt.have_workload = parse_workload(argv[++i], &opt.workload);
      if (!opt.have_workload) return usage();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--golden") {
      opt.golden_path = argv[++i];
    } else if (arg == "--out") {
      opt.out_dir = argv[++i];
    } else if (arg == "--record-golden") {
      opt.record_rounds = std::atoi(argv[++i]);
    } else {
      return usage();
    }
  }
  if (opt.self_test) return self_test(opt);
  if (!opt.have_workload || !(opt.seconds > 0)) return usage();
  if (opt.record_rounds > 0) return record_golden(opt);
  return run(opt);
}
