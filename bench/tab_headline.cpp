// Headline summary table: every number the paper's abstract and body
// quote, side by side with this reproduction's measurement.
#include <cstdio>

#include "core/report.hpp"
#include "core/runners.hpp"

using namespace fabsim;
using namespace fabsim::core;

namespace {

void row(Report& report, const char* name, double paper, double measured, const char* unit) {
  const double dev = paper > 0 ? (measured - paper) / paper * 100.0 : 0.0;
  std::printf("  %-44s %10.2f %10.2f %-5s %+6.1f%%\n", name, paper, measured, unit, dev);
  report.add_scalar(std::string(name) + " (paper)", paper, unit);
  report.add_scalar(std::string(name) + " (measured)", measured, unit);
}

}  // namespace

int main() {
  std::printf("=== Headline comparison: paper vs. reproduction ===\n");
  std::printf("  %-44s %10s %10s %-5s %7s\n", "metric", "paper", "measured", "unit", "dev");

  const auto iw = profile(Network::kIwarp);
  const auto ib = profile(Network::kIb);
  const auto moe = profile(Network::kMxoe);
  const auto mom = profile(Network::kMxom);

  Report report("tab_headline");
  report.add_note("headline numbers: paper value vs reproduction, paired scalars");
  report.add_note("probe: MPI 4B ping-pong histogram + metrics per network");

  std::printf("-- user-level latency (4 B RDMA write / send-recv)\n");
  row(report, "iWARP verbs", 9.78, userlevel_pingpong_latency_us(iw, 4), "us");
  row(report, "IB verbs (VAPI)", 4.53, userlevel_pingpong_latency_us(ib, 4), "us");
  row(report, "MXoE", 3.45, userlevel_pingpong_latency_us(moe, 4), "us");
  row(report, "MXoM", 3.05, userlevel_pingpong_latency_us(mom, 4), "us");

  std::printf("-- user-level one-way bandwidth (4 MB)\n");
  row(report, "iWARP (83% of internal PCI-X)", 880, userlevel_bandwidth_mbps(iw, 4 << 20, 4),
      "MB/s");
  row(report, "IB (97% of 1 GB/s)", 970, userlevel_bandwidth_mbps(ib, 4 << 20, 4), "MB/s");
  row(report, "Myri-10G (<=75% of 10G)", 930, userlevel_bandwidth_mbps(mom, 4 << 20, 4), "MB/s");

  std::printf("-- MPI short-message latency (4 B)\n");
  {
    const struct {
      const char* name;
      double paper;
      const NetworkProfile* p;
      Network n;
    } cases[] = {{"iWARP MPI", 10.7, &iw, Network::kIwarp},
                 {"IB (MVAPICH)", 4.8, &ib, Network::kIb},
                 {"MXoE (MPICH-MX)", 3.6, &moe, Network::kMxoe},
                 {"MXoM (MPICH-MX)", 3.3, &mom, Network::kMxom}};
    for (const auto& c : cases) {
      Histogram hist;
      MetricRegistry metrics;
      row(report, c.name, c.paper, mpi_pingpong_latency_us(*c.p, 4, 30, &hist, &metrics), "us");
      report.add_histogram(std::string(network_name(c.n)) + ".latency_us", hist);
      report.add_metrics(metrics, std::string(network_name(c.n)) + ".");
    }
  }

  std::printf("-- MPI peak bandwidths (1 MB)\n");
  row(report, "iWARP bidirectional", 856, mpi_bidir_bw_mbps(iw, 1 << 20, 8), "MB/s");
  row(report, "IB bidirectional", 960, mpi_bidir_bw_mbps(ib, 1 << 20, 8), "MB/s");
  row(report, "iWARP both-way (89% of PCI-X)", 950, mpi_bothway_bw_mbps(iw, 1 << 20, 12, 3),
      "MB/s");
  row(report, "IB both-way (89% of 2 GB/s)", 1780, mpi_bothway_bw_mbps(ib, 1 << 20, 12, 3),
      "MB/s");
  row(report, "Myri both-way (~70% of 2 GB/s)", 1400, mpi_bothway_bw_mbps(mom, 1 << 20, 12, 3),
      "MB/s");

  std::printf("-- buffer re-use latency ratio peaks (Fig 6)\n");
  {
    auto ratio = [](const NetworkProfile& p, std::uint32_t m) {
      return bufreuse_latency_us(p, m, false) / bufreuse_latency_us(p, m, true);
    };
    row(report, "IB at 128 KB", 4.3, ratio(ib, 128 << 10), "x");
    row(report, "iWARP at 256 KB", 2.0, ratio(iw, 256 << 10), "x");
    row(report, "Myri-10G at 1 MB", 2.4, ratio(mom, 1 << 20), "x");
  }

  report.write();

  std::printf(
      "\nSee DESIGN.md for OCR-reconstruction notes on the paper values and\n"
      "EXPERIMENTS.md for the per-figure discussion.\n");
  return 0;
}
