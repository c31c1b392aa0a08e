// MiniMPI tests, parameterized over all four networks where the semantics
// must be identical (integrity, matching, ordering), plus channel-specific
// behaviour (pin-down cache, ssend synchronization, queues).
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"

namespace fabsim::core {
namespace {

using mpi::kAnySource;
using mpi::kAnyTag;

std::vector<std::byte> pattern(std::size_t n, unsigned seed = 29) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::byte>((i * 91 + seed) & 0xff);
  return v;
}

class MpiAllNetworks : public ::testing::TestWithParam<Network> {};

INSTANTIATE_TEST_SUITE_P(Networks, MpiAllNetworks,
                         ::testing::Values(Network::kIwarp, Network::kIb, Network::kMxoe,
                                           Network::kMxom),
                         [](const auto& sweep) { return network_name(sweep.param); });

TEST_P(MpiAllNetworks, EagerRoundTripIntegrity) {
  Cluster cluster(2, GetParam());
  auto& src = cluster.node(0).mem().alloc(4096);
  auto& dst = cluster.node(1).mem().alloc(4096);
  const auto payload = pattern(2000);
  std::memcpy(cluster.node(0).mem().window(src.addr(), 2000).data(), payload.data(), 2000);

  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, hw::Buffer& d) -> Task<> {
    co_await c.setup_mpi();
    auto& r0 = c.mpi_rank(0);
    auto& r1 = c.mpi_rank(1);
    auto rx = co_await r1.irecv(0, 7, d.addr(), 4096);
    co_await r0.send(1, 7, s.addr(), 2000);
    co_await r1.wait(rx);
    EXPECT_EQ(rx->status().source, 0);
    EXPECT_EQ(rx->status().tag, 7);
    EXPECT_EQ(rx->status().length, 2000u);
  }(cluster, src, dst));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u) << "deadlock";

  auto view = cluster.node(1).mem().window(dst.addr(), 2000);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), 2000), 0);
}

TEST_P(MpiAllNetworks, RendezvousRoundTripIntegrity) {
  Cluster cluster(2, GetParam());
  const std::uint32_t len = 200 * 1024;
  auto& src = cluster.node(0).mem().alloc(len);
  auto& dst = cluster.node(1).mem().alloc(len);
  const auto payload = pattern(len, 31);
  std::memcpy(cluster.node(0).mem().window(src.addr(), len).data(), payload.data(), len);

  // Rendezvous needs both ranks making progress: one process per rank,
  // exactly as in a real MPI job.
  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    co_await c.mpi_rank(0).send(1, 3, s.addr(), n);
  }(cluster, src, len));
  cluster.engine().spawn([](Cluster& c, hw::Buffer& d, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    auto status = co_await c.mpi_rank(1).recv(0, 3, d.addr(), n);
    EXPECT_EQ(status.length, n);
  }(cluster, dst, len));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);

  auto view = cluster.node(1).mem().window(dst.addr(), len);
  EXPECT_EQ(std::memcmp(view.data(), payload.data(), len), 0);
}

TEST_P(MpiAllNetworks, UnexpectedThenReceive) {
  Cluster cluster(2, GetParam());
  auto& src = cluster.node(0).mem().alloc(4096, false);
  auto& dst = cluster.node(1).mem().alloc(4096, false);

  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, hw::Buffer& d) -> Task<> {
    co_await c.setup_mpi();
    // Send before any receive is posted.
    co_await c.mpi_rank(0).send(1, 5, s.addr(), 512);
    co_await c.engine().sleep(us(100));
    // Must be queued as unexpected by now. Note: ChVerbs only notices the
    // arrival when rank 1 enters the library (synchronous progress), so
    // the queue may only materialize during the irecv below.
    auto status = co_await c.mpi_rank(1).recv(0, 5, d.addr(), 4096);
    EXPECT_EQ(status.length, 512u);
  }(cluster, src, dst));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);
}

TEST_P(MpiAllNetworks, WildcardSourceAndTag) {
  Cluster cluster(2, GetParam());
  auto& src = cluster.node(0).mem().alloc(4096, false);
  auto& dst = cluster.node(1).mem().alloc(4096, false);

  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, hw::Buffer& d) -> Task<> {
    co_await c.setup_mpi();
    auto rx = co_await c.mpi_rank(1).irecv(kAnySource, kAnyTag, d.addr(), 4096);
    co_await c.mpi_rank(0).send(1, 1234, s.addr(), 64);
    co_await c.mpi_rank(1).wait(rx);
    EXPECT_EQ(rx->status().source, 0);
    EXPECT_EQ(rx->status().tag, 1234);
  }(cluster, src, dst));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);
}

TEST_P(MpiAllNetworks, MessageOrderingPerSourceAndTag) {
  Cluster cluster(2, GetParam());
  auto& src = cluster.node(0).mem().alloc(8 * 4096);
  auto& dst = cluster.node(1).mem().alloc(8 * 4096);

  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, hw::Buffer& d) -> Task<> {
    co_await c.setup_mpi();
    // Stamp 8 distinct messages.
    for (std::uint32_t i = 0; i < 8; ++i) {
      auto w = c.node(0).mem().window(s.addr() + i * 4096, 4);
      const std::uint32_t stamp = 0xa0 + i;
      std::memcpy(w.data(), &stamp, 4);
      co_await c.mpi_rank(0).send(1, 9, s.addr() + i * 4096, 64);
    }
    for (std::uint32_t i = 0; i < 8; ++i) {
      co_await c.mpi_rank(1).recv(0, 9, d.addr() + i * 4096, 4096);
      auto w = c.node(1).mem().window(d.addr() + i * 4096, 4);
      std::uint32_t stamp = 0;
      std::memcpy(&stamp, w.data(), 4);
      EXPECT_EQ(stamp, 0xa0 + i) << "message " << i << " out of order";
    }
  }(cluster, src, dst));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);
}

TEST_P(MpiAllNetworks, SsendCompletesOnlyAfterMatch) {
  Cluster cluster(2, GetParam());
  auto& src = cluster.node(0).mem().alloc(4096, false);
  auto& dst = cluster.node(1).mem().alloc(4096, false);

  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, hw::Buffer& d) -> Task<> {
    co_await c.setup_mpi();
    Time recv_posted_at = 0;
    Time ssend_done_at = 0;
    // Rank 1 posts its receive late.
    c.engine().spawn([](Cluster& cc, hw::Buffer& dd, Time& at) -> Task<> {
      co_await cc.engine().sleep(us(300));
      at = cc.engine().now();
      co_await cc.mpi_rank(1).recv(0, 2, dd.addr(), 4096);
    }(c, d, recv_posted_at));
    co_await c.mpi_rank(0).ssend(1, 2, s.addr(), 256);
    ssend_done_at = c.engine().now();
    EXPECT_GT(ssend_done_at, recv_posted_at)
        << "synchronous send must not complete before the receive is posted";
  }(cluster, src, dst));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);
}

TEST_P(MpiAllNetworks, PingPongLatencyInPaperClass) {
  Cluster cluster(2, GetParam());
  auto& b0 = cluster.node(0).mem().alloc(4096, false);
  auto& b1 = cluster.node(1).mem().alloc(4096, false);
  double half_rtt_us = 0;

  cluster.engine().spawn([](Cluster& c, hw::Buffer& x0, hw::Buffer& x1, double& out) -> Task<> {
    co_await c.setup_mpi();
    const int iters = 50;
    c.engine().spawn([](Cluster& cc, hw::Buffer& b, int n) -> Task<> {
      auto& r1 = cc.mpi_rank(1);
      for (int i = 0; i < n; ++i) {
        co_await r1.recv(0, 1, b.addr(), 4096);
        co_await r1.send(0, 1, b.addr(), 1);
      }
    }(c, x1, iters));
    auto& r0 = c.mpi_rank(0);
    // Warmup.
    for (int i = 0; i < 5; ++i) {
      co_await r0.send(1, 1, x0.addr(), 1);
      co_await r0.recv(1, 1, x0.addr(), 4096);
    }
    const double t0 = r0.wtime();
    for (int i = 0; i < 45; ++i) {
      co_await r0.send(1, 1, x0.addr(), 1);
      co_await r0.recv(1, 1, x0.addr(), 4096);
    }
    out = (r0.wtime() - t0) / 45.0 / 2.0 * 1e6;
  }(cluster, b0, b1, half_rtt_us));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);

  // Paper (§6.1): ~10.7 iWARP, ~4.8 IB, ~3.3 MXoM, ~3.6 MXoE. Wide bands
  // here; calibration_test pins the exact values.
  switch (GetParam()) {
    case Network::kIwarp:
      EXPECT_GT(half_rtt_us, 6.0);
      EXPECT_LT(half_rtt_us, 16.0);
      break;
    case Network::kIb:
      EXPECT_GT(half_rtt_us, 2.5);
      EXPECT_LT(half_rtt_us, 8.0);
      break;
    case Network::kMxom:
    case Network::kMxoe:
      EXPECT_GT(half_rtt_us, 1.5);
      EXPECT_LT(half_rtt_us, 6.0);
      break;
  }
}

TEST_P(MpiAllNetworks, CollectivesOnFourNodes) {
  Cluster cluster(4, GetParam());
  std::vector<hw::Buffer*> bufs, scratch, gather;
  for (int i = 0; i < 4; ++i) {
    bufs.push_back(&cluster.node(i).mem().alloc(4096));
    scratch.push_back(&cluster.node(i).mem().alloc(4096));
    gather.push_back(&cluster.node(i).mem().alloc(4 * 4096));
  }

  int done_ranks = 0;
  for (int r = 0; r < 4; ++r) {
    cluster.engine().spawn([](Cluster& c, int me, std::vector<hw::Buffer*>& b,
                              std::vector<hw::Buffer*>& sc, std::vector<hw::Buffer*>& g,
                              int& done) -> Task<> {
      co_await c.setup_mpi();
      auto& rank = c.mpi_rank(me);
      co_await rank.barrier();

      // allreduce: every rank contributes rank+1 in 8 doubles.
      {
        auto w = c.node(me).mem().window(b[static_cast<std::size_t>(me)]->addr(),
                                         8 * sizeof(double));
        for (int i = 0; i < 8; ++i) {
          const double v = me + 1;
          std::memcpy(w.data() + i * sizeof(double), &v, sizeof(double));
        }
        co_await rank.allreduce_sum(b[static_cast<std::size_t>(me)]->addr(),
                                    sc[static_cast<std::size_t>(me)]->addr(), 8);
        double out = 0;
        std::memcpy(&out, w.data(), sizeof(double));
        EXPECT_DOUBLE_EQ(out, 1 + 2 + 3 + 4);
      }

      // bcast from rank 2.
      {
        auto w = c.node(me).mem().window(sc[static_cast<std::size_t>(me)]->addr(), 8);
        std::memset(w.data(), me == 2 ? 0x5a : 0, 8);
        co_await rank.bcast(2, sc[static_cast<std::size_t>(me)]->addr(), 8);
        EXPECT_EQ(std::to_integer<int>(w[0]), 0x5a);
      }

      // allgather of 512-byte blocks.
      {
        auto w = c.node(me).mem().window(b[static_cast<std::size_t>(me)]->addr(), 512);
        std::memset(w.data(), 0x10 + me, 512);
        co_await rank.allgather(b[static_cast<std::size_t>(me)]->addr(), 512,
                                g[static_cast<std::size_t>(me)]->addr());
        for (int r2 = 0; r2 < 4; ++r2) {
          auto block = c.node(me).mem().window(
              g[static_cast<std::size_t>(me)]->addr() + static_cast<std::uint64_t>(r2) * 512, 512);
          EXPECT_EQ(std::to_integer<int>(block[0]), 0x10 + r2);
          EXPECT_EQ(std::to_integer<int>(block[511]), 0x10 + r2);
        }
      }
      ++done;
    }(cluster, r, bufs, scratch, gather, done_ranks));
  }
  cluster.engine().run();
  EXPECT_EQ(done_ranks, 4);
  EXPECT_EQ(cluster.engine().live_processes(), 0u) << "collective deadlock";
}

TEST(MpiChVerbs, PinDownCacheHitsOnReuse) {
  Cluster cluster(2, Network::kIb);
  const std::uint32_t len = 64 * 1024;
  auto& src = cluster.node(0).mem().alloc(len, false);
  auto& dst = cluster.node(1).mem().alloc(len, false);

  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    for (int i = 0; i < 5; ++i) co_await c.mpi_rank(0).send(1, 1, s.addr(), n);
    auto& ch0 = dynamic_cast<mpi::ChVerbs&>(c.mpi_rank(0).channel());
    EXPECT_EQ(ch0.pin_misses(), 1u);
    EXPECT_EQ(ch0.pin_hits(), 4u);
  }(cluster, src, len));
  cluster.engine().spawn([](Cluster& c, hw::Buffer& d, std::uint32_t n) -> Task<> {
    co_await c.setup_mpi();
    for (int i = 0; i < 5; ++i) co_await c.mpi_rank(1).recv(0, 1, d.addr(), n);
  }(cluster, dst, len));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);
}

TEST(MpiChVerbs, CreditFlowSurvivesUnexpectedFlood) {
  // More eager sends than credit batch, receiver absent: credits must
  // recover once the receiver drains, with no deadlock.
  Cluster cluster(2, Network::kIwarp);
  auto& src = cluster.node(0).mem().alloc(4096, false);
  auto& dst = cluster.node(1).mem().alloc(4096, false);
  const int kMessages = 300;

  cluster.engine().spawn([](Cluster& c, hw::Buffer& s, hw::Buffer& d, int n) -> Task<> {
    co_await c.setup_mpi();
    for (int i = 0; i < n; ++i) {
      co_await c.mpi_rank(0).send(1, 4, s.addr(), 32);
    }
    for (int i = 0; i < n; ++i) {
      co_await c.mpi_rank(1).recv(0, 4, d.addr(), 4096);
    }
    // Drain trailing completions so credit state settles.
    co_await c.engine().sleep(ms(1));
    auto done = co_await c.mpi_rank(0).isend(1, 4, s.addr(), 32);
    auto rx = co_await c.mpi_rank(1).irecv(0, 4, d.addr(), 4096);
    co_await c.mpi_rank(1).wait(rx);
    co_await c.mpi_rank(0).wait(done);
  }(cluster, src, dst, kMessages));
  cluster.engine().run();
  EXPECT_EQ(cluster.engine().live_processes(), 0u);
}

TEST(MpiChVerbs, CreditBatchLargerThanRingIsRejected) {
  // The receiver can free at most eager_buffers slots before the sender
  // stalls, so credit_batch > eager_buffers would never return a credit
  // and both ranks would hang; the channel must refuse the pair instead.
  NetworkProfile p = profile(Network::kIb);
  p.mpi.eager_buffers = 8;
  p.mpi.credit_batch = 64;
  Cluster cluster(2, p);
  try {
    // spawn() runs setup_mpi() up to its first suspension, which is past
    // the channels' construction.
    cluster.engine().spawn([](Cluster& c) -> Task<> { co_await c.setup_mpi(); }(cluster));
    cluster.engine().run();
    FAIL() << "ChVerbs accepted credit_batch 64 > eager_buffers 8";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("credit_batch 64"), std::string::npos) << what;
    EXPECT_NE(what.find("eager_buffers 8"), std::string::npos) << what;
  }
}

TEST(MpiChVerbs, ZeroEagerBuffersIsRejected) {
  NetworkProfile p = profile(Network::kIwarp);
  p.mpi.eager_buffers = 0;
  p.mpi.credit_batch = 0;
  Cluster cluster(2, p);
  EXPECT_THROW(
      {
        cluster.engine().spawn([](Cluster& c) -> Task<> { co_await c.setup_mpi(); }(cluster));
        cluster.engine().run();
      },
      std::invalid_argument);
}

TEST(MpiDeterminism, FourNetworksRepeatable) {
  for (Network network : {Network::kIwarp, Network::kIb, Network::kMxoe, Network::kMxom}) {
    auto run_once = [network] {
      Cluster cluster(2, network);
      auto& src = cluster.node(0).mem().alloc(1 << 20, false);
      auto& dst = cluster.node(1).mem().alloc(1 << 20, false);
      cluster.engine().spawn([](Cluster& c, hw::Buffer& s, hw::Buffer& d) -> Task<> {
        co_await c.setup_mpi();
        for (std::uint32_t len : {64u, 4096u, 65536u, 1048576u}) {
          auto rx = co_await c.mpi_rank(1).irecv(0, 1, d.addr(), 1 << 20);
          co_await c.mpi_rank(0).send(1, 1, s.addr(), len);
          co_await c.mpi_rank(1).wait(rx);
        }
      }(cluster, src, dst));
      cluster.engine().run();
      return std::pair{cluster.engine().now(), cluster.engine().events_processed()};
    };
    EXPECT_EQ(run_once(), run_once()) << network_name(network);
  }
}

}  // namespace
}  // namespace fabsim::core
