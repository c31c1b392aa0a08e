// Heap allocations on the data path of a steady data-carrying stream.
//
// A message's payload is copied out of host memory once, into a pooled
// snapshot that every wire unit shares, so once the pool and the queues
// have warmed up the only allocation a data frame costs is the std::any
// box hw::Frame carries it in. This executable replaces the global
// operator new with a counting one (which is why it is its own test
// binary) and checks that budget on 1 MiB RDMA Writes over iWARP and IB
// and on 1 MiB MX rendezvous sends: at most one allocation per frame the
// switch forwarded, plus a small fixed number per message (the post
// coroutines, the placement watch, the MX requests and bookkeeping).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/cluster.hpp"
#include "verbs/verbs.hpp"

namespace {
std::uint64_t g_allocs = 0;  // NOLINT(global-state): operator new has no object to hang it on

void* counted(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace fabsim {
namespace {

constexpr std::uint32_t kLen = 1 << 20;
constexpr int kWarmup = 4;    // messages before the counted window
constexpr int kMeasured = 8;  // messages inside it
/// Allocations per message beyond the per-frame std::any box: the post
/// coroutine frames, the placement watch or the MX requests, one map node
/// for the message's bookkeeping and the snapshot's control block.
/// Measured at 6 (iWARP), 8 (IB) and 13 (MX rendezvous) with libstdc++.
constexpr std::uint64_t kPerMessage = 16;

/// What one counted window saw.
struct Window {
  std::uint64_t allocs = 0;
  std::uint64_t frames = 0;
  bool done = false;
};

void fill(hw::Buffer& buffer) {
  auto bytes = buffer.bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::byte>(i * 37 + 5);
}

/// Back-to-back 1 MiB RDMA Writes between data-carrying buffers; counts
/// allocations and forwarded frames over the last kMeasured of them.
Window rdma_write_stream(core::Network network) {
  core::Cluster cluster(2, network);
  auto& src = cluster.node(0).mem().alloc(kLen);
  auto& dst = cluster.node(1).mem().alloc(kLen);
  fill(src);

  Window window;
  verbs::CompletionQueue cq(cluster.engine());
  std::vector<std::unique_ptr<verbs::QueuePair>> qps;
  cluster.engine().spawn([](core::Cluster& c, verbs::CompletionQueue& q,
                            std::vector<std::unique_ptr<verbs::QueuePair>>& pairs,
                            std::uint64_t s, std::uint64_t d, Window& w) -> Task<> {
    pairs.push_back(c.device(0).create_qp(q, q));
    pairs.push_back(c.device(1).create_qp(q, q));
    c.device(0).establish(*pairs[0], *pairs[1]);
    const auto lkey = co_await c.device(0).reg_mr(s, kLen);
    const auto rkey = co_await c.device(1).reg_mr(d, kLen);
    std::uint64_t allocs = 0;
    std::uint64_t frames = 0;
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      if (i == kWarmup) {
        allocs = g_allocs;
        frames = c.fabric().frames_forwarded();
      }
      auto watch = c.device(1).watch_placement(d, kLen);
      co_await pairs[0]->post_send(verbs::SendWr{.wr_id = static_cast<std::uint64_t>(i),
                                                 .opcode = verbs::Opcode::kRdmaWrite,
                                                 .sge = {s, kLen, lkey},
                                                 .remote_addr = d,
                                                 .rkey = rkey});
      co_await watch->wait();
      while (q.poll()) {
      }
    }
    w.allocs = g_allocs - allocs;
    w.frames = c.fabric().frames_forwarded() - frames;
    w.done = true;
  }(cluster, cq, qps, src.addr(), dst.addr(), window));
  cluster.engine().run();
  EXPECT_TRUE(std::equal(src.bytes().begin(), src.bytes().end(), dst.bytes().begin()));
  return window;
}

/// Back-to-back 1 MiB MX sends (rendezvous: above eager_max).
Window mx_rendezvous_stream() {
  core::Cluster cluster(2, core::Network::kMxoe);
  auto& src = cluster.node(0).mem().alloc(kLen);
  auto& dst = cluster.node(1).mem().alloc(kLen);
  fill(src);

  Window window;
  cluster.engine().spawn([](core::Cluster& c, std::uint64_t s, std::uint64_t d,
                            Window& w) -> Task<> {
    std::uint64_t allocs = 0;
    std::uint64_t frames = 0;
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      if (i == kWarmup) {
        allocs = g_allocs;
        frames = c.fabric().frames_forwarded();
      }
      auto recv = co_await c.endpoint(1).irecv(d, kLen, 7, ~0ull);
      auto send = co_await c.endpoint(0).isend(s, kLen, c.endpoint(1).port(), 7);
      co_await c.endpoint(0).wait(send);
      co_await c.endpoint(1).wait(recv);
    }
    w.allocs = g_allocs - allocs;
    w.frames = c.fabric().frames_forwarded() - frames;
    w.done = true;
  }(cluster, src.addr(), dst.addr(), window));
  cluster.engine().run();
  EXPECT_TRUE(std::equal(src.bytes().begin(), src.bytes().end(), dst.bytes().begin()));
  return window;
}

void expect_within_budget(const Window& w) {
  ASSERT_TRUE(w.done);
  ASSERT_GT(w.frames, static_cast<std::uint64_t>(kMeasured) * 100) << "the stream never ran";
  EXPECT_LE(w.allocs, w.frames + kPerMessage * kMeasured)
      << w.allocs << " allocations for " << w.frames << " forwarded frames";
}

TEST(PayloadAllocs, IwarpRdmaWriteStream) {
  expect_within_budget(rdma_write_stream(core::Network::kIwarp));
}

TEST(PayloadAllocs, IbRdmaWriteStream) {
  expect_within_budget(rdma_write_stream(core::Network::kIb));
}

TEST(PayloadAllocs, MxRendezvousStream) { expect_within_budget(mx_rendezvous_stream()); }

}  // namespace
}  // namespace fabsim
