// Common verbs abstraction: queue pairs, completion queues, memory
// regions, and work requests.
//
// Both the iWARP RNIC and the InfiniBand HCA implement this interface —
// it plays the role of the OpenFabrics/Gen2 verbs the paper uses for its
// head-to-head multi-connection comparison (§5.1). The semantics follow
// the two standards' shared core: QP-based, connection-oriented, RDMA
// Write/Read plus two-sided Send/Receive, explicit memory registration.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/memory.hpp"
#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace fabsim::verbs {

using MrKey = hw::MemoryRegistry::Key;

enum class Opcode : std::uint8_t { kSend, kRdmaWrite, kRdmaRead };

/// Scatter/gather element (single-element lists are enough for every
/// benchmark in the paper).
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  MrKey lkey = 0;
};

struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  Sge sge;
  std::uint64_t remote_addr = 0;  ///< RDMA only
  MrKey rkey = 0;                 ///< RDMA only
  bool signaled = true;
};

struct RecvWr {
  std::uint64_t wr_id = 0;
  Sge sge;
};

struct Completion {
  enum class Type : std::uint8_t { kSend, kRecv, kRdmaWrite, kRdmaRead };
  enum class Status : std::uint8_t {
    kSuccess = 0,
    kRetryExceeded,  ///< transport retry counter exhausted; QP is in error
  };
  std::uint64_t wr_id = 0;
  Type type = Type::kSend;
  std::uint32_t byte_len = 0;
  int qp_num = -1;
  Status status = Status::kSuccess;
};

/// Completion queue: providers push, hosts poll (or block on next()).
class CompletionQueue {
 public:
  explicit CompletionQueue(Engine& engine) : notifier_(engine) {}

  std::optional<Completion> poll() {
    if (entries_.empty()) return std::nullopt;
    Completion completion = entries_.front();
    entries_.pop();
    return completion;
  }

  std::size_t depth() const { return entries_.size(); }

  /// Provider side: enqueue a completion and wake blocked pollers.
  void push(Completion completion) {
    entries_.push(completion);
    notifier_.notify_all();
  }

  Notifier& notifier() { return notifier_; }

 private:
  sim::Ring<Completion> entries_;  ///< keeps its capacity: a drained CQ stops allocating
  Notifier notifier_;
};

/// Block until a completion is available; charges `poll_cost` to the CPU
/// for the successful poll (the spin iterations while waiting overlap the
/// NIC's work and are not charged, matching the paper's polling loops).
Task<Completion> next_completion(CompletionQueue& cq, hw::HostCpu& cpu, Time poll_cost);

class QueuePair {
 public:
  virtual ~QueuePair() = default;

  /// Post a send-side work request. Charges host CPU; returns once the
  /// request is handed to the NIC (completion arrives on the send CQ).
  virtual Task<> post_send(SendWr wr) = 0;

  /// Post a receive buffer for incoming Send messages.
  virtual Task<> post_recv(RecvWr wr) = 0;

  virtual int qp_num() const = 0;
  virtual bool connected() const = 0;

  /// True once the transport has moved this QP to the error state (e.g.
  /// IB RC retry exhaustion). Further posts are rejected.
  virtual bool in_error() const { return false; }
};

/// A verbs-capable device (RNIC or HCA).
class Device {
 public:
  virtual ~Device() = default;

  /// Register [addr, addr+len) for device access. Charges the host CPU
  /// with the (expensive) pinning cost.
  virtual Task<MrKey> reg_mr(std::uint64_t addr, std::uint64_t len) = 0;
  virtual Task<> dereg_mr(MrKey key) = 0;

  virtual std::unique_ptr<QueuePair> create_qp(CompletionQueue& send_cq,
                                               CompletionQueue& recv_cq) = 0;

  /// Out-of-band connection establishment between a local QP and a QP of
  /// a peer device of the same technology.
  virtual void establish(QueuePair& local, QueuePair& remote) = 0;

  /// One-shot event triggered when an inbound RDMA Write covering
  /// [addr, addr+len) has been fully placed. This is how benchmarks
  /// emulate the paper's "poll the target buffer" completion check.
  virtual std::shared_ptr<Event> watch_placement(std::uint64_t addr, std::uint64_t len) = 0;

  virtual hw::MemoryRegistry& registry() = 0;
};

}  // namespace fabsim::verbs
