// Reliable-connection (RC) verbs core shared by the iWARP RNIC and the
// InfiniBand HCA.
//
// The paper drives both adapters through the same OpenFabrics verbs
// (§5.1) and traces every difference between them to the transport
// underneath. This module is the part they share: the QP object, memory
// registration, connection set-up, the post paths (validation and the
// work request -> RC message translation), placement of tagged and
// untagged data into registered memory, the RDMA Read responder,
// completion generation, placement watches and the pending-read /
// receive-queue flush of the error transition.
//
// A transport derives from RcNic and keeps only what the paper
// contrasts — its reliability protocol, engines and buses:
//   * segment_message() hands an RC message to the transport (iWARP
//     queues it on the TCP stream, IB cuts it into MTU packets);
//   * abort_transport() is the transport's part of the error transition;
//   * deliver() (hw::FrameSink) runs the transport's receive side, which
//     ends in handle_read_request() or complete_placement().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "check/invariant.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "sim/scope.hpp"
#include "verbs/verbs.hpp"

namespace fabsim::verbs {

class RcNic;

/// Stream bytes consumed by an RDMA Read Request control message.
inline constexpr std::uint32_t kReadRequestBytes = 28;

enum class MsgKind : std::uint8_t { kUntagged, kTaggedWrite, kReadRequest, kReadResponse };

/// RC queue pair: one QP <-> one connection of the owning NIC.
class RcQp final : public QueuePair {
 public:
  Task<> post_send(SendWr wr) override;
  Task<> post_recv(RecvWr wr) override;
  int qp_num() const override { return qp_num_; }
  bool connected() const override { return conn_id_ >= 0; }
  bool in_error() const override { return in_error_; }

 private:
  friend class RcNic;
  RcQp(RcNic& nic, int qp_num, CompletionQueue& send_cq, CompletionQueue& recv_cq)
      : nic_(&nic), qp_num_(qp_num), send_cq_(&send_cq), recv_cq_(&recv_cq) {}

  FABSIM_ENGINE_LOCAL;  // wiring fixed at create_qp/connect time
  RcNic* nic_;
  int qp_num_;
  FABSIM_OWNED_BY(nic_->fabric_port());  // QP state advances only inside
                                         // the owning NIC's events
  int conn_id_ = -1;
  bool in_error_ = false;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
};

/// An RC message handed to the transport.
struct OutMsg {
  MsgKind kind = MsgKind::kUntagged;
  std::uint64_t msg_id = 0;
  std::uint64_t wr_id = 0;
  bool signaled = true;
  std::uint32_t len = 0;          ///< payload length on the wire
  std::uint64_t remote_addr = 0;  ///< tagged placement target / read source
  MrKey rkey = 0;
  std::uint64_t read_sink_addr = 0;  ///< requester-side sink (read only)
  MrKey read_sink_key = 0;
  std::uint32_t read_len = 0;
  hw::Snapshot data;  ///< source snapshot taken at post time, optional
};

/// The RC fields every wire unit carries (an iWARP DDP segment, an IB
/// packet). Each transport's wire struct derives from this and adds its
/// own reliability header.
struct RcWire {
  std::uint64_t msg_id = 0;
  std::uint64_t place_addr = 0;  ///< tagged target of this unit; read source for a request
  std::uint64_t wr_id = 0;
  std::uint64_t read_sink_addr = 0;
  hw::Snapshot data;  ///< the whole message's snapshot (optional); this unit
                      ///< carries bytes [msg_offset, msg_offset + payload_len)
  int dst_conn_id = -1;
  std::uint32_t msg_len = 0;
  std::uint32_t msg_offset = 0;
  std::uint32_t payload_len = 0;
  MrKey rkey = 0;
  MrKey read_sink_key = 0;
  std::uint32_t read_len = 0;
  MsgKind kind = MsgKind::kUntagged;
  bool signaled = true;
  bool first_of_message = false;
  bool last_of_message = false;

  /// Last unit of a signaled Send or RDMA Write: its send completion is due.
  bool completes_send() const {
    return last_of_message && signaled &&
           (kind == MsgKind::kUntagged || kind == MsgKind::kTaggedWrite);
  }
};

/// Progress of one inbound message.
struct RxMsg {
  std::uint32_t placed = 0;
  std::uint64_t target_addr = 0;
  std::uint64_t recv_wr_id = 0;  ///< untagged only
};

/// An RDMA Read posted locally whose response has not yet been fully
/// placed. The request leaves the transport's retransmit state long
/// before the response arrives, so this list is what lets the error
/// transition flush the read instead of letting the requester hang.
struct PendingRead {
  std::uint64_t wr_id = 0;
  std::uint32_t len = 0;
  bool signaled = true;
};

/// Per-connection RC state (this side). Transports derive their
/// connection state from it.
struct RcConn {
  RcConn() = default;
  RcConn(const RcConn&) = delete;
  RcConn& operator=(const RcConn&) = delete;
  virtual ~RcConn() = default;

  FABSIM_ENGINE_LOCAL;  // wiring fixed at connect() time
  RcQp* qp = nullptr;
  RcNic* peer = nullptr;
  int id = -1;  ///< own index in the NIC's connection table
  int peer_conn_id = -1;

  FABSIM_OWNED_BY(qp->nic_->fabric_port());  // RC machine state: advances
                                             // only inside the owning
                                             // NIC's events
  std::uint64_t next_msg_id = 1;
  std::map<std::uint64_t, RxMsg> rx_msgs;
  std::deque<RecvWr> recv_queue;
  std::vector<PendingRead> pending_reads;
};

/// Host-interface costs of one stack's post paths.
struct PostCosts {
  Time post_send_cpu = 0;
  Time post_recv_cpu = 0;
  Time doorbell = 0;  ///< the NIC picks a WQE up this long after the post
};

class RcNic : public Device, public hw::FrameSink {
 public:
  // Posted continuations and the switch hold the NIC's address.
  RcNic(const RcNic&) = delete;
  RcNic& operator=(const RcNic&) = delete;

  // --- verbs::Device ---
  Task<MrKey> reg_mr(std::uint64_t addr, std::uint64_t len) override;
  Task<> dereg_mr(MrKey key) override;
  std::unique_ptr<QueuePair> create_qp(CompletionQueue& send_cq,
                                       CompletionQueue& recv_cq) override;
  std::shared_ptr<Event> watch_placement(std::uint64_t addr, std::uint64_t len) override;
  hw::MemoryRegistry& registry() override { return registry_; }
  void establish(QueuePair& local, QueuePair& remote) override { connect(local, remote); }

  /// Establish the connection backing two QPs of the same technology
  /// (out-of-band and instant: the paper pre-establishes all connections
  /// before timing).
  static void connect(QueuePair& a, QueuePair& b);

  hw::Node& node() { return *node_; }
  int fabric_port() const { return port_; }

  /// Error completions flushed with kRetryExceeded (un-sent sends and
  /// writes, pending reads, posted receives) when a QP entered the error
  /// state.
  std::uint64_t retry_exceeded_completions() const { return retry_exceeded_completions_; }

 protected:
  /// `layer` names the stack in audits and error messages; `proto` and
  /// `reset_reason` word the peer-failure trace line.
  RcNic(hw::Node& node, hw::Switch& fabric, const hw::RegistrationConfig& reg, PostCosts costs,
        check::Layer layer, const char* proto, const char* reset_reason);

  /// Transport hook: carry `msg` (its msg_id already assigned) to the peer.
  virtual void segment_message(RcConn& conn, OutMsg msg) = 0;
  /// Transport hook for enter_error(): stop timers and flush the
  /// transport's own queues. Returns whether the error propagates — the
  /// pending reads flush and the peer is told; false only under IB's
  /// strand-pending-reads mutation seam.
  virtual bool abort_transport(RcConn& conn) = 0;
  /// A new, empty connection of the transport's type.
  virtual std::unique_ptr<RcConn> make_conn() = 0;
  /// Trace hook for a fully placed inbound message (tracer attached only).
  virtual void trace_placement(const RcWire& /*wire*/, std::uint64_t /*base*/) {}

  /// The wire unit carrying bytes [offset, offset + chunk) of `msg`; it
  /// shares the message's snapshot.
  static RcWire slice(const RcConn& conn, const OutMsg& msg, std::uint32_t offset,
                      std::uint32_t chunk);
  /// Push the success completion of a unit for which completes_send() holds.
  static void complete_send(RcQp& qp, const RcWire& wire);
  /// Its kRetryExceeded twin, for a unit that will never be acknowledged.
  void flush_send(RcConn& conn, const RcWire& wire);
  /// Error completion for a message that will never finish transmitting.
  void flush_outmsg(RcConn& conn, const OutMsg& msg);
  static void retire_pending_read(RcConn& conn, std::uint64_t wr_id);

  /// Retry exhaustion: move the QP to error, flush every outstanding
  /// signaled work request with kRetryExceeded, then notify the peer
  /// out-of-band so its side errors out too.
  void enter_error(RcConn& conn);
  void handle_read_request(RcConn& conn, const RcWire& request);
  void complete_placement(RcConn& conn, const RcWire& wire);

  Engine& engine() { return node_->engine(); }

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // engine plumbing + run-constant wiring
  hw::Node* node_;
  hw::Switch* fabric_;
  int port_;
  FABSIM_OWNED_BY(port_);  // mutable NIC/RC state: confined to this node's
                           // events (or scope -1 wire handoffs)
  std::vector<std::unique_ptr<RcConn>> conns_;

 private:
  friend class RcQp;

  struct Watch {
    std::uint64_t addr;
    std::uint64_t len;
    std::shared_ptr<Event> event;
  };

  Task<> post_send_impl(RcQp& qp, SendWr wr);
  Task<> post_recv_impl(RcQp& qp, RecvWr wr);
  int new_conn(RcQp& qp);
  /// Assign the message id, track a read until its response lands, and
  /// hand the message to the transport.
  void send_message(RcConn& conn, OutMsg msg);
  /// kRetryExceeded completion for one work request.
  void flush_wr(RcConn& conn, std::uint64_t wr_id, Completion::Type type, std::uint32_t len);
  /// Out-of-band error propagation from the peer NIC: stands in for the
  /// teardown the peer's own transport would observe (a TCP RST, a
  /// requester-side response timeout).
  void peer_conn_error(int conn_id);
  void check_watches(std::uint64_t addr, std::uint32_t len);

  FABSIM_ENGINE_LOCAL;  // run-constant stack description
  PostCosts costs_;
  check::Layer layer_;
  const char* proto_;
  const char* reset_reason_;
  FABSIM_OWNED_BY(port_);
  hw::MemoryRegistry registry_;
  int next_qp_num_ = 1;
  std::vector<Watch> watches_;
  std::uint64_t retry_exceeded_completions_ = 0;
};

}  // namespace fabsim::verbs
