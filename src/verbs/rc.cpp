#include "verbs/rc.hpp"

#include <stdexcept>
#include <string>
#include <typeinfo>

#include "check/audits.hpp"

namespace fabsim::verbs {

namespace {
std::string stack_error(check::Layer layer, const char* what) {
  return std::string(check::layer_name(layer)) + ": " + what;
}

/// Completion type of a Send (untagged) or RDMA Write (tagged) message.
Completion::Type send_type(MsgKind kind) {
  return kind == MsgKind::kUntagged ? Completion::Type::kSend : Completion::Type::kRdmaWrite;
}
}  // namespace

// ---------------------------------------------------------------------------
// RcQp
// ---------------------------------------------------------------------------

Task<> RcQp::post_send(SendWr wr) { return nic_->post_send_impl(*this, wr); }

Task<> RcQp::post_recv(RecvWr wr) { return nic_->post_recv_impl(*this, wr); }

// ---------------------------------------------------------------------------
// RcNic: construction / verbs surface
// ---------------------------------------------------------------------------

RcNic::RcNic(hw::Node& node, hw::Switch& fabric, const hw::RegistrationConfig& reg,
             PostCosts costs, check::Layer layer, const char* proto, const char* reset_reason)
    : node_(&node),
      fabric_(&fabric),
      port_(fabric.attach(*this)),
      costs_(costs),
      layer_(layer),
      proto_(proto),
      reset_reason_(reset_reason),
      registry_(reg) {}

Task<MrKey> RcNic::reg_mr(std::uint64_t addr, std::uint64_t len) {
  co_await node_->cpu().compute(registry_.register_cost(len));
  co_return registry_.register_region(addr, len);
}

Task<> RcNic::dereg_mr(MrKey key) {
  const auto* region = registry_.lookup(key);
  if (region == nullptr) {
    throw std::invalid_argument(stack_error(layer_, "dereg_mr of unknown key"));
  }
  const Time cost = registry_.deregister_cost(region->len);
  registry_.deregister(key);
  co_await node_->cpu().compute(cost);
}

std::unique_ptr<QueuePair> RcNic::create_qp(CompletionQueue& send_cq, CompletionQueue& recv_cq) {
  return std::unique_ptr<RcQp>(new RcQp(*this, next_qp_num_++, send_cq, recv_cq));
}

std::shared_ptr<Event> RcNic::watch_placement(std::uint64_t addr, std::uint64_t len) {
  auto event = std::make_shared<Event>(engine());
  watches_.push_back(Watch{addr, len, event});
  return event;
}

void RcNic::connect(QueuePair& a, QueuePair& b) {
  auto& qa = dynamic_cast<RcQp&>(a);
  auto& qb = dynamic_cast<RcQp&>(b);
  if (typeid(*qa.nic_) != typeid(*qb.nic_)) {
    throw std::logic_error("verbs: RC connection across technologies");
  }
  if (qa.connected() || qb.connected()) {
    throw std::logic_error(stack_error(qa.nic_->layer_, "QP already connected"));
  }
  const int ca = qa.nic_->new_conn(qa);
  const int cb = qb.nic_->new_conn(qb);
  RcConn& conn_a = *qa.nic_->conns_[static_cast<std::size_t>(ca)];
  RcConn& conn_b = *qb.nic_->conns_[static_cast<std::size_t>(cb)];
  conn_a.peer = qb.nic_;
  conn_a.peer_conn_id = cb;
  conn_b.peer = qa.nic_;
  conn_b.peer_conn_id = ca;
  qa.conn_id_ = ca;
  qb.conn_id_ = cb;
}

int RcNic::new_conn(RcQp& qp) {
  conns_.push_back(make_conn());
  conns_.back()->qp = &qp;
  conns_.back()->id = static_cast<int>(conns_.size()) - 1;
  return conns_.back()->id;
}

// ---------------------------------------------------------------------------
// Host-facing post paths
// ---------------------------------------------------------------------------

Task<> RcNic::post_send_impl(RcQp& qp, SendWr wr) {
  if (!qp.connected()) {
    throw std::logic_error(stack_error(layer_, "post_send on unconnected QP"));
  }
  if (qp.in_error_) {
    throw std::runtime_error(stack_error(layer_, "post_send on QP in error state"));
  }
  if (wr.sge.length == 0) {
    throw std::invalid_argument(stack_error(layer_, "zero-length work request"));
  }
  if (!registry_.covers(wr.sge.lkey, wr.sge.addr, wr.sge.length)) {
    throw std::invalid_argument(stack_error(layer_, "sge not covered by lkey"));
  }
  co_await node_->cpu().compute(costs_.post_send_cpu);

  OutMsg msg{};
  msg.wr_id = wr.wr_id;
  msg.signaled = wr.signaled;
  switch (wr.opcode) {
    case Opcode::kSend:
      msg.kind = MsgKind::kUntagged;
      msg.len = wr.sge.length;
      break;
    case Opcode::kRdmaWrite:
      msg.kind = MsgKind::kTaggedWrite;
      msg.len = wr.sge.length;
      msg.remote_addr = wr.remote_addr;
      msg.rkey = wr.rkey;
      break;
    case Opcode::kRdmaRead:
      msg.kind = MsgKind::kReadRequest;
      msg.len = kReadRequestBytes;
      msg.remote_addr = wr.remote_addr;  // remote source
      msg.rkey = wr.rkey;
      msg.read_sink_addr = wr.sge.addr;  // local sink
      msg.read_sink_key = wr.sge.lkey;
      msg.read_len = wr.sge.length;
      break;
  }
  hw::AddressSpace& mem = node_->mem();
  if (wr.opcode != Opcode::kRdmaRead) msg.data = mem.snapshot(wr.sge.addr, wr.sge.length);

  const int conn_id = qp.conn_id_;
  // Doorbell: the NIC picks the WQE up `doorbell` later; the host call
  // returns immediately after ringing it. Scope label: node-confined
  // continuation (see sim/schedule.hpp); the transports' wire handoffs
  // stay unscoped because they touch the switch.
  engine().post(engine().now() + costs_.doorbell, /*scope=*/port_,
                [this, conn_id, msg = std::move(msg)]() mutable {
                  RcConn& conn = *conns_[static_cast<std::size_t>(conn_id)];
                  if (conn.qp->in_error_) {
                    // Raced the error transition: flush instead of sending.
                    flush_outmsg(conn, msg);
                    return;
                  }
                  send_message(conn, std::move(msg));
                });
}

Task<> RcNic::post_recv_impl(RcQp& qp, RecvWr wr) {
  if (!qp.connected()) {
    throw std::logic_error(stack_error(layer_, "post_recv on unconnected QP"));
  }
  if (qp.in_error_) {
    throw std::runtime_error(stack_error(layer_, "post_recv on QP in error state"));
  }
  if (!registry_.covers(wr.sge.lkey, wr.sge.addr, wr.sge.length)) {
    throw std::invalid_argument(stack_error(layer_, "recv sge not covered by lkey"));
  }
  co_await node_->cpu().compute(costs_.post_recv_cpu);
  conns_[static_cast<std::size_t>(qp.conn_id_)]->recv_queue.push_back(wr);
}

// ---------------------------------------------------------------------------
// Transmit side
// ---------------------------------------------------------------------------

void RcNic::send_message(RcConn& conn, OutMsg msg) {
  // Scope trap: all transmit-side NIC state is FABSIM_OWNED_BY(port_).
  FABSIM_AUDIT_OWNED(engine(), layer_, port_, "RcNic::send_message");
  msg.msg_id = conn.next_msg_id++;
  if (msg.kind == MsgKind::kReadRequest) {
    // HOT-OK(pending-read list bounded by outstanding RDMA reads)
    conn.pending_reads.push_back(PendingRead{msg.wr_id, msg.read_len, msg.signaled});
  }
  segment_message(conn, std::move(msg));
}

RcWire RcNic::slice(const RcConn& conn, const OutMsg& msg, std::uint32_t offset,
                    std::uint32_t chunk) {
  RcWire wire{};
  wire.dst_conn_id = conn.peer_conn_id;
  wire.kind = msg.kind;
  wire.msg_id = msg.msg_id;
  wire.msg_len = msg.len;
  wire.msg_offset = offset;
  wire.payload_len = chunk;
  wire.rkey = msg.rkey;
  wire.wr_id = msg.wr_id;
  wire.signaled = msg.signaled;
  wire.read_sink_addr = msg.read_sink_addr;
  wire.read_sink_key = msg.read_sink_key;
  wire.read_len = msg.read_len;
  wire.first_of_message = (offset == 0);
  wire.last_of_message = (offset + chunk == msg.len);
  if (msg.kind == MsgKind::kTaggedWrite || msg.kind == MsgKind::kReadResponse) {
    wire.place_addr = msg.remote_addr + offset;
  } else if (msg.kind == MsgKind::kReadRequest) {
    wire.place_addr = msg.remote_addr;  // remote source
  }
  wire.data = msg.data;
  return wire;
}

void RcNic::complete_send(RcQp& qp, const RcWire& wire) {
  qp.send_cq_->push(Completion{wire.wr_id, send_type(wire.kind), wire.msg_len, qp.qp_num()});
}

// ---------------------------------------------------------------------------
// Error transition
// ---------------------------------------------------------------------------

void RcNic::flush_wr(RcConn& conn, std::uint64_t wr_id, Completion::Type type,
                     std::uint32_t len) {
  Completion completion{};
  completion.wr_id = wr_id;
  completion.type = type;
  completion.byte_len = len;
  completion.qp_num = conn.qp->qp_num();
  completion.status = Completion::Status::kRetryExceeded;
  (type == Completion::Type::kRecv ? conn.qp->recv_cq_ : conn.qp->send_cq_)->push(completion);
  ++retry_exceeded_completions_;
}

void RcNic::flush_send(RcConn& conn, const RcWire& wire) {
  flush_wr(conn, wire.wr_id, send_type(wire.kind), wire.msg_len);
}

void RcNic::flush_outmsg(RcConn& conn, const OutMsg& msg) {
  // A read response is responder-generated: the requester's side owns the error.
  if (!msg.signaled || msg.kind == MsgKind::kReadResponse) return;
  if (msg.kind == MsgKind::kReadRequest) {
    flush_wr(conn, msg.wr_id, Completion::Type::kRdmaRead, msg.read_len);
  } else {
    flush_wr(conn, msg.wr_id, send_type(msg.kind), msg.len);
  }
}

void RcNic::retire_pending_read(RcConn& conn, std::uint64_t wr_id) {
  for (auto it = conn.pending_reads.begin(); it != conn.pending_reads.end(); ++it) {
    if (it->wr_id == wr_id) {
      conn.pending_reads.erase(it);
      return;
    }
  }
}

void RcNic::enter_error(RcConn& conn) {
  if (conn.qp->in_error_) return;
  conn.qp->in_error_ = true;
  const bool propagate = abort_transport(conn);
  if (propagate) {
    // Reads whose request is already on the wire (or acked) but whose
    // response will never arrive.
    for (const PendingRead& read : conn.pending_reads) {
      if (read.signaled) flush_wr(conn, read.wr_id, Completion::Type::kRdmaRead, read.len);
    }
    conn.pending_reads.clear();
  }
  // The RQ drains with flush errors when a QP enters the error state — a
  // receiver blocked on its recv CQ surfaces the failure instead of
  // hanging on data that will never arrive.
  for (const RecvWr& wr : conn.recv_queue) flush_wr(conn, wr.wr_id, Completion::Type::kRecv, 0);
  conn.recv_queue.clear();
  // Out-of-band, like connect(): both sides observe the teardown, so a
  // receiver whose sender died — or a read requester whose responder
  // died — does not wait forever.
  if (propagate && conn.peer != nullptr) conn.peer->peer_conn_error(conn.peer_conn_id);
}

void RcNic::peer_conn_error(int conn_id) {
  RcConn& conn = *conns_.at(static_cast<std::size_t>(conn_id));
  if (conn.qp->in_error_) return;
  engine().trace(TraceCategory::kProto, node_->id(),
                 std::string(proto_) + " peer failure: QP " + std::to_string(conn.qp->qp_num()) +
                     " -> error state (" + reset_reason_ + ")");
  enter_error(conn);
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void RcNic::handle_read_request(RcConn& conn, const RcWire& request) {
  if (conn.qp->in_error_) return;
  if (!registry_.covers(request.rkey, request.place_addr, request.read_len)) {
    // HOT-OK(protocol-violation guard; unreachable in a conforming run)
    throw std::invalid_argument(stack_error(layer_, "RDMA read source not covered by rkey"));
  }
  OutMsg response{};
  response.kind = MsgKind::kReadResponse;
  response.wr_id = request.wr_id;
  response.signaled = true;
  response.len = request.read_len;
  response.remote_addr = request.read_sink_addr;
  response.rkey = request.read_sink_key;
  hw::AddressSpace& mem = node_->mem();
  response.data = mem.snapshot(request.place_addr, request.read_len);
  send_message(conn, std::move(response));
}

void RcNic::complete_placement(RcConn& conn, const RcWire& wire) {
  if (conn.qp->in_error_) return;
  RxMsg& rx = conn.rx_msgs[wire.msg_id];

  std::uint64_t addr = 0;
  check::InvariantMonitor* monitor = engine().monitor();
  if (wire.kind == MsgKind::kUntagged) {
    if (wire.msg_offset == 0) {
      if (conn.recv_queue.empty()) {
        // HOT-OK(protocol-violation guard; unreachable in a conforming run)
        throw std::logic_error(
            stack_error(layer_, "untagged message with no posted receive (RNR)"));
      }
      const RecvWr wr = conn.recv_queue.front();
      conn.recv_queue.pop_front();
      if (wr.sge.length < wire.msg_len) {
        // HOT-OK(protocol-violation guard; unreachable in a conforming run)
        throw std::length_error(stack_error(layer_, "posted receive buffer too small"));
      }
      rx.target_addr = wr.sge.addr;
      rx.recv_wr_id = wr.wr_id;
    }
    if (monitor != nullptr) {
      // Untagged delivery rides the transport's in-order stream, so the
      // units of one message must arrive in offset order.
      check::audit_iwarp_untagged_inorder(wire.msg_offset, rx.placed, wire.msg_id)
          .report(monitor, engine().now(), layer_, node_->id());
    }
    addr = rx.target_addr + wire.msg_offset;
  } else {  // tagged: kTaggedWrite or kReadResponse
    if (!registry_.covers(wire.rkey, wire.place_addr, wire.payload_len)) {
      if (monitor != nullptr) {
        monitor->report(engine().now(), layer_, node_->id(), "tagged_bounds",
                        "tagged placement at 0x" + std::to_string(wire.place_addr) + " +" +
                            std::to_string(wire.payload_len) + "B not covered by rkey " +
                            std::to_string(wire.rkey));
      }
      // HOT-OK(protocol-violation guard; unreachable in a conforming run)
      throw std::invalid_argument(stack_error(layer_, "tagged placement not covered by rkey"));
    }
    addr = wire.place_addr;
    if (wire.msg_offset == 0) rx.target_addr = wire.place_addr;
  }

  if (wire.data != nullptr) {
    node_->mem().write(addr, std::span(*wire.data).subspan(wire.msg_offset, wire.payload_len));
  } else if (hw::Buffer* buffer = node_->mem().find(addr);
             buffer == nullptr || addr + wire.payload_len > buffer->addr() + buffer->size()) {
    // HOT-OK(protocol-violation guard; unreachable in a conforming run)
    throw std::out_of_range(stack_error(layer_, "placement outside any buffer"));
  }

  rx.placed += wire.payload_len;
  if (rx.placed < wire.msg_len) return;

  // Message complete.
  if (engine().tracer() != nullptr) trace_placement(wire, rx.target_addr);
  const std::uint64_t base = rx.target_addr;
  const std::uint64_t recv_wr_id = rx.recv_wr_id;
  conn.rx_msgs.erase(wire.msg_id);
  switch (wire.kind) {
    case MsgKind::kUntagged:
      conn.qp->recv_cq_->push(
          Completion{recv_wr_id, Completion::Type::kRecv, wire.msg_len, conn.qp->qp_num()});
      break;
    case MsgKind::kReadResponse:
      // The read is complete; it no longer needs error-flush coverage.
      retire_pending_read(conn, wire.wr_id);
      conn.qp->send_cq_->push(
          Completion{wire.wr_id, Completion::Type::kRdmaRead, wire.msg_len, conn.qp->qp_num()});
      check_watches(base, wire.msg_len);
      break;
    case MsgKind::kTaggedWrite:
      check_watches(base, wire.msg_len);
      break;
    case MsgKind::kReadRequest:
      break;  // handled by handle_read_request
  }
}

void RcNic::check_watches(std::uint64_t addr, std::uint32_t len) {
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->addr >= addr && it->addr + it->len <= addr + len) {
      it->event->trigger();
      it = watches_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace fabsim::verbs
