// iWARP RDMA-enabled NIC (RNIC).
//
// Implements the iWARP protocol suite the way the NetEffect NE010e does in
// hardware: verbs work requests are turned into RDMAP messages, cut into
// MPA-aligned DDP segments, carried over a reliable TCP byte stream per
// connection, and framed onto Ethernet. The receive side places tagged
// segments directly into registered user memory (DDP) — no intermediate
// copies. A pipelined protocol engine (initiation interval << latency)
// processes segments from all connections, which is the architectural
// source of the card's multi-connection scalability. All data to and from
// host memory crosses the card's internal half-duplex PCI-X bus — the
// bandwidth bottleneck the paper reports.
//
// The verbs semantics shared with the IB HCA (QPs, post paths, placement,
// the read responder, the error flush) live in verbs::RcNic; this class
// keeps the transport: the TCP stream with its window, piggybacked and
// delayed acks and fixed-RTO go-back-N, the PCI-X bus and the pipelined
// engines. The stack is event-driven (no coroutines inside the NIC); only
// the host-facing verbs calls are awaitable. Optional frame-loss injection
// exercises the go-back-N recovery path.
#pragma once

#include <cstdint>
#include <memory>

#include "fault/plan.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "iwarp/config.hpp"
#include "sim/ring.hpp"
#include "sim/scope.hpp"
#include "verbs/rc.hpp"

namespace fabsim::iwarp {

class Rnic final : public verbs::RcNic {
 public:
  Rnic(hw::Node& node, hw::Switch& fabric, RnicConfig config);

  // --- hw::FrameSink ---
  void deliver(hw::Frame frame) override;

  const RnicConfig& config() const { return config_; }

  // Statistics for tests and utilization studies.
  Time pcix_busy_time() const { return pcix_.busy_time(); }
  std::uint64_t pcix_bytes() const { return pcix_.bytes_transferred(); }
  Time tx_engine_busy_time() const { return tx_engine_.busy_time(); }
  Time rx_engine_busy_time() const { return rx_engine_.busy_time(); }
  Time tx_link_busy_time() const { return tx_link_.busy_time(); }
  std::uint64_t segments_sent() const { return segments_sent_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t rto_fires() const { return rto_fires_; }
  std::uint64_t retransmitted_bytes() const { return retransmitted_bytes_; }
  std::uint64_t corrupt_discards() const { return corrupt_discards_; }
  std::uint64_t conn_errors() const { return conn_errors_; }

 private:
  /// An RDMAP message on the send queue, segmented as the window allows.
  struct TxMsg : verbs::OutMsg {
    std::uint32_t offset = 0;  ///< next byte to segment
  };

  /// One TCP segment on the wire (MPA keeps DDP headers aligned, so
  /// segments never span RDMAP messages — mirrored here).
  struct Segment : verbs::RcWire {
    std::uint64_t seq = 0;  ///< stream offset of payload[0]
    std::uint64_t ack = 0;  ///< piggybacked cumulative ack
  };

  /// Per-connection TCP state (this side).
  struct Conn : verbs::RcConn {
    FABSIM_OWNED_BY(qp->nic_->fabric_port());  // TCP machine state:
                                               // advances only inside the
                                               // owning NIC's events
    // Transmit.
    sim::Ring<TxMsg> sendq;
    std::uint64_t snd_nxt = 0;  ///< next stream byte to send
    std::uint64_t snd_una = 0;  ///< oldest unacknowledged byte
    sim::Ring<Segment> inflight;  ///< copies for go-back-N retransmit
    std::uint64_t timer_gen = 0;
    bool timer_armed = false;
    int retry_count = 0;  ///< consecutive RTO fires without ack progress

    // Receive.
    std::uint64_t rcv_nxt = 0;
    int segs_since_ack = 0;
    bool delack_armed = false;
  };

  // --- verbs::RcNic transport hooks ---
  void segment_message(verbs::RcConn& conn, verbs::OutMsg msg) override;
  /// TCP gives up: stop the timers and flush the messages whose final
  /// segment never left the send queue.
  bool abort_transport(verbs::RcConn& conn) override;
  std::unique_ptr<verbs::RcConn> make_conn() override { return std::make_unique<Conn>(); }
  void trace_placement(const verbs::RcWire& wire, std::uint64_t base) override;

  Conn& conn_at(int conn_id) {
    return static_cast<Conn&>(*conns_.at(static_cast<std::size_t>(conn_id)));
  }
  void pump(Conn& conn);
  void emit_segment(Conn& conn, TxMsg& msg, std::uint32_t chunk);
  void transmit(Conn& conn, Segment segment, bool retransmit);
  void send_pure_ack(Conn& conn);
  void handle_ack(Conn& conn, std::uint64_t ack);
  void arm_timer(Conn& conn);
  void on_timeout(int conn_id, std::uint64_t gen);

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // run-constant configuration
  RnicConfig config_;
  FABSIM_OWNED_BY(port_);  // mutable NIC/protocol state: confined to this
                           // node's events (or scope -1 wire handoffs)
  hw::PcixBus pcix_;
  PipelinedServer tx_engine_;
  PipelinedServer rx_engine_;
  SerialServer tx_link_;
  /// Adapter-local loss (`config.loss_rate`) expressed as a private
  /// FaultPlan, so the legacy knob and engine-level injectors share one
  /// decision surface (and one seeded draw sequence).
  fault::FaultPlan loss_plan_;
  std::uint64_t segments_sent_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t rto_fires_ = 0;
  std::uint64_t retransmitted_bytes_ = 0;
  std::uint64_t corrupt_discards_ = 0;
  std::uint64_t conn_errors_ = 0;
};

}  // namespace fabsim::iwarp
