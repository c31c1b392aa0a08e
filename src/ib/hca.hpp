// InfiniBand Host Channel Adapter (HCA), Reliable Connection transport.
//
// Verbs work requests become messages segmented into MTU packets on a 4X
// SDR link (1 GB/s data rate per direction). The fabric is lossless
// (credit-based link-level flow control), so there is no retransmission
// machinery; per-QP packet order is preserved end to end.
//
// The processing engine is processor-based: one packet at a time,
// occupancy == full processing time (contrast with the iWARP RNIC's
// pipeline). QP contexts live in host memory (MemFree) behind a small
// LRU cache; the miss penalty is what serializes multi-connection
// traffic past 8 connections in the paper's Figure 2.
//
// When a fault injector is armed on the engine, the RC transport's
// end-to-end reliability becomes reachable and is modelled: packets carry
// PSNs, the responder acks cumulatively (coalesced, NAK on a sequence
// gap), and the requester keeps a retransmit queue with a backed-off
// retry timer. Exhausting the retry counter moves the QP to the error
// state and surfaces error completions — the real RC failure contract.
//
// The verbs semantics shared with the iWARP RNIC (QPs, post paths,
// placement, the read responder, the error flush) live in verbs::RcNic;
// this class keeps the transport: PSN/NAK reliability, the serial
// processor and DMA engine, and the QP-context cache.
#pragma once

#include <cstdint>
#include <list>
#include <memory>

#include "fault/injector.hpp"
#include "hw/fabric.hpp"
#include "hw/node.hpp"
#include "ib/config.hpp"
#include "sim/ring.hpp"
#include "sim/scope.hpp"
#include "verbs/rc.hpp"

namespace fabsim::ib {

class Hca final : public verbs::RcNic {
 public:
  Hca(hw::Node& node, hw::Switch& fabric, HcaConfig config);

  // --- hw::FrameSink ---
  void deliver(hw::Frame frame) override;

  const HcaConfig& config() const { return config_; }

  // Statistics for tests and utilization studies.
  Time proc_busy_time() const { return proc_.busy_time(); }
  Time dma_busy_time() const { return dma_.busy_time(); }
  Time tx_link_busy_time() const { return tx_link_.busy_time(); }
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t context_misses() const { return context_misses_; }
  std::uint64_t context_hits() const { return context_hits_; }
  std::uint64_t retransmits() const { return retransmits_; }
  std::uint64_t acks_sent() const { return acks_sent_; }
  std::uint64_t naks_sent() const { return naks_sent_; }
  std::uint64_t rto_fires() const { return rto_fires_; }
  std::uint64_t retransmitted_bytes() const { return retransmitted_bytes_; }
  std::uint64_t corrupt_discards() const { return corrupt_discards_; }

 private:
  struct Packet : verbs::RcWire {
    // Reliability header (meaningful only while faults are armed).
    std::uint64_t psn = 0;
    std::uint64_t ack_psn = 0;  ///< cumulative: all PSNs below are acked
    bool is_ack = false;        ///< pure acknowledgement packet
    bool is_nak = false;        ///< sequence-gap NAK (ack_psn = expected)
  };

  /// Per-connection RC reliability state (active only while a fault
  /// injector is armed).
  struct Conn : verbs::RcConn {
    FABSIM_OWNED_BY(qp->nic_->fabric_port());  // RC machine state: advances
                                               // only inside the owning
                                               // HCA's events
    std::uint64_t snd_psn = 0;         ///< next PSN to assign (requester)
    std::uint64_t exp_psn = 0;         ///< next PSN expected (responder)
    sim::Ring<Packet> inflight;        ///< unacked packets, for retransmit
    std::uint64_t timer_gen = 0;
    bool timer_armed = false;
    int retry_count = 0;               ///< consecutive RTO rounds
    std::uint32_t pkts_since_ack = 0;  ///< responder-side ack coalescing
    bool nak_outstanding = false;      ///< one NAK per gap, not per packet
  };

  // --- verbs::RcNic transport hooks ---
  /// Cut the message into MTU packets and transmit them back to back.
  void segment_message(verbs::RcConn& conn, verbs::OutMsg msg) override;
  /// Retry exhaustion: stop the timer and flush the unacked sends and
  /// writes. Under the strand-pending-reads mutation seam the pending
  /// reads stay unflushed and the peer is never told.
  bool abort_transport(verbs::RcConn& conn) override;
  std::unique_ptr<verbs::RcConn> make_conn() override { return std::make_unique<Conn>(); }

  Conn& conn_at(int conn_id) {
    return static_cast<Conn&>(*conns_.at(static_cast<std::size_t>(conn_id)));
  }
  /// Push one packet through DMA -> engine -> link and onto the fabric.
  void transmit_packet(Conn& conn, Packet packet, bool retransmit);
  void send_ack(Conn& conn, bool nak);
  void handle_ack_packet(Conn& conn, const Packet& ack);
  void retransmit_inflight(Conn& conn);
  void arm_timer(Conn& conn);
  void on_timeout(int conn_id, std::uint64_t gen);
  /// RC reliability is armed only when frames can actually be perturbed.
  bool reliable() { return fault::faults_armed(engine()); }
  /// Charge engine time for one packet; returns its completion time.
  /// Accesses the QP context cache for first-of-message packets.
  Time engine_process(Time ready, const Packet& packet, bool transmit_side, int local_conn_id);
  Time context_access(int conn_id);

  // Scope/ownership annotations (scripts/scope_check.py, src/sim/scope.hpp).
  FABSIM_ENGINE_LOCAL;  // run-constant configuration
  HcaConfig config_;
  FABSIM_OWNED_BY(port_);  // mutable HCA/protocol state: confined to this
                           // node's events (or scope -1 wire handoffs)
  SerialServer dma_;     ///< NIC DMA engine, shared by both directions
  SerialServer proc_;    ///< processor-based protocol engine, shared
  SerialServer tx_link_;
  std::list<int> context_lru_;  ///< most-recent at front; values are conn ids
  std::uint64_t packets_sent_ = 0;
  std::uint64_t context_misses_ = 0;
  std::uint64_t context_hits_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t naks_sent_ = 0;
  std::uint64_t rto_fires_ = 0;
  std::uint64_t retransmitted_bytes_ = 0;
  std::uint64_t corrupt_discards_ = 0;
};

}  // namespace fabsim::ib
