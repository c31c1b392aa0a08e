// Host memory: fake address space with optional real backing bytes, and a
// page-granular registration (pinning) model.
//
// Buffers may carry real bytes (tests verify zero-copy placement end to
// end) or be size-only (benchmarks avoid megabytes of memcpy per
// simulated message). A data-carrying buffer of kLazyZeroBytes or more
// takes zero-on-demand pages from the kernel, so it costs only the pages
// it touches: MiniMPI's per-peer eager arenas (N^2 of them, mostly idle)
// cost only the slots a job uses. Smaller buffers stay on the heap.
//
// Every payload a stack copies out of host memory (a posted message, a
// read response, an MPI unexpected message) is one Snapshot: an
// immutable copy taken once, at post time, and shared by every wire unit
// that carries part of it — each unit holds the whole snapshot plus its
// own offset, and so do the retransmit queues. The storage comes from a
// per-AddressSpace pool, created on the first data-carrying snapshot, so
// size-only nodes never build one. A released snapshot hands its vector
// back; a later snapshot reuses the smallest free vector that fits, or
// grows the largest one, so the pool never holds more vectors than were
// live at once. The pool lives as long as its last snapshot: frames
// still queued when a Cluster is torn down stay readable.
// Registration cost — the dominant term of the paper's
// buffer-re-use experiment (Fig 6) — is exposed so callers charge it to
// the host CPU at registration time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"

namespace fabsim::hw {

class Buffer {
 public:
  /// Data-carrying buffers at least this large get private anonymous
  /// pages that the kernel zero-fills on first touch. The value is glibc's
  /// default mmap threshold, so smaller buffers are allocated exactly as a
  /// value-initialised vector always was.
  static constexpr std::uint64_t kLazyZeroBytes = 128 * 1024;

  Buffer(std::uint64_t addr, std::uint64_t size, bool with_data);
  ~Buffer();
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  std::uint64_t addr() const { return addr_; }
  std::uint64_t size() const { return size_; }
  bool has_data() const { return !bytes_.empty(); }
  /// Contiguous bytes; pages of a lazy buffer that were never written
  /// read as zero.
  std::span<std::byte> bytes() { return bytes_; }
  std::span<const std::byte> bytes() const { return bytes_; }

 private:
  std::uint64_t addr_;
  std::uint64_t size_;
  std::vector<std::byte> heap_;  ///< storage below kLazyZeroBytes
  std::span<std::byte> bytes_;   ///< heap_ or the mapping; empty if size-only
  bool mapped_ = false;
};

/// Immutable bytes of a message payload, shared by every wire unit that
/// carries part of it; nullptr for a size-only source.
using Snapshot = std::shared_ptr<const std::vector<std::byte>>;

/// Per-node virtual address space: a bump allocator over fake addresses
/// with an interval map for placement lookups.
class AddressSpace {
 public:
  /// Allocate a buffer. `with_data` buffers carry real bytes.
  Buffer& alloc(std::uint64_t size, bool with_data = true);
  void free(const Buffer& buffer);

  /// Buffer containing `addr`, or nullptr.
  Buffer* find(std::uint64_t addr);

  /// Copy `data` into the buffer covering [addr, addr+size). Size-only
  /// target buffers accept the write without storing bytes.
  void write(std::uint64_t addr, std::span<const std::byte> data);

  /// View of [addr, addr+len) — requires a data-carrying buffer.
  std::span<std::byte> window(std::uint64_t addr, std::uint64_t len);

  /// Copy of [addr, addr+len) as it is now, in pooled storage; nullptr if
  /// the covering buffer is size-only. Throws std::out_of_range outside
  /// any buffer.
  Snapshot snapshot(std::uint64_t addr, std::uint64_t len);

 private:
  struct SnapshotPool;

  std::uint64_t next_addr_ = 0x1000;
  std::map<std::uint64_t, std::unique_ptr<Buffer>> buffers_;  // keyed by start address
  std::shared_ptr<SnapshotPool> pool_;  ///< also owned by every live snapshot
};

struct RegistrationConfig {
  Time register_base = us(1.0);     ///< syscall + setup
  Time register_per_page = us(1.0); ///< pin + translation entry, per 4 KB page
  Time deregister_base = us(0.5);
  Time deregister_per_page = us(0.2);
  std::uint64_t page_size = 4096;
};

/// Memory region registry of one NIC. Registration is bookkeeping only;
/// the caller charges `register_cost()` to the host CPU.
class MemoryRegistry {
 public:
  using Key = std::uint32_t;

  explicit MemoryRegistry(RegistrationConfig config = {}) : config_(config) {}

  struct Region {
    Key key;
    std::uint64_t addr;
    std::uint64_t len;
  };

  Key register_region(std::uint64_t addr, std::uint64_t len);
  void deregister(Key key);

  const Region* lookup(Key key) const;
  /// True iff [addr, addr+len) lies inside the registered region `key`.
  bool covers(Key key, std::uint64_t addr, std::uint64_t len) const;

  std::uint64_t pages(std::uint64_t len) const {
    return (len + config_.page_size - 1) / config_.page_size;
  }
  Time register_cost(std::uint64_t len) const {
    return config_.register_base + config_.register_per_page * pages(len);
  }
  Time deregister_cost(std::uint64_t len) const {
    return config_.deregister_base + config_.deregister_per_page * pages(len);
  }

  std::size_t active_regions() const { return regions_.size(); }
  const RegistrationConfig& config() const { return config_; }

 private:
  RegistrationConfig config_;
  Key next_key_ = 1;
  std::map<Key, Region> regions_;
};

}  // namespace fabsim::hw
