#include "hw/memory.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

namespace fabsim::hw {

Buffer::Buffer(std::uint64_t addr, std::uint64_t size, bool with_data)
    : addr_(addr), size_(size) {
  if (!with_data) return;
  if (size < kLazyZeroBytes) {
    heap_.resize(size);
    bytes_ = heap_;
    return;
  }
  // Not calloc: glibc raises its mmap threshold after the first large
  // free, so calloc'd pages would be lazy or eagerly zeroed depending on
  // allocation history.
  void* pages = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  // One touched byte should cost one 4 KiB page, not a 2 MiB huge page on
  // hosts whose transparent huge pages are set to "always". Advisory: a
  // kernel without THP rejects it and the pages are small anyway.
  ::madvise(pages, size, MADV_NOHUGEPAGE);
  bytes_ = {static_cast<std::byte*>(pages), size};
  mapped_ = true;
}

Buffer::~Buffer() {
  if (mapped_) ::munmap(bytes_.data(), bytes_.size());
}

Buffer& AddressSpace::alloc(std::uint64_t size, bool with_data) {
  const std::uint64_t addr = next_addr_;
  // Page-align the next allocation so distinct buffers never share a page
  // (matters for the registration-cache experiments).
  next_addr_ += ((size + 4095) / 4096 + 1) * 4096;
  auto buffer = std::make_unique<Buffer>(addr, size, with_data);
  Buffer& ref = *buffer;
  buffers_.emplace(addr, std::move(buffer));
  return ref;
}

void AddressSpace::free(const Buffer& buffer) { buffers_.erase(buffer.addr()); }

Buffer* AddressSpace::find(std::uint64_t addr) {
  auto it = buffers_.upper_bound(addr);
  if (it == buffers_.begin()) return nullptr;
  --it;
  Buffer* buffer = it->second.get();
  if (addr >= buffer->addr() + buffer->size()) return nullptr;
  return buffer;
}

void AddressSpace::write(std::uint64_t addr, std::span<const std::byte> data) {
  Buffer* buffer = find(addr);
  if (buffer == nullptr || addr + data.size() > buffer->addr() + buffer->size()) {
    throw std::out_of_range("AddressSpace::write outside any buffer");
  }
  if (buffer->has_data() && !data.empty()) {
    std::memcpy(buffer->bytes().data() + (addr - buffer->addr()), data.data(), data.size());
  }
}

std::span<std::byte> AddressSpace::window(std::uint64_t addr, std::uint64_t len) {
  Buffer* buffer = find(addr);
  if (buffer == nullptr || addr + len > buffer->addr() + buffer->size()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::out_of_range("AddressSpace::window outside any buffer");
  }
  if (!buffer->has_data()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::logic_error("AddressSpace::window on a size-only buffer");
  }
  return buffer->bytes().subspan(addr - buffer->addr(), len);
}

/// Free snapshot storage, ordered by capacity.
struct AddressSpace::SnapshotPool {
  std::vector<std::unique_ptr<std::vector<std::byte>>> free;
  std::size_t minted = 0;  ///< vectors made so far; `free` always has room for all of them

  static bool smaller(const std::unique_ptr<std::vector<std::byte>>& storage, std::size_t len) {
    return storage->capacity() < len;
  }

  /// The smallest free vector holding `len` bytes without growing, else
  /// the largest one (it grows on assignment), else a new one.
  std::unique_ptr<std::vector<std::byte>> take(std::size_t len) {
    if (free.empty()) {
      // HOT-OK(pool miss: room to take one more vector back; bounded by the snapshots live at the peak)
      free.reserve(++minted);
      // HOT-OK(pool miss: one more vector; bounded by the snapshots live at the peak)
      return std::make_unique<std::vector<std::byte>>();
    }
    auto it = std::lower_bound(free.begin(), free.end(), len, smaller);
    if (it == free.end()) --it;
    auto storage = std::move(*it);
    free.erase(it);
    return storage;
  }

  /// Runs in the snapshot's deleter, so it must not throw: the insert
  /// never reallocates, because `free` was reserved for every minted vector.
  void give(std::vector<std::byte>* storage) noexcept {
    auto it = std::lower_bound(free.begin(), free.end(), storage->capacity(), smaller);
    // HOT-OK(within the capacity reserved at mint time; never reallocates)
    free.insert(it, std::unique_ptr<std::vector<std::byte>>(storage));
  }
};

Snapshot AddressSpace::snapshot(std::uint64_t addr, std::uint64_t len) {
  Buffer* buffer = find(addr);
  if (buffer == nullptr || addr + len > buffer->addr() + buffer->size()) {
    // HOT-OK(misuse guard; unreachable in a conforming run)
    throw std::out_of_range("AddressSpace::snapshot outside any buffer");
  }
  if (!buffer->has_data()) return nullptr;
  // HOT-OK(once per address space, on its first data-carrying snapshot)
  if (pool_ == nullptr) pool_ = std::make_shared<SnapshotPool>();
  auto storage = pool_->take(len);
  const auto source = buffer->bytes().subspan(addr - buffer->addr(), len);
  // HOT-OK(grows only a pooled vector smaller than the request; otherwise copies into its capacity)
  storage->assign(source.begin(), source.end());
  return std::shared_ptr<std::vector<std::byte>>(
      storage.release(),
      [pool = pool_](std::vector<std::byte>* released) { pool->give(released); });
}

MemoryRegistry::Key MemoryRegistry::register_region(std::uint64_t addr, std::uint64_t len) {
  const Key key = next_key_++;
  regions_.emplace(key, Region{key, addr, len});
  return key;
}

void MemoryRegistry::deregister(Key key) {
  if (regions_.erase(key) == 0) {
    throw std::invalid_argument("MemoryRegistry::deregister: unknown key");
  }
}

const MemoryRegistry::Region* MemoryRegistry::lookup(Key key) const {
  auto it = regions_.find(key);
  return it == regions_.end() ? nullptr : &it->second;
}

bool MemoryRegistry::covers(Key key, std::uint64_t addr, std::uint64_t len) const {
  const Region* region = lookup(key);
  return region != nullptr && addr >= region->addr && addr + len <= region->addr + region->len;
}

}  // namespace fabsim::hw
