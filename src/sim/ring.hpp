// Ring: a FIFO queue over one contiguous buffer that keeps its capacity.
//
// std::deque allocates a block every few elements and frees it again once
// the front has moved past it, so a queue that is pushed and popped at a
// steady rate also allocates at a steady rate. A Ring allocates only when
// it holds more elements than it ever has (it doubles), so a queue whose
// depth is bounded — a completion queue drained as it fills, a NIC's
// retransmit window, a transmit queue — stops allocating once warmed up,
// and an idle Ring owns no storage. Its first buffer is about the size of
// one deque block, so a shallow queue costs no more memory than a deque.
// Slots hold live elements only: pop() destroys the element it removes,
// so whatever it owns (a shared payload snapshot, a request handle) is
// released at once.
//
// The interface is std::queue's plus indexed access and const iteration,
// oldest element first. Growth invalidates references to elements.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <utility>

namespace fabsim::sim {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;
  Ring(Ring&& other) noexcept { swap(other); }
  Ring& operator=(Ring&& other) noexcept {
    Ring(std::move(other)).swap(*this);
    return *this;
  }
  ~Ring() {
    clear();
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  T& front() { return *slot(0); }
  const T& front() const { return *slot(0); }
  T& back() { return *slot(size_ - 1); }
  const T& back() const { return *slot(size_ - 1); }
  /// The i-th oldest element.
  T& operator[](std::size_t i) { return *slot(i); }
  const T& operator[](std::size_t i) const { return *slot(i); }

  void push(T value) {
    if (size_ == capacity_) grow();
    std::construct_at(slot(size_), std::move(value));
    ++size_;
  }

  /// Remove the oldest element.
  void pop() {
    std::destroy_at(slot(0));
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  void clear() {
    while (!empty()) pop();
  }

  class const_iterator {
   public:
    const_iterator(const Ring* ring, std::size_t i) : ring_(ring), i_(i) {}
    const T& operator*() const { return (*ring_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& other) const { return i_ == other.i_; }

   private:
    const Ring* ring_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

 private:
  /// One 512-byte deque block's worth of elements, as a power of two.
  static constexpr std::size_t kInitialSlots =
      std::bit_floor(std::max<std::size_t>(1, 512 / sizeof(T)));

  T* slot(std::size_t i) const { return slots_ + ((head_ + i) & (capacity_ - 1)); }

  /// Double the buffer (its size stays a power of two), oldest element
  /// first. Runs only when the ring is fuller than it has ever been.
  void grow() {
    const std::size_t capacity = capacity_ == 0 ? kInitialSlots : capacity_ * 2;
    T* larger = std::allocator<T>{}.allocate(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      std::construct_at(larger + i, std::move(*slot(i)));
      std::destroy_at(slot(i));
    }
    if (slots_ != nullptr) std::allocator<T>{}.deallocate(slots_, capacity_);
    slots_ = larger;
    capacity_ = capacity;
    head_ = 0;
  }

  void swap(Ring& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  T* slots_ = nullptr;  ///< capacity_ slots; live ones hold elements
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;  ///< slot of the oldest element
  std::size_t size_ = 0;
};

}  // namespace fabsim::sim
