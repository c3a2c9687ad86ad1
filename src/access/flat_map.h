// Flat open-addressed NodeId -> Value map for the per-session caches.
//
// The session caches (AccessInterface::local_cache_ / effective_cache_) are
// the hottest lookup structures in a walk: every Neighbors() call probes
// one. std::unordered_map pays a heap-allocated node per entry and a
// pointer chase per probe; this map keeps slots in one contiguous array
// (multiplicative hashing, linear probing, 7/8 max load), so the common
// hit costs one predicted-well probe into one cache line region.
//
// Contract with the callers: values are MOVED when the table grows, so a
// caller may only retain pointers/spans into a value's heap allocations
// (a std::vector's buffer survives a move), never the address of the value
// itself. That is exactly the discipline the session caches already follow
// for their span views. NodeId kInvalidNode is the empty-slot sentinel and
// cannot be used as a key (it is never a valid node).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace wnw {

/// Fibonacci multiplicative hash: dense node ids get spread across a table
/// while staying allocation- and division-free. Callers keep the top bits.
inline uint64_t FibonacciHash(NodeId key) {
  return uint64_t{key} * 0x9E3779B97F4A7C15ull;
}

template <typename Value>
class FlatNodeMap {
 public:
  /// Pointer to the value for `key`, nullptr when absent. Never
  /// invalidated by other Find calls; invalidated by Emplace (growth).
  Value* Find(NodeId key) {
    if (size_ == 0) return nullptr;
    for (size_t i = IndexFor(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kInvalidNode) return nullptr;
    }
  }
  const Value* Find(NodeId key) const {
    return const_cast<FlatNodeMap*>(this)->Find(key);
  }

  bool Contains(NodeId key) const { return Find(key) != nullptr; }

  /// Inserts value for `key` when absent and returns the stored value —
  /// the existing one when present (mirroring unordered_map::emplace: no
  /// overwrite). The reference is valid until the next Emplace.
  Value& Emplace(NodeId key, Value&& value) {
    WNW_DCHECK(key != kInvalidNode);
    if ((size_ + 1) * 8 > slots_.size() * 7) Grow();
    for (size_t i = IndexFor(key);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].key == key) return slots_[i].value;
      if (slots_[i].key == kInvalidNode) {
        slots_[i].key = key;
        slots_[i].value = std::move(value);
        ++size_;
        return slots_[i].value;
      }
    }
  }

  /// Drops every entry (values destroyed) but keeps the table capacity —
  /// sessions reset often and re-fill to a similar size.
  void Clear() {
    if (size_ == 0) return;
    for (Slot& slot : slots_) {
      if (slot.key != kInvalidNode) slot = Slot{};
    }
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Slot {
    NodeId key = kInvalidNode;
    Value value{};
  };

  size_t IndexFor(NodeId key) const {
    return static_cast<size_t>(FibonacciHash(key) >> shift_) &
           (slots_.size() - 1);
  }

  void Grow() {
    const size_t new_capacity = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    shift_ = 64 - CapacityLog2(new_capacity);
    size_ = 0;
    for (Slot& slot : old) {
      if (slot.key != kInvalidNode) Emplace(slot.key, std::move(slot.value));
    }
  }

  static int CapacityLog2(size_t capacity) {
    int log2 = 0;
    while ((size_t{1} << log2) < capacity) ++log2;
    return log2;
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace wnw
