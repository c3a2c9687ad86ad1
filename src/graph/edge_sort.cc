#include "graph/edge_sort.h"

#include <array>
#include <cstring>
#include <utility>

namespace wnw {

Status SortEdgeKeys(std::span<uint64_t> keys, HugePageArena* scratch) {
  const size_t n = keys.size();
  if (n < 2) return Status::OK();

  constexpr int kDigits = 8;
  std::array<std::array<size_t, 256>, kDigits> counts{};
  for (const uint64_t key : keys) {
    for (int d = 0; d < kDigits; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  // A digit whose value in the first key is every key's value sorts
  // nothing; its pass is skipped.
  std::array<int, kDigits> passes{};
  int num_passes = 0;
  for (int d = 0; d < kDigits; ++d) {
    if (counts[d][(keys[0] >> (8 * d)) & 0xff] != n) passes[num_passes++] = d;
  }
  if (num_passes == 0) return Status::OK();

  if (scratch->size() < n * sizeof(uint64_t)) {
    WNW_ASSIGN_OR_RETURN(*scratch, HugePageArena::Map(n * sizeof(uint64_t)));
  }
  uint64_t* src = keys.data();
  uint64_t* dst = static_cast<uint64_t*>(scratch->data());
  for (int p = 0; p < num_passes; ++p) {
    const int shift = 8 * passes[p];
    std::array<size_t, 256> next;
    size_t sum = 0;
    for (int b = 0; b < 256; ++b) {
      next[b] = sum;
      sum += counts[passes[p]][b];
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = src[i];
      dst[next[(key >> shift) & 0xff]++] = key;
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::memcpy(keys.data(), src, n * sizeof(uint64_t));
  return Status::OK();
}

}  // namespace wnw
