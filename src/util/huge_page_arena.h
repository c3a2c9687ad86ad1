// One anonymous memory mapping for a large array of fixed-size records that
// are touched at random: the block engine's walker records.
//
// A million 96-byte records span ~96 MB. On 4 KiB pages every random touch
// is a TLB miss as well as a cache miss, and the first touch of each page a
// fault. The arena maps its region on a 2 MiB boundary and asks for
// transparent huge pages (madvise MADV_HUGEPAGE), so the same array takes
// ~50 faults and a TLB entry covers 512 times as much. The advice only
// matters where THP is set to "madvise" or "always"; where the kernel
// refuses it the region simply stays on 4 KiB pages, and nothing else
// changes.
#pragma once

#include <cstddef>

#include "util/status.h"

namespace wnw {

/// Owns raw, zero-filled bytes, 2 MiB-aligned when they span a huge page or
/// more, and unmaps them on destruction. Nothing is constructed in them:
/// callers place and destroy their own objects. Move-only.
class HugePageArena {
 public:
  static constexpr size_t kHugePage = size_t{2} << 20;

  /// Maps at least `bytes` bytes (0 maps nothing). A mapping the kernel
  /// refuses (address-space cap, overcommit limit) is ResourceExhausted.
  static Result<HugePageArena> Map(size_t bytes);

  HugePageArena() = default;
  HugePageArena(HugePageArena&& other) noexcept;
  HugePageArena& operator=(HugePageArena&& other) noexcept;
  ~HugePageArena();

  void* data() const { return data_; }
  /// Mapped length: `bytes` rounded up to whole pages.
  size_t size() const { return size_; }

 private:
  HugePageArena(void* data, size_t size) : data_(data), size_(size) {}
  void Unmap();

  void* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace wnw
