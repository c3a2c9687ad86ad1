#include "util/huge_page_arena.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>

namespace wnw {

Result<HugePageArena> HugePageArena::Map(size_t bytes) {
  if (bytes == 0) return HugePageArena();
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  if (bytes > SIZE_MAX - kHugePage - page) {
    return Status::ResourceExhausted("cannot map " + std::to_string(bytes) +
                                     " bytes: larger than the address space");
  }
  const size_t length = (bytes + page - 1) / page * page;
  // A region shorter than a huge page cannot hold one, so it needs no
  // alignment. A longer one is over-mapped by a huge page less a page, so
  // that an aligned start exists inside; the unaligned head and the tail
  // are handed back.
  const size_t span = length < kHugePage ? length : length + kHugePage - page;
  void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    return Status::ResourceExhausted("cannot map " + std::to_string(bytes) +
                                     " bytes: " + std::strerror(errno));
  }
  const uintptr_t start = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = length < kHugePage
                                ? start
                                : (start + kHugePage - 1) & ~(kHugePage - 1);
  if (aligned != start) ::munmap(raw, aligned - start);
  const uintptr_t end = aligned + length;
  if (end != start + span) {
    ::munmap(reinterpret_cast<void*>(end), start + span - end);
  }
  void* data = reinterpret_cast<void*>(aligned);
#if defined(MADV_HUGEPAGE)
  // Advice only: EINVAL (no THP in this kernel) leaves 4 KiB pages.
  ::madvise(data, length, MADV_HUGEPAGE);
#endif
  return HugePageArena(data, length);
}

HugePageArena::HugePageArena(HugePageArena&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

HugePageArena& HugePageArena::operator=(HugePageArena&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

HugePageArena::~HugePageArena() { Unmap(); }

void HugePageArena::Unmap() {
  if (data_ != nullptr) ::munmap(data_, size_);
  data_ = nullptr;
  size_ = 0;
}

}  // namespace wnw
