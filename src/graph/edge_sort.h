// Packed edge keys and the one sort they go through.
//
// A directed edge (u, v) packs into the u64 (u << 32) | v, so ascending
// keys are the edges in (row, neighbor) order: the exact CSR order. Both
// places that sort edges use the kernel below: GraphBuilder::Build and the
// run formation of the streaming snapshot ingest (storage/ingest.h).
#pragma once

#include <cstdint>
#include <span>

#include "graph/graph.h"
#include "util/huge_page_arena.h"
#include "util/status.h"

namespace wnw {

constexpr uint64_t PackEdge(NodeId u, NodeId v) {
  return (uint64_t{u} << 32) | uint64_t{v};
}
constexpr NodeId PackedRow(uint64_t key) {
  return static_cast<NodeId>(key >> 32);
}
constexpr NodeId PackedCol(uint64_t key) {
  return static_cast<NodeId>(key & 0xffffffffull);
}

/// Sorts `keys` ascending: LSD radix over 8-bit digits, one histogram pass
/// for all eight, and no scatter pass for a digit that is equal in every
/// key (node ids far below 2^32 leave half the digits constant). Any u64
/// sorts correctly; packed edge keys are what it is shaped for.
///
/// The scatter passes ping-pong through `scratch`, which is mapped (or
/// remapped larger) only when some pass needs it, so a caller that sorts
/// many buffers maps once. Scratch lives in its own mapping rather than on
/// the heap: releasing a heap chunk of a few MiB would raise the
/// allocator's mmap threshold and keep later tables resident. A mapping the
/// kernel refuses is ResourceExhausted, with `keys` unchanged.
Status SortEdgeKeys(std::span<uint64_t> keys, HugePageArena* scratch);

}  // namespace wnw
