// Per-slot frame arena: all reusable memory a frame's execution touches.
//
// PR 4 seeded this direction with a per-frame ScanScratch (blur + integral
// buffers); a FrameArena generalizes it into the full per-frame memory
// plane: a TensorArena for every per-frame tensor (the gate features F,
// and the stem conv outputs on the reference backend) plus the persistent
// ScanScratch every channel scan of the frame writes through. The streaming
// pipeline owns one FrameArena per window slot and hands it to each
// FrameWorkspace occupying that slot, so the buffers persist across frames:
// after the first window warms a slot, steady-state frames execute with
// zero tensor heap allocations (the `tensor_allocs` frame counter reports
// it; arena_test's PipelineArenaTest.SteadyStateFramesReportZeroAllocs
// pins it).
//
// begin_frame() is the frame boundary: the tensor arena's slots become
// reusable (capacity retained) while the cumulative counters — heap_allocs,
// bytes_high_water — keep tracking the arena's lifetime.
//
// Single-threaded state: one FrameArena per (slot, task), like the
// workspace that borrows it.
#pragma once

#include <cstddef>

#include "detect/scan_scratch.hpp"
#include "tensor/arena.hpp"

namespace eco::exec {

struct FrameArena {
  tensor::TensorArena tensors;
  detect::ScanScratch scan;

  /// Frame boundary: recycle the tensor slots, keep all capacity.
  void begin_frame() noexcept { tensors.reset(); }

  /// Bytes of buffer capacity this arena retains across frames (the
  /// tensor pool's high water plus the scan scratch's buffers).
  [[nodiscard]] std::size_t bytes_high_water() const noexcept {
    return tensors.bytes_high_water() + scan.capacity_bytes();
  }
};

}  // namespace eco::exec
