// Frame-scoped tensor arena.
//
// The execution layer produces the same family of intermediate tensors for
// every frame — the gate features F (and, on the reference backend, the
// stem conv outputs), scan blur buffers — and before this layer each of
// them was a fresh heap allocation. A TensorArena is a monotonic bump allocator over a
// pool of reusable Tensors: acquire() hands out the next pooled tensor
// resized to the requested shape (contents unspecified), and reset() — the
// frame boundary — makes every slot available again while keeping its
// buffer capacity. Because per-frame work acquires tensors in a
// deterministic order with recurring shapes, a warmed arena services a whole
// frame without touching the heap; the pipeline pins this through the
// `tensor_allocs` frame counter.
//
// An arena is single-threaded state: one arena per pipeline slot (the
// FrameWorkspace's FrameArena owns one). References returned by acquire()
// are stable until the slot is handed out again after a reset().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/tensor.hpp"

namespace eco::tensor {

class TensorArena {
 public:
  TensorArena() = default;
  TensorArena(const TensorArena&) = delete;
  TensorArena& operator=(const TensorArena&) = delete;
  TensorArena(TensorArena&&) noexcept = default;
  TensorArena& operator=(TensorArena&&) noexcept = default;

  /// The next pooled tensor, resized to `shape`. Contents are unspecified
  /// (stale values from a previous frame may remain); use acquire_zeroed()
  /// when the consumer reads before writing every element.
  [[nodiscard]] Tensor& acquire(const Shape& shape);

  /// acquire() plus a zero fill.
  [[nodiscard]] Tensor& acquire_zeroed(const Shape& shape);

  /// Frame boundary: every slot becomes reusable, buffer capacity and the
  /// cumulative counters are retained.
  void reset() noexcept;

  /// Tensors handed out since the last reset().
  [[nodiscard]] std::size_t live() const noexcept { return next_; }
  /// Pooled tensor slots ever created.
  [[nodiscard]] std::size_t slots() const noexcept { return slots_.size(); }
  /// Cumulative heap allocations performed while servicing acquire() calls
  /// (slot creation or capacity growth). Zero deltas across a frame mean
  /// the arena ran the frame entirely out of retained capacity.
  [[nodiscard]] std::uint64_t heap_allocs() const noexcept {
    return heap_allocs_;
  }
  /// Peak bytes live between two resets over the arena's lifetime.
  [[nodiscard]] std::size_t bytes_high_water() const noexcept {
    return high_water_;
  }

 private:
  // unique_ptr slots keep acquired references stable while the pool vector
  // grows.
  std::vector<std::unique_ptr<Tensor>> slots_;
  std::size_t next_ = 0;
  std::uint64_t heap_allocs_ = 0;
  std::size_t bytes_live_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace eco::tensor
