// Kernel backend seam.
//
// Every hot kernel (conv2d_rows, the stem block, box_blur3,
// IntegralImage::reset, the RPN anchor-scoring pass) ships in two
// implementations:
//
//   reference — the original guarded loops; ground truth, never removed.
//   simd      — explicit vector kernels: SSE2 (or NEON) baseline, with AVX2
//               variants picked at run time through cpu_has_avx2(). The
//               conv puts adjacent output channels in the lanes, with
//               leftover channels on the guarded scalar cell; the fused
//               stem block (conv3x3_relu_pool_rows) puts adjacent output
//               cells in the lanes over zero-padded rows.
//
// The determinism contract has one tier: `simd` is bitwise equal to
// `reference`. Each vector lane executes the scalar kernel's exact
// operation chain in the same order, so per-lane IEEE arithmetic
// reproduces the scalar stream bit for bit. conv_kernel_test,
// stem_kernel_test and anchors_nms_test pin every kernel pair; shard_test
// pins whole runs on engines constructed with each backend; CI replays the
// whole suite under ECO_BACKEND=reference.
//
// Selection: engines resolve `Backend::kAuto` to a concrete backend once at
// construction (like scan-equivalence pinning), and FrameStream resolves it
// before it submits any generation task. ECO_BACKEND is the only knob:
//
//   ECO_BACKEND=reference   -> reference kernels AND the reference sensor
//                              render (the audit mode CI replays the bench
//                              under)
//   ECO_BACKEND=simd|auto   -> simd (also the default when unset)
//
// An unrecognized ECO_BACKEND value is a loud failure (std::invalid_argument
// listing the valid names), not a silent fallback — a typo'd backend name
// must never masquerade as a clean simd run. An explicit (non-kAuto)
// backend in a kernel config always wins over the environment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace eco::tensor {

enum class Backend : std::uint8_t {
  kAuto = 0,   // resolve from the environment at engine construction
  kReference,  // original guarded loops (ground truth)
  kSimd,       // explicit vector kernels, bitwise equal to kReference
};

/// Canonical lowercase name ("auto", "reference", "simd").
[[nodiscard]] const char* backend_name(Backend backend) noexcept;

/// Parses a backend name; empty optional for anything unrecognized.
[[nodiscard]] std::optional<Backend> parse_backend(const std::string& name);

/// Resolves an ECO_BACKEND env value to a backend. Throws
/// std::invalid_argument naming the offender and listing the valid names
/// when `name` parses to nothing — the pure (uncached) core of
/// default_backend(), split out so the failure mode is unit-testable.
[[nodiscard]] Backend backend_from_env_value(const std::string& name);

/// The process-wide default backend, resolved once from ECO_BACKEND (simd
/// when unset). Never returns kAuto. Throws on an unrecognized value.
[[nodiscard]] Backend default_backend();

/// `backend`, with kAuto replaced by default_backend().
[[nodiscard]] Backend resolve_backend(Backend backend);

/// True when the simd kernels were compiled with an explicit vector ISA
/// (SSE2/AVX2/NEON) rather than falling back to the portable scalar chain.
[[nodiscard]] bool simd_kernels_compiled() noexcept;

/// True when this CPU supports AVX2 (probed once). The simd kernels widen
/// from the SSE2 baseline to 4/8-lane AVX2 loops behind this check; both
/// widths run the identical per-lane IEEE chain, so the choice never
/// changes a result — only how many lanes retire per step.
[[nodiscard]] bool cpu_has_avx2() noexcept;

}  // namespace eco::tensor
