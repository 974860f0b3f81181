// Pins the simd kernels bitwise against the reference implementations
// across the awkward geometries: odd extents, stride > 1, padding >=
// kernel/2 (and beyond the kernel), 1x1 kernels, the learned gate's exact
// conv shapes, output-channel counts that leave a remainder after the last
// 4- and 8-lane vector, row-restricted and empty row ranges. The conv's
// output-channel lanes, their in-bounds tap walk at the borders and the
// guarded remainder channels must be invisible — Tensor::equals (exact
// float compare) throughout. (The fused stem kernel has its own pins in
// stem_kernel_test.) Also pins the RPN's proposal finish against the
// emit -> nms_in_place -> keep_top_k_in_place composition it replaced, on
// tied scores and NaN cells, and ECO_BACKEND, the one knob that selects
// between the two backends.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "detect/anchors.hpp"
#include "detect/nms.hpp"
#include "detect/rpn.hpp"
#include "detect/scan_scratch.hpp"
#include "runtime/stream.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace eco::tensor {
namespace {

Tensor random_tensor(Shape shape, util::Rng& rng, float lo = -1.0f,
                     float hi = 1.0f) {
  Tensor t(std::move(shape));
  for (float& v : t.vec()) v = rng.uniform_f(lo, hi);
  return t;
}

struct KernelCase {
  std::size_t in_channels, out_channels, kernel, stride, padding, h, w;
};

class ConvKernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ConvKernelEquivalence, SimdMatchesReferenceBitwise) {
  const KernelCase c = GetParam();
  Conv2dSpec spec;
  spec.in_channels = c.in_channels;
  spec.out_channels = c.out_channels;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  util::Rng rng(c.kernel * 1000 + c.h * 10 + c.stride);
  const Tensor input = random_tensor({c.in_channels, c.h, c.w}, rng);
  const Tensor weight = random_tensor(
      {c.out_channels, c.in_channels, c.kernel, c.kernel}, rng);
  const Tensor bias = random_tensor({c.out_channels}, rng);
  const std::size_t oh = spec.out_extent(c.h), ow = spec.out_extent(c.w);
  ASSERT_GT(oh, 0u);
  ASSERT_GT(ow, 0u);

  // The vector lanes, their scalar tails and the guarded border and
  // remainder-channel cells must be invisible.
  Tensor simd({spec.out_channels, oh, ow});
  Tensor reference({spec.out_channels, oh, ow});
  conv2d_rows_simd(input, weight, bias, spec, 0, oh, simd);
  conv2d_rows_reference(input, weight, bias, spec, 0, oh, reference);
  EXPECT_TRUE(simd.equals(reference))
      << "simd k=" << c.kernel << " s=" << c.stride << " p=" << c.padding
      << " h=" << c.h << " w=" << c.w << " cout=" << c.out_channels;

  // The dispatching entry point agrees too (simd unless
  // ECO_BACKEND=reference pins the reference, which is also exact).
  Tensor dispatched({spec.out_channels, oh, ow});
  conv2d_rows(input, weight, bias, spec, 0, oh, dispatched);
  EXPECT_TRUE(dispatched.equals(reference));
}

TEST_P(ConvKernelEquivalence, SimdSingleRowRangesMatchReference) {
  const KernelCase c = GetParam();
  Conv2dSpec spec;
  spec.in_channels = c.in_channels;
  spec.out_channels = c.out_channels;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  util::Rng rng(c.kernel * 31 + c.w);
  const Tensor input = random_tensor({c.in_channels, c.h, c.w}, rng);
  const Tensor weight = random_tensor(
      {c.out_channels, c.in_channels, c.kernel, c.kernel}, rng);
  const Tensor bias = random_tensor({c.out_channels}, rng);
  const std::size_t oh = spec.out_extent(c.h), ow = spec.out_extent(c.w);
  // One row at a time — first, middle, last — so row-granular sharding
  // over the simd kernel composes to the whole-range result.
  for (const std::size_t row : {std::size_t{0}, oh / 2, oh - 1}) {
    const float sentinel = 55.25f;
    Tensor simd = Tensor::full({spec.out_channels, oh, ow}, sentinel);
    Tensor reference = Tensor::full({spec.out_channels, oh, ow}, sentinel);
    conv2d_rows_simd(input, weight, bias, spec, row, row + 1, simd);
    conv2d_rows_reference(input, weight, bias, spec, row, row + 1, reference);
    EXPECT_TRUE(simd.equals(reference)) << "row=" << row;
  }
}

TEST_P(ConvKernelEquivalence, RowRestrictedRangesMatchAndStayInRange) {
  const KernelCase c = GetParam();
  Conv2dSpec spec;
  spec.in_channels = c.in_channels;
  spec.out_channels = c.out_channels;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  util::Rng rng(c.kernel + c.h + 77);
  const Tensor input = random_tensor({c.in_channels, c.h, c.w}, rng);
  const Tensor weight = random_tensor(
      {c.out_channels, c.in_channels, c.kernel, c.kernel}, rng);
  const Tensor bias = random_tensor({c.out_channels}, rng);
  const std::size_t oh = spec.out_extent(c.h), ow = spec.out_extent(c.w);

  const float sentinel = -123.5f;
  const std::size_t row_begin = oh / 3;
  const std::size_t row_end = oh - oh / 4;
  Tensor simd = Tensor::full({spec.out_channels, oh, ow}, sentinel);
  Tensor reference = Tensor::full({spec.out_channels, oh, ow}, sentinel);
  conv2d_rows_simd(input, weight, bias, spec, row_begin, row_end, simd);
  conv2d_rows_reference(input, weight, bias, spec, row_begin, row_end,
                        reference);
  EXPECT_TRUE(simd.equals(reference));
  // Rows outside the range are untouched in both.
  for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      if (oy >= row_begin && oy < row_end) continue;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        ASSERT_EQ(simd.at(oc, oy, ox), sentinel);
      }
    }
  }

  // An empty row range touches nothing at all.
  Tensor untouched = Tensor::full({spec.out_channels, oh, ow}, sentinel);
  conv2d_rows_simd(input, weight, bias, spec, row_begin, row_begin, untouched);
  EXPECT_TRUE(untouched.equals(
      Tensor::full({spec.out_channels, oh, ow}, sentinel)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvKernelEquivalence,
    ::testing::Values(
        // The stem's conv shape (3x3, stride 1, pad 1), and a stride-2
        // conv over eight channels.
        KernelCase{1, 8, 3, 1, 1, 48, 48},
        KernelCase{8, 16, 3, 2, 1, 24, 24},
        // The learned gate's three stride-2 convs, exactly.
        KernelCase{32, 24, 3, 2, 1, 24, 24},
        KernelCase{24, 24, 3, 2, 1, 12, 12},
        KernelCase{24, 24, 3, 2, 1, 6, 6},
        // Output channels left over after the last full vector: 6 is one
        // 4-lane vector + 2 (and all remainder at 8 lanes), 10 is two
        // 4-lane vectors + 2 (one 8-lane vector + 2), 12 is one 8-lane
        // vector + 4, 40 spans more than one group of channel vectors at
        // either width.
        KernelCase{3, 6, 3, 2, 1, 9, 11},
        KernelCase{4, 10, 3, 2, 1, 11, 8},
        KernelCase{5, 12, 3, 2, 1, 10, 7},
        KernelCase{2, 12, 5, 1, 2, 9, 13},
        KernelCase{3, 40, 3, 2, 1, 9, 11},
        // Padding beyond the kernel with channel lanes: whole rows and
        // columns whose window misses the input keep just the bias.
        KernelCase{2, 8, 5, 2, 5, 7, 7},
        // Odd extents, non-square.
        KernelCase{2, 3, 3, 1, 1, 5, 7},
        KernelCase{3, 2, 5, 1, 2, 9, 13},
        // stride > 1 with odd extents.
        KernelCase{1, 2, 3, 3, 1, 11, 17},
        KernelCase{2, 2, 5, 2, 2, 15, 9},
        // padding >= kernel/2 and beyond the kernel (fully guarded rows).
        KernelCase{1, 1, 3, 1, 3, 6, 6},
        KernelCase{1, 2, 5, 1, 5, 7, 7},
        // 1x1 kernels (no border at p=0; all border at p=1).
        KernelCase{4, 4, 1, 1, 0, 10, 12},
        KernelCase{2, 2, 1, 2, 1, 8, 8},
        // Kernel equal to the whole input.
        KernelCase{1, 1, 7, 1, 3, 7, 7},
        // Stride 1 at small widths and heights, where most cells are
        // border cells, then a single-row image.
        KernelCase{1, 1, 3, 1, 1, 3, 1},
        KernelCase{2, 2, 3, 1, 1, 4, 2},
        KernelCase{2, 2, 3, 1, 1, 5, 3},
        KernelCase{1, 2, 3, 1, 1, 6, 4},
        KernelCase{2, 1, 3, 1, 1, 6, 5},
        KernelCase{1, 1, 3, 1, 1, 7, 6},
        KernelCase{2, 3, 3, 1, 1, 8, 7},
        KernelCase{1, 1, 3, 1, 1, 1, 48}));

TEST(BoxBlurKernelTest, SimdMatchesReferenceBitwise) {
  util::Rng rng(4242);
  // Widths straddle the 4-lane interior sweep: below one vector, exact
  // multiples, and every tail residue.
  for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 8}, {8, 1}, {2, 2}, {3, 3}, {3, 4}, {3, 5}, {4, 6},
           {4, 7}, {5, 9}, {48, 48}}) {
    const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 1.0f);
    Tensor reference, simd, dispatched;
    detect::box_blur3_into_reference(grid, reference);
    detect::box_blur3_into_simd(grid, simd);
    detect::box_blur3_into(grid, dispatched);
    EXPECT_TRUE(simd.equals(reference)) << h << "x" << w;
    EXPECT_TRUE(dispatched.equals(reference)) << h << "x" << w;
  }
}

TEST(IntegralImageKernelTest, SimdResetMatchesReferenceBitwise) {
  util::Rng rng(9911);
  // The simd reset's serial-prefix + vectorized-row-add split must land on
  // the identical table for every extent, including widths below the
  // 2-double SSE vector and single-row/single-column grids.
  for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {5, 4}, {13, 29},
           {48, 48}}) {
    const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 2.0f);
    detect::IntegralImage reference, simd;
    reference.reset(grid, Backend::kReference);
    simd.reset(grid, Backend::kSimd);
    const std::size_t cells = (h + 1) * (w + 1);
    for (std::size_t i = 0; i < cells; ++i) {
      ASSERT_EQ(simd.table()[i], reference.table()[i])
          << h << "x" << w << " cell " << i;
    }
  }
}

TEST(AnchorContrastPassTest, SimdSweepMatchesScalarChain) {
  util::Rng rng(77321);
  // Odd extents so the anchor count is not a multiple of the vector width
  // and plenty of anchors clip at the border (invalid geometry lanes take
  // the scalar fallback).
  for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{
           {9, 11}, {48, 48}}) {
    const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 1.0f);
    detect::ScanPlanKey key;
    key.height = h;
    key.width = w;
    const detect::ScanPlan plan = detect::build_scan_plan(key);
    ASSERT_FALSE(plan.anchors.empty());
    detect::IntegralImage integral(grid);
    std::vector<double> simd(plan.anchors.size());
    detect::detail::anchor_contrast_pass_simd(
        integral.table(), plan.geometry.data(), plan.anchors.size(),
        simd.data());
    for (std::size_t i = 0; i < plan.anchors.size(); ++i) {
      // The exact scalar chain propose_with_plan runs on kReference.
      const detect::AnchorGeometry& g = plan.geometry[i];
      const double inner_sum =
          g.inner_valid
              ? integral.flat_sum(g.inner00, g.inner01, g.inner10, g.inner11)
              : 0.0;
      const double ring_sum =
          g.ring_valid
              ? integral.flat_sum(g.ring00, g.ring01, g.ring10, g.ring11)
              : 0.0;
      const double inside =
          g.inner_area > 0.0f ? inner_sum / g.inner_area : 0.0;
      const double ring_area = g.ring_area;
      const double background =
          ring_area > 0.0 ? (ring_sum - inner_sum) / ring_area : 0.0;
      ASSERT_EQ(simd[i], inside - background)
          << h << "x" << w << " anchor " << i;
    }
  }
}

// Full proposal pass per backend: pinning the whole plumbed path (blur,
// integral, contrast sweep, NMS, top-k) bitwise across backends.
TEST(RpnBackendTest, ProposalsBitwiseInvariantAcrossBackends) {
  util::Rng rng(6001);
  const Tensor grid = random_tensor({1, 48, 48}, rng, 0.0f, 1.0f);
  detect::RpnConfig reference_config;
  reference_config.backend = Backend::kReference;
  const auto reference =
      detect::Rpn(reference_config).propose(grid);
  detect::RpnConfig config;
  config.backend = Backend::kSimd;
  detect::ScanScratch scratch;
  const auto proposals = detect::Rpn(config).propose(grid, &scratch);
  ASSERT_EQ(proposals.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(proposals[i].box.x1, reference[i].box.x1);
    EXPECT_EQ(proposals[i].box.y1, reference[i].box.y1);
    EXPECT_EQ(proposals[i].box.x2, reference[i].box.x2);
    EXPECT_EQ(proposals[i].box.y2, reference[i].box.y2);
    EXPECT_EQ(proposals[i].objectness, reference[i].objectness);
  }
}

// The composition the RPN's integer-key finish replaced, kept as its
// oracle: the scratchless clip/clamp scoring over a reference blur and
// integral image, one Detection per anchor whose contrast reaches
// min_contrast, then nms_in_place and keep_top_k_in_place.
std::vector<detect::Proposal> replay_proposals(
    const Tensor& grid, const detect::RpnConfig& config) {
  const std::size_t h = grid.size(1), w = grid.size(2);
  Tensor smoothed;
  detect::box_blur3_into_reference(grid, smoothed);
  detect::IntegralImage integral;
  integral.reset(smoothed, Backend::kReference);
  const auto limit_w = static_cast<float>(w);
  const auto limit_h = static_cast<float>(h);
  std::vector<detect::Detection> raw;
  for (const detect::Box& anchor :
       detect::generate_anchors(h, w, config.anchors)) {
    const detect::Box inner = anchor.clipped(limit_w, limit_h);
    const float inner_area = inner.area();
    const double inner_sum = integral.box_sum(inner);
    detect::Box ring = anchor;
    ring.x1 -= config.ring;
    ring.y1 -= config.ring;
    ring.x2 += config.ring;
    ring.y2 += config.ring;
    ring = ring.clipped(limit_w, limit_h);
    const double ring_sum = integral.box_sum(ring);
    const double ring_area = ring.area() - inner_area;
    const double inside = inner_area > 0.0f ? inner_sum / inner_area : 0.0;
    const double background =
        ring_area > 0.0 ? (ring_sum - inner_sum) / ring_area : 0.0;
    const double contrast = inside - background;
    if (!(contrast >= config.min_contrast)) continue;
    detect::Detection d;
    d.box = anchor;
    d.score = static_cast<float>(
        1.0 / (1.0 + std::exp(-config.contrast_scale * contrast)));
    raw.push_back(d);
  }
  detect::nms_in_place(raw, config.nms_iou, /*class_aware=*/false);
  detect::keep_top_k_in_place(raw, config.top_k);
  std::vector<detect::Proposal> proposals;
  for (const detect::Detection& d : raw) {
    proposals.push_back(detect::Proposal{d.box, d.score});
  }
  return proposals;
}

// Every propose path (reference without scratch, reference and simd with
// scratch) against the replay, elementwise and in order.
void expect_proposals_match_replay(const Tensor& grid,
                                   detect::RpnConfig config,
                                   const std::string& label) {
  const auto expected = replay_proposals(grid, config);
  detect::ScanScratch scratch;
  config.backend = Backend::kReference;
  const auto scratchless = detect::Rpn(config).propose(grid);
  const auto reference = detect::Rpn(config).propose(grid, &scratch);
  config.backend = Backend::kSimd;
  const auto simd = detect::Rpn(config).propose(grid, &scratch);
  for (const auto* actual : {&scratchless, &reference, &simd}) {
    ASSERT_EQ(actual->size(), expected.size()) << label;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      const detect::Proposal& a = (*actual)[i];
      const detect::Proposal& e = expected[i];
      ASSERT_TRUE(a.box.x1 == e.box.x1 && a.box.y1 == e.box.y1 &&
                  a.box.x2 == e.box.x2 && a.box.y2 == e.box.y2 &&
                  a.objectness == e.objectness)
          << label << " proposal " << i;
      ASSERT_FALSE(std::isnan(a.objectness)) << label;
    }
  }
}

// Equal scores are where the finish can go wrong: the sort's index
// tie-break, and keep_top_k's partial_sort, which reorders tied scores
// whenever more than top_k survive NMS. Grids quantized to {0, 0.5, 1}
// and a lattice of identical squares make many anchors score alike.
TEST(RpnBackendTest, ProposalsMatchReplayOnTiedScores) {
  util::Rng rng(6002);
  std::vector<Tensor> grids;
  for (int i = 0; i < 24; ++i) {
    Tensor grid({1, 48, 48});
    const double bright = rng.uniform(0.05, 0.3);
    for (float& v : grid.vec()) {
      const double u = rng.uniform();
      v = u < bright ? 1.0f : u < 2.0 * bright ? 0.5f : 0.0f;
    }
    grids.push_back(std::move(grid));
  }
  Tensor lattice({1, 48, 48});
  for (std::size_t y = 2; y + 2 < 48; y += 6) {
    for (std::size_t x = 2; x + 2 < 48; x += 6) {
      for (std::size_t dy = 0; dy < 2; ++dy) {
        for (std::size_t dx = 0; dx < 2; ++dx) {
          lattice.at(0, y + dy, x + dx) = 1.0f;
        }
      }
    }
  }
  grids.push_back(lattice);
  for (const std::size_t top_k :
       {std::size_t{4}, std::size_t{16}, std::size_t{48}}) {
    detect::RpnConfig config;
    config.top_k = top_k;
    for (std::size_t i = 0; i < grids.size(); ++i) {
      expect_proposals_match_replay(
          grids[i], config,
          "grid " + std::to_string(i) + " top_k " + std::to_string(top_k));
    }
  }
}

// NaN contract: a NaN cell poisons every contrast whose integral-table
// corners lie past it; none of those anchors may become a proposal, and
// the backends still agree bit for bit.
TEST(RpnBackendTest, NanCellsNeverBecomeProposals) {
  util::Rng rng(6003);
  for (int i = 0; i < 16; ++i) {
    Tensor grid = random_tensor({1, 48, 48}, rng, 0.0f, 1.0f);
    const std::size_t cells = 1 + rng.index(5);
    for (std::size_t c = 0; c < cells; ++c) {
      grid.vec()[rng.index(grid.numel())] =
          std::numeric_limits<float>::quiet_NaN();
    }
    expect_proposals_match_replay(grid, detect::RpnConfig{},
                                  "nan grid " + std::to_string(i));
  }
}

TEST(IntegralImageKernelTest, PointerWalkMatchesDirectPrefixSums) {
  util::Rng rng(515);
  const std::size_t h = 13, w = 29;
  const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 2.0f);
  detect::IntegralImage integral(grid);
  // Recompute the cumulative table exactly as the original scalar loop did
  // and compare through box_sum lookups over every prefix rectangle.
  std::vector<double> table((h + 1) * (w + 1), 0.0);
  for (std::size_t y = 0; y < h; ++y) {
    double row = 0.0;
    for (std::size_t x = 0; x < w; ++x) {
      row += grid.data()[y * w + x];
      table[(y + 1) * (w + 1) + (x + 1)] = table[y * (w + 1) + (x + 1)] + row;
    }
  }
  for (std::size_t y = 1; y <= h; ++y) {
    for (std::size_t x = 1; x <= w; ++x) {
      detect::Box box;
      box.x1 = 0.0f;
      box.y1 = 0.0f;
      box.x2 = static_cast<float>(x);
      box.y2 = static_cast<float>(y);
      ASSERT_EQ(integral.box_sum(box), table[y * (w + 1) + x]);
    }
  }
}

// The RPN's precomputed anchor geometry (clipped boxes, areas, clamped
// table offsets) must be scoring-equivalent to the per-scan clip/clamp
// path: proposals with and without scratch are bitwise identical.
TEST(AnchorGeometryTest, ScratchProposalsMatchScratchless) {
  util::Rng rng(8080);
  const Tensor grid = random_tensor({1, 48, 48}, rng, 0.0f, 1.0f);
  const detect::Rpn rpn;
  detect::ScanScratch scratch;
  const auto with_scratch = rpn.propose(grid, &scratch);
  const auto without = rpn.propose(grid);
  ASSERT_EQ(with_scratch.size(), without.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(with_scratch[i].box.x1, without[i].box.x1);
    EXPECT_EQ(with_scratch[i].box.y1, without[i].box.y1);
    EXPECT_EQ(with_scratch[i].box.x2, without[i].box.x2);
    EXPECT_EQ(with_scratch[i].box.y2, without[i].box.y2);
    EXPECT_EQ(with_scratch[i].objectness, without[i].objectness);
  }
}

// ---- ECO_BACKEND parsing -------------------------------------------------

TEST(BackendEnvTest, ParsesEveryBackendName) {
  EXPECT_EQ(backend_from_env_value("reference"), Backend::kReference);
  EXPECT_EQ(backend_from_env_value("simd"), Backend::kSimd);
  EXPECT_EQ(backend_from_env_value("auto"), Backend::kAuto);
  for (const Backend backend :
       {Backend::kAuto, Backend::kReference, Backend::kSimd}) {
    const auto parsed = parse_backend(backend_name(backend));
    ASSERT_TRUE(parsed.has_value()) << backend_name(backend);
    EXPECT_EQ(*parsed, backend);
  }
}

TEST(BackendEnvTest, UnknownValueFailsLoudlyListingValidNames) {
  // "fast" and "int8" were backends once; they are unknown values now.
  for (const char* name : {"fast", "int8", "", "int9"}) {
    try {
      (void)backend_from_env_value(name);
      FAIL() << "expected std::invalid_argument for '" << name << "'";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("\"" + std::string(name) + "\""),
                std::string::npos)
          << message;
      const std::string valid = "valid values: ";
      const std::size_t at = message.find(valid);
      ASSERT_NE(at, std::string::npos) << message;
      EXPECT_EQ(message.substr(at + valid.size()), "auto, reference, simd");
    }
  }
}

// default_backend() resolves once per process, so the bad value is set in
// a fresh child process. Pooled generation tasks pick their render path
// from the backend; if FrameStream did not resolve it up front, the throw
// would happen on a pool worker and end in std::terminate instead of
// reaching this thread.
TEST(BackendEnvTest, FrameStreamThrowsOnCallerThreadForUnknownBackend) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_EXIT(
      {
        setenv("ECO_BACKEND", "fast", 1);
        int code = 1;
        try {
          runtime::StreamConfig config;
          config.sequence.length = 2;
          config.sequences_per_scene = 1;
          config.prefetch = 2;
          runtime::ThreadPool pool(2);
          runtime::FrameStream stream(config);
          stream.attach_pool(pool);
          while (stream.next()) {
          }
        } catch (const std::invalid_argument&) {
          code = 0;
        }
        std::exit(code);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace eco::tensor
