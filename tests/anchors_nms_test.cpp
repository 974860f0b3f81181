#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "detect/anchors.hpp"
#include "detect/nms.hpp"
#include "util/rng.hpp"

namespace eco::detect {
namespace {

TEST(AnchorsTest, CoversGridAtStride) {
  AnchorConfig config;
  config.stride = 4;
  config.shapes = {{2.0f, 2.0f}};
  const auto anchors = generate_anchors(16, 16, config);
  EXPECT_EQ(anchors.size(), 16u);  // 4x4 centres, 1 shape
  for (const Box& a : anchors) {
    EXPECT_TRUE(a.valid());
    EXPECT_GE(a.x1, 0.0f);
    EXPECT_LE(a.x2, 16.0f);
  }
}

TEST(AnchorsTest, MultipleShapesPerCentre) {
  AnchorConfig config;
  config.stride = 8;
  config.shapes = {{2.0f, 2.0f}, {4.0f, 3.0f}, {6.0f, 4.0f}};
  const auto anchors = generate_anchors(16, 16, config);
  EXPECT_EQ(anchors.size(), 4u * 3u);
}

TEST(AnchorsTest, ClipsOversizedShapes) {
  AnchorConfig config;
  config.stride = 8;
  config.shapes = {{100.0f, 100.0f}};
  const auto anchors = generate_anchors(16, 16, config);
  for (const Box& a : anchors) {
    EXPECT_GE(a.x1, 0.0f);
    EXPECT_LE(a.x2, 16.0f);
    EXPECT_GE(a.y1, 0.0f);
    EXPECT_LE(a.y2, 16.0f);
  }
}

TEST(AnchorsTest, DefaultShapesCoverClassExtents) {
  const auto shapes = AnchorConfig::default_shapes();
  EXPECT_GE(shapes.size(), 7u);
  // Smallest anchor is pedestrian-sized, largest is bus-sized.
  float min_area = 1e9f, max_area = 0.0f;
  for (const auto& s : shapes) {
    min_area = std::min(min_area, s.width * s.height);
    max_area = std::max(max_area, s.width * s.height);
  }
  EXPECT_LT(min_area, 8.0f);
  EXPECT_GT(max_area, 60.0f);
}

Detection make_det(Box box, float score,
                   ObjectClass cls = ObjectClass::kCar) {
  Detection d;
  d.box = box;
  d.score = score;
  d.cls = cls;
  return d;
}

TEST(NmsTest, KeepsHighestScoringOfOverlappingPair) {
  std::vector<Detection> dets = {
      make_det({0, 0, 4, 4}, 0.9f),
      make_det({0.5f, 0.5f, 4.5f, 4.5f}, 0.8f),
  };
  const auto kept = nms(dets, 0.5f);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
}

TEST(NmsTest, KeepsDisjointDetections) {
  std::vector<Detection> dets = {
      make_det({0, 0, 4, 4}, 0.9f),
      make_det({10, 10, 14, 14}, 0.5f),
  };
  EXPECT_EQ(nms(dets, 0.5f).size(), 2u);
}

TEST(NmsTest, ClassAwareKeepsDifferentClasses) {
  std::vector<Detection> dets = {
      make_det({0, 0, 4, 4}, 0.9f, ObjectClass::kCar),
      make_det({0, 0, 4, 4}, 0.8f, ObjectClass::kVan),
  };
  EXPECT_EQ(nms(dets, 0.5f, /*class_aware=*/true).size(), 2u);
  EXPECT_EQ(nms(dets, 0.5f, /*class_aware=*/false).size(), 1u);
}

TEST(NmsTest, ThresholdControlsSuppression) {
  std::vector<Detection> dets = {
      make_det({0, 0, 4, 4}, 0.9f),
      make_det({1, 0, 5, 4}, 0.8f),  // IoU = 12/20 = 0.6
  };
  EXPECT_EQ(nms(dets, 0.5f).size(), 1u);   // 0.6 > 0.5 -> suppressed
  EXPECT_EQ(nms(dets, 0.7f).size(), 2u);   // 0.6 < 0.7 -> kept
}

TEST(NmsTest, OutputSortedByScore) {
  std::vector<Detection> dets = {
      make_det({0, 0, 2, 2}, 0.3f),
      make_det({10, 0, 12, 2}, 0.9f),
      make_det({20, 0, 22, 2}, 0.6f),
  };
  const auto kept = nms(dets, 0.5f);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_GE(kept[0].score, kept[1].score);
  EXPECT_GE(kept[1].score, kept[2].score);
}

TEST(FilterTest, DropsBelowThreshold) {
  std::vector<Detection> dets = {make_det({0, 0, 1, 1}, 0.2f),
                                 make_det({0, 0, 1, 1}, 0.6f)};
  const auto kept = filter_by_score(dets, 0.5f);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.6f);
}

TEST(TopKTest, KeepsHighestK) {
  std::vector<Detection> dets = {
      make_det({0, 0, 1, 1}, 0.1f), make_det({0, 0, 1, 1}, 0.9f),
      make_det({0, 0, 1, 1}, 0.5f), make_det({0, 0, 1, 1}, 0.7f)};
  const auto kept = keep_top_k(dets, 2);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_FLOAT_EQ(kept[0].score, 0.9f);
  EXPECT_FLOAT_EQ(kept[1].score, 0.7f);
}

TEST(TopKTest, NoOpWhenFewer) {
  std::vector<Detection> dets = {make_det({0, 0, 1, 1}, 0.1f)};
  EXPECT_EQ(keep_top_k(dets, 5).size(), 1u);
}

// The vectorized class-agnostic sweep (four keepers per SSE2 step) must
// reproduce the scalar greedy algorithm exactly: same survivors, same
// order. The replay below IS that scalar algorithm — stable sort by score,
// then a plain iou() loop against already-kept boxes.
std::vector<Detection> scalar_greedy_nms(std::vector<Detection> detections,
                                         float iou_threshold) {
  std::stable_sort(detections.begin(), detections.end(),
                   [](const Detection& a, const Detection& b) {
                     return a.score > b.score;
                   });
  std::vector<Detection> kept;
  for (const Detection& d : detections) {
    bool suppressed = false;
    for (const Detection& k : kept) {
      if (iou(k.box, d.box) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

TEST(NmsTest, VectorSweepMatchesScalarGreedyReplay) {
  util::Rng rng(90210);
  // Sizes straddle the 4-lane step: empty, below one vector, exact
  // multiples, and tails of every residue.
  for (const std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 33u, 100u}) {
    std::vector<Detection> dets;
    for (std::size_t i = 0; i < n; ++i) {
      const float x = rng.uniform_f(0.0f, 40.0f);
      const float y = rng.uniform_f(0.0f, 40.0f);
      dets.push_back(make_det({x, y, x + rng.uniform_f(0.5f, 8.0f),
                               y + rng.uniform_f(0.5f, 8.0f)},
                              rng.uniform_f(0.0f, 1.0f)));
    }
    // A few degenerate boxes: zero-area (inter lane masked like the
    // scalar w>0 && h>0 guard) and duplicated coordinates (ties).
    if (n >= 5) {
      dets[1].box = {3.0f, 3.0f, 3.0f, 3.0f};
      dets[4].box = dets[0].box;
      dets[4].score = dets[0].score;
    }
    for (const float thr : {0.3f, 0.5f, 0.75f}) {
      const auto expected = scalar_greedy_nms(dets, thr);
      auto actual = dets;
      nms_in_place(actual, thr, /*class_aware=*/false);
      ASSERT_EQ(actual.size(), expected.size()) << "n=" << n << " thr=" << thr;
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i].box.x1, expected[i].box.x1);
        EXPECT_EQ(actual[i].box.y1, expected[i].box.y1);
        EXPECT_EQ(actual[i].box.x2, expected[i].box.x2);
        EXPECT_EQ(actual[i].box.y2, expected[i].box.y2);
        EXPECT_EQ(actual[i].score, expected[i].score);
      }
    }
  }
}

TEST(NmsTest, VectorSweepHandlesDisjointKeepersWithoutFalsePositives) {
  // Widely separated boxes produce negative iw/ih in every lane; the junk
  // products must be masked, never suppress.
  std::vector<Detection> dets;
  for (std::size_t i = 0; i < 9; ++i) {
    const float o = static_cast<float>(i) * 100.0f;
    dets.push_back(make_det({o, o, o + 2.0f, o + 2.0f},
                            1.0f - 0.05f * static_cast<float>(i)));
  }
  auto kept = dets;
  nms_in_place(kept, 0.5f, /*class_aware=*/false);
  EXPECT_EQ(kept.size(), dets.size());
}

// NMS reorders whole detections: every survivor keeps its own class_scores
// payload, in (score desc, index asc) order, in both suppression modes.
// Scores tie in two tiers, so the index tie-break decides most of the
// order; each payload (the detection's index, repeated 1–5 times) says
// where it came from. Four box positions (neighbours overlap with IoU 1/7)
// and three classes: detections 4 apart share a box, 12 apart also a class.
TEST(NmsTest, SurvivorsKeepTheirOwnClassScores) {
  std::vector<Detection> dets;
  for (std::size_t i = 0; i < 24; ++i) {
    const float x = static_cast<float>(i % 4) * 3.0f;
    Detection d = make_det({x, 0.0f, x + 4.0f, 4.0f}, i % 2 == 0 ? 0.75f : 0.5f,
                           static_cast<ObjectClass>(i % 3));
    d.class_scores.assign(i % 5 + 1, static_cast<float>(i));
    dets.push_back(std::move(d));
  }
  for (const bool class_aware : {false, true}) {
    SCOPED_TRACE(class_aware ? "class-aware" : "class-agnostic");
    // Replay: stable sort by score, then the greedy scalar loop.
    std::vector<std::size_t> order(dets.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&dets](std::size_t a, std::size_t b) {
                       return dets[a].score > dets[b].score;
                     });
    std::vector<std::size_t> expected;
    for (const std::size_t i : order) {
      bool suppressed = false;
      for (const std::size_t k : expected) {
        if (class_aware && dets[k].cls != dets[i].cls) continue;
        suppressed = suppressed || iou(dets[k].box, dets[i].box) > 0.5f;
      }
      if (!suppressed) expected.push_back(i);
    }
    ASSERT_EQ(expected.size(), class_aware ? 12u : 4u);

    std::vector<Detection> actual = dets;
    nms_in_place(actual, 0.5f, class_aware);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const Detection& want = dets[expected[k]];
      EXPECT_EQ(actual[k].score, want.score);
      EXPECT_EQ(actual[k].cls, want.cls);
      EXPECT_EQ(actual[k].box.x1, want.box.x1);
      EXPECT_EQ(actual[k].class_scores, want.class_scores) << "survivor " << k;
    }
  }
}

}  // namespace
}  // namespace eco::detect
