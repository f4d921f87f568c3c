#include "biochip/wash_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace fbmb {
namespace {

TEST(WashModel, PaperAnchorPoints) {
  // Section II-B: D = 1e-5 -> ~0.2 s, D = 5e-8 -> ~6 s.
  WashModel model;
  EXPECT_NEAR(model.wash_time(1e-5), 0.2, 1e-9);
  EXPECT_NEAR(model.wash_time(5e-8), 6.0, 1e-9);
}

TEST(WashModel, MonotoneDecreasingInDiffusion) {
  WashModel model;
  double prev = model.wash_time(1e-9);
  for (double d = 2e-9; d < 1e-4; d *= 1.7) {
    const double t = model.wash_time(d);
    EXPECT_LE(t, prev + 1e-12) << "wash time must not increase with D";
    prev = t;
  }
}

TEST(WashModel, ClampsOutsideAnchors) {
  WashModel model;
  EXPECT_DOUBLE_EQ(model.wash_time(1e-3), 0.2);   // faster than fast anchor
  EXPECT_DOUBLE_EQ(model.wash_time(1e-10), 6.0);  // slower than slow anchor
}

TEST(WashModel, InterpolationIsLogLinear) {
  WashModel model;
  // Geometric mean of the anchors in log space -> arithmetic mean of times.
  const double d_mid = std::sqrt(1e-5 * 5e-8);
  EXPECT_NEAR(model.wash_time(d_mid), (0.2 + 6.0) / 2.0, 1e-9);
}

TEST(WashModel, OverridesTakePriority) {
  WashModel model;
  model.set_override(1e-6, 42.0);
  EXPECT_DOUBLE_EQ(model.wash_time(1e-6), 42.0);
  // Neighbouring values unaffected.
  EXPECT_LT(model.wash_time(1.1e-6), 42.0);
  EXPECT_EQ(model.override_count(), 1u);
  // Without the override the fit applies.
  EXPECT_EQ(WashModel{}.override_count(), 0u);
  EXPECT_LT(WashModel{}.wash_time(1e-6), 42.0);
}

TEST(WashModel, FluidOverload) {
  WashModel model;
  const Fluid fluid{"sample", 5e-8};
  EXPECT_DOUBLE_EQ(model.wash_time(fluid), 6.0);
}

TEST(WashModel, InverseMappingRoundTrips) {
  WashModel model;
  for (double t : {0.2, 1.0, 2.0, 4.0, 6.0}) {
    const double d = model.diffusion_for_wash_time(t);
    EXPECT_NEAR(model.wash_time(d), t, 1e-9) << "wash " << t;
  }
}

TEST(WashModel, InverseMappingClamps) {
  WashModel model;
  EXPECT_NEAR(model.diffusion_for_wash_time(0.01), 1e-5, 1e-12);
  EXPECT_NEAR(model.diffusion_for_wash_time(100.0), 5e-8, 1e-12);
}

TEST(WashModel, CustomAnchors) {
  WashModel model(1e-4, 1.0, 1e-8, 10.0);
  EXPECT_DOUBLE_EQ(model.wash_time(1e-4), 1.0);
  EXPECT_DOUBLE_EQ(model.wash_time(1e-8), 10.0);
  EXPECT_NEAR(model.wash_time(1e-6), 5.5, 1e-9);  // halfway in log space
}

TEST(WashModel, DegenerateEqualAnchorTimes) {
  WashModel model(1e-5, 3.0, 5e-8, 3.0);
  EXPECT_DOUBLE_EQ(model.wash_time(1e-6), 3.0);
  EXPECT_DOUBLE_EQ(model.diffusion_for_wash_time(3.0), 1e-5);
}

TEST(DiffusionConstants, OrderedByMagnitude) {
  EXPECT_GT(diffusion::kSmallMolecule, diffusion::kProtein);
  EXPECT_GT(diffusion::kProtein, diffusion::kLargeComplex);
  EXPECT_GT(diffusion::kLargeComplex, diffusion::kCell);
}

}  // namespace
}  // namespace fbmb
