// Tests for the functional AIE kernels (the orth-AIE pair step is
// jacobi::rotate_pair) and the kernel timing model.
#include <gtest/gtest.h>

#include "accel/kernels.hpp"
#include "common/rng.hpp"
#include "jacobi/sweep.hpp"
#include "linalg/generators.hpp"
#include "linalg/ops.hpp"
#include "perfmodel/aie_timing.hpp"

namespace hsvd::accel {
namespace {

// The orth-AIE pair step is jacobi::rotate_pair; these drive it with
// freshly computed norms, as a sweep's first visit of a pair does.
jacobi::PairRotation rotate_fresh(linalg::MatrixF& a) {
  float aii = linalg::dot<float>(a.col(0), a.col(0));
  float ajj = linalg::dot<float>(a.col(1), a.col(1));
  return jacobi::rotate_pair(a.col(0), a.col(1), aii, ajj);
}

TEST(OrthKernel, OrthogonalizesPair) {
  Rng rng(42);
  auto a = linalg::random_gaussian(64, 2, rng).cast<float>();
  auto r = rotate_fresh(a);
  EXPECT_TRUE(r.rotated);
  EXPECT_GT(r.coherence, 0.0);
  EXPECT_NEAR(linalg::dot<float>(a.col(0), a.col(1)), 0.0f, 1e-4f);
}

TEST(OrthKernel, IdentityOnOrthogonalPair) {
  linalg::MatrixF a(4, 2);
  a(0, 0) = 1.0f;
  a(1, 1) = 1.0f;
  auto r = rotate_fresh(a);
  EXPECT_FALSE(r.rotated);
  EXPECT_EQ(r.coherence, 0.0);
}

TEST(OrthKernel, ZeroColumnIsFixedPoint) {
  linalg::MatrixF a(4, 2);
  a(0, 0) = 3.0f;
  auto r = rotate_fresh(a);
  EXPECT_FALSE(r.rotated);
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
}

TEST(NormKernel, NormalizesColumn) {
  linalg::MatrixF a(2, 1);
  a(0, 0) = 3.0f;
  a(1, 0) = 4.0f;
  auto r = norm_kernel(a.col(0));
  EXPECT_FLOAT_EQ(r.sigma, 5.0f);
  EXPECT_FLOAT_EQ(a(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(a(1, 0), 0.8f);
}

TEST(NormKernel, ZeroColumnStaysZero) {
  linalg::MatrixF a(3, 1);
  auto r = norm_kernel(a.col(0));
  EXPECT_FLOAT_EQ(r.sigma, 0.0f);
  EXPECT_FLOAT_EQ(a(2, 0), 0.0f);
}

TEST(KernelTiming, ScalesLinearlyWithColumnLength) {
  perf::AieKernelModel model;
  const double t128 = model.orth_seconds(128);
  const double t256 = model.orth_seconds(256);
  const double t512 = model.orth_seconds(512);
  // Affine in m: equal second differences.
  EXPECT_NEAR(t512 - t256, 2 * (t256 - t128), 1e-15);
  EXPECT_GT(t128, model.orth_overhead_cycles / model.clock_hz);
}

TEST(KernelTiming, NormIsCheaperThanOrth) {
  perf::AieKernelModel model;
  for (std::size_t m : {64u, 128u, 1024u}) {
    EXPECT_LT(model.norm_seconds(m), model.orth_seconds(m));
  }
}

TEST(PlioTiming, BandwidthCapsApply) {
  perf::PlioModel plio;
  versal::DeviceResources dev = versal::vck190();
  // At modest PL frequency the PL side is the bottleneck: 16 B/cycle.
  const double t = plio.tx_seconds(16.0 * 208.3e6, 208.3e6, dev);
  EXPECT_NEAR(t, 1.0, 1e-9);
  // At absurd PL frequency the physical 32 GB/s cap binds.
  const double capped = plio.tx_seconds(32e9, 10e9, dev);
  EXPECT_NEAR(capped, 1.0, 1e-9);
  // The AIE->PL direction has the lower 24 GB/s cap.
  EXPECT_GT(plio.rx_seconds(32e9, 10e9, dev), capped);
}

}  // namespace
}  // namespace hsvd::accel
