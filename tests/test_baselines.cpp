// Tests for the baseline models: BCV Jacobi (FPGA [6] algorithm), the
// FPGA latency/resource model, and the GPU W-cycle model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baselines/bcv.hpp"
#include "baselines/fpga_model.hpp"
#include "baselines/gpu_model.hpp"
#include "common/rng.hpp"
#include "linalg/generators.hpp"
#include "linalg/metrics.hpp"
#include "linalg/reference_svd.hpp"

namespace hsvd::baselines {
namespace {

TEST(Bcv, RoundsAlternateOddEven) {
  auto rounds = bcv_rounds(6);
  ASSERT_EQ(rounds.size(), 6u);
  EXPECT_EQ(rounds[0].size(), 3u);  // (0,1) (2,3) (4,5)
  EXPECT_EQ(rounds[1].size(), 2u);  // (1,2) (3,4)
  EXPECT_EQ(rounds[0][0], (std::pair{0, 1}));
  EXPECT_EQ(rounds[1][0], (std::pair{1, 2}));
}

TEST(Bcv, SweepCoversAllPairsViaTranspositions) {
  // With unconditional swaps, n rounds of odd-even transposition bring
  // every pair of columns together exactly once (brick-wall network).
  // The sweep reverses the column positions, so the sequence repeats
  // with a period of two sweeps.
  for (const int n : {7, 8}) {
    SCOPED_TRACE(n);
    const jacobi::PairSequence seq = bcv_sequence(n);
    ASSERT_EQ(seq.sweeps.size(), 2u);
    EXPECT_NE(seq.sweep(0), seq.sweep(1));
    EXPECT_EQ(seq.sweep(2), seq.sweep(0));
    for (int s = 0; s < 2; ++s) {
      std::set<std::pair<int, int>> met;
      for (const auto& pair : seq.sweep(s)) {
        const auto key = std::minmax(pair.left, pair.right);
        EXPECT_TRUE(met.insert({key.first, key.second}).second);
      }
      EXPECT_EQ(met.size(), static_cast<std::size_t>(n * (n - 1) / 2));
    }
  }
}

TEST(Bcv, ConvergesToReferenceSvd) {
  Rng rng(77);
  auto ad = linalg::random_gaussian(20, 12, rng);
  auto r = bcv_svd(ad.cast<float>());
  auto ref = linalg::reference_svd(ad);
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
  EXPECT_LT(linalg::orthogonality_error(r.u.cast<double>()), 1e-4);
  EXPECT_TRUE(r.converged);
}

TEST(Bcv, OddColumnCountSupported) {
  Rng rng(78);
  auto ad = linalg::random_gaussian(15, 9, rng);
  auto r = bcv_svd(ad.cast<float>());
  auto ref = linalg::reference_svd(ad);
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
}

TEST(Bcv, FixedSweepsHonored) {
  Rng rng(79);
  auto a = linalg::random_gaussian(12, 6, rng).cast<float>();
  BcvOptions opts;
  opts.fixed_sweeps = 6;
  EXPECT_EQ(bcv_svd(a, opts).sweeps, 6);
}

TEST(FpgaModel, ExactAtTableIIAnchors) {
  FpgaBcvModel fpga;
  EXPECT_NEAR(fpga.latency_seconds(128), 0.0014, 1e-6);
  EXPECT_NEAR(fpga.latency_seconds(256), 0.0113, 1e-6);
  EXPECT_NEAR(fpga.latency_seconds(512), 0.0829, 1e-6);
  EXPECT_NEAR(fpga.latency_seconds(1024), 0.6119, 1e-6);
}

TEST(FpgaModel, MonotoneBetweenAndClampedBeyondAnchors) {
  FpgaBcvModel fpga;
  EXPECT_GT(fpga.latency_seconds(384), fpga.latency_seconds(256));
  EXPECT_LT(fpga.latency_seconds(384), fpga.latency_seconds(512));
  // Outside the Table II anchor range the model clamps to the outermost
  // anchor instead of trusting the fitted slope, and flags the value.
  EXPECT_DOUBLE_EQ(fpga.latency_seconds(2048), fpga.latency_seconds(1024));
  EXPECT_DOUBLE_EQ(fpga.latency_seconds(64), fpga.latency_seconds(128));
  EXPECT_FALSE(fpga.latency_modeled(384).extrapolated);
  EXPECT_FALSE(fpga.latency_modeled(128).extrapolated);
  EXPECT_FALSE(fpga.latency_modeled(1024).extrapolated);
  EXPECT_TRUE(fpga.latency_modeled(2048).extrapolated);
  EXPECT_TRUE(fpga.latency_modeled(64).extrapolated);
}

TEST(GpuModel, ClampedAndFlaggedBeyondAnchors) {
  GpuWcycleModel gpu;
  EXPECT_DOUBLE_EQ(gpu.latency_seconds(64), gpu.latency_seconds(128));
  EXPECT_DOUBLE_EQ(gpu.throughput_tasks_per_s(2048),
                   gpu.throughput_tasks_per_s(1024));
  EXPECT_TRUE(gpu.latency_modeled(64).extrapolated);
  EXPECT_TRUE(gpu.throughput_modeled(2048).extrapolated);
  EXPECT_FALSE(gpu.throughput_modeled(512).extrapolated);
}

TEST(FpgaModel, IterationScalingIsLinear) {
  FpgaBcvModel fpga;
  EXPECT_NEAR(fpga.latency_seconds(256, 12), 2 * fpga.latency_seconds(256, 6),
              1e-9);
}

TEST(FpgaModel, ResourcesMatchTableII) {
  FpgaBcvModel fpga;
  auto r = fpga.resources();
  EXPECT_NEAR(r.lut, 212000, 1);
  EXPECT_EQ(r.dsp, 1602);
  EXPECT_NEAR(r.bram_pct, 0.314, 1e-9);
}

TEST(GpuModel, ExactAtTableIIIAnchors) {
  GpuWcycleModel gpu;
  EXPECT_NEAR(gpu.latency_seconds(128), 0.0166, 1e-5);
  EXPECT_NEAR(gpu.latency_seconds(1024), 0.6857, 1e-4);
  EXPECT_NEAR(gpu.throughput_tasks_per_s(256), 217.39, 0.01);
  EXPECT_NEAR(gpu.energy_efficiency(128), 5.005, 0.01);
  EXPECT_NEAR(gpu.energy_efficiency(1024), 0.013, 0.001);
}

TEST(GpuModel, UtilizationGrowsWithSize) {
  GpuWcycleModel gpu;
  EXPECT_LT(gpu.core_utilization(128), gpu.core_utilization(1024));
  EXPECT_LT(gpu.memory_utilization(128), gpu.memory_utilization(1024));
  for (std::size_t n : {128u, 256u, 512u, 1024u}) {
    EXPECT_GT(gpu.core_utilization(n), 0.0);
    EXPECT_LE(gpu.core_utilization(n), 0.95);
    EXPECT_LE(gpu.memory_utilization(n), 0.92);
  }
}

TEST(GpuModel, LatencyTimesThroughputShowsBatchingGain) {
  // Batched throughput far exceeds 1/latency at small sizes -- the GPU
  // needs batching to fill its cores (the paper's motivation).
  GpuWcycleModel gpu;
  EXPECT_GT(gpu.throughput_tasks_per_s(128) * gpu.latency_seconds(128), 5.0);
}

}  // namespace
}  // namespace hsvd::baselines
