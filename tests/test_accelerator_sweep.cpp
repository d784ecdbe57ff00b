// Property sweep: the accelerator's functional output must match the
// double-precision reference across the micro-architecture space --
// engine counts that exercise single-band, multi-band, stacked-slot, and
// padded configurations -- plus failure-injection cases.
#include <gtest/gtest.h>

#include "accel/accelerator.hpp"
#include "baselines/cpu_reference.hpp"
#include "common/rng.hpp"
#include "linalg/generators.hpp"
#include "linalg/metrics.hpp"
#include "linalg/reference_svd.hpp"

namespace hsvd::accel {
namespace {

struct SweepCase {
  std::size_t rows;
  std::size_t cols;
  int p_eng;
  int p_task;
  std::uint64_t seed;
};

class AcceleratorSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(AcceleratorSweep, FunctionalMatchesReference) {
  const auto& p = GetParam();
  HeteroSvdConfig cfg;
  cfg.rows = p.rows;
  cfg.cols = p.cols;
  cfg.p_eng = p.p_eng;
  cfg.p_task = p.p_task;
  cfg.iterations = 12;
  HeteroSvdAccelerator acc(cfg);

  Rng rng(p.seed);
  std::vector<linalg::MatrixF> batch;
  for (int t = 0; t < p.p_task; ++t) {
    batch.push_back(
        linalg::random_gaussian(p.rows, p.cols, rng).cast<float>());
  }
  auto run = acc.run(batch);
  for (int t = 0; t < p.p_task; ++t) {
    auto ref = linalg::reference_svd(batch[static_cast<std::size_t>(t)].cast<double>());
    std::vector<double> sigma(run.tasks[static_cast<std::size_t>(t)].sigma.begin(),
                              run.tasks[static_cast<std::size_t>(t)].sigma.end());
    EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 2e-4)
        << "task " << t;
    EXPECT_LT(linalg::orthogonality_error(
                  run.tasks[static_cast<std::size_t>(t)].u.cast<double>()),
              1e-3)
        << "task " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    MicroArchitectures, AcceleratorSweep,
    ::testing::Values(
        // Single-band, vertically stacked slots (both parities).
        SweepCase{16, 8, 2, 2, 1},
        SweepCase{16, 8, 2, 1, 2},
        // Odd P_eng with padding (cols not divisible).
        SweepCase{20, 10, 3, 1, 3},
        SweepCase{18, 11, 3, 1, 4},
        // Two-band configuration.
        SweepCase{24, 16, 4, 1, 5},
        SweepCase{24, 16, 4, 2, 6},
        // Three-band configuration (the Table II shape, miniaturized).
        SweepCase{32, 32, 8, 1, 7},
        // Five-engine, ill-shaped.
        SweepCase{25, 15, 5, 1, 8},
        // Tall and skinny.
        SweepCase{64, 8, 2, 1, 9},
        // Conditioned spectrum via a different seed mix.
        SweepCase{32, 16, 4, 1, 10}),
    [](const auto& info) {
      return "m" + std::to_string(info.param.rows) + "n" +
             std::to_string(info.param.cols) + "k" +
             std::to_string(info.param.p_eng) + "t" +
             std::to_string(info.param.p_task);
    });

TEST(AcceleratorFailure, ColumnsExceedingTileMemoryThrow) {
  // m = 8192 float columns are 32 KB each: two operand columns cannot
  // coexist in one 32 KB tile memory. The simulator's capacity checks
  // must reject the run rather than silently "work".
  HeteroSvdConfig cfg;
  cfg.rows = 8192;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  cfg.iterations = 1;
  HeteroSvdAccelerator acc(cfg);
  Rng rng(99);
  auto a = linalg::random_gaussian(8192, 8, rng).cast<float>();
  EXPECT_THROW(acc.run({a}), std::runtime_error);
}

TEST(AcceleratorFailure, TimedModeEnforcesCapacityChecks) {
  // estimate() walks the same buffer records as run(), so a shape whose
  // columns cannot coexist in one tile memory is rejected there too.
  HeteroSvdConfig cfg;
  cfg.rows = 8192;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  cfg.iterations = 1;
  HeteroSvdAccelerator acc(cfg);
  EXPECT_THROW(acc.estimate(1), std::runtime_error);
}

TEST(AcceleratorFailure, NaiveStrategyUsesMoreTileMemory) {
  auto peak_for = [](bool relocated) {
    HeteroSvdConfig cfg;
    cfg.rows = 512;
    cfg.cols = 8;
    cfg.p_eng = 2;
    cfg.p_task = 1;
    cfg.iterations = 2;
    cfg.relocated_outputs = relocated;
    HeteroSvdAccelerator acc(cfg);
    Rng rng(55);
    auto a = linalg::random_gaussian(512, 8, rng).cast<float>();
    auto run = acc.run({a});
    return run.stats.dma_bytes;
  };
  // Naive outputs force k-fold more DMA shadow traffic (exactly 2x at
  // k = 2: 2k(k-1) vs 2(k-1) moves per sweep).
  EXPECT_EQ(peak_for(false), 2 * peak_for(true));
}

TEST(CpuReference, ReportsTimingAndConvergence) {
  Rng rng(77);
  auto a = linalg::random_gaussian(24, 12, rng).cast<float>();
  auto r = baselines::run_hestenes(a, jacobi::OrderingKind::kShiftingRing);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_LT(r.max_offdiag_coherence, 1e-5);
  EXPECT_EQ(r.algorithm, "hestenes-shifting-ring");
  auto b = baselines::run_block(a, 4);
  EXPECT_TRUE(b.converged);
  auto c = baselines::run_bcv(a);
  EXPECT_TRUE(c.converged);
  EXPECT_EQ(c.algorithm, "bcv-odd-even");
}

}  // namespace
}  // namespace hsvd::accel
