// Tests for the public API facade (heterosvd.hpp): svd(), svd_batch(),
// derive_v(), wide-matrix handling, option plumbing.
#include <gtest/gtest.h>

#include <cstring>

#include "common/clock.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "linalg/metrics.hpp"
#include "linalg/ops.hpp"
#include "linalg/reference_svd.hpp"
#include "versal/faults.hpp"

namespace hsvd {
namespace {

linalg::MatrixF random_matrix(std::size_t rows, std::size_t cols,
                              std::uint64_t seed) {
  Rng rng(seed);
  return linalg::random_gaussian(rows, cols, rng).cast<float>();
}

bool same_bits(const linalg::MatrixF& a, const linalg::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size_bytes()) == 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

void expect_same_result(const Svd& solo, const Svd& batched) {
  EXPECT_TRUE(same_bits(solo.u, batched.u));
  EXPECT_TRUE(same_bits(solo.v, batched.v));
  EXPECT_TRUE(same_bits(solo.sigma, batched.sigma));
  EXPECT_EQ(solo.iterations, batched.iterations);
  EXPECT_EQ(solo.accelerator_seconds, batched.accelerator_seconds);
  EXPECT_EQ(solo.status, batched.status);
  EXPECT_EQ(solo.message, batched.message);
  EXPECT_EQ(solo.backend, batched.backend);
  EXPECT_EQ(solo.modeled_seconds, batched.modeled_seconds);
  EXPECT_EQ(solo.retries, batched.retries);
}

// svd(a) is svd_batch({a}) with one matrix: on the classic path and on
// every pinned backend, field for field.
TEST(Facade, SingleMatrixIsABatchOfOne) {
  for (const char* backend :
       {"", "aie", "aie-sharded", "cpu", "fpga-bcv", "gpu-wcycle"}) {
    for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{32, 16},
                                     {40, 30}}) {
      for (const bool want_v : {true, false}) {
        SCOPED_TRACE(cat("backend '", backend, "' ", rows, "x", cols,
                         want_v ? " want_v" : ""));
        const auto a = random_matrix(rows, cols, 660 + rows + cols);
        SvdOptions opts;
        opts.backend = backend;
        opts.want_v = want_v;
        opts.threads = 2;
        const Svd solo = svd(a, opts);
        const BatchSvd batched = svd_batch({a}, opts);
        ASSERT_EQ(batched.results.size(), 1u);
        expect_same_result(solo, batched.results[0]);
      }
    }
  }

  // A one-shot DMA drop fails the first attempt (no in-run recovery);
  // the facade retry re-runs it on a fresh accelerator.
  accel::HeteroSvdConfig cfg;
  cfg.p_eng = 4;  // two bands at 24x16: inter-band DMA exists
  cfg.p_task = 1;
  cfg.iterations = 3;
  cfg.rows = 24;
  cfg.cols = 16;
  versal::TileCoord src{-1, -1};
  const accel::HeteroSvdAccelerator probe(cfg);
  for (const auto& tr : probe.dataflow(0).transitions) {
    for (const auto& mv : tr.moves) {
      if (mv.is_dma && src.row < 0) src = mv.src;
    }
  }
  ASSERT_GE(src.row, 0);
  versal::FaultPlan plan;
  plan.faults.push_back({versal::FaultKind::kDmaDrop, src, 0, 0, 0.0, 1.0});
  const auto a = random_matrix(24, 16, 670);
  common::FakeClock clock;
  SvdOptions opts;
  opts.config = cfg;
  opts.fault_retries = 0;
  opts.retry = common::RetryPolicy{.max_attempts = 2};
  opts.clock = &clock;
  versal::FaultInjector solo_faults(plan);
  opts.fault_injector = &solo_faults;
  const Svd solo = svd(a, opts);
  versal::FaultInjector batch_faults(plan);
  opts.fault_injector = &batch_faults;
  const BatchSvd batched = svd_batch({a}, opts);
  EXPECT_EQ(solo.retries, 1);
  EXPECT_EQ(solo.status, SvdStatus::kOk);
  EXPECT_EQ(solo_faults.event_count(), 1u);
  ASSERT_EQ(batched.results.size(), 1u);
  expect_same_result(solo, batched.results[0]);
}

TEST(Facade, SvdMatchesReference) {
  auto a = random_matrix(24, 16, 600);
  Svd r = svd(a);
  auto ref = linalg::reference_svd(a.cast<double>());
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
  EXPECT_LT(linalg::orthogonality_error(r.u.cast<double>()), 1e-4);
  EXPECT_LT(linalg::orthogonality_error(r.v.cast<double>()), 1e-3);
  EXPECT_LT(linalg::reconstruction_error(a.cast<double>(), r.u.cast<double>(),
                                         sigma, r.v.cast<double>()),
            1e-5);
  EXPECT_GT(r.accelerator_seconds, 0.0);
  EXPECT_LT(r.convergence_rate, 1e-6);
}

TEST(Facade, WideMatrixTransposesAndSwapsFactors) {
  auto a = random_matrix(12, 20, 601);  // wide
  Svd r = svd(a);
  auto ref = linalg::reference_svd(linalg::transpose(a.cast<double>()));
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
  // U spans the 12-dim row space, V the 20-dim column space.
  EXPECT_EQ(r.u.rows(), 12u);
  EXPECT_EQ(r.v.rows(), 20u);
  EXPECT_LT(linalg::reconstruction_error(a.cast<double>(), r.u.cast<double>(),
                                         sigma, r.v.cast<double>()),
            1e-5);
}

TEST(Facade, WideMatrixWithoutV) {
  auto a = random_matrix(8, 14, 602);
  SvdOptions opts;
  opts.want_v = false;
  Svd r = svd(a, opts);
  EXPECT_TRUE(r.v.empty());
  EXPECT_EQ(r.u.rows(), 8u);
}

TEST(Facade, ExplicitConfigOverridesDse) {
  auto a = random_matrix(16, 8, 603);
  SvdOptions opts;
  accel::HeteroSvdConfig cfg;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  cfg.iterations = 12;
  opts.config = cfg;
  Svd r = svd(a, opts);
  auto ref = linalg::reference_svd(a.cast<double>());
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
}

TEST(Facade, BatchSharedShapeEnforced) {
  std::vector<linalg::MatrixF> batch = {random_matrix(8, 4, 604),
                                        random_matrix(8, 6, 605)};
  EXPECT_THROW(svd_batch(batch), std::invalid_argument);
  EXPECT_THROW(svd_batch({}), std::invalid_argument);
}

TEST(Facade, BatchDecomposesEveryTask) {
  std::vector<linalg::MatrixF> batch;
  for (int i = 0; i < 4; ++i) batch.push_back(random_matrix(12, 8, 700 + i));
  BatchSvd out = svd_batch(batch);
  ASSERT_EQ(out.results.size(), 4u);
  EXPECT_GT(out.throughput_tasks_per_s, 0.0);
  EXPECT_GT(out.config.p_task, 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto ref = linalg::reference_svd(batch[i].cast<double>());
    std::vector<double> sigma(out.results[i].sigma.begin(),
                              out.results[i].sigma.end());
    EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-4) << i;
  }
}

TEST(Facade, DeriveVRecoversRightFactor) {
  Rng rng(606);
  auto ad = linalg::matrix_with_spectrum(10, 6,
                                         linalg::geometric_spectrum(6, 10.0),
                                         rng);
  auto ref = linalg::reference_svd(ad);
  linalg::MatrixF u = ref.u.cast<float>();
  std::vector<float> sigma(ref.sigma.begin(), ref.sigma.end());
  linalg::MatrixF v = derive_v(ad.cast<float>(), u, sigma);
  EXPECT_LT(linalg::orthogonality_error(v.cast<double>()), 1e-3);
  // Matches the reference V up to column signs.
  for (std::size_t t = 0; t < 6; ++t) {
    double dot = 0;
    for (std::size_t j = 0; j < 6; ++j)
      dot += static_cast<double>(v(j, t)) * ref.v(j, t);
    EXPECT_NEAR(std::fabs(dot), 1.0, 1e-4) << "column " << t;
  }
}

TEST(Facade, CleanRunsReportOkRobustnessFields) {
  std::vector<linalg::MatrixF> batch = {random_matrix(12, 8, 650),
                                        random_matrix(12, 8, 651)};
  BatchSvd out = svd_batch(batch);
  EXPECT_EQ(out.failed_tasks, 0);
  EXPECT_EQ(out.recovery_runs, 0);
  for (const auto& r : out.results) {
    EXPECT_EQ(r.status, SvdStatus::kOk);
    EXPECT_TRUE(r.converged);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.message.empty());
    EXPECT_EQ(r.recovery_attempts, 0);
  }
}

TEST(Facade, DeriveVLeavesZeroSigmaColumnsZero) {
  auto a = random_matrix(6, 4, 607);
  linalg::MatrixF u(6, 2);
  u(0, 0) = 1;
  u(1, 1) = 1;
  std::vector<float> sigma = {2.0f, 0.0f};
  auto v = derive_v(a, u, sigma);
  for (std::size_t j = 0; j < 4; ++j) EXPECT_FLOAT_EQ(v(j, 1), 0.0f);
}

}  // namespace
}  // namespace hsvd
