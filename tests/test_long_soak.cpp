// LONG-labelled soak tests: slower campaigns that extend the default
// suite's coverage in wall-clock terms the tier-1 run cannot afford.
// Built only with -DHSVD_ENABLE_LONG_TESTS=ON and run via
// `ctest -L LONG`; see tests/CMakeLists.txt.
//
// Three campaigns:
//   - a multi-seed differential fuzz over the sharded engine (larger
//     shapes than tests/test_differential.cpp, fresh seeds per run of
//     the clock-independent kind: a fixed base seed fanned per case),
//   - a sharded fault campaign over a whole batch, with faults raised
//     on different shards across tasks,
//   - the strong-scaling crossover of bench_scaling, asserted on the
//     cycle-approximate simulator rather than the closed-form model.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/sharded.hpp"
#include "case_matrix.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "dse/frequency_model.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "linalg/metrics.hpp"
#include "linalg/reference_svd.hpp"
#include "scenarios/update.hpp"
#include "versal/faults.hpp"

namespace hsvd {
namespace {

bool same_bits(const linalg::MatrixF& a, const linalg::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size_bytes()) == 0;
}

accel::HeteroSvdConfig soak_config(std::size_t rows, std::size_t cols) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 8;
  return cfg;
}

// Multi-seed differential fuzz on shapes larger than the default-suite
// harness: for every seed, the sharded engine at S in {2, 4} must agree
// bit-for-bit with the serial single-shard run, and the factors must
// stay within float tolerance of the double-precision reference.
TEST(LongSoak, DifferentialFuzzAcrossSeedsAndShards) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(0xD1FFull * seed);
    const std::size_t cols = 48 + 16 * static_cast<std::size_t>(rng.below(4));
    const std::size_t rows = cols + 16 * static_cast<std::size_t>(rng.below(3));
    const linalg::MatrixD ad = linalg::random_gaussian(rows, cols, rng);
    const linalg::MatrixF a = ad.cast<float>();
    SCOPED_TRACE(cat("seed=", seed, " shape=", rows, "x", cols));

    SvdOptions opts;
    opts.config = soak_config(rows, cols);
    opts.threads = 1;
    const Svd base = svd(a, opts);
    ASSERT_EQ(base.status, SvdStatus::kOk);

    const linalg::SvdResult ref = linalg::reference_svd(ad);
    std::vector<double> sigma(base.sigma.begin(), base.sigma.end());
    EXPECT_LT(linalg::spectrum_distance(sigma, ref.sigma), 1e-3);
    EXPECT_LT(linalg::orthogonality_error(base.u.cast<double>()), 1e-3);
    EXPECT_LT(linalg::reconstruction_error(ad, base.u.cast<double>(), sigma,
                                           base.v.cast<double>()),
              1e-4);

    for (int s : {2, 4}) {
      SvdOptions sharded = opts;
      sharded.shards = s;
      const Svd r = svd(a, sharded);
      EXPECT_TRUE(same_bits(base.u, r.u)) << "shards=" << s;
      EXPECT_TRUE(same_bits(base.v, r.v)) << "shards=" << s;
      EXPECT_EQ(base.iterations, r.iterations) << "shards=" << s;
    }
  }
}

// A 12-task batch on 2 shards with hangs injected into both arrays on
// different tasks: every task must recover and the whole batch must be
// bit-identical to a fault-free sharded run.
TEST(LongSoak, ShardedBatchFaultCampaignRecoversEveryTask) {
  const accel::HeteroSvdConfig cfg = soak_config(64, 48);
  Rng rng(77);
  std::vector<linalg::MatrixF> batch;
  for (int i = 0; i < 12; ++i) {
    batch.push_back(linalg::random_gaussian(64, 48, rng).cast<float>());
  }

  SvdOptions opts;
  opts.config = cfg;
  opts.threads = 1;
  opts.shards = 2;
  opts.fault_retries = 3;
  const BatchSvd clean = svd_batch(batch, opts);
  for (const Svd& r : clean.results) ASSERT_EQ(r.status, SvdStatus::kOk);

  accel::HeteroSvdAccelerator probe(cfg);
  const auto& orth = probe.placement().tasks[0].orth;
  versal::FaultPlan plan;
  // One hang early in the batch and one later, on different engine
  // groups, so recovery has to mask two distinct tiles.
  plan.faults.push_back(
      {versal::FaultKind::kTileHang, orth.front()[1], 0, 2, 0.0, 1.0});
  plan.faults.push_back(
      {versal::FaultKind::kTileHang, orth.back()[0], 0, 700, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  SvdOptions faulted = opts;
  faulted.fault_injector = &injector;
  const BatchSvd out = svd_batch(batch, faulted);

  ASSERT_EQ(out.results.size(), clean.results.size());
  EXPECT_EQ(out.failed_tasks, 0);
  EXPECT_GE(out.recovery_runs, 1);
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    SCOPED_TRACE(cat("task ", i));
    EXPECT_EQ(out.results[i].status, SvdStatus::kOk);
    EXPECT_TRUE(same_bits(clean.results[i].u, out.results[i].u));
    EXPECT_TRUE(same_bits(clean.results[i].v, out.results[i].v));
  }
}

// Multi-seed scenario fuzz over the full generated case grid: for every
// seed, every case in a widened case-matrix sweep (both conditions up
// to 1e6 and rank-deficient corners) runs through the engaged
// front-ends -- tall-skinny whenever the ratio allows it, truncated
// top-k on every case, and a short rank-1 update chain -- each held to
// the reference bounds of the default-suite harness.
TEST(LongSoak, ScenarioFuzzAcrossSeedsOverTheCaseGrid) {
  testing::CaseAxes axes;
  axes.cols = {16, 32};
  axes.ratios = {1, 8, 64};
  axes.conditions = {1e2, 1e6};
  axes.deficiencies = {0, 4};
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const testing::CaseSpec& spec : testing::case_matrix(axes, seed)) {
      SCOPED_TRACE(cat("seed=", seed, " case=", spec.name()));
      const linalg::MatrixD ad = testing::generate_case(spec);
      const linalg::MatrixF a = ad.cast<float>();
      const linalg::SvdResult ref = linalg::reference_svd(ad);
      SvdOptions opts;
      opts.threads = 1;
      // Pin the accelerator shape (rows/cols re-derived per call): the
      // DSE's latency-tuned sweep budget is too small for the
      // rank-deficient corners, while the pinned path raises the
      // precision-mode cap exactly like the default-suite harness.
      accel::HeteroSvdConfig cfg;
      cfg.p_eng = 4;
      cfg.p_task = 1;
      cfg.iterations = 6;
      opts.config = cfg;

      // Tall-skinny pre-reduction wherever rows admit it.
      if (spec.ratio >= 8) {
        SvdOptions ts = opts;
        ts.scenario = scenarios::Scenario::kTallSkinny;
        const Svd r = svd(a, ts);
        EXPECT_EQ(r.scenario, "tall-skinny");
        ASSERT_EQ(r.sigma.size(), spec.cols);
        const double scale = ref.sigma[0];
        for (std::size_t i = 0; i < spec.cols; ++i) {
          EXPECT_NEAR(r.sigma[i], ref.sigma[i], 1e-4 * scale);
        }
        std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
        EXPECT_LT(linalg::reconstruction_error(ad, r.u.cast<double>(), sigma,
                                               r.v.cast<double>()),
                  1e-4);
      }

      // Truncated top-k on every case (k below any deficient tail).
      {
        const std::size_t k = 4;
        SvdOptions tk = opts;
        tk.top_k = k;
        const Svd r = svd(a, tk);
        EXPECT_EQ(r.scenario, "truncated");
        ASSERT_EQ(r.sigma.size(), k);
        for (std::size_t i = 0; i < k; ++i) {
          EXPECT_NEAR(r.sigma[i], ref.sigma[i], 1e-3 * ref.sigma[0]);
        }
        std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
        EXPECT_LE(linalg::reconstruction_error(ad, r.u.cast<double>(), sigma,
                                               r.v.cast<double>()),
                  r.scenario_bound);
      }

      // A short update chain on the well-conditioned square cases (the
      // update core needs the full square V, and Brand updates carry an
      // accuracy contract only while every V column is well-determined
      // in fp32 -- at condition 1e6 the trailing columns of the initial
      // decomposition's V are derive_v noise, which the update core
      // would treat as an orthonormal basis).
      if (spec.ratio == 1 && spec.deficiency == 0 && spec.condition <= 1e3) {
        scenarios::StreamingSvd stream(a, opts);
        Rng urng(spec.mixed_seed() ^ 0xfeedULL);
        linalg::MatrixD accum = ad;
        for (int step = 0; step < 2; ++step) {
          const linalg::MatrixD ud =
              linalg::random_gaussian(spec.rows(), 1, urng);
          const linalg::MatrixD vd = linalg::random_gaussian(spec.cols, 1, urng);
          std::vector<float> uf(spec.rows()), vf(spec.cols);
          for (std::size_t r = 0; r < spec.rows(); ++r) {
            uf[r] = static_cast<float>(0.1 * ud(r, 0));
          }
          for (std::size_t c = 0; c < spec.cols; ++c) {
            vf[c] = static_cast<float>(vd(c, 0));
          }
          stream.apply(uf, vf);
          for (std::size_t c = 0; c < spec.cols; ++c) {
            for (std::size_t r = 0; r < spec.rows(); ++r) {
              accum(r, c) += 0.1 * ud(r, 0) * vd(c, 0);
            }
          }
        }
        const Svd r = stream.current();
        const linalg::SvdResult uref = linalg::reference_svd(accum);
        ASSERT_EQ(r.sigma.size(), spec.cols);
        for (std::size_t i = 0; i < spec.cols; ++i) {
          EXPECT_NEAR(r.sigma[i], uref.sigma[i], 1e-3 * uref.sigma[0]);
        }
        std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
        EXPECT_LT(linalg::reconstruction_error(accum, r.u.cast<double>(),
                                               sigma, r.v.cast<double>()),
                  1e-3);
      }
    }
  }
}

// The strong-scaling crossover, on the simulator: at n = 256 the
// inter-shard edge makes S = 8 slower than one array, while at n = 512
// the saved PLIO round streaming outweighs it (EXPERIMENTS.md E-scale).
TEST(LongSoak, StrongScalingCrossoverOnTheSimulator) {
  const auto simulate = [](std::size_t n, int shards) {
    accel::HeteroSvdConfig cfg;
    cfg.rows = cfg.cols = n;
    cfg.p_eng = 8;
    cfg.p_task = 1;
    cfg.iterations = 7 + static_cast<int>(n) / 256;
    cfg.pl_frequency_hz = dse::FrequencyModel{}.max_frequency_hz(n, 1);
    accel::ShardedAccelerator acc(cfg, shards);
    return acc.estimate(1).task_seconds;
  };
  EXPECT_GT(simulate(256, 8), simulate(256, 1));
  EXPECT_LT(simulate(512, 8), simulate(512, 1));
}

}  // namespace
}  // namespace hsvd
