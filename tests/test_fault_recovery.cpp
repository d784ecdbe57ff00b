// End-to-end fault tests: injected faults are detected at the dataflow
// boundaries, failed tasks are isolated, recovery masks the faulty tile
// and re-places, and everything is deterministic across host thread
// counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include "accel/accelerator.hpp"
#include "accel/campaign.hpp"
#include "accel/placement.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"

namespace hsvd::accel {
namespace {

HeteroSvdConfig small_config() {
  HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;   // 7 orth-layers -> two bands: inter-band DMA exists
  cfg.p_task = 2;
  cfg.iterations = 3;
  return cfg;
}

std::vector<linalg::MatrixF> small_batch(int n, std::uint64_t seed) {
  std::vector<linalg::MatrixF> batch;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    batch.push_back(linalg::random_gaussian(24, 16, rng).cast<float>());
  }
  return batch;
}

bool same_matrix(const linalg::MatrixF& a, const linalg::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size_bytes()) == 0;
}

TEST(FaultRecovery, HungTileIsMaskedAndTheBatchRecovers) {
  const auto cfg = small_config();
  const auto batch = small_batch(4, 900);

  HeteroSvdAccelerator acc(cfg);
  const versal::TileCoord bad = acc.placement().tasks[0].orth.front()[1];
  versal::FaultPlan plan;
  plan.faults.push_back(
      {versal::FaultKind::kTileHang, bad, 0, 0, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  acc.attach_faults(&injector);

  const RunResult run = acc.run(batch);
  EXPECT_EQ(run.failed_tasks, 0);
  EXPECT_EQ(run.recovery_runs, 1);
  ASSERT_EQ(acc.masked_tiles().size(), 1u);
  EXPECT_EQ(acc.masked_tiles().front(), bad);
  // The re-placed floorplan never assigns work to the masked tile.
  const auto tiles = used_tiles(acc.placement());
  EXPECT_TRUE(std::none_of(tiles.begin(), tiles.end(),
                           [&](const versal::TileCoord& t) { return t == bad; }));
  // Slot-0 tasks (0 and 2) went through recovery; slot-1 tasks did not.
  EXPECT_GT(run.tasks[0].recovery_attempts, 0);
  EXPECT_GT(run.tasks[2].recovery_attempts, 0);
  EXPECT_EQ(run.tasks[1].recovery_attempts, 0);
  EXPECT_EQ(run.tasks[3].recovery_attempts, 0);
  for (const auto& task : run.tasks) {
    EXPECT_EQ(task.status, hsvd::SvdStatus::kOk);
    EXPECT_FALSE(task.u.empty());
  }
  // Recovered work is appended to the simulated timeline.
  EXPECT_GT(run.tasks[0].start_seconds, run.tasks[1].start_seconds);
}

TEST(FaultRecovery, WithoutRetriesFailuresAreIsolatedBitExactly) {
  const auto cfg = small_config();
  const auto batch = small_batch(4, 901);

  HeteroSvdAccelerator reference(cfg);
  const RunResult clean = reference.run(batch);

  HeteroSvdConfig no_retry = cfg;
  no_retry.fault_retries = 0;
  HeteroSvdAccelerator acc(no_retry);
  const versal::TileCoord bad = acc.placement().tasks[0].orth.front()[0];
  versal::FaultPlan plan;
  plan.faults.push_back(
      {versal::FaultKind::kTileHang, bad, 0, 0, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  acc.attach_faults(&injector);

  const RunResult run = acc.run(batch);
  // Slot 0 owns tasks 0 and 2; the sticky hang fails both.
  EXPECT_EQ(run.failed_tasks, 2);
  EXPECT_EQ(run.recovery_runs, 0);
  for (int t : {0, 2}) {
    const auto& task = run.tasks[static_cast<std::size_t>(t)];
    EXPECT_EQ(task.status, hsvd::SvdStatus::kFailed);
    EXPECT_FALSE(task.ok());
    EXPECT_FALSE(task.message.empty());
    ASSERT_TRUE(task.fault_tile.has_value());
    EXPECT_EQ(*task.fault_tile, bad);
    EXPECT_TRUE(task.u.empty());
  }
  // Healthy tasks complete bit-identical to the fault-free run.
  for (int t : {1, 3}) {
    const auto& task = run.tasks[static_cast<std::size_t>(t)];
    const auto& ref = clean.tasks[static_cast<std::size_t>(t)];
    EXPECT_EQ(task.status, hsvd::SvdStatus::kOk);
    EXPECT_TRUE(same_matrix(task.u, ref.u));
    EXPECT_EQ(task.sigma, ref.sigma);
    EXPECT_EQ(task.iterations, ref.iterations);
  }
}

TEST(FaultRecovery, RecoveredHangIsBitIdenticalToTheFaultFreeRun) {
  // The hang fires on the tile's ninth kernel -- the second sweep, with
  // the task half done. The batch engine must purge the task's buffers,
  // mask the tile, re-place and re-run, and the recovered factors must
  // match the fault-free run bit for bit: the block structure and the
  // rotation order do not depend on which tiles host them.
  HeteroSvdConfig cfg = small_config();
  cfg.p_task = 1;
  const auto batch = small_batch(1, 907);

  HeteroSvdAccelerator clean(cfg);
  const RunResult baseline = clean.run(batch);

  HeteroSvdAccelerator acc(cfg);
  const versal::TileCoord bad = acc.placement().tasks[0].orth.front()[1];
  versal::FaultPlan plan;
  plan.faults.push_back(
      {versal::FaultKind::kTileHang, bad, 0, 8, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  acc.attach_faults(&injector);

  const RunResult recovered = acc.run(batch);
  EXPECT_EQ(injector.event_count(), 1u);
  ASSERT_EQ(recovered.failed_tasks, 0);
  EXPECT_EQ(recovered.tasks[0].recovery_attempts, 1);
  EXPECT_TRUE(same_matrix(recovered.tasks[0].u, baseline.tasks[0].u));
  EXPECT_EQ(recovered.tasks[0].sigma, baseline.tasks[0].sigma);
  EXPECT_EQ(recovered.tasks[0].iterations, baseline.tasks[0].iterations);
}

TEST(FaultRecovery, NonFiniteInputIsDiagnosedBeforeTheWalk) {
  // The facade rejects non-finite input, but the accelerator itself must
  // still catch it: an Inf element makes its column's squared norm Inf,
  // so the first pair that visits the column has a non-finite coherence.
  // The host data plane diagnoses it before the fabric walk and names
  // that pair and the sweep. The cause is the data, so no tile is
  // attributed, no recovery round is spent and no fabric time is used.
  HeteroSvdConfig cfg = small_config();
  cfg.p_task = 1;
  ASSERT_GT(cfg.fault_retries, 0);
  auto batch = small_batch(1, 908);
  batch[0](3, 2) = std::numeric_limits<float>::infinity();

  HeteroSvdAccelerator acc(cfg);
  const RunResult run = acc.run(batch);
  ASSERT_EQ(run.failed_tasks, 1);
  const TaskResult& task = run.tasks[0];
  EXPECT_EQ(task.status, hsvd::SvdStatus::kFailed);
  EXPECT_TRUE(task.u.empty());
  EXPECT_FALSE(task.fault_tile.has_value());
  EXPECT_EQ(run.recovery_runs, 0);
  EXPECT_TRUE(acc.masked_tiles().empty());
  EXPECT_EQ(run.stats.kernel_invocations, 0u);
  const auto& visits = acc.pair_sequence().sweep(0);
  const auto first =
      std::find_if(visits.begin(), visits.end(), [](const auto& pair) {
        return pair.left == 2 || pair.right == 2;
      });
  ASSERT_NE(first, visits.end());
  EXPECT_NE(task.message.find(cat("non-finite coherence for column pair (",
                                  first->left, ", ", first->right,
                                  ") in sweep 1")),
            std::string::npos)
      << task.message;
}

TEST(FaultRecovery, Fp32OverflowFailsWithoutMaskingHealthyTiles) {
  // Column 0 scaled by 1e20 overflows fp32 in the Gram entries: the
  // orth kernel's coherence is non-finite. That is the data, not a
  // tile, so the default recovery budget must not mask anything, and
  // the accelerator must stay as healthy as a fresh one.
  HeteroSvdConfig cfg;
  cfg.rows = 32;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 3;
  ASSERT_GT(cfg.fault_retries, 0);
  Rng rng(909);
  std::vector<linalg::MatrixF> overflow{
      linalg::random_gaussian(32, 16, rng).cast<float>()};
  for (std::size_t r = 0; r < 32; ++r) overflow[0](r, 0) *= 1e20f;

  HeteroSvdAccelerator acc(cfg);
  const RunResult failed = acc.run(overflow);
  ASSERT_EQ(failed.failed_tasks, 1);
  EXPECT_EQ(failed.tasks[0].status, hsvd::SvdStatus::kFailed);
  EXPECT_EQ(failed.recovery_runs, 0);
  EXPECT_TRUE(acc.masked_tiles().empty());
  EXPECT_NE(failed.tasks[0].message.find("non-finite"), std::string::npos)
      << failed.tasks[0].message;

  const std::vector<linalg::MatrixF> healthy{
      linalg::random_gaussian(32, 16, rng).cast<float>()};
  const RunResult after = acc.run(healthy);
  HeteroSvdAccelerator fresh(cfg);
  const RunResult baseline = fresh.run(healthy);
  ASSERT_EQ(after.failed_tasks, 0);
  EXPECT_TRUE(same_matrix(after.tasks[0].u, baseline.tasks[0].u));
  EXPECT_EQ(after.tasks[0].sigma, baseline.tasks[0].sigma);
  EXPECT_EQ(after.tasks[0].iterations, baseline.tasks[0].iterations);
  EXPECT_EQ(after.batch_seconds, baseline.batch_seconds);
}

TEST(FaultRecovery, ChecksumCatchesInFabricBitFlip) {
  const auto cfg = small_config();
  const auto batch = small_batch(2, 902);

  HeteroSvdConfig no_retry = cfg;
  no_retry.fault_retries = 0;
  HeteroSvdAccelerator acc(no_retry);
  const versal::TileCoord bad = acc.placement().tasks[1].orth.front()[2];
  versal::FaultPlan plan;
  plan.seed = 31;
  plan.faults.push_back(
      {versal::FaultKind::kMemoryBitFlip, bad, 0, 1, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  acc.attach_faults(&injector);

  const RunResult run = acc.run(batch);
  EXPECT_EQ(injector.event_count(), 1u);
  EXPECT_EQ(run.failed_tasks, 1);
  EXPECT_EQ(run.tasks[1].status, hsvd::SvdStatus::kFailed);
  EXPECT_NE(run.tasks[1].message.find("checksum"), std::string::npos);
  EXPECT_EQ(run.tasks[0].status, hsvd::SvdStatus::kOk);
}

TEST(FaultRecovery, DroppedDmaShadowIsDetected) {
  const auto cfg = small_config();
  const auto batch = small_batch(2, 903);

  HeteroSvdConfig no_retry = cfg;
  no_retry.fault_retries = 0;
  HeteroSvdAccelerator acc(no_retry);
  // DMA faults target the source tile of an inter-band move.
  versal::TileCoord src{-1, -1};
  for (const auto& tr : acc.dataflow(0).transitions) {
    for (const auto& mv : tr.moves) {
      if (mv.is_dma) {
        src = mv.src;
        break;
      }
    }
    if (src.row >= 0) break;
  }
  ASSERT_GE(src.row, 0) << "two-band placement must have inter-band DMA";
  versal::FaultPlan plan;
  plan.faults.push_back(
      {versal::FaultKind::kDmaDrop, src, 0, 0, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  acc.attach_faults(&injector);

  const RunResult run = acc.run(batch);
  EXPECT_EQ(run.failed_tasks, 1);
  EXPECT_EQ(run.tasks[0].status, hsvd::SvdStatus::kFailed);
  EXPECT_NE(run.tasks[0].message.find("DMA"), std::string::npos);
}

TEST(FaultRecovery, OutcomesAreThreadCountInvariant) {
  const auto cfg = small_config();
  const auto batch = small_batch(6, 904);

  const auto run_with_threads = [&](int threads) {
    HeteroSvdConfig c = cfg;
    c.host_threads = threads;
    HeteroSvdAccelerator acc(c);
    const versal::TileCoord bad = acc.placement().tasks[1].orth.front()[0];
    versal::FaultPlan plan;
    plan.seed = 5;
    plan.faults.push_back(
        {versal::FaultKind::kTileHang, bad, 0, 2, 0.0, 1.0});
    plan.faults.push_back({versal::FaultKind::kStreamDrop,
                           acc.placement().tasks[0].orth.front()[3], 0, 5,
                           0.0, 1.0});
    versal::FaultInjector injector(plan);
    acc.attach_faults(&injector);
    RunResult run = acc.run(batch);
    return std::make_pair(std::move(run), injector.event_count());
  };

  const auto [sequential, seq_events] = run_with_threads(1);
  const auto [parallel, par_events] = run_with_threads(4);
  EXPECT_EQ(seq_events, par_events);
  ASSERT_EQ(sequential.tasks.size(), parallel.tasks.size());
  for (std::size_t t = 0; t < sequential.tasks.size(); ++t) {
    const auto& s = sequential.tasks[t];
    const auto& p = parallel.tasks[t];
    EXPECT_EQ(s.status, p.status) << "task " << t;
    EXPECT_EQ(s.recovery_attempts, p.recovery_attempts) << "task " << t;
    EXPECT_TRUE(same_matrix(s.u, p.u)) << "task " << t;
    EXPECT_EQ(s.sigma, p.sigma) << "task " << t;
    EXPECT_DOUBLE_EQ(s.end_seconds, p.end_seconds) << "task " << t;
  }
  EXPECT_EQ(sequential.failed_tasks, parallel.failed_tasks);
  EXPECT_EQ(sequential.recovery_runs, parallel.recovery_runs);
}

TEST(FaultRecovery, CampaignSweepIsCleanAndRendersCsv) {
  CampaignOptions options;
  options.trials_per_kind = 1;
  options.batch = 2;
  options.seed = 17;
  const auto outcomes = run_campaign(options);
  EXPECT_EQ(outcomes.size(), 8u);  // one trial per fault kind
  EXPECT_TRUE(campaign_clean(outcomes));
  const std::string csv = campaign_csv(outcomes);
  EXPECT_NE(csv.find("kind,plan_seed"), std::string::npos);
  EXPECT_NE(csv.find("tile-hang"), std::string::npos);
  EXPECT_NE(csv.find("plio-degrade"), std::string::npos);
  // The silent-error kind rides in the default sweep, scored by the
  // attestation layer instead of the dataflow detectors.
  EXPECT_NE(csv.find("silent-error"), std::string::npos);
  EXPECT_NE(csv.find("verify_caught"), std::string::npos);
  bool saw_silent = false;
  for (const auto& out : outcomes) {
    if (out.kind != versal::FaultKind::kSilentError) continue;
    saw_silent = true;
    EXPECT_EQ(out.silent_escapes, 0);
    EXPECT_GT(out.verify_caught, 0);
  }
  EXPECT_TRUE(saw_silent);
}

// --- facade-level behaviour ---------------------------------------------

TEST(FaultRecovery, FacadeSvdThrowsWhenRecoveryIsExhausted) {
  Rng rng(905);
  const auto a = linalg::random_gaussian(12, 8, rng).cast<float>();
  accel::HeteroSvdConfig cfg;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  const auto placed = try_place(cfg);
  ASSERT_TRUE(placed.has_value());
  versal::FaultPlan plan;
  plan.faults.push_back({versal::FaultKind::kTileHang,
                         placed->tasks[0].orth.front()[0], 0, 0, 0.0, 1.0});
  versal::FaultInjector injector(plan);

  SvdOptions options;
  options.config = cfg;
  options.want_v = false;
  options.fault_injector = &injector;
  options.fault_retries = 0;
  EXPECT_THROW(svd(a, options), FaultDetected);
}

TEST(FaultRecovery, FacadeBatchRecoversAndReportsAttempts) {
  Rng rng(906);
  std::vector<linalg::MatrixF> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(linalg::random_gaussian(12, 8, rng).cast<float>());
  }
  accel::HeteroSvdConfig cfg;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  const auto placed = try_place(cfg);
  ASSERT_TRUE(placed.has_value());
  versal::FaultPlan plan;
  plan.faults.push_back({versal::FaultKind::kTileHang,
                         placed->tasks[0].orth.front()[1], 0, 0, 0.0, 1.0});
  versal::FaultInjector injector(plan);

  SvdOptions options;
  options.config = cfg;
  options.fault_injector = &injector;
  const BatchSvd out = svd_batch(batch, options);
  EXPECT_EQ(out.failed_tasks, 0);
  EXPECT_EQ(out.recovery_runs, 1);
  for (const auto& r : out.results) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.recovery_attempts, 1);
    EXPECT_FALSE(r.u.empty());
    EXPECT_FALSE(r.v.empty());  // want_v survives recovery
  }
}

}  // namespace
}  // namespace hsvd::accel
