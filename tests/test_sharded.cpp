// Multi-array sharding engine tests (DESIGN.md section 11): the block
// ring distribution, the inter-shard edge pricing, bit-identity of the
// sharded factors against the single-array path, merged reporting,
// fault recovery across shards, and the DSE's multi-array points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "accel/accelerator.hpp"
#include "accel/sharded.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dse/explorer.hpp"
#include "heterosvd.hpp"
#include "jacobi/block.hpp"
#include "jacobi/movement.hpp"
#include "jacobi/ordering.hpp"
#include "linalg/generators.hpp"
#include "perfmodel/perf_model.hpp"
#include "shard/merge.hpp"
#include "shard/model.hpp"
#include "shard/topology.hpp"

namespace hsvd {
namespace {

accel::HeteroSvdConfig sharded_config(std::size_t rows, std::size_t cols,
                                      int p_eng) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.p_eng = p_eng;
  cfg.p_task = 1;
  cfg.iterations = 4;
  return cfg;
}

std::vector<linalg::MatrixF> gaussian_batch(std::size_t rows, std::size_t cols,
                                            int n, std::uint64_t seed) {
  std::vector<linalg::MatrixF> batch;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    batch.push_back(linalg::random_gaussian(rows, cols, rng).cast<float>());
  }
  return batch;
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

// ---- Block ring schedule -------------------------------------------------

// The padded block tournament is a valid round-robin: disjoint pairs in
// every round, and every block pair covered exactly once per sweep.
TEST(BlockRingSchedule, IsAValidTournament) {
  for (int blocks : {2, 3, 4, 5, 8, 10}) {
    const auto schedule = jacobi::block_ring_schedule(blocks);
    const int p = blocks % 2 == 0 ? blocks : blocks + 1;
    EXPECT_EQ(schedule.size(), static_cast<std::size_t>(p - 1));
    std::set<std::pair<int, int>> seen;
    for (const auto& round : schedule) {
      EXPECT_EQ(round.size(), static_cast<std::size_t>(p / 2));
      std::set<int> in_round;
      for (const auto& pair : round) {
        EXPECT_TRUE(in_round.insert(pair.left).second);
        EXPECT_TRUE(in_round.insert(pair.right).second);
        auto key = std::minmax(pair.left, pair.right);
        EXPECT_TRUE(seen.insert({key.first, key.second}).second);
      }
    }
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(p * (p - 1) / 2));
  }
}

// The sharded engine's round sequence must be the single-array engine's
// round sequence (same pair sets, round by round): rotations across
// rounds do not commute, so this is what makes sharded factors
// bit-identical to the single-array path.
TEST(BlockRingSchedule, MatchesSingleArrayBlockRounds) {
  for (int blocks : {2, 3, 4, 5, 8, 9}) {
    const auto ring = jacobi::block_ring_schedule(blocks);
    const auto rounds = jacobi::block_pair_rounds(blocks);
    ASSERT_EQ(ring.size(), rounds.size()) << "blocks=" << blocks;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      std::set<std::pair<int, int>> ring_pairs;
      for (const auto& pair : ring[r]) {
        if (pair.left >= blocks || pair.right >= blocks) continue;  // bye
        auto key = std::minmax(pair.left, pair.right);
        ring_pairs.insert({key.first, key.second});
      }
      std::set<std::pair<int, int>> round_pairs;
      for (const auto& [u, v] : rounds[r]) {
        auto key = std::minmax(u, v);
        round_pairs.insert({key.first, key.second});
      }
      EXPECT_EQ(ring_pairs, round_pairs) << "blocks=" << blocks << " r=" << r;
    }
  }
}

TEST(ShardTopology, SlotAssignmentIsBlockCyclic) {
  for (int shards : {1, 2, 3, 4}) {
    for (int slot = 0; slot < 12; ++slot) {
      EXPECT_EQ(jacobi::shard_of_slot(slot, shards), slot % shards);
      EXPECT_EQ(shard::home_shard(slot, shards), slot % shards);
    }
  }
}

TEST(ShardTopology, SingleShardHasNoInterShardMoves) {
  for (int blocks : {2, 4, 8, 9}) {
    EXPECT_EQ(shard::inter_shard_block_moves_per_sweep(blocks, 1), 0);
  }
  EXPECT_GT(shard::inter_shard_block_moves_per_sweep(8, 2), 0);
  EXPECT_GT(shard::inter_shard_block_moves_per_sweep(8, 4), 0);
}

TEST(ShardTopology, ShardedMovesAnnotateCrossings) {
  const auto schedule = jacobi::block_ring_schedule(8);
  const int shards = 2;
  int crossings = 0;
  for (std::size_t r = 0; r < schedule.size(); ++r) {
    const std::size_t r_next = (r + 1) % schedule.size();
    for (const auto& mv : jacobi::sharded_moves_between(
             schedule, static_cast<int>(r), static_cast<int>(r_next), shards)) {
      EXPECT_GE(mv.from_shard, 0);
      EXPECT_LT(mv.from_shard, shards);
      EXPECT_GE(mv.to_shard, 0);
      EXPECT_LT(mv.to_shard, shards);
      if (mv.crosses_shards()) ++crossings;
    }
  }
  EXPECT_EQ(crossings, shard::inter_shard_block_moves_per_sweep(8, shards));
}

// ---- Inter-shard link pricing -------------------------------------------

TEST(InterShardLink, HopCostsEgressNocAndIngress) {
  const auto dev = versal::vck190();
  const double bytes = 64 * 1024.0;
  const double hop = shard::InterShardLink::hop_seconds(dev, 230e6, bytes);
  // The hop must cost at least each leg on its own: AIE->PL egress,
  // the NoC/DDR traversal, and the PL->AIE ingress.
  EXPECT_GT(hop, bytes / dev.plio_aie_to_pl_bytes_per_s);
  EXPECT_GT(hop, bytes / dev.ddr_bytes_per_s + dev.ddr_latency_s);
  EXPECT_GT(hop, bytes / dev.plio_pl_to_aie_bytes_per_s);
  EXPECT_LT(hop, 1.0);  // and stay physical
}

TEST(InterShardLink, TransfersSerializeOnTheEdge) {
  const auto dev = versal::vck190();
  shard::InterShardLink link(2, dev, 230e6);
  const double bytes = 4096.0;
  const double first = link.transfer(0, 1, 0.0, bytes);
  EXPECT_GT(first, 0.0);
  // A second transfer on the same edge queues behind the first.
  const double second = link.transfer(0, 1, 0.0, bytes);
  EXPECT_GT(second, first);
  EXPECT_EQ(link.transfers(), 2u);
  EXPECT_EQ(link.bytes_moved(), static_cast<std::uint64_t>(2 * bytes));
  // reset_time clears the queues: the same transfer prices identically.
  link.reset_time();
  EXPECT_EQ(link.transfer(0, 1, 0.0, bytes), first);
}

// ---- Sharded execution: bit-identity ------------------------------------

// S = 1 is the degenerate ring: the whole RunResult -- factors,
// timings, counters -- is bit-identical to the default single-array
// construction.
TEST(ShardedAccelerator, SingleShardIsBitIdenticalToSingleArray) {
  const auto cfg = sharded_config(48, 32, 4);
  const auto batch = gaussian_batch(48, 32, 3, 77);

  accel::HeteroSvdAccelerator plain(cfg);
  const accel::RunResult a = plain.run(batch);
  accel::ShardedAccelerator sharded(cfg, 1);
  const accel::RunResult b = sharded.run(batch);

  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  EXPECT_EQ(a.batch_seconds, b.batch_seconds);
  EXPECT_EQ(a.task_seconds, b.task_seconds);
  EXPECT_EQ(a.throughput_tasks_per_s, b.throughput_tasks_per_s);
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_TRUE(same_bits(a.tasks[i].u, b.tasks[i].u));
    EXPECT_TRUE(same_bits(a.tasks[i].sigma, b.tasks[i].sigma));
    EXPECT_EQ(a.tasks[i].start_seconds, b.tasks[i].start_seconds);
    EXPECT_EQ(a.tasks[i].end_seconds, b.tasks[i].end_seconds);
    EXPECT_EQ(a.tasks[i].iterations, b.tasks[i].iterations);
  }
  EXPECT_EQ(a.stats.dma_bytes, b.stats.dma_bytes);
  EXPECT_EQ(a.stats.stream_bytes, b.stats.stream_bytes);
  EXPECT_EQ(a.stats.kernel_invocations, b.stats.kernel_invocations);
}

// S > 1 distributes the tournament but never reorders arithmetic within
// a round (pairs are disjoint), so U and sigma stay bit-identical to
// the single-array run; only the simulated timeline changes.
TEST(ShardedAccelerator, FactorsBitIdenticalForEveryShardCount) {
  const auto cfg = sharded_config(48, 32, 4);  // 4 blocks
  const auto batch = gaussian_batch(48, 32, 2, 1234);

  accel::HeteroSvdAccelerator plain(cfg);
  const accel::RunResult base = plain.run(batch);
  for (int s : {2, 4}) {
    accel::ShardedAccelerator sharded(cfg, s);
    const accel::RunResult run = sharded.run(batch);
    ASSERT_EQ(run.tasks.size(), base.tasks.size()) << "S=" << s;
    for (std::size_t i = 0; i < base.tasks.size(); ++i) {
      EXPECT_TRUE(same_bits(base.tasks[i].u, run.tasks[i].u))
          << "S=" << s << " task " << i;
      EXPECT_TRUE(same_bits(base.tasks[i].sigma, run.tasks[i].sigma))
          << "S=" << s << " task " << i;
      EXPECT_EQ(base.tasks[i].iterations, run.tasks[i].iterations);
    }
    // The inter-shard edge showed up in the timeline.
    ASSERT_NE(sharded.link(), nullptr);
    EXPECT_GT(sharded.link()->transfers(), 0u);
  }
}

// Convergence decisions survive the distribution: a precision-mode run
// terminates after the same number of sweeps for every shard count
// (per-shard coherence maxima merge into the single-array maximum).
TEST(ShardedAccelerator, PrecisionModeConvergesIdentically) {
  auto cfg = sharded_config(40, 24, 3);  // odd block count: phantom bye
  cfg.precision = 1e-6;
  const auto batch = gaussian_batch(40, 24, 1, 5);

  accel::HeteroSvdAccelerator plain(cfg);
  const accel::RunResult base = plain.run(batch);
  for (int s : {2, 4}) {
    accel::ShardedAccelerator sharded(cfg, s);
    const accel::RunResult run = sharded.run(batch);
    EXPECT_EQ(run.tasks[0].iterations, base.tasks[0].iterations) << "S=" << s;
    EXPECT_EQ(run.tasks[0].converged, base.tasks[0].converged);
    EXPECT_TRUE(same_bits(base.tasks[0].u, run.tasks[0].u)) << "S=" << s;
    EXPECT_TRUE(same_bits(base.tasks[0].sigma, run.tasks[0].sigma));
  }
}

// The host fan-out over shards touches disjoint state, so the result is
// identical for any host thread count.
TEST(ShardedAccelerator, ThreadCountInvariant) {
  auto cfg = sharded_config(48, 32, 4);
  const auto batch = gaussian_batch(48, 32, 2, 99);

  cfg.host_threads = 1;
  accel::ShardedAccelerator serial(cfg, 2);
  const accel::RunResult a = serial.run(batch);
  cfg.host_threads = 4;
  accel::ShardedAccelerator wide(cfg, 2);
  const accel::RunResult b = wide.run(batch);

  EXPECT_EQ(a.batch_seconds, b.batch_seconds);
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_TRUE(same_bits(a.tasks[i].u, b.tasks[i].u));
    EXPECT_TRUE(same_bits(a.tasks[i].sigma, b.tasks[i].sigma));
    EXPECT_EQ(a.tasks[i].end_seconds, b.tasks[i].end_seconds);
  }
}

// ---- Merged reporting ----------------------------------------------------

TEST(ShardedAccelerator, UtilizationStacksShardsSideBySide) {
  const auto cfg = sharded_config(48, 32, 4);
  const auto batch = gaussian_batch(48, 32, 1, 42);

  accel::HeteroSvdAccelerator plain(cfg);
  const accel::RunResult base = plain.run(batch);
  accel::ShardedAccelerator sharded(cfg, 2);
  const accel::RunResult run = sharded.run(batch);

  EXPECT_EQ(run.utilization.rows, base.utilization.rows);
  EXPECT_EQ(run.utilization.cols, 2 * base.utilization.cols);
  EXPECT_EQ(run.utilization.tiles.size(),
            static_cast<std::size_t>(run.utilization.rows) *
                static_cast<std::size_t>(run.utilization.cols));
  // Both arrays did kernel work, so both halves light up.
  EXPECT_GT(run.stats.kernel_invocations, 0u);
}

TEST(ShardMerge, StatsSumElementWise) {
  versal::ArrayStats a;
  a.neighbour_transfers = 1;
  a.dma_transfers = 2;
  a.dma_bytes = 3;
  a.stream_packets = 4;
  a.stream_bytes = 5;
  a.kernel_invocations = 6;
  versal::ArrayStats b = a;
  const auto sum = shard::merge_stats({a, b});
  EXPECT_EQ(sum.neighbour_transfers, 2u);
  EXPECT_EQ(sum.dma_transfers, 4u);
  EXPECT_EQ(sum.dma_bytes, 6u);
  EXPECT_EQ(sum.stream_packets, 8u);
  EXPECT_EQ(sum.stream_bytes, 10u);
  EXPECT_EQ(sum.kernel_invocations, 12u);
}

// Sharded resources report S arrays plus the 2S link PLIOs.
TEST(ShardedAccelerator, ResourcesCoverAllArrays) {
  const auto cfg = sharded_config(48, 32, 4);
  accel::HeteroSvdAccelerator plain(cfg);
  const accel::RunResult base = plain.run(gaussian_batch(48, 32, 1, 7));
  accel::ShardedAccelerator sharded(cfg, 2);
  const accel::RunResult run = sharded.run(gaussian_batch(48, 32, 1, 7));
  EXPECT_EQ(run.resources.aie_total(), 2 * base.resources.aie_total());
  EXPECT_EQ(run.resources.plio, 2 * base.resources.plio + 4);
  EXPECT_EQ(run.resources.uram, 2 * base.resources.uram);
}

// ---- Faults across shards ------------------------------------------------

TEST(ShardedAccelerator, HungTileOnShardZeroIsMaskedAndRecovered) {
  const auto cfg = sharded_config(48, 32, 4);
  const auto batch = gaussian_batch(48, 32, 3, 900);

  accel::ShardedAccelerator sharded(cfg, 2);
  const versal::TileCoord bad = sharded.placement(0).tasks[0].orth.front()[1];
  versal::FaultPlan plan;
  plan.faults.push_back(
      {versal::FaultKind::kTileHang, bad, 0, 0, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  sharded.attach_faults(&injector);

  const accel::RunResult run = sharded.run(batch);
  EXPECT_EQ(run.failed_tasks, 0);
  EXPECT_GE(run.recovery_runs, 1);
  // Recovered factors match a fault-free sharded run bit-for-bit.
  accel::ShardedAccelerator clean(cfg, 2);
  const accel::RunResult ref = clean.run(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(same_bits(ref.tasks[i].u, run.tasks[i].u)) << "task " << i;
    EXPECT_TRUE(same_bits(ref.tasks[i].sigma, run.tasks[i].sigma));
  }
}

// ---- Analytic model ------------------------------------------------------

TEST(ShardedModel, SingleShardReproducesTheSingleArrayModel) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = 256;
  cfg.p_eng = 8;
  cfg.p_task = 1;
  cfg.iterations = 6;
  cfg.pl_frequency_hz = 208.3e6;
  const auto single = perf::PerformanceModel{}.evaluate(cfg, 1);
  const auto sharded = shard::evaluate_sharded(cfg, single, 1, 1);
  EXPECT_EQ(sharded.moves_per_sweep, 0);
  EXPECT_DOUBLE_EQ(sharded.edge_seconds_per_sweep, 0.0);
  EXPECT_DOUBLE_EQ(sharded.t_iter, single.t_iter);
  EXPECT_DOUBLE_EQ(sharded.t_ddr, single.t_ddr);
  EXPECT_DOUBLE_EQ(sharded.t_norm_stage, single.t_norm_stage);
  EXPECT_DOUBLE_EQ(sharded.t_task, single.t_task);
  EXPECT_DOUBLE_EQ(sharded.t_sys, single.t_sys);
}

TEST(ShardedModel, EdgeTermAppearsForMultipleShards) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = 512;
  cfg.p_eng = 8;
  cfg.p_task = 1;
  cfg.iterations = 6;
  cfg.pl_frequency_hz = 208.3e6;
  const auto single = perf::PerformanceModel{}.evaluate(cfg, 1);
  const auto s2 = shard::evaluate_sharded(cfg, single, 2, 1);
  EXPECT_GT(s2.moves_per_sweep, 0);
  EXPECT_GT(s2.edge_seconds_per_sweep, 0.0);
  EXPECT_GT(s2.hop_seconds, 0.0);
  // The round-streaming term halves, so t_iter net of the edge shrinks.
  EXPECT_LT(s2.t_iter - s2.edge_seconds_per_sweep, single.t_iter);
}

// ---- DSE co-exploration --------------------------------------------------

TEST(ShardedDse, MaxShardsAddsMultiArrayPoints) {
  dse::DseRequest req;
  req.rows = req.cols = 64;
  req.batch = 1;
  req.threads = 1;
  req.max_shards = 4;
  const auto points = dse::DesignSpaceExplorer{}.enumerate(req);
  ASSERT_FALSE(points.empty());
  std::set<int> shard_counts;
  for (const auto& p : points) shard_counts.insert(p.shards);
  EXPECT_TRUE(shard_counts.count(1));
  EXPECT_TRUE(shard_counts.count(2));
  EXPECT_TRUE(shard_counts.count(4));

  // The single-array subset is exactly the max_shards = 1 enumeration.
  dse::DseRequest plain = req;
  plain.max_shards = 1;
  const auto single = dse::DesignSpaceExplorer{}.enumerate(plain);
  std::size_t s1 = 0;
  for (const auto& p : points) s1 += p.shards == 1 ? 1 : 0;
  EXPECT_EQ(s1, single.size());
  for (const auto& p : points) {
    if (p.shards != 1) continue;
    const auto match = std::find_if(
        single.begin(), single.end(), [&](const dse::DesignPoint& q) {
          return q.p_eng == p.p_eng && q.p_task == p.p_task &&
                 q.latency_seconds == p.latency_seconds &&
                 q.throughput_tasks_per_s == p.throughput_tasks_per_s;
        });
    EXPECT_NE(match, single.end())
        << "S=1 point (" << p.p_eng << "," << p.p_task << ") changed";
  }
}

TEST(ShardedDse, CheckpointRoundTripsShardedPoints) {
  const std::string path = ::testing::TempDir() + "dse_shards.ckpt";
  std::remove(path.c_str());
  dse::DseRequest req;
  req.rows = req.cols = 64;
  req.batch = 1;
  req.threads = 1;
  req.max_shards = 2;
  req.checkpoint_path = path;
  dse::DesignSpaceExplorer explorer;
  const auto first = explorer.enumerate(req);
  const auto replay = explorer.enumerate(req);
  ASSERT_EQ(first.size(), replay.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].shards, replay[i].shards);
    EXPECT_EQ(first[i].latency_seconds, replay[i].latency_seconds);
    EXPECT_EQ(first[i].resources.plio, replay[i].resources.plio);
  }
  std::remove(path.c_str());
}

// ---- Host budget ---------------------------------------------------------

TEST(HostBudget, RejectsOversubscribedCombinations) {
  const int hw = common::ThreadPool::hardware_threads();
  EXPECT_NO_THROW(validate_host_budget(0, 1));
  EXPECT_NO_THROW(validate_host_budget(1, 1));
  EXPECT_THROW(validate_host_budget(hw, hw + 1), InputError);
  EXPECT_THROW(validate_host_budget(hw + 1, hw + 1), InputError);
  EXPECT_THROW(validate_host_budget(-1, 1), InputError);
  EXPECT_THROW(validate_host_budget(0, 0), InputError);
}

// ---- Facade routing ------------------------------------------------------

TEST(ShardedFacade, OptionsRouteThroughTheShardedEngine) {
  Rng rng(31);
  const linalg::MatrixF a =
      linalg::random_gaussian(32, 24, rng).cast<float>();
  SvdOptions plain;
  plain.threads = 1;
  const Svd base = svd(a, plain);
  for (int s : {1, 2}) {
    SvdOptions opts;
    opts.threads = 1;
    opts.shards = s;
    const Svd out = svd(a, opts);
    EXPECT_TRUE(same_bits(base.u, out.u)) << "S=" << s;
    EXPECT_TRUE(same_bits(base.sigma, out.sigma)) << "S=" << s;
    EXPECT_TRUE(same_bits(base.v, out.v)) << "S=" << s;
    EXPECT_EQ(base.iterations, out.iterations);
  }
  SvdOptions bad;
  bad.shards = 0;
  EXPECT_THROW(svd(a, bad), InputError);
}

TEST(ShardedFacade, BatchReportsShardCount) {
  const auto batch = gaussian_batch(32, 24, 2, 11);
  SvdOptions opts;
  opts.threads = 1;
  opts.shards = 2;
  const BatchSvd out = svd_batch(batch, opts);
  EXPECT_EQ(out.shards, 2);
  EXPECT_EQ(out.failed_tasks, 0);
  for (const auto& r : out.results) EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace hsvd
