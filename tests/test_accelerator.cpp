// End-to-end tests for the HeteroSVD accelerator: functional correctness
// through the simulated fabric, batching, padding, convergence mode, and
// timing sanity, and cancellation at the sweep barrier.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "accel/accelerator.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "linalg/generators.hpp"
#include "linalg/metrics.hpp"
#include "linalg/ops.hpp"
#include "linalg/reference_svd.hpp"

namespace hsvd::accel {
namespace {

using hsvd::Rng;
using hsvd::linalg::MatrixD;
using hsvd::linalg::MatrixF;

MatrixF random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return hsvd::linalg::random_gaussian(rows, cols, rng).cast<float>();
}

// V implied by A ~ U S V^T: V = A^T U S^{-1}. If the accelerator's U and
// sigma are a correct SVD of A, the implied V is orthonormal and the
// reconstruction through it is exact.
MatrixD implied_v(const MatrixD& a, const MatrixD& u,
                  const std::vector<double>& sigma) {
  MatrixD v(a.cols(), sigma.size());
  for (std::size_t t = 0; t < sigma.size(); ++t) {
    if (sigma[t] < 1e-9) continue;
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double s = 0;
      for (std::size_t i = 0; i < a.rows(); ++i) s += a(i, j) * u(i, t);
      v(j, t) = s / sigma[t];
    }
  }
  return v;
}

TEST(Accelerator, MatchesReferenceSvd) {
  HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 10;
  HeteroSvdAccelerator acc(cfg);
  MatrixF a = random_matrix(24, 16, 1001);
  auto run = acc.run({a});
  ASSERT_EQ(run.tasks.size(), 1u);
  auto ref = hsvd::linalg::reference_svd(a.cast<double>());
  std::vector<double> sigma(run.tasks[0].sigma.begin(), run.tasks[0].sigma.end());
  EXPECT_LT(hsvd::linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
  MatrixD u = run.tasks[0].u.cast<double>();
  EXPECT_LT(hsvd::linalg::orthogonality_error(u), 1e-4);
  MatrixD v = implied_v(a.cast<double>(), u, sigma);
  EXPECT_LT(hsvd::linalg::orthogonality_error(v), 1e-3);
}

TEST(Accelerator, BatchLargerThanTaskParallelism) {
  HeteroSvdConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 2;
  cfg.iterations = 8;
  HeteroSvdAccelerator acc(cfg);
  std::vector<MatrixF> batch;
  for (int i = 0; i < 5; ++i) batch.push_back(random_matrix(16, 8, 2000 + i));
  auto run = acc.run(batch);
  ASSERT_EQ(run.tasks.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    auto ref = hsvd::linalg::reference_svd(batch[i].cast<double>());
    std::vector<double> sigma(run.tasks[i].sigma.begin(),
                              run.tasks[i].sigma.end());
    EXPECT_LT(hsvd::linalg::spectrum_distance(sigma, ref.sigma), 1e-4)
        << "task " << i;
  }
  // 5 tasks on 2 slots: three waves, so makespan ~ 3x one task latency.
  EXPECT_GT(run.batch_seconds, 2.0 * run.task_seconds);
  EXPECT_LT(run.batch_seconds, 4.0 * run.task_seconds);
  EXPECT_NEAR(run.throughput_tasks_per_s, 5.0 / run.batch_seconds, 1e-9);
}

TEST(Accelerator, PaddingHandlesIndivisibleColumns) {
  HeteroSvdConfig cfg;
  cfg.rows = 20;
  cfg.cols = 14;  // pads to 15? no: p_eng 3 -> 15, blocks 5
  cfg.p_eng = 3;
  cfg.p_task = 1;
  cfg.iterations = 10;
  HeteroSvdAccelerator acc(cfg);
  MatrixF a = random_matrix(20, 14, 3000);
  auto run = acc.run({a});
  ASSERT_EQ(run.tasks[0].sigma.size(), 14u);
  auto ref = hsvd::linalg::reference_svd(a.cast<double>());
  std::vector<double> sigma(run.tasks[0].sigma.begin(), run.tasks[0].sigma.end());
  EXPECT_LT(hsvd::linalg::spectrum_distance(sigma, ref.sigma), 1e-4);
}

TEST(Accelerator, PrecisionModeStopsEarly) {
  HeteroSvdConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  cfg.iterations = 1;
  cfg.precision = 1e-6;
  HeteroSvdAccelerator acc(cfg);
  MatrixF a = random_matrix(16, 8, 4000);
  auto run = acc.run({a});
  EXPECT_LT(run.tasks[0].convergence_rate, 1e-6);
  EXPECT_GE(run.tasks[0].iterations, 3);
  EXPECT_LT(run.tasks[0].iterations, 30);
}

TEST(Accelerator, EstimateMatchesFunctionalTiming) {
  // Timing is data-independent at fixed iterations: the timed-only path
  // must agree with the functional path exactly.
  HeteroSvdConfig cfg;
  cfg.rows = 32;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 6;
  HeteroSvdAccelerator functional(cfg);
  HeteroSvdAccelerator timed(cfg);
  MatrixF a = random_matrix(32, 16, 5000);
  auto run_f = functional.run({a});
  auto run_t = timed.estimate(1);
  EXPECT_NEAR(run_f.task_seconds, run_t.task_seconds,
              1e-12 * run_f.task_seconds);
}

TEST(Accelerator, RunTimelineEqualsEstimate) {
  // At a fixed sweep count the simulated timeline is a pure function of
  // the configuration and the batch size: run() and estimate() must agree
  // on every timestamp, counter and per-tile tally, both when each task
  // slot owns a DDRMC port and when slots share the NoC's ports
  // (P_task > ports serializes staging in batch order), and on S = 2 and
  // 4 arrays, where blocks also cross the inter-shard link.
  struct Shape {
    std::size_t rows;
    std::size_t cols;
    int p_eng;
    int p_task;
    int batch;
    int shards;
  };
  for (const Shape shape :
       {Shape{32, 16, 4, 2, 3, 1}, Shape{16, 8, 2, 6, 9, 1},
        Shape{32, 16, 2, 1, 3, 2}, Shape{32, 16, 2, 1, 3, 4}}) {
    HeteroSvdConfig cfg;
    cfg.rows = shape.rows;
    cfg.cols = shape.cols;
    cfg.p_eng = shape.p_eng;
    cfg.p_task = shape.p_task;
    cfg.iterations = 3;
    SCOPED_TRACE(cat("P_task=", cfg.p_task, " batch=", shape.batch,
                     " S=", shape.shards));
    std::vector<MatrixF> batch;
    for (int t = 0; t < shape.batch; ++t) {
      batch.push_back(random_matrix(shape.rows, shape.cols, 7000 + t));
    }
    const RunResult run = HeteroSvdAccelerator(cfg, shape.shards).run(batch);
    const RunResult est =
        HeteroSvdAccelerator(cfg, shape.shards).estimate(shape.batch);
    EXPECT_EQ(cfg.p_task > cfg.device.ddr_ports, shape.p_task == 6);

    EXPECT_EQ(run.batch_seconds, est.batch_seconds);
    ASSERT_EQ(run.tasks.size(), est.tasks.size());
    for (std::size_t t = 0; t < run.tasks.size(); ++t) {
      ASSERT_EQ(run.tasks[t].status, hsvd::SvdStatus::kOk);
      EXPECT_EQ(run.tasks[t].start_seconds, est.tasks[t].start_seconds) << t;
      EXPECT_EQ(run.tasks[t].end_seconds, est.tasks[t].end_seconds) << t;
    }
    EXPECT_EQ(run.stats.neighbour_transfers, est.stats.neighbour_transfers);
    EXPECT_EQ(run.stats.dma_transfers, est.stats.dma_transfers);
    EXPECT_EQ(run.stats.dma_bytes, est.stats.dma_bytes);
    EXPECT_EQ(run.stats.stream_packets, est.stats.stream_packets);
    EXPECT_EQ(run.stats.stream_bytes, est.stats.stream_bytes);
    EXPECT_EQ(run.stats.kernel_invocations, est.stats.kernel_invocations);
    EXPECT_EQ(run.core_utilization, est.core_utilization);

    const versal::UtilizationReport& a = run.utilization;
    const versal::UtilizationReport& b = est.utilization;
    EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
    ASSERT_EQ(a.tiles.size(), b.tiles.size());
    for (std::size_t i = 0; i < a.tiles.size(); ++i) {
      const versal::TileUtilization& x = a.tiles[i];
      const versal::TileUtilization& y = b.tiles[i];
      SCOPED_TRACE(versal::to_string(x.tile));
      EXPECT_EQ(x.busy_cycles, y.busy_cycles);
      EXPECT_EQ(x.stalled_cycles, y.stalled_cycles);
      EXPECT_EQ(x.idle_cycles, y.idle_cycles);
      EXPECT_EQ(x.dma_busy_cycles, y.dma_busy_cycles);
      EXPECT_EQ(x.stream_busy_cycles, y.stream_busy_cycles);
      EXPECT_EQ(x.kernel_invocations, y.kernel_invocations);
      EXPECT_EQ(x.neighbour_bytes, y.neighbour_bytes);
      EXPECT_EQ(x.dma_bytes, y.dma_bytes);
      EXPECT_EQ(x.stream_bytes, y.stream_bytes);
    }
  }
}

TEST(Accelerator, MoreEnginesReduceLatency) {
  auto latency_for = [](int p_eng) {
    HeteroSvdConfig cfg;
    cfg.rows = cfg.cols = 128;
    cfg.p_eng = p_eng;
    cfg.p_task = 1;
    cfg.iterations = 6;
    HeteroSvdAccelerator acc(cfg);
    return acc.estimate(1).task_seconds;
  };
  const double l2 = latency_for(2);
  const double l4 = latency_for(4);
  const double l8 = latency_for(8);
  EXPECT_GT(l2, l4);
  EXPECT_GT(l4, l8);
}

TEST(Accelerator, MoreTasksIncreaseThroughput) {
  auto throughput_for = [](int p_task) {
    HeteroSvdConfig cfg;
    cfg.rows = cfg.cols = 64;
    cfg.p_eng = 2;
    cfg.p_task = p_task;
    cfg.iterations = 6;
    HeteroSvdAccelerator acc(cfg);
    return acc.estimate(8).throughput_tasks_per_s;
  };
  EXPECT_GT(throughput_for(4), 1.8 * throughput_for(1));
}

TEST(Accelerator, DmaStatsReflectShiftingRing) {
  // P_eng = 2 single band: per block-pair sweep, 2(k-1) = 2 DMA moves.
  HeteroSvdConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  cfg.iterations = 1;
  HeteroSvdAccelerator acc(cfg);
  auto run = acc.estimate(1);
  const int block_pairs = cfg.block_pairs();  // p = 4 -> 6 pairs
  EXPECT_EQ(run.stats.dma_transfers,
            static_cast<std::uint64_t>(block_pairs) * 2u);
}

TEST(Accelerator, RejectsWrongShapes) {
  HeteroSvdConfig cfg;
  cfg.rows = 16;
  cfg.cols = 8;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  HeteroSvdAccelerator acc(cfg);
  EXPECT_THROW(acc.run({MatrixF(8, 8)}), std::invalid_argument);
  EXPECT_THROW(acc.estimate(0), std::invalid_argument);
}

TEST(Accelerator, UtilizationAndResourcesReported) {
  HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = 64;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 6;
  HeteroSvdAccelerator acc(cfg);
  auto run = acc.estimate(4);
  EXPECT_GT(run.core_utilization, 0.0);
  EXPECT_LE(run.core_utilization, 1.0);
  EXPECT_GT(run.memory_utilization, 0.0);
  EXPECT_EQ(run.resources.aie_orth, 28);
  EXPECT_EQ(run.resources.plio, 6);
}

// Advances one second on every read, so a token whose deadline is N
// expires on exactly the Nth poll.
class SteppingClock final : public common::Clock {
 public:
  double now_seconds() const override { return ++reads_; }
  void sleep_for(double) override {}

 private:
  mutable double reads_ = 0.0;
};

TEST(Accelerator, SweepBarrierCancellationLeavesFabricClean) {
  // Poll 1 is execute_batch's task boundary and poll 2 the sweep barrier
  // before the second sweep, so the task aborts mid-run with one sweep
  // of fabric ops done. The purge must leave nothing behind on any
  // array: the next run on the same accelerator is bit-identical to a
  // fresh one's, on one array and on two.
  HeteroSvdConfig cfg;
  cfg.rows = 32;
  cfg.cols = 16;
  cfg.p_eng = 4;  // 4 blocks -> 6 block pairs per sweep
  cfg.p_task = 1;
  cfg.iterations = 3;
  const MatrixF a = random_matrix(32, 16, 9);

  for (const int shards : {1, 2}) {
    SCOPED_TRACE(cat("S=", shards));
    HeteroSvdAccelerator acc(cfg, shards);
    SteppingClock clock;
    common::CancelToken token(clock, 2.0);
    acc.attach_cancellation(&token);
    try {
      acc.run({a});
      ADD_FAILURE() << "run() finished past an expired deadline";
      continue;
    } catch (const hsvd::DeadlineExceeded& e) {
      EXPECT_NE(std::string(e.what()).find("sweep barrier 1"),
                std::string::npos)
          << e.what();
    }
    acc.attach_cancellation(nullptr);
    // Simulator counters are cumulative: take the cancelled sweep's share
    // out before comparing.
    const versal::ArrayStats cancelled = acc.array_stats();
    EXPECT_GT(cancelled.kernel_invocations, 0u);
    const RunResult after = acc.run({a});

    HeteroSvdAccelerator fresh(cfg, shards);
    const RunResult clean = fresh.run({a});
    ASSERT_EQ(after.tasks.size(), 1u);
    const TaskResult& x = after.tasks[0];
    const TaskResult& y = clean.tasks[0];
    ASSERT_EQ(x.status, hsvd::SvdStatus::kOk);
    ASSERT_EQ(x.u.data().size(), y.u.data().size());
    EXPECT_EQ(std::memcmp(x.u.data().data(), y.u.data().data(),
                          x.u.data().size_bytes()),
              0);
    EXPECT_EQ(x.sigma, y.sigma);
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(x.convergence_rate, y.convergence_rate);
    EXPECT_EQ(x.start_seconds, y.start_seconds);
    EXPECT_EQ(x.end_seconds, y.end_seconds);
    EXPECT_EQ(after.batch_seconds, clean.batch_seconds);
    EXPECT_EQ(after.core_utilization, clean.core_utilization);
    EXPECT_EQ(after.stats.kernel_invocations - cancelled.kernel_invocations,
              clean.stats.kernel_invocations);
    EXPECT_EQ(after.stats.neighbour_transfers - cancelled.neighbour_transfers,
              clean.stats.neighbour_transfers);
    EXPECT_EQ(after.stats.dma_transfers - cancelled.dma_transfers,
              clean.stats.dma_transfers);
    EXPECT_EQ(after.stats.dma_bytes - cancelled.dma_bytes,
              clean.stats.dma_bytes);
    EXPECT_EQ(after.stats.stream_packets - cancelled.stream_packets,
              clean.stats.stream_packets);
    EXPECT_EQ(after.stats.stream_bytes - cancelled.stream_bytes,
              clean.stats.stream_bytes);
    // The utilization report stacks every array's tiles side by side.
    ASSERT_EQ(after.utilization.tiles.size(), clean.utilization.tiles.size());
    for (std::size_t i = 0; i < clean.utilization.tiles.size(); ++i) {
      EXPECT_EQ(after.utilization.tiles[i].busy_cycles,
                clean.utilization.tiles[i].busy_cycles)
          << versal::to_string(clean.utilization.tiles[i].tile);
    }
  }
}

}  // namespace
}  // namespace hsvd::accel
