// Micro-benchmarks (google-benchmark) for the library's hot paths:
// rotation math, kernels, ordering generation, dataflow classification,
// placement, the analytic model, and a full small accelerator run.
#include <benchmark/benchmark.h>

#include "accel/accelerator.hpp"
#include "accel/dataflow.hpp"
#include "common/rng.hpp"
#include "dse/explorer.hpp"
#include "jacobi/ordering.hpp"
#include "jacobi/rotation.hpp"
#include "jacobi/sweep.hpp"
#include "linalg/generators.hpp"
#include "linalg/ops.hpp"
#include "perfmodel/perf_model.hpp"

namespace {

using namespace hsvd;

void BM_ComputeRotation(benchmark::State& state) {
  Rng rng(1);
  double aii = rng.uniform(0.5, 2.0), ajj = rng.uniform(0.5, 2.0);
  double aij = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jacobi::compute_rotation(aii, ajj, aij));
  }
}
BENCHMARK(BM_ComputeRotation);

// The orth-AIE pair step: jacobi::rotate_pair on cached column norms.
void BM_OrthKernel(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  auto a = linalg::random_gaussian(m, 2, rng).cast<float>();
  float aii = linalg::dot<float>(a.col(0), a.col(0));
  float ajj = linalg::dot<float>(a.col(1), a.col(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jacobi::rotate_pair(a.col(0), a.col(1), aii, ajj));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(m));
}
BENCHMARK(BM_OrthKernel)->Arg(128)->Arg(512)->Arg(1024);

void BM_MakeSchedule(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        jacobi::make_schedule(jacobi::OrderingKind::kShiftingRing, n));
  }
}
BENCHMARK(BM_MakeSchedule)->Arg(8)->Arg(16)->Arg(22);

void BM_CountSweepDma(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::count_sweep_dma(
        jacobi::OrderingKind::kShiftingRing, k,
        accel::MemoryStrategy::kRelocated));
  }
}
BENCHMARK(BM_CountSweepDma)->Arg(4)->Arg(8)->Arg(11);

void BM_Placement(benchmark::State& state) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = 256;
  cfg.p_eng = static_cast<int>(state.range(0));
  cfg.p_task = 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel::try_place(cfg));
  }
}
BENCHMARK(BM_Placement)->Arg(2)->Arg(8);

void BM_PerfModel(benchmark::State& state) {
  perf::PerformanceModel model;
  accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = 512;
  cfg.p_eng = 8;
  cfg.iterations = 6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.evaluate(cfg, 100));
  }
}
BENCHMARK(BM_PerfModel);

void BM_DseOptimize(benchmark::State& state) {
  dse::DesignSpaceExplorer explorer;
  dse::DseRequest req;
  req.rows = req.cols = 256;
  req.batch = 100;
  req.objective = dse::Objective::kThroughput;
  for (auto _ : state) {
    benchmark::DoNotOptimize(explorer.optimize(req));
  }
}
BENCHMARK(BM_DseOptimize);

void BM_AcceleratorFunctional(benchmark::State& state) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = 32;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 6;
  Rng rng(3);
  std::vector<linalg::MatrixF> batch = {
      linalg::random_gaussian(32, 16, rng).cast<float>()};
  for (auto _ : state) {
    accel::HeteroSvdAccelerator acc(cfg);
    benchmark::DoNotOptimize(acc.run(batch));
  }
}
BENCHMARK(BM_AcceleratorFunctional)->Unit(benchmark::kMillisecond);

void BM_AcceleratorTimedLarge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.p_eng = 8;
  cfg.p_task = 1;
  cfg.iterations = 1;
  for (auto _ : state) {
    accel::HeteroSvdAccelerator acc(cfg);
    benchmark::DoNotOptimize(acc.estimate(1));
  }
}
BENCHMARK(BM_AcceleratorTimedLarge)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
