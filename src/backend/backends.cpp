#include "backend/backends.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "baselines/bcv.hpp"
#include "baselines/fpga_model.hpp"
#include "baselines/gpu_model.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "jacobi/hestenes.hpp"
#include "linalg/ops.hpp"
#include "verify/escalate.hpp"

namespace hsvd::backend {

namespace {

// ---- Host one-sided Jacobi shared by cpu / fpga-bcv / gpu-wcycle ------

// Coarse host cost model behind CpuBackend::estimate: nominal sweep
// count times pair-visit work at a sustained effective rate. Deliberately
// crude -- routing only needs the CPU placed correctly relative to the
// other backends (they sit orders of magnitude apart), and the router
// records estimate-vs-actual error so the residual gap stays visible.
constexpr double kNominalSweeps = 8.0;
constexpr double kCpuEffectiveFlops = 4.0e9;
// Sustained host package power for the energy estimate.
constexpr double kCpuPackageWatts = 65.0;

double cpu_model_latency(std::size_t rows, std::size_t cols) {
  const double m = static_cast<double>(rows);
  const double n = static_cast<double>(cols);
  const double pairs = n * std::max(n - 1.0, 1.0) / 2.0;
  // Per pair visit: one fused dot (2m flops), the rotation applied to B
  // (6m) and to V (6n), plus O(1) bookkeeping.
  const double flops = kNominalSweeps * pairs * (8.0 * m + 6.0 * n + 16.0);
  return flops / kCpuEffectiveFlops;
}

// Copies the top-left rows x cols block (drops padded rows/columns).
linalg::MatrixF shrink(const linalg::MatrixF& src, std::size_t rows,
                       std::size_t cols) {
  if (src.rows() == rows && src.cols() == cols) return src;
  linalg::MatrixF out(rows, cols);
  for (std::size_t c = 0; c < cols; ++c) {
    auto s = src.col(c);
    auto d = out.col(c);
    for (std::size_t r = 0; r < rows; ++r) d[r] = s[r];
  }
  return out;
}

// Decomposes `a` with one of the host engines (BCV for the FPGA
// comparator's own ordering, shifting-ring Hestenes otherwise),
// zero-padding exactly as the accelerator front end does: padded
// rows/columns are fixed points of the rotations, their factors sort
// last (sigma = 0) and truncate away exactly.
Svd host_jacobi(const linalg::MatrixF& a, const SvdOptions& options,
                bool bcv_ordering) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  // A single column has a closed-form decomposition; the pair engines
  // need at least two.
  if (n == 1) {
    Svd out;
    double ss = 0.0;
    const auto col = a.col(0);
    for (float x : col) ss += static_cast<double>(x) * x;
    const float sigma = static_cast<float>(std::sqrt(ss));
    out.sigma = {sigma};
    out.u = linalg::MatrixF(m, 1);
    if (sigma > 0.0f) {
      auto u0 = out.u.col(0);
      for (std::size_t r = 0; r < m; ++r) u0[r] = col[r] / sigma;
    }
    if (options.want_v) {
      out.v = linalg::MatrixF::identity(1);
    }
    out.converged = true;
    return out;
  }

  // The Hestenes engine requires an even column count, and both engines
  // require rows >= cols -- so a square odd input also gains a zero row.
  std::size_t n_pad = n;
  if (!bcv_ordering && n % 2 != 0) n_pad = n + 1;
  const std::size_t m_pad = std::max(m, n_pad);
  linalg::MatrixF padded;
  const linalg::MatrixF* input = &a;
  if (n_pad != n || m_pad != m) {
    padded = linalg::MatrixF(m_pad, n_pad);
    for (std::size_t c = 0; c < n; ++c) {
      auto s = a.col(c);
      auto d = padded.col(c);
      for (std::size_t r = 0; r < m; ++r) d[r] = s[r];
    }
    input = &padded;
  }

  const auto start = std::chrono::steady_clock::now();
  jacobi::HestenesResult run;
  if (bcv_ordering) {
    baselines::BcvOptions opts;
    opts.precision = options.precision;
    run = baselines::bcv_svd(*input, opts);
  } else {
    jacobi::HestenesOptions opts;
    opts.ordering = jacobi::OrderingKind::kShiftingRing;
    opts.precision = options.precision;
    opts.accumulate_v = true;
    run = jacobi::hestenes_svd(*input, opts);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Svd out;
  out.u = shrink(run.u, m, n);
  run.sigma.resize(n);
  out.sigma = std::move(run.sigma);
  if (options.want_v) out.v = shrink(run.v, n, n);
  out.iterations = run.sweeps;
  out.convergence_rate = run.final_convergence_rate;
  out.converged = run.converged;
  out.status = run.converged ? SvdStatus::kOk : SvdStatus::kNotConverged;
  if (!run.converged) {
    out.message = "precision target not reached within the sweep budget";
  }
  out.wall_seconds = wall;
  return out;
}

// ---- DSE-backed estimation shared by the two AIE backends -------------

dse::DseRequest make_dse_request(std::size_t rows, std::size_t cols,
                                 const Slo& slo, const SvdOptions& options,
                                 int max_shards) {
  dse::DseRequest req;
  req.rows = rows;
  req.cols = cols;
  req.batch = slo.kind == SloKind::kThroughput ? slo.batch : 1;
  req.objective = slo.kind == SloKind::kLatency ? dse::Objective::kLatency
                                                : dse::Objective::kThroughput;
  req.device = options.device;
  req.threads = options.threads;
  req.observer = options.observer;
  req.max_shards = max_shards;
  // Routing asks for the same handful of shapes over and over; the
  // cross-call memo answers repeats with zero placement calls.
  req.memoize = true;
  return req;
}

Estimate estimate_from_points(std::vector<dse::DesignPoint> points,
                              const Slo& slo, int shards) {
  std::erase_if(points,
                [&](const dse::DesignPoint& p) { return p.shards != shards; });
  if (points.empty()) {
    Estimate e;
    e.note = shards > 1
                 ? cat("no feasible ", shards, "-array AIE placement")
                 : "no feasible AIE placement for this shape on the device";
    return e;
  }
  const dse::DesignPoint* best = &points.front();
  for (const auto& p : points) {
    switch (slo.kind) {
      case SloKind::kLatency:
        if (p.latency_seconds < best->latency_seconds) best = &p;
        break;
      case SloKind::kThroughput:
        if (p.throughput_tasks_per_s > best->throughput_tasks_per_s)
          best = &p;
        break;
      case SloKind::kEnergy:
        if (p.energy_per_task_joules() < best->energy_per_task_joules())
          best = &p;
        break;
    }
  }
  Estimate e;
  e.feasible = true;
  e.latency_seconds = best->latency_seconds;
  e.throughput_tasks_per_s = best->throughput_tasks_per_s;
  e.energy_per_task_joules = best->energy_per_task_joules();
  e.note = cat("p_eng=", best->p_eng, " p_task=", best->p_task, " s=",
               best->shards, " f=", best->frequency_hz / 1.0e6, "MHz");
  return e;
}

// Strips the routing fields for the recursive facade call, so the
// backend's execution takes the classic (pre-router) path. Attestation
// is stripped too: for routed requests the verify ladder runs at the
// router layer (its re-route rung needs the Router), never inside the
// recursion. The fault injector stays attached, so injected faults --
// silent errors included -- land in the recursion as usual.
SvdOptions strip_routing(const SvdOptions& options) {
  SvdOptions inner = options;
  inner.backend.clear();
  inner.slo.reset();
  inner.verify = verify::VerifyPolicy{};
  return inner;
}

// Labels a native-engine batch with the AIE backend that ran it.
BatchSvd labelled(BatchSvd out, const char* backend) {
  out.backend = backend;
  for (auto& r : out.results) r.backend = backend;
  return out;
}

}  // namespace

// ---- default batch: per-matrix execute() on the host pool -------------

BatchSvd Backend::execute_batch(const std::vector<linalg::MatrixF>& batch,
                                const SvdOptions& options) const {
  BatchSvd out;
  out.backend = name();
  out.results.resize(batch.size());
  // Silent errors are applied per task slot (slot-keyed trigger counters
  // keep the parallel fan-out deterministic). The AIE backends never
  // come here: their facade path applies them inside the fault domain.
  const auto run_one = [&](const SvdOptions& opts, std::size_t i) {
    out.results[i] = execute(batch[i], opts);
    verify::apply_silent_faults(opts, static_cast<int>(i), out.results[i]);
  };
  const auto start = std::chrono::steady_clock::now();
  if (batch.size() == 1) {
    run_one(options, 0);
  } else {
    // Tasks are independent: fan them out over the pool with
    // single-threaded inner execution, like the facade's post-pass.
    SvdOptions inner = options;
    inner.threads = 1;
    common::ThreadPool::shared().parallel_for(
        batch.size(), common::ThreadPool::resolve_threads(options.threads),
        [&](std::size_t i) { run_one(inner, i); }, "route-batch");
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (capabilities().modeled_time) {
    // Modeled backends report the comparator's fitted sustained rate for
    // the batch, never the host wall time (honesty rule: one source per
    // number). Per-task modeled_seconds is already set by execute().
    Slo slo;
    slo.kind = SloKind::kThroughput;
    slo.batch = static_cast<int>(batch.size());
    const Estimate est = estimate(batch.front().rows(), batch.front().cols(),
                                  slo, options);
    out.throughput_tasks_per_s = est.throughput_tasks_per_s;
    out.batch_seconds = est.throughput_tasks_per_s > 0.0
                            ? batch.size() / est.throughput_tasks_per_s
                            : 0.0;
  } else {
    out.batch_seconds = wall;
    out.throughput_tasks_per_s = wall > 0.0 ? batch.size() / wall : 0.0;
  }
  for (const auto& r : out.results) {
    if (r.status == SvdStatus::kFailed) ++out.failed_tasks;
  }
  return out;
}

// ---- aie --------------------------------------------------------------

Estimate AieBackend::estimate(std::size_t rows, std::size_t cols,
                              const Slo& slo,
                              const SvdOptions& options) const {
  return estimate_from_points(
      explorer_.enumerate(make_dse_request(rows, cols, slo, options, 1)), slo,
      1);
}

Svd AieBackend::execute(const linalg::MatrixF& a,
                        const SvdOptions& options) const {
  Svd out = hsvd::svd(a, strip_routing(options));
  out.backend = name();
  return out;
}

BatchSvd AieBackend::execute_batch(const std::vector<linalg::MatrixF>& batch,
                                   const SvdOptions& options) const {
  return labelled(hsvd::svd_batch(batch, strip_routing(options)), name());
}

// ---- aie-sharded ------------------------------------------------------

int ShardedAieBackend::shard_count(const SvdOptions& options) {
  int s = std::max(options.shards, 2);
  // The DSE explores power-of-two shard counts; round down to one.
  while ((s & (s - 1)) != 0) s &= s - 1;
  return s;
}

Estimate ShardedAieBackend::estimate(std::size_t rows, std::size_t cols,
                                     const Slo& slo,
                                     const SvdOptions& options) const {
  const int s = shard_count(options);
  return estimate_from_points(
      explorer_.enumerate(make_dse_request(rows, cols, slo, options, s)), slo,
      s);
}

Svd ShardedAieBackend::execute(const linalg::MatrixF& a,
                               const SvdOptions& options) const {
  SvdOptions inner = strip_routing(options);
  inner.shards = shard_count(options);
  Svd out = hsvd::svd(a, inner);
  out.backend = name();
  return out;
}

BatchSvd ShardedAieBackend::execute_batch(
    const std::vector<linalg::MatrixF>& batch,
    const SvdOptions& options) const {
  SvdOptions inner = strip_routing(options);
  inner.shards = shard_count(options);
  return labelled(hsvd::svd_batch(batch, inner), name());
}

// ---- cpu --------------------------------------------------------------

Estimate CpuBackend::estimate(std::size_t rows, std::size_t cols,
                              const Slo& /*slo*/,
                              const SvdOptions& /*options*/) const {
  Estimate e;
  e.feasible = true;
  e.latency_seconds = cpu_model_latency(rows, cols);
  e.throughput_tasks_per_s = 1.0 / e.latency_seconds;
  e.energy_per_task_joules = kCpuPackageWatts * e.latency_seconds;
  e.note = "host flops model (wall time measured at execution)";
  return e;
}

Svd CpuBackend::execute(const linalg::MatrixF& a,
                        const SvdOptions& options) const {
  Svd out = host_jacobi(a, options, /*bcv_ordering=*/false);
  out.backend = name();
  out.energy_joules = kCpuPackageWatts * out.wall_seconds;
  return out;
}

// ---- fpga-bcv ---------------------------------------------------------

Estimate FpgaBcvBackend::estimate(std::size_t rows, std::size_t cols,
                                  const Slo& /*slo*/,
                                  const SvdOptions& /*options*/) const {
  (void)rows;  // the Table II anchors are square-matrix measurements
  baselines::FpgaBcvModel model;
  const baselines::InterpValue lat = model.latency_modeled(std::max<std::size_t>(cols, 2));
  Estimate e;
  e.feasible = true;
  e.latency_seconds = lat.value;
  e.throughput_tasks_per_s = 1.0 / lat.value;
  e.modeled_extrapolated = lat.extrapolated;
  e.note = "Table II fitted model (no published power figure)";
  return e;
}

Svd FpgaBcvBackend::execute(const linalg::MatrixF& a,
                            const SvdOptions& options) const {
  Svd out = host_jacobi(a, options, /*bcv_ordering=*/true);
  out.backend = name();
  out.modeled_time = true;
  const baselines::InterpValue lat = baselines::FpgaBcvModel{}.latency_modeled(
      std::max<std::size_t>(a.cols(), 2), std::max(out.iterations, 1));
  out.modeled_seconds = lat.value;
  out.modeled_extrapolated = lat.extrapolated;
  return out;
}

// ---- gpu-wcycle -------------------------------------------------------

Estimate GpuWcycleBackend::estimate(std::size_t rows, std::size_t cols,
                                    const Slo& slo,
                                    const SvdOptions& /*options*/) const {
  (void)rows;  // the Table III anchors are square-matrix measurements
  baselines::GpuWcycleModel model;
  const baselines::InterpValue lat = model.latency_modeled(cols);
  const baselines::InterpValue thr = model.throughput_modeled(cols);
  Estimate e;
  e.feasible = true;
  e.latency_seconds = lat.value;
  e.throughput_tasks_per_s = thr.value;
  e.energy_per_task_joules = model.board_watts / thr.value;
  // Flag the figure the requested objective actually compares on.
  e.modeled_extrapolated =
      slo.kind == SloKind::kLatency ? lat.extrapolated : thr.extrapolated;
  e.note = "Table III fitted model (270 W board power)";
  return e;
}

Svd GpuWcycleBackend::execute(const linalg::MatrixF& a,
                              const SvdOptions& options) const {
  Svd out = host_jacobi(a, options, /*bcv_ordering=*/false);
  out.backend = name();
  out.modeled_time = true;
  baselines::GpuWcycleModel model;
  const baselines::InterpValue lat = model.latency_modeled(a.cols());
  out.modeled_seconds = lat.value;
  out.modeled_extrapolated = lat.extrapolated;
  out.energy_joules = model.board_watts * lat.value;
  return out;
}

// ---- registry ---------------------------------------------------------

std::vector<std::unique_ptr<Backend>> make_backends(
    const dse::DesignSpaceExplorer& explorer) {
  std::vector<std::unique_ptr<Backend>> out;
  out.push_back(std::make_unique<AieBackend>(explorer));
  out.push_back(std::make_unique<ShardedAieBackend>(explorer));
  out.push_back(std::make_unique<CpuBackend>());
  out.push_back(std::make_unique<FpgaBcvBackend>());
  out.push_back(std::make_unique<GpuWcycleBackend>());
  return out;
}

}  // namespace hsvd::backend
