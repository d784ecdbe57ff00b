#include "heterosvd.hpp"

#include <algorithm>
#include <cmath>

#include "backend/router.hpp"
#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "linalg/ops.hpp"
#include "scenarios/scenarios.hpp"
#include "scenarios/tall_skinny.hpp"
#include "scenarios/truncated.hpp"
#include "verify/escalate.hpp"

namespace hsvd {

namespace {

// Rejects NaN/Inf entries up front: a single non-finite value poisons
// every rotation it touches and would otherwise surface much later as a
// (misattributed) in-fabric fault detection. `what` names the argument
// in the diagnostic ("matrix", "batch[3]", ...).
void require_finite(const linalg::MatrixF& a, const std::string& what) {
  for (std::size_t c = 0; c < a.cols(); ++c) {
    const auto col = a.col(c);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      if (!std::isfinite(col[r])) {
        throw InputError(cat(what, " contains a non-finite entry at (", r,
                             ", ", c, ")"));
      }
    }
  }
}

// Rejects malformed numeric options up front with a typed InputError;
// without this, a negative fault_retries or a NaN precision would thread
// silently through the DSE and the accelerator config and misbehave far
// from the caller's mistake.
void validate_options(const SvdOptions& options) {
  HSVD_REQUIRE(std::isfinite(options.precision) && options.precision > 0.0,
               "precision must be positive and finite");
  HSVD_REQUIRE(options.threads >= 0, "threads must be nonnegative (0 = auto)");
  HSVD_REQUIRE(options.shards >= 1, "shards must be at least 1");
  HSVD_REQUIRE(options.fault_retries >= 0,
               "fault_retries must be nonnegative");
  if (options.retry.has_value()) options.retry->validate();
  if (!options.backend.empty() && options.backend != "auto" &&
      !backend::is_known_backend(options.backend)) {
    throw InputError(cat("unknown backend '", options.backend,
                         "' (expected auto, aie, aie-sharded, cpu, fpga-bcv, "
                         "or gpu-wcycle)"));
  }
  if (!options.backend.empty() && options.backend != "auto" &&
      options.slo.has_value()) {
    throw InputError(
        cat("backend '", options.backend,
            "' is an explicit pin and cannot carry an SLO (the pin bypasses "
            "routing); use backend \"auto\" to route by objective"));
  }
  if (options.slo.has_value()) options.slo->validate();
  options.verify.validate();
  options.scenario_opts.validate();
}

// True when the request opted into the backend router (an explicit pin,
// "auto", or any SLO). The empty default keeps the classic path -- and
// its bit-identical results -- untouched.
bool routing_requested(const SvdOptions& options) {
  return !options.backend.empty() || options.slo.has_value();
}

// The clock backing retry backoff sleeps.
common::Clock& resolve_clock(const SvdOptions& options) {
  return options.clock != nullptr ? *options.clock
                                  : common::MonotonicClock::instance();
}

// True when the cancel token (if any) has expired; used to stop retrying
// the moment the deadline passes instead of burning another attempt.
bool deadline_expired(const SvdOptions& options) {
  return options.cancel != nullptr && options.cancel->expired();
}

// Sleeps one backoff delay, never past the remaining deadline budget.
void backoff_sleep(const SvdOptions& options, common::BackoffSchedule& backoff,
                   int retry_index) {
  double delay = backoff.delay_seconds(retry_index);
  if (options.cancel != nullptr) {
    delay = std::min(delay, options.cancel->remaining_seconds());
  }
  resolve_clock(options).sleep_for(delay);
}

// The configuration svd()/svd_batch() run under (planned_config's
// body): the pinned options.config or the DSE choice, with the
// request's precision, host threads and recovery budget folded in.
accel::HeteroSvdConfig choose_config(std::size_t rows, std::size_t cols,
                                     int batch, const SvdOptions& options) {
  accel::HeteroSvdConfig cfg;
  if (options.config.has_value()) {
    cfg = *options.config;
  } else {
    dse::DseRequest req;
    req.rows = rows;
    req.cols = cols;
    req.batch = batch;
    req.objective =
        batch > 1 ? dse::Objective::kThroughput : dse::Objective::kLatency;
    req.device = options.device;
    req.threads = options.threads;
    req.observer = options.observer;
    const auto point = dse::DesignSpaceExplorer{}.optimize(req);
    cfg.p_eng = point.p_eng;
    cfg.p_task = point.p_task;
    cfg.pl_frequency_hz = point.frequency_hz;
    cfg.device = options.device;
  }
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.precision = options.precision;
  cfg.host_threads = options.threads;
  cfg.fault_retries = options.fault_retries;
  return cfg;
}

Svd from_task(accel::TaskResult&& task, const linalg::MatrixF& a,
              bool want_v, int threads) {
  Svd out;
  out.u = std::move(task.u);
  out.sigma = std::move(task.sigma);
  out.iterations = task.iterations;
  out.convergence_rate = task.convergence_rate;
  out.accelerator_seconds = task.latency_seconds();
  out.status = task.status;
  out.converged = task.converged;
  out.message = std::move(task.message);
  out.recovery_attempts = task.recovery_attempts;
  // A failed task has no factors; deriving V needs U.
  if (want_v && task.ok()) out.v = derive_v(a, out.u, out.sigma, threads);
  return out;
}

// The classic (un-routed) execution; svd() runs it on a batch of one.
// Each round runs on a freshly built accelerator (clean timelines and
// tile memories; an external injector keeps its trigger counters, so a
// one-shot fault does not refire on a retry). Round 0 runs the whole
// batch; with SvdOptions::retry set, each later round re-submits only
// the transiently failed (and, policy permitting, non-converged) tasks
// after a backoff. Healthy results are never touched. A deadline that
// expires before or during a retry round stops retrying and keeps the
// previous attempt's statuses. Task i's silent-error slot is
// first_slot + i.
BatchSvd run_classic(const std::vector<linalg::MatrixF>& batch,
                     const SvdOptions& options,
                     const accel::HeteroSvdConfig& cfg, int first_slot) {
  obs::ScopedPoolObservation observe(options.observer);
  const int max_attempts =
      options.retry.has_value() ? options.retry->max_attempts : 1;
  std::optional<common::BackoffSchedule> backoff;
  if (max_attempts > 1) backoff.emplace(*options.retry, 0);
  BatchSvd out;
  out.config = cfg;
  out.shards = options.shards;
  out.results.resize(batch.size());
  std::vector<std::size_t> again;         // batch index of each retried task
  std::vector<linalg::MatrixF> resubmit;  // their inputs
  for (int attempt = 0;; ++attempt) {
    accel::HeteroSvdAccelerator acc(cfg, options.shards);
    if (options.fault_injector != nullptr) {
      acc.attach_faults(options.fault_injector);
    }
    acc.attach_observer(options.observer);
    acc.attach_cancellation(options.cancel);
    accel::RunResult run;
    if (attempt == 0) {
      run = acc.run(batch);
      out.throughput_tasks_per_s = run.throughput_tasks_per_s;
      out.utilization = std::move(run.utilization);
    } else {
      try {
        run = acc.run(resubmit);
      } catch (const DeadlineExceeded&) {
        break;  // keep the previous attempt's statuses
      }
    }
    // Retry rounds run after the initial batch; their simulated time
    // extends the campaign makespan sequentially.
    out.batch_seconds += run.batch_seconds;
    out.recovery_runs += run.recovery_runs;
    // The host-side post-pass (factors + derive_v) is independent per
    // task. Silent-error triggers are counted per task slot, so applying
    // them in any order stays deterministic.
    const auto post = [&](std::size_t j, int derive_threads) {
      const std::size_t i = attempt == 0 ? j : again[j];
      Svd r = from_task(std::move(run.tasks[j]), batch[i], options.want_v,
                        derive_threads);
      verify::apply_silent_faults(options, first_slot + static_cast<int>(i),
                                  r);
      r.retries = attempt;
      out.results[i] = std::move(r);
    };
    if (run.tasks.size() == 1) {
      post(0, options.threads);  // a lone task keeps derive_v parallel
    } else {
      // The batch loop already saturates the pool: derive_v runs inline.
      common::ThreadPool::shared().parallel_for(
          run.tasks.size(),
          common::ThreadPool::resolve_threads(options.threads),
          [&](std::size_t j) { post(j, 1); }, "task-post");
    }
    if (attempt + 1 >= max_attempts) break;
    again.clear();
    for (std::size_t i = 0; i < out.results.size(); ++i) {
      const SvdStatus s = out.results[i].status;
      if (s == SvdStatus::kFailed || (s == SvdStatus::kNotConverged &&
                                      options.retry->retry_not_converged)) {
        again.push_back(i);
      }
    }
    if (again.empty() || deadline_expired(options)) break;
    if (options.observer != nullptr) {
      options.observer->metrics().add("svd.retries", again.size());
    }
    backoff_sleep(options, *backoff, attempt + 1);
    resubmit.clear();
    for (std::size_t i : again) resubmit.push_back(batch[i]);
  }
  for (const auto& r : out.results) {
    if (r.status == SvdStatus::kFailed) ++out.failed_tasks;
  }
  return out;
}

// A single-matrix call has no partial batch to salvage: an unrecovered
// fault surfaces as the typed exception.
Svd solo_result(BatchSvd&& run) {
  Svd& r = run.results.front();
  if (!r.ok()) {
    throw FaultDetected(r.message.empty()
                            ? std::string("hardware fault detected")
                            : r.message);
  }
  return std::move(r);
}

// Escalation hooks for the classic path: re-run repeats the classic
// execution of the one matrix (the injector's trigger counters advance,
// so a one-shot silent error does not refire); re-route pins the cpu
// backend -- the classic path has no router in play, and the host Jacobi
// is the one alternate that shares no fabric with the primary. The
// alternate runs outside the fault domain and without nested
// attestation.
verify::EscalationHooks classic_hooks(const linalg::MatrixF& a,
                                      const SvdOptions& options,
                                      const accel::HeteroSvdConfig& cfg,
                                      int task_slot) {
  verify::EscalationHooks hooks;
  hooks.rerun = [&a, &options, &cfg, task_slot]() {
    return solo_result(run_classic({a}, options, cfg, task_slot));
  };
  hooks.reroute = [&a, &options](std::string* used) {
    SvdOptions alt = options;
    alt.backend = "cpu";
    alt.slo.reset();
    alt.verify = verify::VerifyPolicy{};
    alt.fault_injector = nullptr;
    alt.retry.reset();
    *used = "cpu";
    return svd(a, alt);
  };
  return hooks;
}

}  // namespace

Svd svd(const linalg::MatrixF& a, const SvdOptions& options) {
  validate_options(options);
  HSVD_REQUIRE(a.rows() >= 1 && a.cols() >= 1, "matrix must be non-empty");
  require_finite(a, "matrix");
  if (a.cols() > a.rows()) {
    // Wide input: decompose the transpose and swap the factors
    // (A = U S V^T  <=>  A^T = V S U^T). V is needed to produce U here,
    // so want_v is forced on for the inner call.
    SvdOptions inner = options;
    inner.want_v = true;
    Svd t = svd(linalg::transpose(a), inner);
    std::swap(t.u, t.v);
    if (!options.want_v) t.v = linalg::MatrixF();
    // Attestation ran on the transposed problem; swap the factor scores
    // so the report describes the factors the caller receives.
    for (auto& attempt : t.verify_report.attempts) {
      std::swap(attempt.outcome.u_orth, attempt.outcome.v_orth);
      std::swap(attempt.outcome.orth_bound, attempt.outcome.v_orth_bound);
    }
    return t;
  }
  if (deadline_expired(options)) {
    throw DeadlineExceeded("deadline expired before the decomposition began");
  }
  // Scenario front-ends (DESIGN.md section 16) sit after the wide-
  // transpose branch -- they only ever see tall shapes, so the factor
  // swap above composes with theirs -- and before routed dispatch: each
  // front-end reduces the problem and re-enters svd() with the scenario
  // layer off, so routing, retry, and attestation run on the inner
  // dense core exactly as for a direct request. With scenario off (or
  // auto below the aspect-ratio threshold) this block never diverts and
  // the dense path stays bit-identical to a build without it.
  switch (scenarios::select_scenario(a.rows(), a.cols(), options)) {
    case scenarios::Scenario::kTallSkinny:
      return scenarios::svd_tall_skinny(a, options);
    case scenarios::Scenario::kTruncated:
      return scenarios::svd_truncated(a, options);
    default:
      break;
  }
  // Routed dispatch sits after the wide-transpose branch so every
  // backend estimate and execution sees a tall matrix.
  if (routing_requested(options)) return backend::execute_routed(a, options);
  const accel::HeteroSvdConfig cfg =
      choose_config(a.rows(), a.cols(), 1, options);
  Svd out = solo_result(run_classic({a}, options, cfg, 0));
  if (!options.verify.enabled()) return out;
  return verify::attest_result(a, options, std::move(out),
                               classic_hooks(a, options, cfg, 0));
}

BatchSvd svd_batch(const std::vector<linalg::MatrixF>& batch,
                   const SvdOptions& options) {
  validate_options(options);
  HSVD_REQUIRE(!batch.empty(), "empty batch");
  const std::size_t rows = batch.front().rows();
  const std::size_t cols = batch.front().cols();
  HSVD_REQUIRE(rows >= 1 && cols >= 1, "batch matrices must be non-empty");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& m = batch[i];
    HSVD_REQUIRE(m.rows() == rows && m.cols() == cols,
                 "all batch matrices must share one shape");
    require_finite(m, cat("batch[", i, "]"));
  }
  // The batch engine carries one dense accelerator configuration for
  // the whole batch; scenario front-ends are single-matrix reductions
  // (the serving layer dispatches them solo). Explicit front-ends and
  // top-k queries are rejected here; kAuto is accepted but never
  // engages in a batch.
  if (options.top_k > 0 ||
      options.scenario == scenarios::Scenario::kTallSkinny ||
      options.scenario == scenarios::Scenario::kTruncated) {
    throw InputError(
        "svd_batch serves the dense path only: scenario front-ends "
        "(tall-skinny, truncated/top_k) are single-matrix -- submit them "
        "one at a time or through the serving layer");
  }
  if (routing_requested(options)) {
    return backend::execute_routed_batch(batch, options);
  }
  const accel::HeteroSvdConfig cfg =
      choose_config(rows, cols, static_cast<int>(batch.size()), options);
  if (deadline_expired(options)) {
    throw DeadlineExceeded("deadline expired before the batch began");
  }
  BatchSvd out = run_classic(batch, options, cfg, 0);
  // A kFailed task under an enabled policy is upgraded by the ladder too:
  // verified compute answers every request, worst case from the host
  // reference.
  if (options.verify.enabled()) {
    verify::attest_batch(batch, options, out, [&](std::size_t i) {
      return classic_hooks(batch[i], options, cfg, static_cast<int>(i));
    });
  }
  return out;
}

accel::HeteroSvdConfig planned_config(std::size_t rows, std::size_t cols,
                                      int batch, const SvdOptions& options) {
  validate_options(options);
  HSVD_REQUIRE(rows >= 1 && cols >= 1, "matrix shape must be non-empty");
  HSVD_REQUIRE(batch >= 1, "batch must be at least 1");
  return choose_config(rows, cols, batch, options);
}

void validate_host_budget(int threads, int shards) {
  HSVD_REQUIRE(threads >= 0, "threads must be nonnegative (0 = auto)");
  HSVD_REQUIRE(shards >= 1, "shards must be at least 1");
  const int per_shard = std::max(threads, 1);
  const int hardware = common::ThreadPool::hardware_threads();
  if (per_shard * shards > hardware) {
    throw InputError(cat("host budget exceeded: ", threads, " thread(s) x ",
                         shards, " shard(s) needs ", per_shard * shards,
                         " workers but the machine has ", hardware,
                         " hardware threads; lower --threads or --shards"));
  }
}

linalg::MatrixF derive_v(const linalg::MatrixF& a, const linalg::MatrixF& u,
                         const std::vector<float>& sigma, int threads) {
  HSVD_REQUIRE(u.rows() == a.rows(), "U row count must match A");
  HSVD_REQUIRE(sigma.size() <= u.cols(), "sigma longer than U");
  for (std::size_t t = 0; t < sigma.size(); ++t) {
    if (!std::isfinite(sigma[t])) {
      throw InputError(cat("sigma contains a non-finite entry at ", t));
    }
  }
  linalg::MatrixF v(a.cols(), sigma.size());
  // Null-space cutoff, relative to the spectrum's scale: a singular
  // value at or below the float noise floor (~eps * sigma_max) is
  // numerical debris from a rank-deficient input, and dividing by it
  // would inflate A^T u_t noise into an O(sigma_max) column.
  float scale = 0.0f;
  for (float s : sigma) scale = std::max(scale, s);
  const float cutoff = std::max(1e-12f, 1e-6f * scale);
  // Row j of V needs one fused dot per kept singular value:
  // v(j, t) = (a.col(j) . u.col(t)) / sigma[t]. Rows are independent, so
  // they are distributed over the pool; each entry's arithmetic is a
  // self-contained dot, making the result thread-count invariant.
  const int width = common::ThreadPool::resolve_threads(threads);
  common::ThreadPool::shared().parallel_for(
      a.cols(), width,
      [&](std::size_t j) {
        auto aj = a.col(j);
        for (std::size_t t = 0; t < sigma.size(); ++t) {
          if (sigma[t] <= cutoff) continue;
          const float inv = 1.0f / sigma[t];
          v(j, t) = linalg::dot<float>(aj, u.col(t)) * inv;
        }
      },
      "derive-v");
  return v;
}

}  // namespace hsvd
