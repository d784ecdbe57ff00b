// HeteroSVD -- public API facade.
//
// One include for downstream users:
//
//   #include "heterosvd.hpp"
//
//   hsvd::linalg::MatrixF a = ...;           // rows >= cols, column-major
//   hsvd::Svd result = hsvd::svd(a);         // DSE-chosen accelerator run
//   // result.u, result.sigma (descending), result.v
//
// svd() picks the accelerator micro-architecture with the DSE flow
// (latency objective for a single matrix, throughput objective for
// batches) and executes functionally on the simulated Versal fabric.
// Lower-level control: build an accel::HeteroSvdConfig yourself and use
// accel::HeteroSvdAccelerator directly; every layer below is public.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/config.hpp"
#include "backend/slo.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/retry.hpp"
#include "dse/explorer.hpp"
#include "linalg/matrix.hpp"
#include "obs/obs.hpp"
#include "scenarios/scenario.hpp"
#include "verify/policy.hpp"
#include "versal/faults.hpp"
#include "versal/utilization.hpp"

namespace hsvd {

struct SvdOptions {
  // Convergence threshold on the pair coherence of eq. (6).
  double precision = 1e-6;
  // Device to target; defaults to the VCK190 of the paper.
  versal::DeviceResources device = versal::vck190();
  // When set, skip the DSE and use this configuration (its rows/cols are
  // overwritten to match the input).
  std::optional<accel::HeteroSvdConfig> config;
  // Accumulate V (adds an A^T U Sigma^-1 pass on the host; the hardware
  // computes U and Sigma only, exactly as the paper's Algorithm 1).
  bool want_v = true;
  // Host worker threads for the batch engine and the derive_v pass.
  // 0 = auto (HSVD_THREADS env var, else all hardware cores); 1 forces
  // single-threaded execution. Results are bit-identical for any value:
  // parallel work is partitioned over independent task slots / columns
  // and the simulated timing model is untouched.
  int threads = 0;
  // Simulated AIE arrays to partition each decomposition across (see
  // DESIGN.md section 11). 1 (the default) is the paper's single-array
  // engine. S > 1 distributes the block tournament ring over S arrays:
  // factors are bit-identical to the single-array path for every S
  // (tournament rounds are disjoint, so rotation order is unchanged);
  // only the simulated timeline differs, with cross-shard ring moves
  // priced over the AIE->PL->NoC/DDR->PL->AIE edge.
  int shards = 1;
  // Fault injector to attach to the accelerator (not owned; nullptr =
  // fault-free). Injected faults are detected at the dataflow boundaries
  // and surface per result as SvdStatus::kFailed after recovery runs out.
  versal::FaultInjector* fault_injector = nullptr;
  // Recovery budget: masked-tile re-placement + re-run rounds (see
  // accel::HeteroSvdConfig::fault_retries).
  int fault_retries = 2;
  // Observability context (not owned; nullptr = off, the default).
  // Attaching one records metrics (and, when its tracer is enabled,
  // simulated + host timeline events) for the run. Guaranteed inert:
  // results are bit-identical and the simulated timing is unchanged
  // whether or not an observer is attached -- an enabled tracer only
  // changes how the *host* schedules the identical simulated work.
  obs::ObsContext* observer = nullptr;
  // Cooperative deadline / cancellation token (not owned; nullptr =
  // unbounded). The accelerator polls it at slot-chain boundaries and
  // the call throws hsvd::DeadlineExceeded once it expires; the factors
  // computed so far are abandoned. Build one with
  // common::CancelToken::with_budget(clock, seconds).
  const common::CancelToken* cancel = nullptr;
  // Transient-failure retry: when set, a run that ends in FaultDetected
  // (or, if the policy says so, SvdStatus::kNotConverged) is re-submitted
  // on a freshly built accelerator after an exponential backoff with
  // deterministic seeded jitter, up to retry->max_attempts total
  // attempts. svd_batch() re-submits only the affected tasks. Retries
  // respect `cancel`: backoff never sleeps past the deadline.
  std::optional<common::RetryPolicy> retry;
  // Clock used for backoff sleeps (not owned; nullptr = the process
  // monotonic clock). Tests inject a common::FakeClock so retries run
  // without real sleeps.
  common::Clock* clock = nullptr;
  // Execution backend (DESIGN.md section 14). "" (the default) is the
  // classic AIE-simulator path, bit-identical to pre-router behaviour.
  // "auto" routes through the SLO-aware cost-model router across the
  // registered backends; an explicit name ("aie", "aie-sharded", "cpu",
  // "fpga-bcv", "gpu-wcycle") pins that backend and bypasses scoring.
  // Setting `slo` with an empty backend implies "auto". A pin combined
  // with an slo is rejected as InputError (the pin makes the objective
  // unreachable by construction).
  std::string backend;
  std::optional<backend::Slo> slo;
  // Result attestation (DESIGN.md section 15). Off by default: results,
  // timings, and routing are bit-identical to a build without the
  // verify layer. When the policy selects a request, the returned
  // factors are scored by verify::ResultVerifier and a failure climbs
  // the escalation ladder (re-run -> re-route -> host reference); the
  // full provenance lands in Svd::verify_report.
  verify::VerifyPolicy verify;
  // Workload-scenario front-end (DESIGN.md section 16). kAuto (the
  // default) engages the Householder-QR pre-reduction only above the
  // aspect-ratio threshold in `scenario_opts` and the randomized sketch
  // only when `top_k` asks for it -- below the threshold with top_k == 0
  // the dense path runs untouched, bit-identical to kOff. kOff pins the
  // dense one-shot path regardless of shape; kTallSkinny / kTruncated
  // force a front-end. An engaged front-end declares the backends it
  // can carry (scenarios::allowed_backends): a pin to a modeled
  // comparator is rejected as InputError. svd_batch() accepts only
  // kAuto (never engaging) and kOff -- scenario requests are served one
  // matrix at a time, which is how the serving layer dispatches them.
  scenarios::Scenario scenario = scenarios::Scenario::kAuto;
  // Truncated top-k query: 0 (the default) = full decomposition; k >= 1
  // serves the leading k singular triplets through the randomized
  // sketch front-end and records the a-posteriori error bound in
  // Svd::scenario_bound. Requires scenario kAuto or kTruncated and
  // k <= min(rows, cols).
  std::size_t top_k = 0;
  // Knobs for the scenario front-ends (aspect threshold, sketch shape
  // and seed, streaming-update drift checks).
  scenarios::ScenarioOptions scenario_opts;
};

struct Svd {
  linalg::MatrixF u;          // rows x cols, orthonormal columns
  std::vector<float> sigma;   // descending
  linalg::MatrixF v;          // cols x cols (empty if !want_v)
  int iterations = 0;
  double convergence_rate = 0.0;
  // Accelerator-clock latency of this matrix (simulated seconds).
  double accelerator_seconds = 0.0;
  // Robustness outcome. kOk: factors valid and (in precision mode) the
  // coherence target was reached. kNotConverged: factors are the best
  // available but the sweep budget ran out or the convergence watchdog
  // tripped (`converged` is false, `message` says which). kFailed: a
  // hardware fault was detected and recovery was exhausted -- factors
  // are empty, `message` carries the diagnostic. Only svd_batch()
  // returns kFailed results; svd() throws FaultDetected instead.
  SvdStatus status = SvdStatus::kOk;
  bool converged = true;
  std::string message;
  // 0 when the first attempt succeeded; n when the result came from the
  // nth masked-tile re-placement retry.
  int recovery_attempts = 0;
  // Facade-level re-submissions consumed by SvdOptions::retry (0 when
  // the first submission produced this result). Distinct from
  // recovery_attempts, which counts in-run masked-tile re-placements.
  int retries = 0;
  // Routing provenance (empty / zero on the classic un-routed path).
  // Which backend produced this result.
  std::string backend;
  // Honesty labels (DESIGN.md section 14): every reported time says
  // where it came from, and sources are never mixed. modeled_time means
  // the backend is a fitted model of a published comparator (fpga-bcv /
  // gpu-wcycle): the factors are real (host one-sided Jacobi) but the
  // *reported* latency is modeled_seconds from the published anchors --
  // modeled_extrapolated flags a shape clamped outside the anchor range.
  // wall_seconds is the host execution time for every host-executed
  // backend (cpu and the model-backed ones); the AIE paths report
  // simulated time in accelerator_seconds instead.
  bool modeled_time = false;
  double modeled_seconds = 0.0;
  bool modeled_extrapolated = false;
  double wall_seconds = 0.0;
  // Energy attributed by the backend's power model (0 when it has none).
  double energy_joules = 0.0;
  // Attestation provenance (checked == false when the verify policy is
  // off or did not sample this request): which ladder rung produced the
  // final answer and what every executed rung scored.
  verify::VerifyReport verify_report;
  // Scenario provenance (DESIGN.md section 16): which front-end shaped
  // this result ("" = the dense one-shot path, else "tall-skinny",
  // "truncated", or "update"), the k actually served for a truncated
  // query, and the scenario's error-bound contract -- the a-posteriori
  // relative Frobenius bound ||A - U_k S_k V_k^T||_F / ||A||_F for the
  // truncated sketch, the verifier residual bound the assembled factors
  // are held to for the exact front-ends. On a scenario result the
  // time/energy labels above describe the inner dense core run; the
  // host pre-reduction and assembly stages are not included.
  std::string scenario;
  std::size_t scenario_top_k = 0;
  double scenario_bound = 0.0;
  bool ok() const { return status != SvdStatus::kFailed; }
};

// Singular value decomposition of one tall-or-square matrix.
//
// A wide input is decomposed through its transpose, and a scenario
// front-end may reduce the problem first (SvdOptions::scenario). The
// dense core then runs as svd_batch() of one matrix -- the same
// execution, retry and routing path, with the same results -- except
// that a result still kFailed after recovery and retries is thrown as
// hsvd::FaultDetected before attestation instead of being returned.
// So svd() shares svd_batch()'s retry rules: each attempt's result takes
// the injected silent errors (a one-shot corruption may land on a
// kNotConverged attempt that is then retried), and a deadline that
// expires before or during a retry round ends retrying with the previous
// attempt's outcome: a failed attempt then throws FaultDetected with its
// message, not DeadlineExceeded.
//
// Errors: throws hsvd::InputError (an std::invalid_argument) for invalid
// input -- empty matrices, NaN/Inf entries, malformed options (negative
// fault_retries or threads, non-positive precision, an invalid retry
// policy) -- hsvd::FaultDetected (an std::runtime_error) when an
// injected hardware fault is detected and the recovery (and retry)
// budget is exhausted, and hsvd::DeadlineExceeded when an attached
// cancel token expires before the decomposition or during its first
// attempt. A matrix that merely fails to reach the precision target is
// NOT an error: the result comes back with status ==
// SvdStatus::kNotConverged and converged == false.
Svd svd(const linalg::MatrixF& a, const SvdOptions& options = {});

// Batched decomposition: all matrices share one shape and one
// accelerator configuration (chosen by the DSE throughput objective).
struct BatchSvd {
  std::vector<Svd> results;
  double batch_seconds = 0.0;              // simulated makespan
  double throughput_tasks_per_s = 0.0;
  accel::HeteroSvdConfig config;           // what the DSE picked
  int shards = 1;                          // arrays the batch ran across
  // Fault outcome of the batch: a detected fault fails only its own
  // task; the rest of the batch completes with results bit-identical to
  // a fault-free run. results[i].status says which tasks survived.
  int failed_tasks = 0;                    // still kFailed after recovery
  int recovery_runs = 0;                   // re-placement rounds consumed
  // Per-tile busy/stall/idle tallies and link-byte counters of the run
  // (always populated; render with accel::render_utilization).
  versal::UtilizationReport utilization;
  // Backend the batch ran on ("" on the classic un-routed path). Routed
  // host/model backends leave `config`/`utilization` default -- they have
  // no accelerator run to describe.
  std::string backend;
};
//
// Errors: throws hsvd::InputError for invalid input (empty batch, mixed
// shapes, NaN/Inf entries, malformed options) and hsvd::DeadlineExceeded
// when an attached cancel token expires before the batch or during its
// first attempt. Detected hardware faults never throw here -- each one
// fails only its own task (results[i].status == SvdStatus::kFailed with
// the diagnostic in message) and every healthy task completes
// bit-identical to a fault-free run. With SvdOptions::retry set,
// still-failed (and optionally non-converged) tasks are re-submitted on
// a fresh accelerator with backoff between attempts; a deadline that
// expires before or during a retry round stops retrying and keeps the
// previous attempt's statuses. With the verify policy on, every result
// is attested (a kFailed one is answered by the escalation ladder).
BatchSvd svd_batch(const std::vector<linalg::MatrixF>& batch,
                   const SvdOptions& options = {});

// The accelerator configuration svd()/svd_batch() would run `rows` x
// `cols` matrices with under `options`: the pinned options.config when
// set (rows/cols overwritten), otherwise the DSE choice (latency
// objective for batch == 1, throughput for larger batches), with
// precision/threads/fault_retries folded in. The serving layer's
// coalescer uses this with batch = 1 to dispatch a micro-batch under
// exactly the configuration each member would have been served with
// individually -- which is what makes coalesced results bit-identical
// to uncoalesced serial execution.
accel::HeteroSvdConfig planned_config(std::size_t rows, std::size_t cols,
                                      int batch, const SvdOptions& options);

// Rejects a threads/shards combination that oversubscribes the host:
// throws hsvd::InputError when max(threads, 1) * shards exceeds the
// machine's hardware thread count (each shard's per-round fan-out wants
// its own worker; threads = 0 means auto and counts as one because the
// pool partitions rather than multiplies). The hsvd CLI calls this for
// explicit --threads/--shards flags; programmatic callers may opt in.
void validate_host_budget(int threads, int shards);

// Recovers V from A ~ U diag(sigma) V^T (V = A^T U Sigma^-1). Columns
// belonging to (near-)zero singular values are left zero. Rows of V are
// computed with the fused dot kernel and distributed over `threads` pool
// workers (0 = auto, 1 = inline); every entry is an independent dot, so
// the result is identical for any thread count.
linalg::MatrixF derive_v(const linalg::MatrixF& a, const linalg::MatrixF& u,
                         const std::vector<float>& sigma, int threads = 1);

}  // namespace hsvd
