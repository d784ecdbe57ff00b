// Escalation ladder for verified compute (DESIGN.md section 15).
//
// attest_result() is the single choke point every execution path funnels
// its answer through. When the policy selects the request, the result is
// scored by ResultVerifier; a failure climbs the ladder
//
//   primary -> rerun (same backend) -> reroute (alternate backend)
//           -> host double-precision reference
//
// until a rung verifies clean. Each rung is supplied by the caller as a
// hook (the classic path and the router wire them differently); missing
// hooks are skipped, the reference rung is always available. Every rung
// executed is recorded in Svd::verify_report with its scores, and each
// rung's pass/fail is fed to the health hook so the router's per-backend
// error budgets learn from attestation outcomes. With the policy off (or
// the request not sampled) the input result is returned untouched --
// bit-identical to a build without the verify layer.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "heterosvd.hpp"
#include "linalg/matrix.hpp"
#include "verify/policy.hpp"

namespace hsvd::verify {

// Rung suppliers for one attestation. Any hook may be empty; the ladder
// skips rungs it cannot run. Hooks may throw -- the failure is recorded
// in the report and the ladder continues to the next rung.
struct EscalationHooks {
  // Provenance/health label of the backend that produced the primary
  // result ("" = the classic AIE path).
  std::string primary_backend;
  // Re-executes the request on the same backend.
  std::function<Svd()> rerun;
  // Re-routes to an alternate backend; writes the backend actually used
  // into *used_backend before returning.
  std::function<Svd(std::string* used_backend)> reroute;
  // Health feedback: called once per rung with the backend that
  // produced the candidate and whether it attested clean. Also called
  // on the unchecked path with the execution outcome, so error budgets
  // see every dispatch.
  std::function<void(const std::string& backend, bool ok)> health;
};

// Attests `result` (the decomposition of `a` under `options`) and
// escalates on failure. Returns the final answer with verify_report
// filled in. Never throws on a verification failure -- the worst case
// is the reference rung's answer with report.verified=false.
Svd attest_result(const linalg::MatrixF& a, const SvdOptions& options,
                  Svd result, const EscalationHooks& hooks);

// Attests every result of `out` (the decompositions of `batch`) with
// task i's rungs from hooks_for(i), and recounts out.failed_tasks. Runs
// serially: a ladder's re-run rung may build a fresh accelerator, which
// must not nest inside the pool.
void attest_batch(
    const std::vector<linalg::MatrixF>& batch, const SvdOptions& options,
    BatchSvd& out,
    const std::function<EscalationHooks(std::size_t)>& hooks_for);

// The terminal rung: host double-precision one-sided Jacobi, cast back
// to the library's fp32 factor types. Handles wide inputs by
// transposition. backend is set to "reference".
Svd reference_result(const linalg::MatrixF& a, bool want_v);

// Applies any armed versal::FaultKind::kSilentError for `task_slot` to
// the result's factors. Called *after* every dataflow detection point
// has passed -- this is the corruption that only attestation can see.
// No-op without an injector or on a factorless (failed) result.
void apply_silent_faults(const SvdOptions& options, int task_slot, Svd& out);

}  // namespace hsvd::verify
