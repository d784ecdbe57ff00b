#include "verify/escalate.hpp"

#include <exception>
#include <utility>

#include "common/format.hpp"
#include "linalg/ops.hpp"
#include "linalg/reference_svd.hpp"
#include "obs/obs.hpp"
#include "verify/verifier.hpp"

namespace hsvd::verify {

namespace {

void count(const SvdOptions& options, const char* name) {
  if (options.observer != nullptr) options.observer->metrics().add(name);
}

}  // namespace

Svd reference_result(const linalg::MatrixF& a, bool want_v) {
  const bool wide = a.cols() > a.rows();
  const linalg::MatrixD ad =
      wide ? linalg::transpose(a).cast<double>() : a.cast<double>();
  const linalg::SvdResult ref = linalg::reference_svd(ad);

  Svd out;
  out.status = SvdStatus::kOk;
  out.converged = true;
  out.iterations = ref.sweeps;
  out.backend = "reference";
  out.sigma.assign(ref.sigma.begin(), ref.sigma.end());
  linalg::MatrixF uf = ref.u.cast<float>();
  linalg::MatrixF vf = ref.v.cast<float>();
  if (wide) {
    // A^T = U' Sigma V'^T implies A = V' Sigma U'^T.
    out.u = std::move(vf);
    if (want_v) out.v = std::move(uf);
  } else {
    out.u = std::move(uf);
    if (want_v) out.v = std::move(vf);
  }
  return out;
}

void apply_silent_faults(const SvdOptions& options, int task_slot, Svd& out) {
  if (options.fault_injector == nullptr || !out.ok() || out.u.empty() ||
      out.sigma.empty()) {
    return;
  }
  if (options.fault_injector->corrupt_result(task_slot, out.u.data(),
                                             out.sigma)) {
    count(options, "faults.silent.injected");
  }
}

Svd attest_result(const linalg::MatrixF& a, const SvdOptions& options,
                  Svd result, const EscalationHooks& hooks) {
  const VerifyPolicy& policy = options.verify;
  if (!policy.enabled() || !policy.selects(verify_ident(a))) {
    // Unchecked path: still feed the execution outcome to the health
    // budget, then hand the result back untouched (bit-identity).
    if (hooks.health) {
      hooks.health(hooks.primary_backend,
                   result.status != SvdStatus::kFailed);
    }
    return result;
  }

  count(options, "verify.checked");
  const ResultVerifier verifier(options.precision);
  VerifyReport report;
  report.checked = true;

  auto score = [&](VerifyRung rung, const std::string& backend,
                   const Svd& candidate) {
    RungAttempt attempt;
    attempt.rung = rung;
    attempt.backend = backend;
    attempt.outcome = verifier.check(a, candidate);
    report.attempts.push_back(std::move(attempt));
    return report.attempts.back().outcome.passed;
  };
  auto record_throw = [&](VerifyRung rung, const std::string& backend,
                          const char* what) {
    RungAttempt attempt;
    attempt.rung = rung;
    attempt.backend = backend;
    attempt.outcome.note = cat("rung raised: ", what);
    report.attempts.push_back(std::move(attempt));
  };
  auto health = [&](const std::string& backend, bool ok) {
    if (hooks.health) hooks.health(backend, ok);
  };
  auto finish = [&](Svd&& answer, VerifyRung rung) {
    report.rung = rung;
    report.verified =
        !report.attempts.empty() && report.attempts.back().outcome.passed;
    count(options, report.verified ? "verify.pass" : "verify.escape");
    if (report.escalated()) count(options, "verify.escalated");
    if (options.observer != nullptr) {
      auto& metrics = options.observer->metrics();
      const VerifyOutcome& final_scores = report.attempts.back().outcome;
      if (final_scores.residual >= 0.0) {
        metrics.register_histogram(
            "verify.residual",
            obs::MetricsRegistry::exponential_bounds(1e-9, 4.0, 24));
        metrics.observe("verify.residual", final_scores.residual);
      }
      if (final_scores.u_orth >= 0.0) {
        metrics.register_histogram(
            "verify.u_orth",
            obs::MetricsRegistry::exponential_bounds(1e-9, 4.0, 24));
        metrics.observe("verify.u_orth", final_scores.u_orth);
      }
    }
    answer.verify_report = std::move(report);
    return std::move(answer);
  };

  // Rung 1: the primary execution.
  if (score(VerifyRung::kPrimary, hooks.primary_backend, result)) {
    health(hooks.primary_backend, true);
    return finish(std::move(result), VerifyRung::kPrimary);
  }
  count(options, "verify.fail.primary");
  health(hooks.primary_backend, false);

  // Rung 2: re-run on the same backend (clears transient corruption).
  if (hooks.rerun) {
    count(options, "verify.rung.rerun");
    try {
      Svd candidate = hooks.rerun();
      const bool ok =
          score(VerifyRung::kRerun, hooks.primary_backend, candidate);
      health(hooks.primary_backend, ok);
      if (ok) return finish(std::move(candidate), VerifyRung::kRerun);
    } catch (const std::exception& e) {
      record_throw(VerifyRung::kRerun, hooks.primary_backend, e.what());
      health(hooks.primary_backend, false);
    }
  }

  // Rung 3: re-route to an alternate backend.
  if (hooks.reroute) {
    count(options, "verify.rung.reroute");
    std::string used;
    try {
      Svd candidate = hooks.reroute(&used);
      const bool ok = score(VerifyRung::kReroute, used, candidate);
      health(used, ok);
      if (ok) return finish(std::move(candidate), VerifyRung::kReroute);
    } catch (const std::exception& e) {
      record_throw(VerifyRung::kReroute, used.empty() ? "reroute" : used,
                   e.what());
      if (!used.empty()) health(used, false);
    }
  }

  // Rung 4: the host double-precision reference, always available.
  count(options, "verify.rung.reference");
  try {
    Svd candidate = reference_result(a, options.want_v || !result.v.empty());
    score(VerifyRung::kReference, "reference", candidate);
    return finish(std::move(candidate), VerifyRung::kReference);
  } catch (const std::exception& e) {
    record_throw(VerifyRung::kReference, "reference", e.what());
    // Nothing better exists; surface the primary answer, unverified.
    return finish(std::move(result), VerifyRung::kReference);
  }
}

void attest_batch(
    const std::vector<linalg::MatrixF>& batch, const SvdOptions& options,
    BatchSvd& out,
    const std::function<EscalationHooks(std::size_t)>& hooks_for) {
  out.failed_tasks = 0;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    out.results[i] = attest_result(batch[i], options,
                                   std::move(out.results[i]), hooks_for(i));
    if (out.results[i].status == SvdStatus::kFailed) ++out.failed_tasks;
  }
}

}  // namespace hsvd::verify
