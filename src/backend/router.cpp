#include "backend/router.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "verify/escalate.hpp"

namespace hsvd::backend {

namespace {

// Lower-is-better scalarization of an estimate under one SLO kind.
double objective_value(const Estimate& e, SloKind kind) {
  switch (kind) {
    case SloKind::kLatency:
      return e.latency_seconds;
    case SloKind::kThroughput:
      return e.throughput_tasks_per_s > 0.0 ? 1.0 / e.throughput_tasks_per_s
                                            : std::numeric_limits<double>::max();
    case SloKind::kEnergy:
      return e.energy_per_task_joules;
  }
  return std::numeric_limits<double>::max();
}

// Does this candidate meet the request's explicit bound (when one is
// set)? Backends without an energy model report 0 J and would trivially
// "meet" any budget, so the energy objective marks them infeasible.
bool meets_slo(const Candidate& c, const Slo& slo) {
  if (!c.estimate.feasible) return false;
  switch (slo.kind) {
    case SloKind::kLatency:
      return slo.deadline_seconds <= 0.0 ||
             c.estimate.latency_seconds <= slo.deadline_seconds;
    case SloKind::kThroughput:
      return true;  // batch refines the estimate; there is no hard bound
    case SloKind::kEnergy:
      if (!c.backend->capabilities().has_energy_model) return false;
      return slo.energy_budget_joules <= 0.0 ||
             c.estimate.energy_per_task_joules <= slo.energy_budget_joules;
  }
  return false;
}

// How much an estimate should be trusted, for breaking near-ties:
// simulated/measured beats a fitted comparator model (a log-log fit to
// four published anchors carries more than a few percent of error), and
// anything beats a value clamped outside its anchor range.
int trust_rank(const Candidate& c) {
  return (c.backend->capabilities().modeled_time ? 1 : 0) +
         (c.estimate.modeled_extrapolated ? 2 : 0);
}

// Within this relative band two objective values are "the same number"
// as far as the models can tell, and trust decides instead.
constexpr double kNearTie = 0.05;

// Strict preference order: SLO-feasibility first, then the objective,
// with near-ties broken by trust_rank. This is what keeps the n = 128
// latency crossover honest: the simulated AIE (1.41 ms) and the FPGA
// comparator's fitted model (1.40 ms) are within the fit's error band,
// and the router must not prefer a model over its own simulator on a
// sub-percent modeled margin.
bool better(const Candidate& a, const Candidate& b, SloKind kind) {
  if (a.slo_feasible != b.slo_feasible) return a.slo_feasible;
  const double oa = objective_value(a.estimate, kind);
  const double ob = objective_value(b.estimate, kind);
  const int ta = trust_rank(a);
  const int tb = trust_rank(b);
  if (ta != tb && std::abs(oa - ob) <= kNearTie * std::min(oa, ob)) {
    return ta < tb;
  }
  return oa < ob;  // exact ties keep the incumbent (registry order)
}

// Picks the winner among the scored candidates and writes its name into
// the decision. Cheap (no estimate() calls), so it reruns on every memo
// hit against the request's actual deadline/budget.
void pick_winner(RouteDecision& decision) {
  for (auto& c : decision.candidates) c.slo_feasible = meets_slo(c, decision.slo);
  const Candidate* best = nullptr;
  for (const auto& c : decision.candidates) {
    if (!c.estimate.feasible) continue;
    if (c.quarantined) continue;  // health breaker refused this backend
    if (decision.slo.kind == SloKind::kEnergy &&
        !c.backend->capabilities().has_energy_model) {
      continue;
    }
    if (best == nullptr || better(c, *best, decision.slo.kind)) best = &c;
  }
  decision.backend = best != nullptr ? best->backend->name() : "";
}

void count(const SvdOptions& options, const std::string& name,
           std::uint64_t delta = 1) {
  if (options.observer != nullptr) options.observer->metrics().add(name, delta);
}

// The SLO a routed request is scored against when the caller set a
// backend of "auto" without an explicit Slo.
Slo effective_slo(const SvdOptions& options, int batch) {
  if (options.slo.has_value()) return *options.slo;
  Slo slo;
  if (batch > 1) {
    slo.kind = SloKind::kThroughput;
    slo.batch = batch;
  }
  return slo;
}

// Routes (or honors the pin in) `options` and returns the backend to
// execute on, recording the dispatch metrics.
const Backend& dispatch_target(std::size_t rows, std::size_t cols, int batch,
                               const SvdOptions& options, bool admit) {
  Router& router = Router::shared();
  if (!options.backend.empty() && options.backend != "auto") {
    // An explicit pin bypasses scoring AND health admission: the caller
    // forced this backend, quarantine must not silently reroute them.
    count(options, "route.pinned");
    count(options, cat("route.dispatch.", options.backend));
    return router.find(options.backend);
  }
  const RouteDecision decision =
      router.route(rows, cols, effective_slo(options, batch), options, admit);
  if (decision.backend.empty()) {
    throw PlacementError(
        cat("no backend is feasible for ", rows, "x", cols,
            " under slo ", slo_class(decision.slo)));
  }
  count(options, decision.memo_hit ? "route.memo.hit" : "route.memo.miss");
  count(options, cat("route.dispatch.", decision.backend));
  return router.find(decision.backend);
}

// Records how far the winner's estimate was from what execution actually
// reported. Only meaningful where the result carries a time measured
// independently of the estimate: simulated seconds on the AIE backends,
// wall seconds on the CPU. The model-backed comparators *report* their
// fitted model, so comparing it to itself would fake a perfect router.
void observe_estimate_error(const SvdOptions& options, const Backend& backend,
                            const Svd& result, std::size_t rows,
                            std::size_t cols) {
  if (options.observer == nullptr || backend.capabilities().modeled_time) {
    return;
  }
  const double actual = backend.capabilities().bit_identical_to_aie
                            ? result.accelerator_seconds
                            : result.wall_seconds;
  Slo slo;  // latency estimate, the per-task figure both paths report
  const Estimate est = backend.estimate(rows, cols, slo, options);
  if (!est.feasible || est.latency_seconds <= 0.0 || actual <= 0.0) return;
  options.observer->metrics().observe(
      "route.estimate.rel_error",
      std::abs(actual - est.latency_seconds) / est.latency_seconds);
}

}  // namespace

Router::Router(std::vector<std::unique_ptr<Backend>> backends)
    : backends_(std::move(backends)) {}

RouteDecision Router::route(std::size_t rows, std::size_t cols, const Slo& slo,
                            const SvdOptions& options, bool admit) const {
  slo.validate();
  RouteDecision decision;
  decision.slo = slo;
  const MemoKey key{rows, cols, slo_class(slo)};
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      decision.candidates = it->second;
      decision.memo_hit = true;
    }
  }
  if (!decision.memo_hit) {
    decision.candidates.reserve(backends_.size());
    for (const auto& b : backends_) {
      Candidate c;
      c.backend = b.get();
      c.estimate = b->estimate(rows, cols, slo, options);
      decision.candidates.push_back(std::move(c));
    }
    std::lock_guard<std::mutex> lock(memo_mutex_);
    memo_.emplace(key, decision.candidates);
  }
  // The feasibility flags and the argmin depend on the request's actual
  // deadline/budget (excluded from the memo key), so always recompute.
  pick_winner(decision);
  // Health admission, verified paths only (the off policy keeps routing
  // bit-identical to a build without the verify layer). Winner-first:
  // only the would-be winner ever touches its breaker, so losing
  // candidates never consume half-open probe slots.
  if (admit && options.verify.enabled()) {
    while (!decision.backend.empty() &&
           !admit_backend(decision.backend, options)) {
      for (auto& c : decision.candidates) {
        if (decision.backend == c.backend->name()) c.quarantined = true;
      }
      pick_winner(decision);
    }
  }
  return decision;
}

bool Router::admit_backend(const std::string& name,
                           const SvdOptions& options) const {
  serve::BreakerState before;
  serve::BreakerState after;
  bool admitted;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    auto it = health_.find(name);
    if (it == health_.end()) return true;  // never fed: healthy
    before = it->second.state();
    admitted = it->second.allow();
    after = it->second.state();
  }
  if (before != after) {
    // allow() moved a cooled-down breaker open -> half-open.
    invalidate_memo();
    count(options, "route.health.memo_invalidate");
    count(options, cat("route.health.", name, ".", to_string(after)));
  }
  if (admitted && after == serve::BreakerState::kHalfOpen) {
    count(options, "route.health.probe");
  }
  if (!admitted) count(options, "route.health.refused");
  return admitted;
}

void Router::record_health(const std::string& backend, bool ok,
                           const SvdOptions& options) const {
  if (backend.empty() || backend == "reference") return;
  bool known = false;
  for (const auto& b : backends_) {
    if (backend == b->name()) {
      known = true;
      break;
    }
  }
  if (!known) return;
  serve::BreakerState before;
  serve::BreakerState after;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    auto it = health_.find(backend);
    if (it == health_.end()) {
      // A success on a backend with no ledger changes nothing: stay
      // stateless until the first failure.
      if (ok) return;
      const common::Clock* clock = options.clock != nullptr
                                       ? options.clock
                                       : &common::MonotonicClock::instance();
      it = health_
               .emplace(std::piecewise_construct,
                        std::forward_as_tuple(backend),
                        std::forward_as_tuple(health_policy_, clock))
               .first;
    }
    before = it->second.state();
    if (ok) {
      it->second.record_success();
    } else {
      it->second.record_failure();
    }
    after = it->second.state();
  }
  if (before == after) return;
  invalidate_memo();
  count(options, "route.health.memo_invalidate");
  count(options, cat("route.health.", backend, ".", to_string(after)));
  if (after == serve::BreakerState::kOpen) {
    count(options, "route.health.quarantine");
  } else if (after == serve::BreakerState::kClosed) {
    count(options, "route.health.recovered");
  }
}

void Router::record_health_neutral(const std::string& backend) const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  auto it = health_.find(backend);
  if (it != health_.end()) it->second.record_neutral();
}

serve::BreakerState Router::health_state(const std::string& backend) const {
  std::lock_guard<std::mutex> lock(health_mutex_);
  auto it = health_.find(backend);
  return it == health_.end() ? serve::BreakerState::kClosed
                             : it->second.state();
}

void Router::set_health_policy(const serve::BreakerPolicy& policy) {
  policy.validate();
  std::lock_guard<std::mutex> lock(health_mutex_);
  health_policy_ = policy;
}

void Router::reset_health() {
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    health_.clear();
  }
  invalidate_memo();
}

void Router::invalidate_memo() const {
  std::lock_guard<std::mutex> lock(memo_mutex_);
  memo_.clear();
}

const Backend* Router::alternate(std::size_t rows, std::size_t cols,
                                 const SvdOptions& options,
                                 const std::string& exclude) const {
  RouteDecision decision =
      route(rows, cols, effective_slo(options, 1), options, false);
  for (auto& c : decision.candidates) {
    if (exclude == c.backend->name()) c.quarantined = true;
  }
  pick_winner(decision);
  while (!decision.backend.empty() &&
         !admit_backend(decision.backend, options)) {
    for (auto& c : decision.candidates) {
      if (decision.backend == c.backend->name()) c.quarantined = true;
    }
    pick_winner(decision);
  }
  return decision.backend.empty() ? nullptr : &find(decision.backend);
}

const Backend& Router::find(const std::string& name) const {
  for (const auto& b : backends_) {
    if (name == b->name()) return *b;
  }
  throw InputError(cat("unknown backend '", name,
                       "' (expected aie, aie-sharded, cpu, fpga-bcv, or "
                       "gpu-wcycle)"));
}

Router& Router::shared() {
  static Router* instance =
      new Router(make_backends(dse::DesignSpaceExplorer{}));
  return *instance;
}

namespace {

// One execution of `target`, with silent corruption applied at this
// layer for backends outside the AIE fault domain (the AIE backends
// recurse into the classic path, which applies it internally -- doing
// both would double-corrupt).
Svd run_target(const Backend& target, const linalg::MatrixF& a,
               const SvdOptions& options, int slot) {
  Svd result = target.execute(a, options);
  if (!target.capabilities().bit_identical_to_aie) {
    verify::apply_silent_faults(options, slot, result);
  }
  return result;
}

// Escalation hooks for routed requests: re-run repeats the winning
// backend, re-route asks the Router for the best admitted alternate
// (the failing primary disqualified), and every rung's outcome feeds
// the per-backend health ledger.
verify::EscalationHooks routed_hooks(const linalg::MatrixF& a,
                                     const SvdOptions& options,
                                     const Backend& target, int slot) {
  verify::EscalationHooks hooks;
  hooks.primary_backend = target.name();
  hooks.health = [&options](const std::string& name, bool ok) {
    Router::shared().record_health(name, ok, options);
  };
  hooks.rerun = [&a, &options, &target, slot]() {
    return run_target(target, a, options, slot);
  };
  hooks.reroute = [&a, &options, &target, slot](std::string* used) {
    const Backend* alt =
        Router::shared().alternate(a.rows(), a.cols(), options, target.name());
    if (alt == nullptr) {
      throw PlacementError(cat("no alternate backend for re-routing off '",
                               target.name(), "'"));
    }
    *used = alt->name();
    count(options, cat("route.dispatch.", alt->name()));
    return run_target(*alt, a, options, slot);
  };
  return hooks;
}

// A routed execution: the backend that won the route and its batch.
struct RoutedRun {
  const Backend* target = nullptr;
  BatchSvd out;
};

// The one routed execution path, for svd() and svd_batch() alike:
// dispatches `batch` through the shared router and runs it on the
// winner's execute_batch. On the verified path a throw feeds the
// winner's health ledger before it propagates: a deadline expiry or
// invalid input is breaker-neutral (an admitted probe slot is released
// without judgment), anything else is a failure.
RoutedRun run_routed(const std::vector<linalg::MatrixF>& batch,
                     const SvdOptions& options) {
  RoutedRun run;
  run.target = &dispatch_target(batch.front().rows(), batch.front().cols(),
                                static_cast<int>(batch.size()), options,
                                /*admit=*/true);
  const bool verified_path = options.verify.enabled();
  const char* name = run.target->name();
  try {
    run.out = run.target->execute_batch(batch, options);
  } catch (const DeadlineExceeded&) {
    if (verified_path) Router::shared().record_health_neutral(name);
    throw;
  } catch (const InputError&) {
    if (verified_path) Router::shared().record_health_neutral(name);
    throw;
  } catch (...) {
    if (verified_path) Router::shared().record_health(name, false, options);
    throw;
  }
  return run;
}

// Attestation pass on the verified path; unsampled results still feed
// their outcome to the winner's health ledger.
void attest_routed(const std::vector<linalg::MatrixF>& batch,
                   const SvdOptions& options, RoutedRun& run) {
  if (!options.verify.enabled()) return;
  verify::attest_batch(batch, options, run.out, [&](std::size_t i) {
    return routed_hooks(batch[i], options, *run.target, static_cast<int>(i));
  });
}

}  // namespace

Svd execute_routed(const linalg::MatrixF& a, const SvdOptions& options) {
  const std::vector<linalg::MatrixF> one{a};
  RoutedRun run = run_routed(one, options);
  const Svd& result = run.out.results.front();
  if (!result.ok()) {
    // A single-matrix call has no partial batch to salvage: the
    // unrecovered fault is a health failure and surfaces as the typed
    // exception, before any attestation.
    if (options.verify.enabled()) {
      Router::shared().record_health(run.target->name(), false, options);
    }
    throw FaultDetected(result.message.empty()
                            ? std::string("hardware fault detected")
                            : result.message);
  }
  observe_estimate_error(options, *run.target, result, a.rows(), a.cols());
  attest_routed(one, options, run);
  return std::move(run.out.results.front());
}

BatchSvd execute_routed_batch(const std::vector<linalg::MatrixF>& batch,
                              const SvdOptions& options) {
  RoutedRun run = run_routed(batch, options);
  attest_routed(batch, options, run);
  return std::move(run.out);
}

}  // namespace hsvd::backend
