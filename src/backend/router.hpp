// SLO-aware cost-model router (DESIGN.md section 14).
//
// The paper's Tables II/III/VI establish a crossover: the AIE array wins
// small-n latency, the GPU baseline wins large-n throughput, and the
// fabric simply cannot place very large problems. The router turns that
// static observation into a live dispatch policy: score every registered
// backend's estimate(shape, slo) and execute on the argmin.
//
// Decisions are memoized per (rows, cols, slo-class) -- the slo *class*
// deliberately excludes the deadline/budget numbers (see slo_class), so
// the expensive scoring (a DSE enumeration per AIE backend) runs once per
// shape while the cheap SLO-feasibility flags and the final argmin are
// recomputed against each request's actual bounds.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "backend/backends.hpp"
#include "serve/circuit_breaker.hpp"

namespace hsvd::backend {

// One scored backend in a routing decision.
struct Candidate {
  const Backend* backend = nullptr;
  Estimate estimate;
  // True when the estimate is feasible AND meets the request's explicit
  // deadline / energy budget (when one is set). The router prefers
  // SLO-feasible candidates; when none exists it still dispatches the
  // best-objective backend rather than failing the request.
  bool slo_feasible = false;
  // True when the backend's health breaker refused this request (the
  // backend is quarantined or out of half-open probe slots). Set during
  // admission only -- never memoized -- and a quarantined candidate
  // cannot win the argmin.
  bool quarantined = false;
};

struct RouteDecision {
  // Winner's registry name; empty when no backend can run the shape.
  std::string backend;
  Slo slo;
  // All registered backends in registry order, each scored.
  std::vector<Candidate> candidates;
  // Whether the estimates came from the (rows, cols, slo-class) memo.
  bool memo_hit = false;
};

class Router {
 public:
  explicit Router(std::vector<std::unique_ptr<Backend>> backends);

  // Scores every backend for (rows x cols) under `slo` and picks the
  // winner. Never executes. Throws hsvd::PlacementError when no backend
  // is feasible for the shape (cannot happen with the default registry:
  // the host CPU always fits). With admit = true (the execute paths;
  // default false so `hsvd route` never consumes probe slots) and the
  // request's verify policy enabled, the winner is additionally checked
  // against its health breaker: a refused winner is marked quarantined
  // and the argmin re-picked among the rest. A half-open admission
  // consumes that breaker's probe slot -- the caller must execute and
  // report the outcome through record_health().
  RouteDecision route(std::size_t rows, std::size_t cols, const Slo& slo,
                      const SvdOptions& options, bool admit = false) const;

  // Per-backend health ledger (DESIGN.md section 15): feeds one
  // verification / execution outcome into `backend`'s rolling error
  // budget (a serve::CircuitBreaker). consecutive failures quarantine
  // the backend (kOpen: it stops winning routes) until the cooldown
  // elapses and a half-open probe verifies clean. Any state transition
  // invalidates the route memo and counts route.health.* metrics on
  // options.observer. Unknown names (including "reference") and the
  // classic "" path are ignored.
  void record_health(const std::string& backend, bool ok,
                     const SvdOptions& options) const;
  // Releases an admitted half-open probe slot without judging the
  // backend (the request ended breaker-neutral: deadline expiry or
  // invalid input). No-op for unknown or never-fed backends.
  void record_health_neutral(const std::string& backend) const;
  // Current breaker state (kClosed for a backend never fed).
  serve::BreakerState health_state(const std::string& backend) const;
  // Re-route rung helper: the normal scored argmin with `exclude`
  // disqualified and health admission applied. Returns nullptr when no
  // alternate is feasible for the shape.
  const Backend* alternate(std::size_t rows, std::size_t cols,
                           const SvdOptions& options,
                           const std::string& exclude) const;
  // Policy for breakers created after this call (existing breakers keep
  // theirs). Tests tighten thresholds / shorten cooldowns here.
  void set_health_policy(const serve::BreakerPolicy& policy);
  // Drops all health state and the route memo. Tests call this between
  // cases: Router::shared() is process-wide.
  void reset_health();

  // Lookup by registry name; throws hsvd::InputError for unknown names.
  const Backend& find(const std::string& name) const;

  const std::vector<std::unique_ptr<Backend>>& backends() const {
    return backends_;
  }

  // The process-wide router the facade dispatches through: the default
  // registry over one shared DSE explorer (whose cross-call memo all
  // routed requests share).
  static Router& shared();

 private:
  // True when `name` may take this request (breaker closed or a probe
  // slot granted); counts route.health.probe on a half-open grant.
  bool admit_backend(const std::string& name, const SvdOptions& options) const;
  void invalidate_memo() const;

  std::vector<std::unique_ptr<Backend>> backends_;
  // (rows, cols, slo_class) -> scored candidates. Guarded: routed
  // requests arrive concurrently from the serving layer.
  using MemoKey = std::tuple<std::size_t, std::size_t, std::string>;
  mutable std::mutex memo_mutex_;
  mutable std::map<MemoKey, std::vector<Candidate>> memo_;
  // Per-backend health breakers, created lazily on first feed/refusal.
  // Map nodes are stable, so references survive later insertions; the
  // breaker has its own lock, health_mutex_ only guards the map shape
  // and the policy. Lock order: health_mutex_ before memo_mutex_, never
  // the reverse.
  mutable std::mutex health_mutex_;
  mutable std::map<std::string, serve::CircuitBreaker> health_;
  serve::BreakerPolicy health_policy_;
};

// Facade entry points (called from hsvd::svd / hsvd::svd_batch when
// SvdOptions carries a backend pin or an SLO; the input is already
// validated and tall). One path serves both: dispatch through
// Router::shared() (route.* metrics on options.observer), execution by
// the winner's Backend::execute_batch, and -- on the verified path --
// health bookkeeping: a throw is breaker-neutral for DeadlineExceeded or
// InputError and a failure otherwise, and every result is attested with
// router-aware escalation hooks. Results carry their provenance labels
// (Svd::backend, modeled_time, ...). execute_routed() runs `a` as a
// batch of one; only it records route.estimate.rel_error and throws a
// kFailed result as hsvd::FaultDetected (a health failure) before
// attestation.
Svd execute_routed(const linalg::MatrixF& a, const SvdOptions& options);
BatchSvd execute_routed_batch(const std::vector<linalg::MatrixF>& batch,
                              const SvdOptions& options);

}  // namespace hsvd::backend
