// Multi-tenant QoS configuration for the serving layer.
//
// With one shared queue, one bursty client can fill the bounded
// admission queue and starve the rest. The QoS layer gives every
// request a tenant identity and a priority class, and the server then
// enforces policy per tenant:
//
//   quota      -- a clock-driven common::TokenBucket per tenant; a
//                 tenant offering more than its refill rate sheds its
//                 *own* excess at admission (kShed, "quota exhausted")
//                 instead of crowding the shared queue.
//   fair share -- per-tenant queues drained by deficit round-robin
//                 (serve/fair_queue.hpp): a backlogged tenant's service
//                 rate is proportional to its configured weight.
//   priority   -- three classes (latency > normal > batch). The
//                 scheduler always serves the highest non-empty class,
//                 and an arriving higher-class request preempts running
//                 lower-class work at the accelerator's sweep barriers
//                 (the existing CancelToken seam); preempted work is
//                 re-queued and completes bit-identical on its re-run.
//   coalescing -- same-(m, n) requests already queued in one class are
//                 dispatched as one svd_batch (bounded size and
//                 admission-age spread), amortizing fixed fabric cost.
//   cache      -- a digest-keyed LRU result cache
//                 (serve/result_cache.hpp) serves duplicate matrices
//                 without touching the fabric; every hit is verified
//                 against the full stored matrix, so a digest collision
//                 can never return the wrong factors.
//
// Every request goes through these layers. With no tenants configured
// the server adds one "default" tenant with an unlimited quota, so
// untagged traffic is never shed by quota and dispatches in admission
// order.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace hsvd::serve {

// Priority class of a request. Lower value = more urgent; the scheduler
// serves classes in order and preempts across them at sweep barriers.
enum class Priority { kLatency = 0, kNormal = 1, kBatch = 2 };
inline constexpr int kPriorityBands = 3;

const char* to_string(Priority priority);

struct TenantConfig {
  std::string name;
  // Fair-share weight: a backlogged tenant's drain rate relative to the
  // other backlogged tenants of the same priority class.
  double weight = 1.0;
  // Admission quota: token-bucket refill rate (requests per second on
  // the server clock) and burst capacity.
  double quota_rate = 1000.0;
  double quota_burst = 64.0;

  void validate() const;
};

struct QosOptions {
  // Tenants the server accepts; empty = one "default" tenant with an
  // unlimited quota. A request naming no tenant maps to "default";
  // unknown tenants are shed.
  std::vector<TenantConfig> tenants;

  // Shape-bucketed micro-batching: a dispatching worker folds up to
  // coalesce_max_batch - 1 further queued same-shape, same-class,
  // injector-free requests into one svd_batch. 1 disables coalescing.
  // Dispatch never waits for the window to fill: the window bounds the
  // admission-age *spread* inside one batch, so coalescing only kicks
  // in when a backlog exists and adds zero latency when idle.
  std::size_t coalesce_max_batch = 1;
  double coalesce_window_seconds = 0.010;

  // Digest-keyed LRU result cache (FNV-1a over the matrix bytes, the
  // same checksum the fault-detection boundaries use). Capacity is in
  // entries; every hit re-verifies the full stored matrix.
  bool cache_enabled = false;
  std::size_t cache_capacity = 64;

  // Allow an arriving higher-class request to cancel (and re-queue)
  // running lower-class work when no worker is idle.
  bool enable_preemption = true;

  // Index of `name` (empty maps to "default") in `tenants`, or npos.
  std::size_t tenant_index(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  void validate() const;
};

// Parses "name:weight:rate:burst" (weight/rate/burst optional with
// defaults 1:1000:64) into a TenantConfig; throws InputError on a
// malformed spec. Shared by the hsvd CLI and the soak driver.
TenantConfig parse_tenant_spec(const std::string& spec);

// Parses "latency" / "normal" / "batch"; throws InputError otherwise.
Priority parse_priority(const std::string& text);

}  // namespace hsvd::serve
