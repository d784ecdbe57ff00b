// SvdServer: a resilient request-serving layer in front of the batch
// engine.
//
// The library's svd()/svd_batch() calls are one-shot: nothing above them
// protects a *stream* of requests from overload, hung work, or a flaky
// fabric. SvdServer adds that service-hardening layer:
//
//   admission control -- a bounded work queue; submit() on a full queue
//     returns an already-resolved kShed response instead of blocking the
//     producer (load-shedding, never back-pressure by hanging).
//   deadlines -- each request carries a time budget on the server's
//     clock; an expired request is failed fast in the queue, and one
//     that expires mid-run is cancelled cooperatively at the
//     accelerator's slot-chain boundaries (kExpired).
//   retry/backoff -- transient failures (FaultDetected, and optionally
//     kNotConverged) are re-submitted up to RetryPolicy::max_attempts
//     attempts in all with exponential backoff and deterministic seeded
//     jitter; the jitter stream is derived from the admission ordinal of
//     the dispatch's first request, so a fixed seed replays the same
//     schedule. The failed members of a coalesced batch retry together.
//   circuit breaker -- consecutive fabric failures trip it; while open,
//     queued requests fast-fail (kCircuitOpen) instead of burning the
//     fabric; after a cooldown, probe requests half-open it and
//     successes close it again.
//
// Every request also passes the multi-tenant QoS layer (ServerOptions::
// qos; see serve/qos.hpp for the policy pieces): token-bucket admission
// quotas, per-tenant queues drained by deficit round-robin within three
// priority classes, preemption of lower-class running work at sweep
// barriers (preempted work is re-queued and its re-run is
// bit-identical), shape-bucketed micro-batching through svd_batch under
// the exact per-shape configuration the serial path would pick, and a
// verified digest-keyed result cache. There is one admission path and
// one dispatch path. A server configured without tenants runs them with
// one "default" tenant whose quota is unlimited; with one tenant and
// untagged traffic, DRR dispatches in admission order.
//
// All time comes from a common::Clock, so every behavior above is
// testable with a FakeClock and zero real sleeps. An attached
// obs::ObsContext gets serve.* counters (shed/retries/trips/...), a
// queue-depth gauge, a breaker-state gauge, the serve.batch.fill
// histogram, serve.cache.{hit,miss} counters, and per-tenant latency
// histograms and status counters.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/retry.hpp"
#include "common/token_bucket.hpp"
#include "heterosvd.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/fair_queue.hpp"
#include "serve/qos.hpp"
#include "serve/result_cache.hpp"

namespace hsvd::serve {

// Terminal outcome of one request. Every submitted request reaches
// exactly one of these.
enum class ServeStatus {
  kOk,           // decomposition succeeded
  kNotConverged, // factors usable, precision target missed
  kShed,         // rejected at admission (queue full, quota, shutdown)
  kExpired,      // deadline passed (in queue or mid-run)
  kCircuitOpen,  // fast-failed while the breaker was open
  kFailed,       // fabric fault (after retries) or invalid request
};

const char* to_string(ServeStatus status);

struct ServerOptions {
  // Admission control: requests queued beyond this are shed. The bound
  // applies per (tenant, priority class) queue, so one tenant's backlog
  // can never displace another's.
  std::size_t queue_capacity = 64;
  // Worker threads executing requests.
  int workers = 1;
  // Base per-request SvdOptions (configuration, fault injector,
  // observer, threads). The server overrides cancel/clock per request
  // and owns the retry loop itself (SvdOptions::retry is ignored here).
  SvdOptions svd;
  common::RetryPolicy retry;
  BreakerPolicy breaker;
  // Multi-tenant QoS (quotas, fair share, priorities, coalescing,
  // result cache). An empty `qos.tenants` means one "default" tenant
  // with an unlimited quota.
  QosOptions qos;
  // Deadline budget for requests that do not carry their own (seconds
  // on `clock`); 0 = no deadline.
  double default_deadline_seconds = 0.0;
  // Time source for deadlines, backoff, and the breaker cooldown (not
  // owned; nullptr = the process monotonic clock).
  common::Clock* clock = nullptr;
  // Observability for the serving layer itself (not owned; nullptr =
  // off): serve.* counters plus queue-depth and breaker-state gauges.
  obs::ObsContext* observer = nullptr;
  // When true the workers start idle; requests are admitted (and shed)
  // normally but none is served until resume(). Lets tests fill the
  // queue deterministically.
  bool start_paused = false;

  void validate() const;
};

struct Request {
  linalg::MatrixF matrix;
  // Relative deadline budget in seconds; 0 = the server default.
  double deadline_seconds = 0.0;
  // Per-request fault injector override (not owned; nullptr = the
  // server's base injector). The chaos driver uses this to give each
  // request its own seeded fault plan. Injector-carrying requests are
  // never coalesced or cached.
  versal::FaultInjector* fault_injector = nullptr;
  // Tenant identity (empty maps to "default"). A name matching no
  // configured tenant is shed at admission.
  std::string tenant;
  // Priority class.
  Priority priority = Priority::kNormal;
  // Per-request backend routing (DESIGN.md section 14): a pin ("aie",
  // "cpu", ...), "auto", or an SLO for the router -- copied into the
  // dispatch SvdOptions over the server's base options. Empty + nullopt
  // keeps the server's default path. Routed requests are dispatched
  // solo (never coalesced: the coalescer pins the classic accelerator
  // configuration) and their result-cache identity includes the route
  // intent, so a pinned-cpu hit can never answer a pinned-aie request.
  std::string backend;
  std::optional<backend::Slo> slo;
  // Workload scenario (DESIGN.md section 16): "" keeps the server's
  // base SvdOptions; "auto", "off", "tall-skinny", or "truncated" is
  // parsed into the dispatch options. An unknown string fails the
  // request deterministically (kFailed, no retry). Scenario-tagged
  // requests dispatch solo -- the coalescer batches the plain dense
  // path only -- and scenario + top_k are part of the result-cache
  // identity, so a truncated answer can never satisfy a full request.
  std::string scenario;
  // Truncated decomposition rank (0 = full). Requires a scenario that
  // admits it ("", "auto", or "truncated").
  std::size_t top_k = 0;
};

struct Response {
  ServeStatus status = ServeStatus::kFailed;
  // Valid for kOk / kNotConverged only.
  Svd result;
  // Attempts actually executed, retries included, never more than
  // RetryPolicy::max_attempts (0 when the request never ran: shed,
  // expired in queue, served from cache, or fast-failed by the
  // breaker). A request re-queued by preemption reports the attempts of
  // its final execution.
  int attempts = 0;
  std::string message;
  double queue_seconds = 0.0;    // admission -> service start
  double service_seconds = 0.0;  // service start -> terminal status
  // --- QoS fields -------------------------------------------------
  std::string tenant;
  Priority priority = Priority::kNormal;
  bool cache_hit = false;
  // Tasks in the call that produced this result: 1 = svd() alone,
  // k >= 2 = coalesced svd_batch of k, 0 = never reached the fabric. A
  // retry re-runs only the failed members, so it may be smaller than
  // the first call.
  std::size_t batch_size = 0;
  // Times this request was preempted at a sweep barrier and re-queued.
  int preemptions = 0;
  // 1-based service-start order across the server (0 = never
  // dispatched); deterministic under start_paused + one worker, which
  // is how the fair-share tests observe the DRR schedule.
  std::uint64_t dispatch_ordinal = 0;
  // Backend that produced `result` ("" on the classic un-routed path;
  // populated from the cached result on a cache hit).
  std::string backend;
};

// Per-tenant terminal accounting.
struct TenantStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_quota = 0;  // token bucket empty at admission
  std::uint64_t shed_queue = 0;  // tenant queue full (or shutdown)
  std::uint64_t ok = 0;
  std::uint64_t not_converged = 0;
  std::uint64_t expired = 0;
  std::uint64_t circuit_open = 0;
  std::uint64_t failed = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;  // completions served from a batch >= 2
};

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t ok = 0;
  std::uint64_t not_converged = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t circuit_open = 0;
  std::uint64_t retries = 0;
  std::uint64_t breaker_trips = 0;
  std::size_t queue_depth = 0;
  std::size_t peak_queue_depth = 0;
  BreakerState breaker_state = BreakerState::kClosed;
  // --- QoS --------------------------------------------------------
  std::uint64_t quota_shed = 0;
  std::uint64_t unknown_tenant = 0;
  std::uint64_t preemptions = 0;          // effective (work re-queued)
  std::uint64_t preempt_requests = 0;     // cancellations issued
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_collisions = 0;
  std::uint64_t cache_evictions = 0;
  // Fabric calls (any size, retry rounds included) and the jobs across
  // them. A job that never reached svd() / svd_batch() -- a breaker
  // fast-fail, a deadline that ran out before its first attempt -- is
  // not dispatched.
  std::uint64_t batch_dispatches = 0;
  std::uint64_t batch_tasks = 0;
  std::size_t in_service = 0;             // jobs executing right now
  std::map<std::string, TenantStats> tenants;
};

class SvdServer {
 public:
  explicit SvdServer(ServerOptions options);
  ~SvdServer();
  SvdServer(const SvdServer&) = delete;
  SvdServer& operator=(const SvdServer&) = delete;

  // Admission-controlled submission. Never blocks: a full queue, an
  // exhausted tenant quota, an unknown tenant, or a stopped server
  // resolves the future immediately with kShed.
  std::future<Response> submit(Request request);
  std::future<Response> submit(linalg::MatrixF matrix,
                               double deadline_seconds = 0.0);
  // Blocking convenience (submit + wait). Do not call on a paused
  // server from the thread that would resume it.
  Response serve(Request request);

  // Starts the workers of a start_paused server (idempotent).
  void resume();
  // Stops admission, drains the queue, joins the workers (idempotent;
  // also runs on destruction). A paused server is resumed to drain.
  void shutdown();

  ServerStats stats() const;
  BreakerState breaker_state() const { return breaker_.state(); }

 private:
  struct Job {
    Request request;
    std::promise<Response> promise;
    std::uint64_t serial = 0;   // admission ordinal (backoff stream)
    double admitted_s = 0.0;    // clock time at admission
    // Absolute deadline on clock_ (+inf = none). The worker builds the
    // CancelToken from this at service start (the token itself is not
    // movable, so the queued job carries only the number).
    double deadline_abs_s = std::numeric_limits<double>::infinity();
    // --- QoS bookkeeping --------------------------------------------
    std::size_t tenant = 0;        // index into tenants_
    int band = 1;                  // priority class
    int preemptions = 0;           // times re-queued by preemption
    std::uint64_t dispatch_ordinal = 0;  // 1-based service-start order
  };

  // Per-tenant runtime state. Move-only: jobs carry a promise, so the
  // queues (and therefore the runtime) cannot be copied.
  struct TenantRuntime {
    TenantRuntime(TenantConfig config_in, common::TokenBucket bucket_in)
        : config(std::move(config_in)), bucket(std::move(bucket_in)) {}
    TenantRuntime(TenantRuntime&&) = default;
    TenantRuntime& operator=(TenantRuntime&&) = default;
    TenantRuntime(const TenantRuntime&) = delete;
    TenantRuntime& operator=(const TenantRuntime&) = delete;

    TenantConfig config;
    common::TokenBucket bucket;
    std::array<std::deque<Job>, kPriorityBands> queues;
    TenantStats stats;
  };

  // What a worker registers while executing, so submit() can preempt
  // running lower-class work through the CancelToken seam.
  struct WorkerSlot {
    bool active = false;
    int band = kPriorityBands;           // band of the running work
    common::CancelToken* token = nullptr;  // worker-stack token
    bool preempt_requested = false;
  };

  void worker_loop(std::size_t worker_index);
  // Dispatch of one popped job + coalesced extras: expiry and cache
  // probes, then execute() on whatever still needs the fabric.
  void dispatch(std::size_t worker_index, Job primary,
                std::vector<Job> extras);
  // The one executor for 1..k jobs; a solo request is a batch of one.
  // Each round checks the breaker once, runs one call (svd() for one
  // matrix, svd_batch() for more) under a token at the earliest live
  // deadline, and maps each job's outcome: resolve it, re-queue it
  // (preempted or collateral), or retry it in place with the other
  // transient failures after one backoff, up to max_attempts in all.
  void execute(std::size_t worker_index, std::vector<Job> jobs);
  // Counts one fabric call of `tasks` jobs; called only once the jobs
  // have reached svd() / svd_batch().
  void note_dispatch(std::size_t tasks);
  accel::HeteroSvdConfig config_for_shape(std::size_t rows, std::size_t cols);
  // Whether svd_batch() gives this job the bits svd() would: a plain,
  // injector-free, tall-or-square request whose shape the base options
  // keep on the dense path. Coalescible jobs run under the memoized
  // config_for_shape() whether they dispatch alone or batched.
  bool coalescible(const Job& job) const;

  std::optional<Job> pop_next_locked();
  void gather_coalesce_locked(const Job& primary, std::vector<Job>& extras,
                              double now_s);
  std::size_t total_backlog_locked() const;
  void requeue(Job job, bool count_preemption);
  void resolve(Job job, Response response);
  void note_terminal(const Job& job, const Response& response);
  void register_running(std::size_t worker_index, int band,
                        common::CancelToken* token);
  // Clears the slot; returns true when a preemption was requested.
  bool unregister_running(std::size_t worker_index);
  void maybe_preempt_locked(int incoming_band);
  bool cacheable(const Job& job) const;

  // Counts breaker trips not yet published and sets the state gauge.
  void publish_breaker();
  void set_depth_gauge_locked();
  void count(const std::string& name, std::uint64_t delta = 1);
  void count_tenant(std::size_t tenant_index, const char* suffix);
  void gauge(const char* name, double value);
  void observe(const std::string& name, double value);

  ServerOptions options_;
  common::Clock* clock_;
  CircuitBreaker breaker_;
  std::uint64_t last_trips_ = 0;  // for the serve.breaker.trips counter

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<TenantRuntime> tenants_;    // per-tenant queues
  std::vector<DeficitRoundRobin> drr_;    // one per priority band
  std::vector<WorkerSlot> running_;       // indexed by worker
  std::size_t idle_workers_ = 0;
  std::unique_ptr<ResultCache> cache_;
  std::vector<std::thread> workers_;
  bool paused_ = false;
  bool stopping_ = false;
  std::uint64_t next_serial_ = 0;
  std::uint64_t next_dispatch_ = 0;

  // Per-shape pinned configuration for coalescible dispatches (the DSE
  // choice the serial path would make); separate mutex because the DSE
  // is expensive and must not run under mutex_.
  std::mutex config_mutex_;
  std::map<std::pair<std::size_t, std::size_t>, accel::HeteroSvdConfig>
      shape_configs_;

  // Counters (under mutex_ except where noted via stats()).
  ServerStats counters_;
};

}  // namespace hsvd::serve
