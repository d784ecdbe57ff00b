#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "scenarios/scenarios.hpp"
#include "verify/verifier.hpp"

namespace hsvd::serve {

namespace {

// True when the request opted into backend routing (pin, "auto", or an
// SLO); such jobs are not coalescible and carry a route-qualified cache
// key.
bool routed_request(const Request& request) {
  return !request.backend.empty() || request.slo.has_value();
}

// The routing intent folded into the result-cache key: which backend
// path would serve this request. "" for the classic path keeps legacy
// keys (and pre-router cache behavior) unchanged.
std::string route_intent(const Request& request) {
  if (!routed_request(request)) return "";
  return request.backend + "|" + backend::slo_class(request.slo);
}

// True when the request carries scenario intent (a named scenario or a
// truncation rank); such jobs are not coalescible and carry scenario-
// qualified cache keys.
bool scenario_request(const Request& request) {
  return !request.scenario.empty() || request.top_k > 0;
}

}  // namespace

const char* to_string(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk: return "ok";
    case ServeStatus::kNotConverged: return "not-converged";
    case ServeStatus::kShed: return "shed";
    case ServeStatus::kExpired: return "expired";
    case ServeStatus::kCircuitOpen: return "circuit-open";
    case ServeStatus::kFailed: return "failed";
  }
  return "unknown";
}

void ServerOptions::validate() const {
  HSVD_REQUIRE(queue_capacity >= 1, "server queue_capacity must be at least 1");
  HSVD_REQUIRE(workers >= 1, "server workers must be at least 1");
  HSVD_REQUIRE(
      std::isfinite(default_deadline_seconds) && default_deadline_seconds >= 0,
      "server default_deadline_seconds must be finite and nonnegative");
  retry.validate();
  breaker.validate();
  qos.validate();
}

SvdServer::SvdServer(ServerOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock
                                       : &common::MonotonicClock::instance()),
      breaker_(options_.breaker, clock_) {
  options_.validate();
  paused_ = options_.start_paused;
  if (options_.qos.tenants.empty()) {
    // No tenants configured: one unlimited "default" tenant takes all
    // untagged traffic. With one tenant in one class, DRR is a FIFO.
    TenantConfig implicit;
    implicit.name = "default";
    implicit.quota_rate = std::numeric_limits<double>::infinity();
    implicit.quota_burst = std::numeric_limits<double>::infinity();
    options_.qos.tenants.push_back(std::move(implicit));
  }
  const double now_s = clock_->now_seconds();
  std::vector<double> weights;
  tenants_.reserve(options_.qos.tenants.size());
  weights.reserve(options_.qos.tenants.size());
  for (const TenantConfig& tenant : options_.qos.tenants) {
    tenants_.emplace_back(
        tenant,
        common::TokenBucket(tenant.quota_rate, tenant.quota_burst, now_s));
    weights.push_back(tenant.weight);
  }
  drr_.reserve(kPriorityBands);
  for (int band = 0; band < kPriorityBands; ++band) {
    drr_.emplace_back(weights);
  }
  if (options_.qos.cache_enabled) {
    cache_ = std::make_unique<ResultCache>(options_.qos.cache_capacity);
  }
  if (options_.observer != nullptr) {
    auto& metrics = options_.observer->metrics();
    metrics.register_histogram(
        "serve.batch.fill",
        obs::MetricsRegistry::exponential_bounds(1.0, 2.0, 8));
    for (const TenantConfig& tenant : options_.qos.tenants) {
      metrics.register_histogram(
          "serve.tenant." + tenant.name + ".latency_seconds",
          obs::MetricsRegistry::exponential_bounds(1e-5, 2.0, 32));
    }
  }
  running_.resize(static_cast<std::size_t>(options_.workers));
  publish_breaker();
  gauge("serve.queue.depth", 0.0);
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) {
    workers_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

SvdServer::~SvdServer() { shutdown(); }

std::future<Response> SvdServer::submit(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  const double now_s = clock_->now_seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.submitted;
    count("serve.submitted");

    // Admission: tenant resolution, quota, per-(tenant, class) queue bound.
    const std::size_t idx = options_.qos.tenant_index(request.tenant);
    const Priority priority = request.priority;
    const auto shed_with = [&](const std::string& message) {
      ++counters_.shed;
      count("serve.shed");
      Response shed;
      shed.status = ServeStatus::kShed;
      shed.message = message;
      shed.tenant = request.tenant.empty() ? "default" : request.tenant;
      shed.priority = priority;
      promise.set_value(std::move(shed));
    };
    if (idx == QosOptions::npos) {
      ++counters_.unknown_tenant;
      count("serve.shed.unknown_tenant");
      shed_with("unknown tenant '" +
                (request.tenant.empty() ? std::string("default")
                                        : request.tenant) +
                "', request shed");
      return future;
    }
    TenantRuntime& tenant = tenants_[idx];
    ++tenant.stats.submitted;
    if (stopping_) {
      ++tenant.stats.shed_queue;
      count_tenant(idx, "shed_queue");
      shed_with("server is shutting down");
      return future;
    }
    if (!tenant.bucket.try_acquire(now_s)) {
      ++counters_.quota_shed;
      ++tenant.stats.shed_quota;
      count("serve.shed.quota");
      count_tenant(idx, "shed_quota");
      shed_with("tenant quota exhausted, request shed");
      return future;
    }
    const int band = static_cast<int>(priority);
    if (tenant.queues[band].size() >= options_.queue_capacity) {
      ++tenant.stats.shed_queue;
      count_tenant(idx, "shed_queue");
      shed_with("tenant queue full, request shed");
      return future;
    }
    Job job;
    job.request = std::move(request);
    job.promise = std::move(promise);
    job.serial = next_serial_++;
    job.admitted_s = now_s;
    job.tenant = idx;
    job.band = band;
    const double budget = job.request.deadline_seconds > 0.0
                              ? job.request.deadline_seconds
                              : options_.default_deadline_seconds;
    if (budget > 0.0) job.deadline_abs_s = now_s + budget;
    tenant.queues[band].push_back(std::move(job));
    ++counters_.admitted;
    ++tenant.stats.admitted;
    count("serve.admitted");
    counters_.queue_depth = total_backlog_locked();
    counters_.peak_queue_depth =
        std::max(counters_.peak_queue_depth, counters_.queue_depth);
    set_depth_gauge_locked();
    maybe_preempt_locked(band);
  }
  cv_.notify_one();
  return future;
}

std::future<Response> SvdServer::submit(linalg::MatrixF matrix,
                                        double deadline_seconds) {
  Request request;
  request.matrix = std::move(matrix);
  request.deadline_seconds = deadline_seconds;
  return submit(std::move(request));
}

Response SvdServer::serve(Request request) {
  return submit(std::move(request)).get();
}

void SvdServer::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void SvdServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      // Already shut down (or shutting down on another thread); joining
      // below would double-join, so bail once the flag is up.
      return;
    }
    stopping_ = true;
    paused_ = false;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void SvdServer::worker_loop(std::size_t worker_index) {
  for (;;) {
    Job job;
    std::vector<Job> extras;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_workers_;
      cv_.wait(lock, [this] {
        return stopping_ || (!paused_ && total_backlog_locked() > 0);
      });
      --idle_workers_;
      if (total_backlog_locked() == 0) {
        if (stopping_) return;  // drained
        continue;               // spurious wake while paused
      }
      std::optional<Job> picked = pop_next_locked();
      if (!picked.has_value()) {
        if (stopping_) return;
        continue;
      }
      job = std::move(*picked);
      job.dispatch_ordinal = ++next_dispatch_;
      gather_coalesce_locked(job, extras, clock_->now_seconds());
      for (Job& extra : extras) extra.dispatch_ordinal = ++next_dispatch_;
      counters_.queue_depth = total_backlog_locked();
      set_depth_gauge_locked();
    }
    dispatch(worker_index, std::move(job), std::move(extras));
  }
}

void SvdServer::dispatch(std::size_t worker_index, Job primary,
                         std::vector<Job> extras) {
  std::vector<Job> jobs;
  jobs.reserve(1 + extras.size());
  jobs.push_back(std::move(primary));
  for (Job& extra : extras) jobs.push_back(std::move(extra));
  extras.clear();

  const double start_s = clock_->now_seconds();

  // Expire-in-queue and cache probes before anything touches the fabric.
  std::vector<Job> runnable;
  runnable.reserve(jobs.size());
  for (Job& job : jobs) {
    if (start_s >= job.deadline_abs_s) {
      Response out;
      out.status = ServeStatus::kExpired;
      out.message = "deadline expired while queued";
      out.queue_seconds = start_s - job.admitted_s;
      note_terminal(job, out);
      resolve(std::move(job), std::move(out));
      continue;
    }
    if (cacheable(job)) {
      const std::uint64_t digest = ResultCache::digest(job.request.matrix);
      std::optional<Svd> hit =
          cache_->lookup(job.request.matrix, digest, route_intent(job.request),
                         job.request.scenario, job.request.top_k);
      // Re-verify an unattested hit when the verify policy selects this
      // request (the digest doubles as the sampling identity, so the
      // decision matches what the facade would have drawn): a cached
      // result must not dodge an enabled policy just because it skipped
      // the fabric. A clean re-check is stamped back onto the entry; a
      // failed one evicts it and the request recomputes.
      const verify::VerifyPolicy& vpolicy = options_.svd.verify;
      if (hit.has_value() && vpolicy.enabled() &&
          !hit->verify_report.verified && vpolicy.selects(digest)) {
        count("serve.cache.reverify");
        const verify::ResultVerifier verifier(options_.svd.precision);
        verify::RungAttempt attempt;
        attempt.rung = verify::VerifyRung::kPrimary;
        attempt.backend = hit->backend;
        attempt.outcome = verifier.check(job.request.matrix, *hit);
        verify::VerifyReport report;
        report.checked = true;
        report.verified = attempt.outcome.passed;
        report.rung = verify::VerifyRung::kPrimary;
        report.attempts.push_back(std::move(attempt));
        if (report.verified) {
          hit->verify_report = report;
          cache_->mark_verified(job.request.matrix, digest,
                                route_intent(job.request), report,
                                job.request.scenario, job.request.top_k);
        } else {
          count("serve.cache.verify_evict");
          cache_->erase(job.request.matrix, digest, route_intent(job.request),
                        job.request.scenario, job.request.top_k);
          hit.reset();  // recompute below, as a miss
        }
      }
      if (hit.has_value()) {
        count("serve.cache.hit");
        Response out;
        out.status = ServeStatus::kOk;
        out.result = std::move(*hit);
        out.backend = out.result.backend;
        out.cache_hit = true;
        out.queue_seconds = start_s - job.admitted_s;
        out.service_seconds = clock_->now_seconds() - start_s;
        note_terminal(job, out);
        resolve(std::move(job), std::move(out));
        continue;
      }
      count("serve.cache.miss");
    }
    runnable.push_back(std::move(job));
  }
  if (!runnable.empty()) execute(worker_index, std::move(runnable));
}

void SvdServer::execute(std::size_t worker_index, std::vector<Job> jobs) {
  const double start_s = clock_->now_seconds();
  // The primary's admission ordinal seeds the jitter stream, so a solo
  // request keeps the backoff schedule of its own serial.
  common::BackoffSchedule backoff(options_.retry, jobs.front().serial);
  // Every live job ran in every round so far, so the jobs share one
  // attempt count and the size of the latest call.
  int attempts = 0;
  std::size_t batch_size = 0;
  const auto finish = [&](Job& job, Response out) {
    out.attempts = attempts;
    out.batch_size = batch_size;
    out.queue_seconds = start_s - job.admitted_s;
    out.service_seconds = clock_->now_seconds() - start_s;
    if (out.status == ServeStatus::kOk && cacheable(job)) {
      cache_->insert(job.request.matrix,
                     ResultCache::digest(job.request.matrix), out.result,
                     route_intent(job.request), job.request.scenario,
                     job.request.top_k);
    }
    note_terminal(job, out);
    resolve(std::move(job), std::move(out));
  };
  const auto fail = [&](Job& job, ServeStatus status, std::string message) {
    Response out;
    out.status = status;
    out.message = std::move(message);
    finish(job, std::move(out));
  };

  while (!jobs.empty()) {
    if (!breaker_.allow()) {
      count("serve.breaker.fast_fail", jobs.size());
      for (Job& job : jobs) {
        fail(job, ServeStatus::kCircuitOpen,
             "circuit breaker open, request fast-failed");
      }
      break;
    }
    const std::size_t k = jobs.size();
    ++attempts;
    batch_size = k;
    note_dispatch(k);
    // One token for the round: the earliest member deadline bounds the
    // call, and preemption cancels through the same token.
    double earliest = std::numeric_limits<double>::infinity();
    for (const Job& job : jobs) {
      earliest = std::min(earliest, job.deadline_abs_s);
    }
    common::CancelToken token(*clock_, earliest);
    register_running(worker_index, jobs.front().band, &token);

    std::vector<Svd> results;
    std::optional<std::string> aborted;  // diagnostic of a call that threw
    bool deadline_hit = false;
    try {
      const Request& lead = jobs.front().request;
      SvdOptions svd_options = options_.svd;
      svd_options.cancel = &token;
      svd_options.clock = clock_;
      svd_options.retry.reset();  // the server owns the retry loop
      // Injector, routing and scenario intent only ride on solo jobs.
      // An unknown scenario name is an InputError, a deterministic
      // rejection like any other.
      if (lead.fault_injector != nullptr) {
        svd_options.fault_injector = lead.fault_injector;
      }
      if (routed_request(lead)) {
        svd_options.backend = lead.backend;
        svd_options.slo = lead.slo;
      }
      if (!lead.scenario.empty()) {
        svd_options.scenario = scenarios::parse_scenario(lead.scenario);
      }
      if (lead.top_k > 0) svd_options.top_k = lead.top_k;
      if (!svd_options.config.has_value() && coalescible(jobs.front())) {
        // Pin the configuration the serial path would choose for one
        // matrix of this shape, alone or batched: this is what makes a
        // coalesced result bit-identical to serving it alone.
        svd_options.config =
            config_for_shape(lead.matrix.rows(), lead.matrix.cols());
      }
      if (k == 1) {
        results.push_back(hsvd::svd(lead.matrix, svd_options));
      } else {
        std::vector<linalg::MatrixF> batch;
        batch.reserve(k);
        for (const Job& job : jobs) batch.push_back(job.request.matrix);
        results = hsvd::svd_batch(batch, svd_options).results;
      }
    } catch (const hsvd::DeadlineExceeded& e) {
      deadline_hit = true;
      aborted = e.what();
    } catch (const hsvd::FaultDetected& e) {
      // svd() throws the fault that svd_batch() reports per task.
      Svd failed;
      failed.status = SvdStatus::kFailed;
      failed.message = e.what();
      results.assign(k, failed);
    } catch (const std::exception& e) {
      aborted = e.what();  // invalid request: retrying cannot help
    }
    const bool preempted = unregister_running(worker_index);
    const double end_s = clock_->now_seconds();
    if (aborted.has_value()) breaker_.record_neutral();

    std::vector<Job> retry;
    for (std::size_t i = 0; i < k; ++i) {
      Job& job = jobs[i];
      const bool live = end_s < job.deadline_abs_s;
      if (deadline_hit) {
        // The call stopped at a sweep barrier: a member whose own
        // deadline passed expires; the rest (preempted, or collateral of
        // a batch-mate's deadline) go back to the queue front and re-run
        // bit-identically.
        if (live) {
          requeue(std::move(job), preempted);
        } else {
          fail(job, ServeStatus::kExpired, *aborted);
        }
        continue;
      }
      if (aborted.has_value()) {
        fail(job, ServeStatus::kFailed, *aborted);
        continue;
      }
      Svd& result = results[i];
      const bool failed = result.status == SvdStatus::kFailed;
      if (failed) {
        breaker_.record_failure();
      } else {
        breaker_.record_success();
      }
      const bool transient =
          failed || (result.status == SvdStatus::kNotConverged &&
                     options_.retry.retry_not_converged);
      // A preempted worker frees itself: no retry, the outcome stands.
      if (transient && attempts < options_.retry.max_attempts && live &&
          !preempted) {
        retry.push_back(std::move(job));
        continue;
      }
      Response out;
      out.status = failed ? ServeStatus::kFailed
                   : result.status == SvdStatus::kOk
                       ? ServeStatus::kOk
                       : ServeStatus::kNotConverged;
      if (out.status != ServeStatus::kOk) out.message = result.message;
      if (!failed) {
        out.result = std::move(result);
        out.backend = out.result.backend;
      }
      finish(job, std::move(out));
    }
    if (retry.empty()) break;

    // The transiently failed members retry in place, together in one
    // call of just them, after one backoff that never sleeps past the
    // latest of their deadlines; a member whose deadline passes
    // meanwhile expires.
    count("serve.retries", retry.size());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      counters_.retries += retry.size();
    }
    double latest = 0.0;
    for (const Job& job : retry) latest = std::max(latest, job.deadline_abs_s);
    const double delay =
        std::min(backoff.delay_seconds(attempts),
                 std::max(0.0, latest - clock_->now_seconds()));
    if (delay > 0.0) clock_->sleep_for(delay);
    const double now_s = clock_->now_seconds();
    jobs.clear();
    for (Job& job : retry) {
      if (now_s >= job.deadline_abs_s) {
        fail(job, ServeStatus::kExpired,
             "deadline expired during retry backoff");
      } else {
        jobs.push_back(std::move(job));
      }
    }
  }
  publish_breaker();
}

void SvdServer::note_dispatch(std::size_t tasks) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.batch_dispatches;
    counters_.batch_tasks += tasks;
  }
  count("serve.batch.dispatches");
  observe("serve.batch.fill", static_cast<double>(tasks));
}

accel::HeteroSvdConfig SvdServer::config_for_shape(std::size_t rows,
                                                   std::size_t cols) {
  {
    std::lock_guard<std::mutex> lock(config_mutex_);
    const auto it = shape_configs_.find({rows, cols});
    if (it != shape_configs_.end()) return it->second;
  }
  // The DSE probe runs outside every lock (it is the expensive part);
  // a concurrent duplicate computes the same deterministic answer.
  SvdOptions probe = options_.svd;
  probe.cancel = nullptr;
  probe.clock = nullptr;
  probe.retry.reset();
  probe.fault_injector = nullptr;
  probe.observer = nullptr;
  const accel::HeteroSvdConfig config =
      hsvd::planned_config(rows, cols, /*batch=*/1, probe);
  std::lock_guard<std::mutex> lock(config_mutex_);
  shape_configs_.emplace(std::make_pair(rows, cols), config);
  return config;
}

std::optional<SvdServer::Job> SvdServer::pop_next_locked() {
  std::vector<std::size_t> backlog(tenants_.size(), 0);
  for (int band = 0; band < kPriorityBands; ++band) {
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      backlog[t] = tenants_[t].queues[band].size();
    }
    const std::optional<std::size_t> pick = drr_[band].pick(backlog);
    if (pick.has_value()) {
      auto& queue = tenants_[*pick].queues[band];
      Job job = std::move(queue.front());
      queue.pop_front();
      return job;
    }
  }
  return std::nullopt;
}

void SvdServer::gather_coalesce_locked(const Job& primary,
                                       std::vector<Job>& extras,
                                       double now_s) {
  const QosOptions& qos = options_.qos;
  if (qos.coalesce_max_batch <= 1 || !coalescible(primary)) return;
  const std::size_t rows = primary.request.matrix.rows();
  const std::size_t cols = primary.request.matrix.cols();
  const double window = qos.coalesce_window_seconds;
  const auto eligible = [&](const Job& job) {
    return job.request.matrix.rows() == rows &&
           job.request.matrix.cols() == cols &&
           std::abs(job.admitted_s - primary.admitted_s) <= window &&
           job.deadline_abs_s > now_s && coalescible(job);
  };
  // Every ride-along slot is allocated through the same DRR scheduler
  // as a solo dispatch, with backlog restricted to coalescible jobs.
  // Batching therefore changes throughput, never the weighted shares:
  // a popular shape cannot let one tenant drain ahead of its weight.
  std::vector<std::size_t> backlog(tenants_.size(), 0);
  while (1 + extras.size() < qos.coalesce_max_batch) {
    bool any = false;
    for (std::size_t t = 0; t < tenants_.size(); ++t) {
      backlog[t] = 0;
      for (const Job& job : tenants_[t].queues[primary.band]) {
        if (eligible(job)) ++backlog[t];
      }
      any |= backlog[t] > 0;
    }
    if (!any) return;
    const std::optional<std::size_t> pick = drr_[primary.band].pick(backlog);
    if (!pick.has_value()) return;
    auto& queue = tenants_[*pick].queues[primary.band];
    for (auto it = queue.begin(); it != queue.end(); ++it) {
      if (eligible(*it)) {
        extras.push_back(std::move(*it));
        queue.erase(it);
        break;
      }
    }
  }
}

std::size_t SvdServer::total_backlog_locked() const {
  std::size_t total = 0;
  for (const TenantRuntime& tenant : tenants_) {
    for (const auto& queue : tenant.queues) total += queue.size();
  }
  return total;
}

void SvdServer::requeue(Job job, bool count_preemption) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (count_preemption) {
      ++job.preemptions;
      ++counters_.preemptions;
      ++tenants_[job.tenant].stats.preemptions;
      count("serve.preempted");
      count_tenant(job.tenant, "preempted");
    }
    // Front of the owning queue: a re-queued request keeps its place at
    // the head of its tenant's line.
    tenants_[job.tenant].queues[job.band].push_front(std::move(job));
    counters_.queue_depth = total_backlog_locked();
    set_depth_gauge_locked();
  }
  cv_.notify_one();
}

void SvdServer::resolve(Job job, Response response) {
  response.tenant = tenants_[job.tenant].config.name;
  response.priority = static_cast<Priority>(job.band);
  response.preemptions = job.preemptions;
  response.dispatch_ordinal = job.dispatch_ordinal;
  job.promise.set_value(std::move(response));
}

void SvdServer::note_terminal(const Job& job, const Response& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  TenantRuntime& tenant = tenants_[job.tenant];
  const auto tally = [&](std::uint64_t& total, std::uint64_t& per_tenant,
                         const char* name) {
    ++total;
    ++per_tenant;
    count(std::string("serve.") + name);
    count_tenant(job.tenant, name);
  };
  switch (response.status) {
    case ServeStatus::kOk:
      tally(counters_.ok, tenant.stats.ok, "ok");
      break;
    case ServeStatus::kNotConverged:
      tally(counters_.not_converged, tenant.stats.not_converged,
            "not_converged");
      break;
    case ServeStatus::kExpired:
      tally(counters_.expired, tenant.stats.expired, "expired");
      break;
    case ServeStatus::kCircuitOpen:
      tally(counters_.circuit_open, tenant.stats.circuit_open, "circuit_open");
      break;
    case ServeStatus::kFailed:
      tally(counters_.failed, tenant.stats.failed, "failed");
      break;
    case ServeStatus::kShed:
      break;  // counted at admission
  }
  if (response.cache_hit) {
    ++tenant.stats.cache_hits;
    count_tenant(job.tenant, "cache_hit");
  }
  if (response.batch_size >= 2) ++tenant.stats.coalesced;
  if (response.status == ServeStatus::kOk ||
      response.status == ServeStatus::kNotConverged) {
    observe("serve.tenant." + tenant.config.name + ".latency_seconds",
            response.queue_seconds + response.service_seconds);
  }
}

void SvdServer::register_running(std::size_t worker_index, int band,
                                 common::CancelToken* token) {
  std::lock_guard<std::mutex> lock(mutex_);
  running_[worker_index] = WorkerSlot{true, band, token, false};
  ++counters_.in_service;
}

bool SvdServer::unregister_running(std::size_t worker_index) {
  std::lock_guard<std::mutex> lock(mutex_);
  WorkerSlot& slot = running_[worker_index];
  const bool preempted = slot.preempt_requested;
  slot = WorkerSlot{};
  if (counters_.in_service > 0) --counters_.in_service;
  return preempted;
}

void SvdServer::maybe_preempt_locked(int incoming_band) {
  if (!options_.qos.enable_preemption) return;
  if (idle_workers_ > 0) return;  // an idle worker will pick it up
  WorkerSlot* victim = nullptr;
  for (WorkerSlot& slot : running_) {
    if (!slot.active || slot.preempt_requested || slot.token == nullptr) {
      continue;
    }
    if (slot.band <= incoming_band) continue;  // never preempt an equal
    if (victim == nullptr || slot.band > victim->band) victim = &slot;
  }
  if (victim == nullptr) return;
  victim->preempt_requested = true;
  victim->token->cancel();
  ++counters_.preempt_requests;
  count("serve.preempt.requested");
}

bool SvdServer::cacheable(const Job& job) const {
  return cache_ != nullptr && job.request.fault_injector == nullptr &&
         options_.svd.fault_injector == nullptr;
}

bool SvdServer::coalescible(const Job& job) const {
  const Request& request = job.request;
  const std::size_t rows = request.matrix.rows();
  const std::size_t cols = request.matrix.cols();
  // svd_batch() runs one dense configuration: no routing, no scenario
  // front end, no wide-input transpose (svd() alone does those), and no
  // per-request injector. With a server-wide injector, batch
  // composition would decide which faults land where.
  if (routed_request(request) || scenario_request(request) ||
      request.fault_injector != nullptr ||
      options_.svd.fault_injector != nullptr || rows < cols) {
    return false;
  }
  // The base options may send this shape through a front end on their
  // own (scenario kAuto engages tall-skinny above the aspect ratio).
  try {
    return scenarios::select_scenario(rows, cols, options_.svd) ==
           scenarios::Scenario::kOff;
  } catch (const InputError&) {
    return false;  // svd() rejects the request solo
  }
}

void SvdServer::publish_breaker() {
  const std::uint64_t trips = breaker_.trips();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (trips > last_trips_) {
      count("serve.breaker.trips", trips - last_trips_);
      counters_.breaker_trips = trips;
      last_trips_ = trips;
    }
  }
  gauge("serve.breaker.state", static_cast<double>(breaker_.state()));
}

void SvdServer::set_depth_gauge_locked() {
  gauge("serve.queue.depth", static_cast<double>(counters_.queue_depth));
}

void SvdServer::count(const std::string& name, std::uint64_t delta) {
  if (options_.observer != nullptr) options_.observer->metrics().add(name, delta);
}

void SvdServer::count_tenant(std::size_t tenant_index, const char* suffix) {
  if (options_.observer == nullptr) return;
  options_.observer->metrics().add(
      "serve.tenant." + tenants_[tenant_index].config.name + "." + suffix);
}

void SvdServer::gauge(const char* name, double value) {
  if (options_.observer != nullptr) {
    options_.observer->metrics().set_gauge(name, value);
  }
}

void SvdServer::observe(const std::string& name, double value) {
  if (options_.observer != nullptr) {
    options_.observer->metrics().observe(name, value);
  }
}

ServerStats SvdServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  ServerStats out = counters_;
  out.queue_depth = total_backlog_locked();
  out.breaker_trips = breaker_.trips();
  out.breaker_state = breaker_.state();
  if (cache_ != nullptr) {
    const ResultCache::Stats cache_stats = cache_->stats();
    out.cache_hits = cache_stats.hits;
    out.cache_misses = cache_stats.misses;
    out.cache_collisions = cache_stats.collisions;
    out.cache_evictions = cache_stats.evictions;
  }
  for (const TenantRuntime& tenant : tenants_) {
    out.tenants.emplace(tenant.config.name, tenant.stats);
  }
  return out;
}

}  // namespace hsvd::serve
