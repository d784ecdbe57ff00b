// Multi-tenant QoS tests: token-bucket quotas, deficit-round-robin fair
// share, priority bands with sweep-barrier preemption, shape-bucketed
// coalescing, and the verified result cache. Deterministic throughout:
// scheduling tests run a paused single-worker server on a fake clock
// and read back dispatch ordinals; only the preemption test uses the
// real clock (it needs work genuinely in flight to cancel).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/token_bucket.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "obs/obs.hpp"
#include "serve/fair_queue.hpp"
#include "serve/qos.hpp"
#include "serve/result_cache.hpp"
#include "serve/server.hpp"

namespace hsvd {
namespace {

using common::FakeClock;
using common::TokenBucket;
using serve::DeficitRoundRobin;
using serve::Priority;
using serve::QosOptions;
using serve::Request;
using serve::Response;
using serve::ResultCache;
using serve::ServeStatus;
using serve::ServerOptions;
using serve::SvdServer;
using serve::TenantConfig;

accel::HeteroSvdConfig small_config() {
  accel::HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 2;
  cfg.iterations = 3;
  return cfg;
}

linalg::MatrixF gaussian(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Rng rng(seed);
  return linalg::random_gaussian(rows, cols, rng).cast<float>();
}

linalg::MatrixF small_matrix(std::uint64_t seed) {
  return gaussian(24, 16, seed);
}

bool same_bits(const linalg::MatrixF& a, const linalg::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size_bytes()) == 0;
}

bool same_svd_bits(const Svd& a, const Svd& b) {
  return same_bits(a.u, b.u) && same_bits(a.v, b.v) &&
         a.sigma.size() == b.sigma.size() &&
         (a.sigma.empty() ||
          std::memcmp(a.sigma.data(), b.sigma.data(),
                      a.sigma.size() * sizeof(float)) == 0);
}

TenantConfig tenant(const std::string& name, double weight = 1.0,
                    double rate = 1000.0, double burst = 64.0) {
  TenantConfig config;
  config.name = name;
  config.weight = weight;
  config.quota_rate = rate;
  config.quota_burst = burst;
  return config;
}

// ------------------------------------------------------------- quotas

TEST(QosBucket, StartsFullAndDrainsToEmpty) {
  TokenBucket bucket(1.0, 3.0, 0.0);
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));  // burst exhausted
}

TEST(QosBucket, RefillsAtRateAndClampsAtBurst) {
  TokenBucket bucket(2.0, 4.0, 0.0);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_FALSE(bucket.try_acquire(0.0));
  // 0.5 s at 2 tokens/s = 1 token.
  EXPECT_TRUE(bucket.try_acquire(0.5));
  EXPECT_FALSE(bucket.try_acquire(0.5));
  // A long idle stretch refills to burst, never past it.
  EXPECT_DOUBLE_EQ(bucket.available(100.0), 4.0);
}

TEST(QosBucket, NonMonotonicNowRefillsNothing) {
  TokenBucket bucket(1.0, 1.0, 10.0);
  EXPECT_TRUE(bucket.try_acquire(10.0));
  // A clock reading from the past must not mint tokens.
  EXPECT_FALSE(bucket.try_acquire(5.0));
  EXPECT_FALSE(bucket.try_acquire(10.0));
  EXPECT_TRUE(bucket.try_acquire(11.0));
}

TEST(QosBucket, InfiniteRateAndBurstAdmitEveryAcquisition) {
  // The implicit "default" tenant of a server configured without
  // tenants carries this bucket: it never sheds.
  const double inf = std::numeric_limits<double>::infinity();
  TokenBucket bucket(inf, inf, 0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_acquire(0.0));
  EXPECT_TRUE(bucket.try_acquire(1e-9));
  EXPECT_TRUE(bucket.try_acquire(5.0));
  EXPECT_EQ(bucket.available(5.0), inf);
}

// --------------------------------------------------------- fair share

TEST(QosDrr, ServesBackloggedTenantsByWeight) {
  DeficitRoundRobin drr({1.0, 3.0});
  std::vector<std::size_t> backlog = {100, 100};
  int served[2] = {0, 0};
  for (int i = 0; i < 40; ++i) {
    const auto pick = drr.pick(backlog);
    ASSERT_TRUE(pick.has_value());
    ++served[*pick];
  }
  EXPECT_EQ(served[0], 10);
  EXPECT_EQ(served[1], 30);
}

TEST(QosDrr, IdleTenantBanksNoCredit) {
  DeficitRoundRobin drr({1.0, 1.0});
  // Tenant 0 idles while tenant 1 is served repeatedly...
  std::vector<std::size_t> backlog = {0, 10};
  for (int i = 0; i < 5; ++i) EXPECT_EQ(drr.pick(backlog), 1u);
  // ...then goes busy: it gets its fair half from now on, not a burst
  // of banked credit.
  backlog = {10, 10};
  int served[2] = {0, 0};
  for (int i = 0; i < 10; ++i) ++served[*drr.pick(backlog)];
  EXPECT_EQ(served[0], 5);
  EXPECT_EQ(served[1], 5);
}

TEST(QosDrr, AllEmptyReturnsNullopt) {
  DeficitRoundRobin drr({1.0, 2.0});
  EXPECT_FALSE(drr.pick({0, 0}).has_value());
}

// --------------------------------------------------------- validation

TEST(QosValidation, RejectsBadTenantAndQosOptions) {
  const auto validated = [](QosOptions qos) {
    ServerOptions options;
    options.qos = std::move(qos);
    options.validate();
  };
  QosOptions good;
  good.tenants = {tenant("default")};
  EXPECT_NO_THROW(validated(good));

  QosOptions bad = good;
  bad.tenants[0].weight = 0.0;
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.tenants[0].weight = -1.0;
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.tenants[0].quota_rate = 0.0;
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.tenants[0].quota_burst = 0.5;
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.tenants[0].name.clear();
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.tenants.push_back(tenant("default"));  // duplicate name
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.coalesce_max_batch = 0;
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.coalesce_max_batch = 4;
  bad.coalesce_window_seconds = 0.0;
  EXPECT_THROW(validated(bad), InputError);
  bad = good;
  bad.cache_enabled = true;
  bad.cache_capacity = 0;
  EXPECT_THROW(validated(bad), InputError);
}

TEST(QosValidation, ParsesTenantSpecs) {
  const TenantConfig full = serve::parse_tenant_spec("acme:2:10:4");
  EXPECT_EQ(full.name, "acme");
  EXPECT_DOUBLE_EQ(full.weight, 2.0);
  EXPECT_DOUBLE_EQ(full.quota_rate, 10.0);
  EXPECT_DOUBLE_EQ(full.quota_burst, 4.0);

  const TenantConfig bare = serve::parse_tenant_spec("solo");
  EXPECT_EQ(bare.name, "solo");
  EXPECT_DOUBLE_EQ(bare.weight, 1.0);

  const TenantConfig skipped = serve::parse_tenant_spec("gap::5");
  EXPECT_DOUBLE_EQ(skipped.weight, 1.0);
  EXPECT_DOUBLE_EQ(skipped.quota_rate, 5.0);

  EXPECT_THROW(serve::parse_tenant_spec("x:notanumber"), InputError);
  EXPECT_THROW(serve::parse_tenant_spec("x:1:2:3:4"), InputError);
  EXPECT_THROW(serve::parse_tenant_spec(":1"), InputError);  // empty name
  EXPECT_THROW(serve::parse_tenant_spec("x:0"), InputError);  // zero weight
}

TEST(QosValidation, ParsesPriorities) {
  EXPECT_EQ(serve::parse_priority("latency"), Priority::kLatency);
  EXPECT_EQ(serve::parse_priority("normal"), Priority::kNormal);
  EXPECT_EQ(serve::parse_priority("batch"), Priority::kBatch);
  EXPECT_THROW(serve::parse_priority("urgent"), InputError);
}

TEST(QosValidation, TenantIndexMapsEmptyToDefault) {
  QosOptions qos;
  qos.tenants = {tenant("alpha"), tenant("default")};
  EXPECT_EQ(qos.tenant_index("alpha"), 0u);
  EXPECT_EQ(qos.tenant_index(""), 1u);
  EXPECT_EQ(qos.tenant_index("stranger"), QosOptions::npos);
}

// -------------------------------------------------------------- cache

TEST(QosCache, HitReturnsStoredFactorsAndTracksLru) {
  ResultCache cache(2);
  const linalg::MatrixF a = small_matrix(1);
  const linalg::MatrixF b = small_matrix(2);
  const linalg::MatrixF c = small_matrix(3);
  Svd result;
  result.sigma = {3.0f, 2.0f, 1.0f};

  cache.insert(a, ResultCache::digest(a), result);
  cache.insert(b, ResultCache::digest(b), result);
  // Touch `a` so `b` is the least recently used entry...
  EXPECT_TRUE(cache.lookup(a, ResultCache::digest(a)).has_value());
  // ...and a third insert evicts `b`, not `a`.
  cache.insert(c, ResultCache::digest(c), result);
  EXPECT_TRUE(cache.lookup(a, ResultCache::digest(a)).has_value());
  EXPECT_FALSE(cache.lookup(b, ResultCache::digest(b)).has_value());
  EXPECT_TRUE(cache.lookup(c, ResultCache::digest(c)).has_value());

  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(QosCache, ForcedDigestCollisionIsCaughtByVerification) {
  ResultCache cache(4);
  const linalg::MatrixF a = small_matrix(10);
  const linalg::MatrixF b = small_matrix(11);  // same shape, other bytes
  Svd result;
  result.sigma = {1.0f};
  // Insert `a` under a forced digest, then look `b` up under the SAME
  // digest: the full-matrix verification must refuse to serve `a`'s
  // factors for `b`.
  const std::uint64_t forced = 0xdeadbeef;
  cache.insert(a, forced, result);
  EXPECT_FALSE(cache.lookup(b, forced).has_value());
  const ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  // The honest key still hits.
  EXPECT_TRUE(cache.lookup(a, forced).has_value());
}

// ----------------------------------------------------- server: quotas

TEST(QosServer, QuotaShedsOnlyTheOfferingTenant) {
  FakeClock clock;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.clock = &clock;
  options.start_paused = true;
  options.qos.tenants = {tenant("bursty", 1.0, 0.5, 1.0),
                         tenant("steady", 1.0, 1000.0, 64.0)};
  SvdServer server(options);

  std::vector<std::future<Response>> bursty;
  for (int i = 0; i < 3; ++i) {
    Request request;
    request.matrix = small_matrix(100 + static_cast<std::uint64_t>(i));
    request.tenant = "bursty";
    bursty.push_back(server.submit(std::move(request)));
  }
  std::vector<std::future<Response>> steady;
  for (int i = 0; i < 2; ++i) {
    Request request;
    request.matrix = small_matrix(200 + static_cast<std::uint64_t>(i));
    request.tenant = "steady";
    steady.push_back(server.submit(std::move(request)));
  }
  // Burst capacity 1: the first bursty request is admitted, the next
  // two are shed at admission -- without touching steady's queue.
  EXPECT_EQ(bursty[1].get().status, ServeStatus::kShed);
  EXPECT_EQ(bursty[2].get().status, ServeStatus::kShed);

  // 2 seconds at 0.5 tokens/s refills one token.
  clock.advance(2.0);
  Request refilled;
  refilled.matrix = small_matrix(300);
  refilled.tenant = "bursty";
  std::future<Response> late = server.submit(std::move(refilled));

  server.resume();
  EXPECT_EQ(bursty[0].get().status, ServeStatus::kOk);
  EXPECT_EQ(late.get().status, ServeStatus::kOk);
  for (auto& f : steady) EXPECT_EQ(f.get().status, ServeStatus::kOk);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.quota_shed, 2u);
  EXPECT_EQ(stats.tenants.at("bursty").shed_quota, 2u);
  EXPECT_EQ(stats.tenants.at("bursty").ok, 2u);
  EXPECT_EQ(stats.tenants.at("steady").shed_quota, 0u);
  EXPECT_EQ(stats.tenants.at("steady").ok, 2u);
}

TEST(QosServer, UnknownTenantIsShedAtAdmission) {
  // An explicit "default" tenant, and a server configured without
  // tenants, which gets an implicit one.
  for (const bool explicit_default : {true, false}) {
    SCOPED_TRACE(explicit_default ? "explicit default" : "no tenants");
    FakeClock clock;
    ServerOptions options;
    options.workers = 1;
    options.svd.config = small_config();
    options.clock = &clock;
    if (explicit_default) options.qos.tenants = {tenant("default")};
    SvdServer server(options);

    for (const char* name : {"stranger", "alpha"}) {
      Request request;
      request.matrix = small_matrix(1);
      request.tenant = name;
      const Response response = server.serve(std::move(request));
      EXPECT_EQ(response.status, ServeStatus::kShed);
      EXPECT_NE(response.message.find("unknown tenant"), std::string::npos);
    }
    EXPECT_EQ(server.stats().unknown_tenant, 2u);

    // Untagged requests map to the "default" tenant.
    Request untagged;
    untagged.matrix = small_matrix(2);
    const Response served = server.serve(std::move(untagged));
    EXPECT_EQ(served.status, ServeStatus::kOk);
    EXPECT_EQ(served.tenant, "default");
  }
}

TEST(QosServer, ServerWithoutTenantsAdmitsEverythingInSubmissionOrder) {
  // No tenants configured: the implicit "default" tenant has no quota,
  // so 80 untagged submissions (more than a finite tenant's default
  // burst of 64) are all admitted and dispatched first in, first out.
  FakeClock clock;
  ServerOptions options;
  options.queue_capacity = 100;
  options.workers = 1;
  options.svd.config = small_config();
  options.svd.want_v = false;
  options.clock = &clock;
  options.start_paused = true;
  SvdServer server(options);

  std::vector<std::future<Response>> futures;
  for (std::uint64_t i = 0; i < 80; ++i) {
    Request request;
    request.matrix = small_matrix(400 + i % 4);
    futures.push_back(server.submit(std::move(request)));
  }
  EXPECT_EQ(server.stats().shed, 0u);
  EXPECT_EQ(server.stats().admitted, 80u);
  server.resume();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response r = futures[i].get();
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.dispatch_ordinal, i + 1);
    EXPECT_EQ(r.tenant, "default");
  }
  const serve::ServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 1u);
  EXPECT_EQ(stats.tenants.at("default").ok, 80u);
  EXPECT_EQ(stats.shed, 0u);
}

// ------------------------------------------------- server: fair share

TEST(QosServer, DispatchOrderFollowsDrrWeights) {
  FakeClock clock;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.clock = &clock;
  options.start_paused = true;
  // Weights with power-of-two quanta keep the deficit arithmetic exact,
  // so the schedule below is deterministic, not approximately fair.
  options.qos.tenants = {tenant("light", 1.0), tenant("heavy", 2.0)};
  SvdServer server(options);

  std::vector<std::future<Response>> light, heavy;
  for (int i = 0; i < 2; ++i) {
    Request request;
    request.matrix = small_matrix(10 + static_cast<std::uint64_t>(i));
    request.tenant = "light";
    light.push_back(server.submit(std::move(request)));
  }
  for (int i = 0; i < 4; ++i) {
    Request request;
    request.matrix = small_matrix(20 + static_cast<std::uint64_t>(i));
    request.tenant = "heavy";
    heavy.push_back(server.submit(std::move(request)));
  }
  server.resume();

  std::vector<std::uint64_t> light_ord, heavy_ord;
  for (auto& f : light) {
    const Response r = f.get();
    EXPECT_EQ(r.status, ServeStatus::kOk);
    EXPECT_EQ(r.tenant, "light");
    light_ord.push_back(r.dispatch_ordinal);
  }
  for (auto& f : heavy) {
    const Response r = f.get();
    EXPECT_EQ(r.status, ServeStatus::kOk);
    heavy_ord.push_back(r.dispatch_ordinal);
  }
  // Weights 1:2 with both tenants backlogged -> the DRR schedule is
  // heavy, light, heavy, heavy, light, heavy.
  EXPECT_EQ(heavy_ord, (std::vector<std::uint64_t>{1, 3, 4, 6}));
  EXPECT_EQ(light_ord, (std::vector<std::uint64_t>{2, 5}));
}

TEST(QosServer, LatencyClassDispatchesBeforeLowerClasses) {
  FakeClock clock;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.clock = &clock;
  options.start_paused = true;
  options.qos.tenants = {tenant("default")};
  options.qos.enable_preemption = false;  // pure queue-order test
  SvdServer server(options);

  const auto submit_with = [&](Priority priority, std::uint64_t seed) {
    Request request;
    request.matrix = small_matrix(seed);
    request.priority = priority;
    return server.submit(std::move(request));
  };
  auto batch1 = submit_with(Priority::kBatch, 1);
  auto batch2 = submit_with(Priority::kBatch, 2);
  auto normal1 = submit_with(Priority::kNormal, 3);
  auto latency1 = submit_with(Priority::kLatency, 4);
  server.resume();

  const std::uint64_t lat = latency1.get().dispatch_ordinal;
  const std::uint64_t nor = normal1.get().dispatch_ordinal;
  const std::uint64_t ba1 = batch1.get().dispatch_ordinal;
  const std::uint64_t ba2 = batch2.get().dispatch_ordinal;
  EXPECT_EQ(lat, 1u);
  EXPECT_EQ(nor, 2u);
  EXPECT_EQ(ba1, 3u);
  EXPECT_EQ(ba2, 4u);
}

// ------------------------------------------------- server: coalescing

TEST(QosServer, CoalescedBatchIsBitIdenticalToSerialExecution) {
  FakeClock clock;
  obs::ObsContext observer;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.clock = &clock;
  options.observer = &observer;
  options.start_paused = true;
  options.qos.tenants = {tenant("default")};
  options.qos.coalesce_max_batch = 3;
  SvdServer server(options);

  std::vector<linalg::MatrixF> inputs;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(small_matrix(40 + static_cast<std::uint64_t>(i)));
    futures.push_back(server.submit(inputs.back()));
  }
  server.resume();

  std::vector<std::size_t> batch_sizes;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, ServeStatus::kOk);
    batch_sizes.push_back(response.batch_size);
    // The coalesced result must equal serving this matrix alone.
    SvdOptions solo;
    solo.config = small_config();
    const Svd reference = svd(inputs[i], solo);
    EXPECT_TRUE(same_svd_bits(response.result, reference));
  }
  // 4 same-shape requests, max batch 3, all admitted together: one
  // dispatch of 3 and one of 1.
  EXPECT_EQ(std::count(batch_sizes.begin(), batch_sizes.end(), 3u), 3);
  EXPECT_EQ(std::count(batch_sizes.begin(), batch_sizes.end(), 1u), 1);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batch_dispatches, 2u);
  EXPECT_EQ(stats.batch_tasks, 4u);
  EXPECT_EQ(stats.tenants.at("default").coalesced, 3u);

  const obs::MetricsSnapshot snap = observer.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.batch.dispatches"), 2u);
  EXPECT_EQ(snap.histograms.at("serve.batch.fill").total, 2u);
}

TEST(QosServer, BreakerFastFailsAreNotDispatches) {
  // Only a job that reaches svd() / svd_batch() is a fabric dispatch. A
  // sticky hang trips the breaker (threshold 1); the coalesced batch of
  // three behind it and a later solo request then fast-fail without
  // touching the fabric, so they keep batch_size 0 and leave the
  // dispatch counters and the fill histogram alone.
  FakeClock clock;
  obs::ObsContext observer;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.svd.fault_retries = 0;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 1;
  options.breaker.open_seconds = 100.0;
  options.clock = &clock;
  options.observer = &observer;
  options.start_paused = true;
  options.qos.coalesce_max_batch = 3;
  SvdServer server(options);

  versal::FaultPlan plan;
  plan.faults.push_back(
      {versal::FaultKind::kTileHang,
       accel::HeteroSvdAccelerator(small_config()).placement().tasks[0].orth
           .front()[0],
       0, 0, 0.0, 1.0});
  versal::FaultInjector injector(plan);
  Request hang;
  hang.matrix = small_matrix(90);
  hang.fault_injector = &injector;  // keeps it solo
  auto failed = server.submit(std::move(hang));
  std::vector<std::future<Response>> coalesced;
  for (int i = 0; i < 3; ++i) {
    coalesced.push_back(
        server.submit(small_matrix(91 + static_cast<std::uint64_t>(i))));
  }
  server.resume();

  const Response first = failed.get();
  EXPECT_EQ(first.status, ServeStatus::kFailed);
  EXPECT_EQ(first.batch_size, 1u);
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kOpen);
  for (auto& future : coalesced) {
    const Response r = future.get();
    EXPECT_EQ(r.status, ServeStatus::kCircuitOpen);
    EXPECT_EQ(r.batch_size, 0u);
  }
  Request healthy;
  healthy.matrix = small_matrix(94);
  const Response solo = server.serve(std::move(healthy));
  EXPECT_EQ(solo.status, ServeStatus::kCircuitOpen);
  EXPECT_EQ(solo.attempts, 0);
  EXPECT_EQ(solo.batch_size, 0u);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.circuit_open, 4u);
  EXPECT_EQ(stats.batch_dispatches, 1u);
  EXPECT_EQ(stats.batch_tasks, 1u);
  EXPECT_EQ(stats.tenants.at("default").coalesced, 0u);
  const obs::MetricsSnapshot snap = observer.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.batch.dispatches"), 1u);
  EXPECT_EQ(snap.histograms.at("serve.batch.fill").total, 1u);
}

// Advances one second on every read, so a deadline expires at a fixed
// clock read. Thread-safe: the test thread admits, one worker serves.
class SteppingClock final : public common::Clock {
 public:
  double now_seconds() const override {
    return static_cast<double>(1 + reads_.fetch_add(1));
  }
  void sleep_for(double) override {}

 private:
  mutable std::atomic<std::uint64_t> reads_{0};
};

TEST(QosServer, CoalescedDeadlineExpiresOnlyMembersPastTheirOwnDeadline) {
  // A batch aborts at a sweep barrier once its earliest member deadline
  // passes. That member expires; its batch-mate, whose own deadline is
  // far off and whose worker was never preempted, goes back to the
  // queue without a preemption and re-runs bit-identically. Admission
  // reads the clock at t = 2, and the batch polls its token about fifteen
  // times from t = 5 on, so the 8 s budget runs out mid-batch.
  SteppingClock clock;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.svd.threads = 1;
  options.retry.max_attempts = 1;
  options.clock = &clock;
  options.start_paused = true;
  options.qos.coalesce_max_batch = 2;
  options.qos.coalesce_window_seconds = 10.0;
  SvdServer server(options);

  const linalg::MatrixF a = small_matrix(120);
  const linalg::MatrixF b = small_matrix(121);
  auto fa = server.submit(a, /*deadline_seconds=*/8.0);
  auto fb = server.submit(b);
  server.resume();

  const Response ra = fa.get();
  const Response rb = fb.get();
  EXPECT_EQ(ra.status, ServeStatus::kExpired) << ra.message;
  EXPECT_EQ(ra.attempts, 1);
  EXPECT_EQ(ra.batch_size, 2u);
  EXPECT_EQ(ra.preemptions, 0);
  ASSERT_EQ(rb.status, ServeStatus::kOk) << rb.message;
  EXPECT_EQ(rb.batch_size, 1u);
  EXPECT_EQ(rb.preemptions, 0);
  SvdOptions solo;
  solo.config = small_config();
  EXPECT_TRUE(same_svd_bits(rb.result, svd(b, solo)));

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.preemptions, 0u);
  EXPECT_EQ(stats.preempt_requests, 0u);
  EXPECT_EQ(stats.batch_dispatches, 2u);
  EXPECT_EQ(stats.batch_tasks, 3u);
}

TEST(QosServer, UntaggedTallSkinnyRequestsAreNeverCoalesced) {
  // The base options keep scenario kAuto, under which svd() runs a
  // 256x32 input through the tall-skinny front end. svd_batch() never
  // engages a front end, so such requests must stay solo to keep the
  // factors equal to serving each one alone.
  FakeClock clock;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.clock = &clock;
  options.start_paused = true;
  options.qos.coalesce_max_batch = 2;
  options.qos.coalesce_window_seconds = 10.0;
  SvdServer server(options);

  const std::vector<linalg::MatrixF> inputs = {gaussian(256, 32, 130),
                                               gaussian(256, 32, 131)};
  std::vector<std::future<Response>> futures;
  for (const linalg::MatrixF& input : inputs) {
    futures.push_back(server.submit(input));
  }
  server.resume();

  SvdOptions solo;
  solo.config = small_config();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Response response = futures[i].get();
    ASSERT_EQ(response.status, ServeStatus::kOk) << response.message;
    EXPECT_EQ(response.batch_size, 1u);
    EXPECT_EQ(response.result.scenario, "tall-skinny");
    EXPECT_TRUE(same_svd_bits(response.result, svd(inputs[i], solo)));
  }
}

TEST(QosServer, CoalescedRetriesStayWithinTheAttemptBudget) {
  // RetryPolicy::max_attempts counts every attempt. An unreachable
  // precision makes each run kNotConverged, a transient outcome, so
  // both members of a batch of two burn the whole budget together: three
  // attempts of two tasks each, and two retries per request.
  FakeClock clock;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.svd.precision = 1e-30;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 0.0;
  options.clock = &clock;
  options.start_paused = true;
  options.qos.coalesce_max_batch = 2;
  SvdServer server(options);

  auto fa = server.submit(small_matrix(140));
  auto fb = server.submit(small_matrix(141));
  server.resume();

  for (auto* future : {&fa, &fb}) {
    const Response response = future->get();
    EXPECT_EQ(response.status, ServeStatus::kNotConverged);
    EXPECT_EQ(response.attempts, 3);
    EXPECT_EQ(response.batch_size, 2u);
  }
  EXPECT_EQ(server.stats().retries, 4u);
}

TEST(QosServer, CoalescingUnderDseConfigMatchesPlainSvd) {
  // No pinned configuration: the coalescer must pin the per-shape DSE
  // choice the serial path would have made, so results still match a
  // plain svd() call with default options.
  FakeClock clock;
  ServerOptions options;
  options.workers = 1;
  options.clock = &clock;
  options.start_paused = true;
  options.qos.tenants = {tenant("default")};
  options.qos.coalesce_max_batch = 2;
  SvdServer server(options);

  const linalg::MatrixF a = small_matrix(70);
  const linalg::MatrixF b = small_matrix(71);
  auto fa = server.submit(a);
  auto fb = server.submit(b);
  server.resume();

  const Response ra = fa.get();
  const Response rb = fb.get();
  ASSERT_EQ(ra.status, ServeStatus::kOk);
  ASSERT_EQ(rb.status, ServeStatus::kOk);
  EXPECT_EQ(ra.batch_size, 2u);
  EXPECT_TRUE(same_svd_bits(ra.result, svd(a)));
  EXPECT_TRUE(same_svd_bits(rb.result, svd(b)));
}

// ------------------------------------------------------ server: cache

TEST(QosServer, DuplicateMatrixIsServedFromCacheBitIdentically) {
  FakeClock clock;
  obs::ObsContext observer;
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.clock = &clock;
  options.observer = &observer;
  options.start_paused = true;
  options.qos.tenants = {tenant("default")};
  options.qos.cache_enabled = true;
  options.qos.cache_capacity = 8;
  SvdServer server(options);

  const linalg::MatrixF dup = small_matrix(55);
  auto first = server.submit(dup);
  auto second = server.submit(dup);
  auto other = server.submit(small_matrix(56));
  server.resume();

  const Response r1 = first.get();
  const Response r2 = second.get();
  const Response r3 = other.get();
  ASSERT_EQ(r1.status, ServeStatus::kOk);
  ASSERT_EQ(r2.status, ServeStatus::kOk);
  ASSERT_EQ(r3.status, ServeStatus::kOk);
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.attempts, 0);  // never touched the fabric
  EXPECT_TRUE(same_svd_bits(r1.result, r2.result));
  EXPECT_FALSE(r3.cache_hit);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_misses, 2u);
  EXPECT_EQ(stats.tenants.at("default").cache_hits, 1u);
  const obs::MetricsSnapshot snap = observer.metrics().snapshot();
  EXPECT_EQ(snap.counters.at("serve.cache.hit"), 1u);
  EXPECT_GE(snap.counters.at("serve.cache.miss"), 2u);
}

TEST(QosServer, QosPathWithCacheOffMatchesLegacyServerBitIdentically) {
  // An explicit "default" tenant (no cache, no coalescing, preemption
  // irrelevant on one band) must produce the same bits as a server
  // configured without tenants, which runs an implicit unlimited
  // "default" tenant.
  FakeClock clock_a;
  ServerOptions legacy;
  legacy.workers = 1;
  legacy.svd.config = small_config();
  legacy.clock = &clock_a;
  SvdServer legacy_server(legacy);

  FakeClock clock_b;
  ServerOptions qos = legacy;
  qos.clock = &clock_b;
  qos.qos.tenants = {tenant("default")};
  SvdServer qos_server(qos);

  for (std::uint64_t seed = 80; seed < 84; ++seed) {
    const linalg::MatrixF matrix = small_matrix(seed);
    Request plain;
    plain.matrix = matrix;
    const Response a = legacy_server.serve(std::move(plain));
    Request tagged;
    tagged.matrix = matrix;
    const Response b = qos_server.serve(std::move(tagged));
    ASSERT_EQ(a.status, ServeStatus::kOk);
    ASSERT_EQ(b.status, ServeStatus::kOk);
    EXPECT_TRUE(same_svd_bits(a.result, b.result));
  }
}

// ------------------------------------------------- server: preemption

TEST(QosServer, LatencyRequestPreemptsRunningBatchWork) {
  // Real clock: the batch-class victim must be genuinely in flight when
  // the latency request arrives. The victim is large enough that the
  // cancel lands at one of its many sweep barriers.
  ServerOptions options;
  options.workers = 1;
  options.svd.config = small_config();
  options.qos.tenants = {tenant("default")};
  SvdServer server(options);

  const linalg::MatrixF big = gaussian(96, 64, 7);
  Request victim;
  victim.matrix = big;
  victim.priority = Priority::kBatch;
  auto victim_future = server.submit(std::move(victim));

  // Wait until the victim is on the fabric.
  for (int spin = 0; spin < 100000 && server.stats().in_service == 0;
       ++spin) {
    std::this_thread::yield();
  }
  ASSERT_EQ(server.stats().in_service, 1u);

  Request urgent;
  urgent.matrix = small_matrix(8);
  urgent.priority = Priority::kLatency;
  const Response fast = server.serve(std::move(urgent));
  EXPECT_EQ(fast.status, ServeStatus::kOk);

  // The victim was re-queued at the barrier and its re-run completed
  // bit-identical to an undisturbed run.
  const Response slow = victim_future.get();
  ASSERT_EQ(slow.status, ServeStatus::kOk);
  EXPECT_GE(slow.preemptions, 1);
  SvdOptions solo;
  solo.config = small_config();
  EXPECT_TRUE(same_svd_bits(slow.result, svd(big, solo)));

  const serve::ServerStats stats = server.stats();
  EXPECT_GE(stats.preemptions, 1u);
  EXPECT_GE(stats.preempt_requests, 1u);
  EXPECT_EQ(stats.tenants.at("default").preemptions, stats.preemptions);
}

// -------------------------------------------------------- planned_config

TEST(QosPlannedConfig, PinnedOptionsRoundTripWithShapeOverride) {
  SvdOptions options;
  options.config = small_config();
  const accel::HeteroSvdConfig cfg = planned_config(48, 32, 1, options);
  EXPECT_EQ(cfg.rows, 48u);
  EXPECT_EQ(cfg.cols, 32u);
  EXPECT_EQ(cfg.p_eng, small_config().p_eng);
  EXPECT_EQ(cfg.p_task, small_config().p_task);
  EXPECT_THROW(planned_config(0, 16, 1, options), InputError);
  EXPECT_THROW(planned_config(24, 16, 0, options), InputError);
}

}  // namespace
}  // namespace hsvd
