// Serving-layer tests: clocks and cancel tokens, backoff determinism,
// circuit-breaker transitions, checkpoint files, the SvdServer's
// admission/deadline/retry/breaker behavior, and checkpoint/resume for
// campaigns and DSE sweeps. Everything time-dependent runs on a fake
// clock -- no real sleeps anywhere in this file.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/campaign.hpp"
#include "common/checkpoint.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/retry.hpp"
#include "common/rng.hpp"
#include "dse/explorer.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "obs/obs.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/server.hpp"
#include "versal/faults.hpp"

namespace hsvd {
namespace {

using common::BackoffSchedule;
using common::CancelToken;
using common::CheckpointFile;
using common::FakeClock;
using common::RetryPolicy;
using serve::BreakerPolicy;
using serve::BreakerState;
using serve::CircuitBreaker;
using serve::Request;
using serve::Response;
using serve::ServeStatus;
using serve::ServerOptions;
using serve::SvdServer;

// A clock that jumps forward on every read: each now_seconds() returns
// step, 2*step, 3*step, ... Lets a single-threaded test expire a
// deadline *during* a run, at whichever slot-chain boundary polls it.
class SteppingClock final : public common::Clock {
 public:
  explicit SteppingClock(double step) : step_(step) {}
  double now_seconds() const override {
    return step_ * static_cast<double>(
                       1 + calls_.fetch_add(1, std::memory_order_relaxed));
  }
  void sleep_for(double) override {}

 private:
  double step_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

accel::HeteroSvdConfig small_config() {
  accel::HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 2;
  cfg.iterations = 3;
  return cfg;
}

linalg::MatrixF small_matrix(std::uint64_t seed) {
  Rng rng(seed);
  return linalg::random_gaussian(24, 16, rng).cast<float>();
}

serve::Request plain_request(linalg::MatrixF matrix) {
  serve::Request request;
  request.matrix = std::move(matrix);
  return request;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hsvd_" + name;
  std::remove(path.c_str());  // stale files from earlier runs would replay
  return path;
}

// One-shot corrupting fault: drops the first packet into a real entry
// tile of the floorplan. With fault_retries = 0 the affected task fails
// its run; the injector's trigger is then consumed, so a re-submission
// succeeds -- the canonical transient failure.
versal::FaultPlan one_shot_drop(const accel::HeteroSvdConfig& config) {
  accel::HeteroSvdAccelerator probe(config);
  versal::FaultPlan plan;
  plan.faults.push_back({versal::FaultKind::kStreamDrop,
                         probe.placement().tasks[0].orth.front()[0], 0, 0, 0.0,
                         1.0});
  return plan;
}

// Sticky fault: the tile's core never completes again, so every attempt
// through the same fabric fails. Used to feed the breaker.
versal::FaultPlan sticky_hang(const accel::HeteroSvdConfig& config) {
  accel::HeteroSvdAccelerator probe(config);
  versal::FaultPlan plan;
  plan.faults.push_back({versal::FaultKind::kTileHang,
                         probe.placement().tasks[0].orth.front()[0], 0, 0, 0.0,
                         1.0});
  return plan;
}

// ---------------------------------------------------------------- clocks

TEST(ServeClock, FakeClockAdvancesInsteadOfSleeping) {
  FakeClock clock(10.0);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 10.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 12.5);
  clock.sleep_for(0.5);  // a fake sleep is an advance
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 13.0);
  clock.sleep_for(-1.0);  // non-positive sleeps are no-ops
  EXPECT_DOUBLE_EQ(clock.now_seconds(), 13.0);
}

TEST(ServeClock, CancelTokenBudgetExpiryAndManualCancel) {
  FakeClock clock(0.0);
  CancelToken token = CancelToken::with_budget(clock, 2.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.expired());
  EXPECT_DOUBLE_EQ(token.remaining_seconds(), 2.0);
  clock.advance(1.5);
  EXPECT_DOUBLE_EQ(token.remaining_seconds(), 0.5);
  clock.advance(0.5);
  EXPECT_TRUE(token.expired());
  EXPECT_DOUBLE_EQ(token.remaining_seconds(), 0.0);

  CancelToken manual;  // no deadline: only cancel() expires it
  EXPECT_FALSE(manual.has_deadline());
  EXPECT_FALSE(manual.expired());
  EXPECT_TRUE(std::isinf(manual.remaining_seconds()));
  manual.cancel();
  EXPECT_TRUE(manual.expired());
  EXPECT_DOUBLE_EQ(manual.remaining_seconds(), 0.0);

  EXPECT_THROW(CancelToken::with_budget(clock, 0.0), InputError);
  EXPECT_THROW(CancelToken::with_budget(clock, -1.0), InputError);
}

// --------------------------------------------------------------- backoff

TEST(ServeBackoff, SameSeedAndStreamReplayBitForBit) {
  RetryPolicy policy;
  policy.seed = 42;
  policy.initial_backoff_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 1.0;
  policy.jitter = 0.5;

  BackoffSchedule a(policy, 7);
  BackoffSchedule b(policy, 7);
  for (int k = 1; k <= 8; ++k) {
    EXPECT_EQ(a.delay_seconds(k), b.delay_seconds(k)) << "retry " << k;
  }

  // A different stream (another request) draws a different schedule.
  BackoffSchedule c(policy, 7);
  BackoffSchedule d(policy, 8);
  bool any_differ = false;
  for (int k = 1; k <= 8; ++k) {
    if (c.delay_seconds(k) != d.delay_seconds(k)) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(ServeBackoff, DelaysGrowExponentiallyWithinJitterBandAndCap) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.01;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.05;
  policy.jitter = 0.5;
  BackoffSchedule schedule(policy, 0);
  for (int k = 1; k <= 10; ++k) {
    double expected = 0.01;
    for (int i = 1; i < k; ++i) expected = std::min(expected * 2.0, 0.05);
    const double d = schedule.delay_seconds(k);
    EXPECT_GE(d, 0.5 * expected) << "retry " << k;
    EXPECT_LE(d, expected) << "retry " << k;
  }
}

TEST(ServeBackoff, ZeroJitterIsDeterministicWithoutRandomness) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.25;
  policy.backoff_multiplier = 3.0;
  policy.max_backoff_seconds = 2.0;
  policy.jitter = 0.0;
  BackoffSchedule schedule(policy, 99);
  EXPECT_DOUBLE_EQ(schedule.delay_seconds(1), 0.25);
  EXPECT_DOUBLE_EQ(schedule.delay_seconds(2), 0.75);
  EXPECT_DOUBLE_EQ(schedule.delay_seconds(3), 2.0);  // capped
  EXPECT_DOUBLE_EQ(schedule.delay_seconds(4), 2.0);
}

TEST(ServeBackoff, PolicyValidationRejectsNonsense) {
  RetryPolicy ok;
  EXPECT_NO_THROW(ok.validate());
  RetryPolicy bad = ok;
  bad.max_attempts = 0;
  EXPECT_THROW(bad.validate(), InputError);
  bad = ok;
  bad.initial_backoff_seconds = -0.1;
  EXPECT_THROW(bad.validate(), InputError);
  bad = ok;
  bad.backoff_multiplier = 0.5;
  EXPECT_THROW(bad.validate(), InputError);
  bad = ok;
  bad.max_backoff_seconds = bad.initial_backoff_seconds / 2.0;
  EXPECT_THROW(bad.validate(), InputError);
  bad = ok;
  bad.jitter = 1.5;
  EXPECT_THROW(bad.validate(), InputError);
}

// --------------------------------------------------------------- breaker

TEST(ServeBreaker, OpensAfterConsecutiveFailuresThenHalfOpensAndCloses) {
  FakeClock clock;
  BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_seconds = 10.0;
  policy.half_open_probes = 1;
  policy.close_threshold = 2;
  CircuitBreaker breaker(policy, &clock);

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.allow());
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // 2 < threshold
  breaker.record_success();                           // resets the streak
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_FALSE(breaker.allow());  // fast-fail while open

  clock.advance(9.9);
  EXPECT_FALSE(breaker.allow());  // still cooling
  clock.advance(0.1);
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow());    // the one probe slot
  EXPECT_FALSE(breaker.allow());   // concurrency-limited
  breaker.record_success();        // 1 of close_threshold = 2
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow());
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(ServeBreaker, FailedProbeReopensAndRestartsTheCooldown) {
  FakeClock clock;
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_seconds = 5.0;
  CircuitBreaker breaker(policy, &clock);

  breaker.record_failure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  clock.advance(5.0);
  EXPECT_TRUE(breaker.allow());  // probe
  breaker.record_failure();      // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  clock.advance(4.0);
  EXPECT_FALSE(breaker.allow());  // cooldown restarted, not resumed
  clock.advance(1.0);
  EXPECT_TRUE(breaker.allow());
}

TEST(ServeBreaker, NeutralOutcomeReleasesTheProbeSlotWithoutJudging) {
  FakeClock clock;
  BreakerPolicy policy;
  policy.failure_threshold = 1;
  policy.open_seconds = 1.0;
  policy.half_open_probes = 1;
  policy.close_threshold = 1;
  CircuitBreaker breaker(policy, &clock);

  breaker.record_failure();
  clock.advance(1.0);
  EXPECT_TRUE(breaker.allow());
  EXPECT_FALSE(breaker.allow());
  breaker.record_neutral();  // e.g. the probe expired its deadline
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow());  // slot free again
  breaker.record_success();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

// ------------------------------------------------------------ checkpoint

TEST(ServeCheckpoint, RecordsRoundTripAcrossReopen) {
  const std::string path = temp_path("ckpt_roundtrip");
  {
    CheckpointFile ckpt(path, "tag-a");
    ckpt.record("plain", "value");
    ckpt.record("tabs\tand\nnewlines\r", "payload\twith\\escapes\ntoo");
    ckpt.record("plain", "overwritten");
    EXPECT_EQ(ckpt.size(), 2u);
  }
  CheckpointFile reopened(path, "tag-a");
  EXPECT_EQ(reopened.size(), 2u);
  ASSERT_TRUE(reopened.contains("plain"));
  EXPECT_EQ(*reopened.find("plain"), "overwritten");
  ASSERT_TRUE(reopened.contains("tabs\tand\nnewlines\r"));
  EXPECT_EQ(*reopened.find("tabs\tand\nnewlines\r"),
            "payload\twith\\escapes\ntoo");
  EXPECT_EQ(reopened.find("missing"), nullptr);
}

TEST(ServeCheckpoint, EscapeUnescapeAreInverse) {
  const std::string raw = "a\\b\tc\nd\re\\t";
  EXPECT_EQ(CheckpointFile::unescape(CheckpointFile::escape(raw)), raw);
  EXPECT_EQ(CheckpointFile::escape("x\ty"), "x\\ty");
}

TEST(ServeCheckpoint, TagMismatchStartsEmptyAndRewrites) {
  const std::string path = temp_path("ckpt_tag");
  {
    CheckpointFile ckpt(path, "seed-1");
    ckpt.record("trial:0", "old");
  }
  {
    // Different parameters: the stale records must not be visible.
    CheckpointFile ckpt(path, "seed-2");
    EXPECT_EQ(ckpt.size(), 0u);
    ckpt.record("trial:0", "new");
  }
  CheckpointFile reopened(path, "seed-2");
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(*reopened.find("trial:0"), "new");
  // And the old tag no longer matches either.
  CheckpointFile stale(path, "seed-1");
  EXPECT_EQ(stale.size(), 0u);
}

TEST(ServeCheckpoint, TornTailLineFromAKillIsTolerated) {
  const std::string path = temp_path("ckpt_torn");
  {
    CheckpointFile ckpt(path, "tag");
    ckpt.record("done", "payload");
  }
  {
    std::ofstream out(path, std::ios::app);
    out << "halfwritten-no-tab";  // kill mid-record, no trailing newline
  }
  CheckpointFile reopened(path, "tag");
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_TRUE(reopened.contains("done"));
}

TEST(ServeCheckpoint, EmptyPathOrTagIsAnInputError) {
  EXPECT_THROW(CheckpointFile("", "tag"), InputError);
  EXPECT_THROW(CheckpointFile(temp_path("ckpt_valid"), ""), InputError);
  EXPECT_THROW(CheckpointFile(temp_path("ckpt_valid"), "two\nlines"),
               InputError);
}

// ---------------------------------------------------------------- server

TEST(ServeServer, FullQueueShedsInsteadOfBlocking) {
  FakeClock clock;
  obs::ObsContext observer;
  ServerOptions options;
  options.queue_capacity = 2;
  options.workers = 1;
  options.svd.config = small_config();
  options.svd.want_v = false;
  options.svd.threads = 1;
  options.clock = &clock;
  options.observer = &observer;
  options.start_paused = true;  // nothing drains until resume()
  SvdServer server(options);

  auto f1 = server.submit(small_matrix(1));
  auto f2 = server.submit(small_matrix(2));
  auto f3 = server.submit(small_matrix(3));
  // The third request resolves immediately: shed, never queued.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  const Response shed = f3.get();
  EXPECT_EQ(shed.status, ServeStatus::kShed);
  EXPECT_EQ(shed.attempts, 0);

  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.queue_depth, 2u);
  EXPECT_EQ(stats.peak_queue_depth, 2u);

  server.resume();
  EXPECT_EQ(f1.get().status, ServeStatus::kOk);
  EXPECT_EQ(f2.get().status, ServeStatus::kOk);
  server.shutdown();

  // Submitting after shutdown sheds too.
  const Response late = server.serve(plain_request(small_matrix(4)));
  EXPECT_EQ(late.status, ServeStatus::kShed);

  const auto counters = observer.metrics().snapshot().counters;
  EXPECT_EQ(counters.at("serve.submitted"), 4u);
  EXPECT_EQ(counters.at("serve.shed"), 2u);
  EXPECT_EQ(counters.at("serve.ok"), 2u);
}

TEST(ServeServer, DeadlineExpiredInQueueFailsFastWithoutRunning) {
  FakeClock clock;
  ServerOptions options;
  options.queue_capacity = 4;
  options.workers = 1;
  options.svd.config = small_config();
  options.svd.threads = 1;
  options.clock = &clock;
  options.start_paused = true;
  SvdServer server(options);

  auto doomed = server.submit(small_matrix(1), /*deadline_seconds=*/1.0);
  auto healthy = server.submit(small_matrix(2));  // no deadline
  clock.advance(5.0);  // the deadline passes while both sit in the queue
  server.resume();

  const Response expired = doomed.get();
  EXPECT_EQ(expired.status, ServeStatus::kExpired);
  EXPECT_EQ(expired.attempts, 0);  // never reached the fabric
  EXPECT_GE(expired.queue_seconds, 5.0);
  EXPECT_EQ(healthy.get().status, ServeStatus::kOk);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

TEST(ServeServer, TransientFaultIsRetriedToSuccess) {
  FakeClock clock;
  const auto config = small_config();
  versal::FaultInjector injector(one_shot_drop(config));

  ServerOptions options;
  options.queue_capacity = 4;
  options.workers = 1;
  options.svd.config = config;
  options.svd.threads = 1;
  options.svd.fault_retries = 0;  // surface the fault to the server
  options.retry.max_attempts = 3;
  options.retry.seed = 7;
  options.clock = &clock;
  SvdServer server(options);

  Request request;
  request.matrix = small_matrix(10);
  request.fault_injector = &injector;
  const Response response = server.serve(std::move(request));
  EXPECT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(response.attempts, 2);  // failed once, succeeded on the retry

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(clock.now_seconds(), 0.0);  // the backoff advanced the clock
}

TEST(ServeServer, BreakerTripsFastFailsAndClosesAfterAProbe) {
  FakeClock clock;
  const auto config = small_config();
  const versal::FaultPlan hang = sticky_hang(config);

  ServerOptions options;
  options.queue_capacity = 4;
  options.workers = 1;
  options.svd.config = config;
  options.svd.threads = 1;
  options.svd.fault_retries = 0;
  options.retry.max_attempts = 1;  // no retries: failures hit the breaker
  options.breaker.failure_threshold = 2;
  options.breaker.open_seconds = 5.0;
  options.breaker.close_threshold = 1;
  options.clock = &clock;
  SvdServer server(options);

  // Two sticky-fault requests in a row trip the breaker.
  for (int i = 0; i < 2; ++i) {
    versal::FaultInjector injector(hang);
    Request request;
    request.matrix = small_matrix(20 + static_cast<std::uint64_t>(i));
    request.fault_injector = &injector;
    EXPECT_EQ(server.serve(std::move(request)).status, ServeStatus::kFailed);
  }
  EXPECT_EQ(server.breaker_state(), BreakerState::kOpen);

  // A healthy request fast-fails while the breaker is open...
  const Response blocked = server.serve(plain_request(small_matrix(30)));
  EXPECT_EQ(blocked.status, ServeStatus::kCircuitOpen);
  EXPECT_EQ(blocked.attempts, 0);

  // ...and after the cooldown a healthy probe closes it again.
  clock.advance(5.0);
  const Response probe = server.serve(plain_request(small_matrix(31)));
  EXPECT_EQ(probe.status, ServeStatus::kOk);
  EXPECT_EQ(server.breaker_state(), BreakerState::kClosed);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.failed, 2u);
  EXPECT_EQ(stats.circuit_open, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.breaker_trips, 1u);
}

TEST(ServeServer, Fp32OverflowOnTheCpuBackendFailsOnlyThatRequest) {
  FakeClock clock;
  ServerOptions options;
  options.queue_capacity = 4;
  options.workers = 1;
  options.svd.threads = 1;
  options.clock = &clock;
  SvdServer server(options);

  // Finite, but every squared column norm overflows fp32: the host sweep
  // rejects it as an InputError instead of taking the server down.
  Request overflow = plain_request(small_matrix(40));
  for (float& x : overflow.matrix.data()) x *= 1e20f;
  overflow.backend = "cpu";
  const Response failed = server.serve(std::move(overflow));
  EXPECT_EQ(failed.status, ServeStatus::kFailed);
  EXPECT_EQ(failed.attempts, 1);  // deterministic rejection: no retry
  EXPECT_NE(failed.message.find("column pair"), std::string::npos)
      << failed.message;

  Request healthy = plain_request(small_matrix(41));
  healthy.backend = "cpu";
  EXPECT_EQ(server.serve(std::move(healthy)).status, ServeStatus::kOk);
}

TEST(ServeServer, InvalidOptionsAreRejectedAtConstruction) {
  ServerOptions options;
  options.queue_capacity = 0;
  EXPECT_THROW(SvdServer bad(std::move(options)), InputError);
  options = ServerOptions();
  options.workers = 0;
  EXPECT_THROW(SvdServer bad(std::move(options)), InputError);
  options = ServerOptions();
  options.default_deadline_seconds = -1.0;
  EXPECT_THROW(SvdServer bad(std::move(options)), InputError);
  options = ServerOptions();
  options.breaker.failure_threshold = 0;
  EXPECT_THROW(SvdServer bad(std::move(options)), InputError);
}

// ------------------------------------------------------ facade deadlines

TEST(ServeCancel, CancelledTokenRejectsBeforeTheRunStarts) {
  CancelToken token;
  token.cancel();
  SvdOptions options;
  options.config = small_config();
  options.cancel = &token;
  EXPECT_THROW(svd(small_matrix(1), options), DeadlineExceeded);
  EXPECT_THROW(svd_batch({small_matrix(1), small_matrix(2)}, options),
               DeadlineExceeded);
}

TEST(ServeCancel, DeadlineExpiresMidBatchAtASlotChainBoundary) {
  // The stepping clock jumps 1s per read, so a few boundary polls into
  // the batch the 100s budget is blown and the run must abandon work
  // cooperatively instead of finishing all four tasks.
  SteppingClock clock(30.0);
  CancelToken token(clock, 100.0);
  SvdOptions options;
  options.config = small_config();
  options.threads = 1;
  options.cancel = &token;
  std::vector<linalg::MatrixF> batch;
  for (std::uint64_t i = 0; i < 4; ++i) batch.push_back(small_matrix(40 + i));
  EXPECT_THROW(svd_batch(batch, options), DeadlineExceeded);
}

TEST(ServeCancel, FacadeRetryResubmitsOnlyTheFailedTasks) {
  FakeClock clock;
  const auto config = small_config();
  std::vector<linalg::MatrixF> batch;
  for (std::uint64_t i = 0; i < 4; ++i) batch.push_back(small_matrix(50 + i));

  SvdOptions clean_options;
  clean_options.config = config;
  clean_options.threads = 1;
  const BatchSvd clean = svd_batch(batch, clean_options);
  for (const auto& r : clean.results) ASSERT_EQ(r.status, SvdStatus::kOk);

  versal::FaultInjector injector(one_shot_drop(config));
  SvdOptions options = clean_options;
  options.fault_retries = 0;
  options.fault_injector = &injector;
  common::RetryPolicy retry;
  retry.max_attempts = 2;
  options.retry = retry;
  options.clock = &clock;
  const BatchSvd out = svd_batch(batch, options);

  EXPECT_EQ(out.failed_tasks, 0);
  int retried = 0;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    EXPECT_EQ(out.results[i].status, SvdStatus::kOk) << "task " << i;
    if (out.results[i].retries > 0) {
      ++retried;
    } else {
      // Untouched tasks stay bit-identical to the fault-free run.
      EXPECT_EQ(out.results[i].sigma, clean.results[i].sigma) << "task " << i;
      EXPECT_EQ(out.results[i].iterations, clean.results[i].iterations);
    }
    // Retried or not, the final factors match the clean decomposition.
    EXPECT_EQ(out.results[i].sigma, clean.results[i].sigma) << "task " << i;
  }
  EXPECT_EQ(retried, 1);  // one dropped packet fails exactly one task
  EXPECT_GT(clock.now_seconds(), 0.0);  // backoff ran on the fake clock
}

TEST(ServeCancel, SingleMatrixRetryRecoversFromATransientFault) {
  FakeClock clock;
  const auto config = small_config();
  versal::FaultInjector injector(one_shot_drop(config));

  SvdOptions options;
  options.config = config;
  options.threads = 1;
  options.fault_retries = 0;
  options.fault_injector = &injector;
  common::RetryPolicy retry;
  retry.max_attempts = 3;
  options.retry = retry;
  options.clock = &clock;

  const Svd out = svd(small_matrix(60), options);
  EXPECT_EQ(out.status, SvdStatus::kOk);
  EXPECT_EQ(out.retries, 1);

  // Without the retry policy the same fault surfaces as FaultDetected.
  versal::FaultInjector again(one_shot_drop(config));
  SvdOptions no_retry;
  no_retry.config = config;
  no_retry.threads = 1;
  no_retry.fault_retries = 0;
  no_retry.fault_injector = &again;
  EXPECT_THROW(svd(small_matrix(60), no_retry), FaultDetected);
}

// ------------------------------------------------------ option validation

TEST(ServeValidation, MalformedSvdOptionsAreTypedInputErrors) {
  const linalg::MatrixF a = small_matrix(70);
  SvdOptions options;
  options.fault_retries = -1;
  EXPECT_THROW(svd(a, options), InputError);
  options = SvdOptions();
  options.threads = -2;
  EXPECT_THROW(svd(a, options), InputError);
  options = SvdOptions();
  options.precision = 0.0;
  EXPECT_THROW(svd(a, options), InputError);
  options = SvdOptions();
  options.precision = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(svd(a, options), InputError);
  options = SvdOptions();
  common::RetryPolicy retry;
  retry.max_attempts = 0;
  options.retry = retry;
  EXPECT_THROW(svd(a, options), InputError);
  // svd_batch validates through the same gate.
  options = SvdOptions();
  options.fault_retries = -1;
  EXPECT_THROW(svd_batch({a}, options), InputError);
}

// ------------------------------------------------------- campaign resume

TEST(ServeCampaignResume, InterruptedSweepResumesToAnIdenticalCsv) {
  accel::CampaignOptions options;
  options.batch = 2;
  options.trials_per_kind = 1;
  options.seed = 5;
  options.kinds = {versal::FaultKind::kTileHang, versal::FaultKind::kStreamDrop,
                   versal::FaultKind::kDmaStall};

  // Uninterrupted reference sweep (no checkpoint).
  const auto full = accel::run_campaign(options);
  ASSERT_EQ(full.size(), 3u);
  const std::string full_csv = accel::campaign_csv(full);

  // The same sweep killed after every trial: each invocation executes
  // one new trial and replays the checkpointed prefix.
  options.checkpoint_path = temp_path("campaign_resume");
  options.max_new_trials = 1;
  EXPECT_EQ(accel::run_campaign(options).size(), 1u);
  EXPECT_EQ(accel::run_campaign(options).size(), 2u);
  const auto resumed = accel::run_campaign(options);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(accel::campaign_csv(resumed), full_csv);

  // A fourth run replays everything from the checkpoint: same CSV.
  options.max_new_trials = 0;
  EXPECT_EQ(accel::campaign_csv(accel::run_campaign(options)), full_csv);
}

TEST(ServeCampaignResume, CheckpointFromDifferentOptionsIsNeverReused) {
  accel::CampaignOptions options;
  options.batch = 2;
  options.trials_per_kind = 1;
  options.seed = 6;
  options.kinds = {versal::FaultKind::kStreamDrop};
  options.checkpoint_path = temp_path("campaign_tag");
  const auto first = accel::run_campaign(options);
  ASSERT_EQ(first.size(), 1u);

  // A different seed means different trials: the tag changes and the
  // sweep re-executes instead of replaying the stale record.
  accel::CampaignOptions other = options;
  other.seed = 7;
  EXPECT_NE(accel::campaign_checkpoint_tag(options),
            accel::campaign_checkpoint_tag(other));
  const auto second = accel::run_campaign(other);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(first.front().plan_seed, second.front().plan_seed);
}

// ------------------------------------------------------------ DSE resume

TEST(ServeDseResume, ReplayedSweepMatchesWithZeroPlacementCalls) {
  dse::DseRequest request;
  request.rows = 32;
  request.cols = 16;
  request.batch = 2;
  request.iterations = 2;
  request.threads = 1;
  request.checkpoint_path = temp_path("dse_resume");

  dse::DesignSpaceExplorer explorer;
  const auto fresh = explorer.enumerate(request);
  ASSERT_FALSE(fresh.empty());
  EXPECT_GT(explorer.last_stats().placement_calls, 0u);

  dse::DesignSpaceExplorer replayer;
  const auto replayed = replayer.enumerate(request);
  EXPECT_EQ(replayer.last_stats().placement_calls, 0u);

  ASSERT_EQ(replayed.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(replayed[i].p_eng, fresh[i].p_eng) << "point " << i;
    EXPECT_EQ(replayed[i].p_task, fresh[i].p_task) << "point " << i;
    EXPECT_EQ(replayed[i].frequency_hz, fresh[i].frequency_hz);
    EXPECT_EQ(replayed[i].latency_seconds, fresh[i].latency_seconds);
    EXPECT_EQ(replayed[i].throughput_tasks_per_s,
              fresh[i].throughput_tasks_per_s);
    EXPECT_EQ(replayed[i].power_watts, fresh[i].power_watts);
    EXPECT_EQ(replayed[i].resources.lut, fresh[i].resources.lut);
    EXPECT_EQ(replayed[i].latency.t_task, fresh[i].latency.t_task);
  }
}

}  // namespace
}  // namespace hsvd
