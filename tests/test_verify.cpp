// Tests for the verified-compute layer (DESIGN.md section 15): the
// VerifyPolicy selection contract, the tiered ResultVerifier, the
// escalation ladder (re-run -> re-route -> host reference) end-to-end
// through the facade with injected silent errors, the result cache's
// attestation bookkeeping, and the router's per-backend health ledger
// (quarantine, half-open probes, memo invalidation, verify-off
// bit-identical routing).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "backend/router.hpp"
#include "backend/slo.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "dse/explorer.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/result_cache.hpp"
#include "verify/escalate.hpp"
#include "verify/policy.hpp"
#include "verify/verifier.hpp"
#include "versal/faults.hpp"

namespace hsvd {
namespace {

using backend::make_backends;
using backend::RouteDecision;
using backend::Router;
using backend::Slo;
using common::FakeClock;
using verify::parse_verify_policy;
using verify::VerifyMode;
using verify::VerifyPolicy;
using verify::VerifyRung;
using verify::VerifyTier;

linalg::MatrixF gaussian(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Rng rng(seed);
  return linalg::random_gaussian(rows, cols, rng).cast<float>();
}

bool same_bits(const linalg::MatrixF& a, const linalg::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size_bytes()) == 0;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// One-shot silent corruption of task slot 0's returned factors: fires on
// the `ordinal`th finished result for that slot, invisible to every
// dataflow detection point.
versal::FaultPlan silent_plan(std::uint64_t seed,
                              std::initializer_list<std::uint64_t> ordinals) {
  versal::FaultPlan plan;
  plan.seed = seed;
  for (const std::uint64_t after_op : ordinals) {
    versal::FaultSpec spec;
    spec.kind = versal::FaultKind::kSilentError;
    spec.slot = 0;
    spec.tile = versal::TileCoord{0, 0};
    spec.after_op = after_op;
    plan.faults.push_back(spec);
  }
  return plan;
}

const backend::Candidate* candidate(const RouteDecision& decision,
                                    const char* name) {
  for (const auto& c : decision.candidates) {
    if (name == std::string(c.backend->name())) return &c;
  }
  return nullptr;
}

SvdOptions verify_on() {
  SvdOptions options;
  options.verify = parse_verify_policy("always");
  return options;
}

// ---- policy parsing and selection -----------------------------------------

TEST(VerifyPolicy, ParseRoundTrip) {
  EXPECT_EQ(parse_verify_policy("off").mode, VerifyMode::kOff);
  EXPECT_FALSE(parse_verify_policy("off").enabled());
  EXPECT_EQ(parse_verify_policy("always").mode, VerifyMode::kAlways);
  EXPECT_TRUE(parse_verify_policy("always").enabled());

  const VerifyPolicy sampled = parse_verify_policy("sample:0.25:42");
  EXPECT_EQ(sampled.mode, VerifyMode::kSample);
  EXPECT_DOUBLE_EQ(sampled.sample_rate, 0.25);
  EXPECT_EQ(sampled.seed, 42u);

  for (const char* spec : {"off", "always", "sample:0.5", "sample:0.25:42"}) {
    const VerifyPolicy parsed = parse_verify_policy(spec);
    EXPECT_EQ(parse_verify_policy(verify::to_string(parsed)).mode, parsed.mode)
        << spec;
    EXPECT_EQ(verify::to_string(parsed), spec);
  }
}

TEST(VerifyPolicy, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_verify_policy("sometimes"), InputError);
  EXPECT_THROW(parse_verify_policy("sample:"), InputError);
  EXPECT_THROW(parse_verify_policy("sample:zero"), InputError);
  EXPECT_THROW(parse_verify_policy("sample:0"), InputError);
  EXPECT_THROW(parse_verify_policy("sample:1.5"), InputError);
  EXPECT_THROW(parse_verify_policy("sample:0.5:4x"), InputError);

  VerifyPolicy policy;
  policy.mode = VerifyMode::kSample;
  policy.sample_rate = 0.0;
  EXPECT_THROW(policy.validate(), InputError);
  policy.sample_rate = 2.0;
  EXPECT_THROW(policy.validate(), InputError);
  policy.sample_rate = 1.0;
  EXPECT_NO_THROW(policy.validate());
}

TEST(VerifyPolicy, SelectionIsDeterministicAndSeeded) {
  VerifyPolicy off;
  VerifyPolicy always = parse_verify_policy("always");
  VerifyPolicy half = parse_verify_policy("sample:0.5:7");
  int selected = 0;
  for (std::uint64_t ident = 0; ident < 512; ++ident) {
    EXPECT_FALSE(off.selects(ident));
    EXPECT_TRUE(always.selects(ident));
    // Pure function of (policy, ident): replays agree.
    EXPECT_EQ(half.selects(ident), half.selects(ident));
    if (half.selects(ident)) ++selected;
  }
  // A 0.5 rate over 512 idents lands near half (loose envelope: the
  // point is the hash is not degenerate, not a statistics proof).
  EXPECT_GT(selected, 512 / 4);
  EXPECT_LT(selected, 512 * 3 / 4);

  // Rate 1.0 selects everything; a different seed reshuffles the draw.
  VerifyPolicy full = parse_verify_policy("sample:1.0");
  VerifyPolicy reseeded = half;
  reseeded.seed = 8;
  bool differs = false;
  for (std::uint64_t ident = 0; ident < 512; ++ident) {
    EXPECT_TRUE(full.selects(ident));
    differs = differs || (half.selects(ident) != reseeded.selects(ident));
  }
  EXPECT_TRUE(differs);
}

// ---- tiered verifier ------------------------------------------------------

TEST(VerifyVerifier, CleanResultPassesWithinBounds) {
  const linalg::MatrixF a = gaussian(48, 32, 101);
  const Svd result = svd(a);
  const verify::ResultVerifier verifier(SvdOptions{}.precision);
  const verify::VerifyOutcome out = verifier.check(a, result);
  EXPECT_TRUE(out.passed) << out.note;
  ASSERT_GE(out.u_orth, 0.0);
  EXPECT_LE(out.u_orth, out.orth_bound);
  ASSERT_GE(out.v_orth, 0.0);
  EXPECT_LE(out.v_orth, out.v_orth_bound);
  ASSERT_GE(out.residual, 0.0);
  EXPECT_LE(out.residual, out.residual_bound);
}

TEST(VerifyVerifier, CheapTierCatchesNonFiniteAndDisorder) {
  const linalg::MatrixF a = gaussian(32, 24, 102);
  const Svd clean = svd(a);
  const verify::ResultVerifier verifier(SvdOptions{}.precision);

  Svd nan_sigma = clean;
  nan_sigma.sigma[0] = std::nanf("");
  verify::VerifyOutcome out = verifier.check(a, nan_sigma);
  EXPECT_FALSE(out.passed);
  EXPECT_EQ(out.failed_tier, VerifyTier::kCheap);

  Svd disordered = clean;
  // Shrinking the leading value below its neighbour breaks the
  // descending invariant without touching finiteness.
  disordered.sigma[0] = disordered.sigma[1] * 0.5f;
  out = verifier.check(a, disordered);
  EXPECT_FALSE(out.passed);
  EXPECT_EQ(out.failed_tier, VerifyTier::kCheap);
}

TEST(VerifyVerifier, MediumTierCatchesOrthogonalityLoss) {
  const linalg::MatrixF a = gaussian(32, 24, 103);
  Svd corrupted = svd(a);
  corrupted.u(0, 0) += 0.5f;
  const verify::ResultVerifier verifier(SvdOptions{}.precision);
  const verify::VerifyOutcome out = verifier.check(a, corrupted);
  EXPECT_FALSE(out.passed);
  EXPECT_EQ(out.failed_tier, VerifyTier::kMedium);
  EXPECT_GT(out.u_orth, out.orth_bound);
}

TEST(VerifyVerifier, FullTierCatchesSigmaScaling) {
  const linalg::MatrixF a = gaussian(32, 24, 104);
  Svd corrupted = svd(a);
  // Doubling sigma[0] keeps the factors finite, descending, and
  // orthonormal -- exactly the silent corruption only the residual
  // tier can see (V here was derived from the uncorrupted spectrum).
  corrupted.sigma[0] *= 2.0f;
  const verify::ResultVerifier verifier(SvdOptions{}.precision);
  const verify::VerifyOutcome out = verifier.check(a, corrupted);
  EXPECT_FALSE(out.passed);
  EXPECT_EQ(out.failed_tier, VerifyTier::kFull);
  EXPECT_GT(out.residual, out.residual_bound);
}

TEST(VerifyVerifier, BoundsScaleWithPrecisionAndFloorAtEps) {
  const double loose = verify::ResultVerifier::orthogonality_bound(32, 1e-3);
  const double tight = verify::ResultVerifier::orthogonality_bound(32, 1e-6);
  EXPECT_GT(loose, tight);
  // Precision below fp32 eps floors at the 32*eps envelope instead of
  // demanding the impossible from single-precision factors.
  EXPECT_GT(verify::ResultVerifier::orthogonality_bound(32, 0.0), 0.0);
  EXPECT_GT(verify::ResultVerifier::residual_bound(32, 0.0), 0.0);
  EXPECT_GT(verify::ResultVerifier::v_orthogonality_bound(32, 1e-6),
            verify::ResultVerifier::orthogonality_bound(32, 1e-6));
}

// ---- the ladder through the facade ----------------------------------------

TEST(VerifyFacade, OffIsBitIdenticalAndUnchecked) {
  const linalg::MatrixF a = gaussian(48, 32, 105);
  const Svd off = svd(a);
  EXPECT_FALSE(off.verify_report.checked);
  EXPECT_EQ(off.verify_report.rung, VerifyRung::kNone);
  EXPECT_TRUE(off.verify_report.attempts.empty());

  // A healthy result under `always` is the same result: attestation
  // reads the factors, it never rewrites a passing answer.
  const Svd attested = svd(a, verify_on());
  EXPECT_TRUE(same_bits(off.u, attested.u));
  EXPECT_TRUE(same_bits(off.sigma, attested.sigma));
  EXPECT_TRUE(same_bits(off.v, attested.v));
  EXPECT_TRUE(attested.verify_report.checked);
  EXPECT_TRUE(attested.verify_report.verified);
  EXPECT_EQ(attested.verify_report.rung, VerifyRung::kPrimary);
  ASSERT_EQ(attested.verify_report.attempts.size(), 1u);
  EXPECT_FALSE(attested.verify_report.escalated());
}

TEST(VerifyFacade, SampledSelectionAgreesAcrossReplays) {
  SvdOptions options;
  options.verify = parse_verify_policy("sample:0.5:7");
  for (std::uint64_t seed = 106; seed < 110; ++seed) {
    const linalg::MatrixF a = gaussian(32, 24, seed);
    const bool expected =
        options.verify.selects(verify::verify_ident(a));
    const Svd first = svd(a, options);
    const Svd second = svd(a, options);
    EXPECT_EQ(first.verify_report.checked, expected) << "seed " << seed;
    EXPECT_EQ(second.verify_report.checked, expected) << "seed " << seed;
  }
}

TEST(VerifyFacade, SilentErrorEscalatesToRerun) {
  const linalg::MatrixF a = gaussian(48, 32, 111);
  const Svd clean = svd(a);

  versal::FaultInjector injector(silent_plan(0xfeedf00d, {0}));
  SvdOptions options = verify_on();
  options.fault_injector = &injector;
  const Svd attested = svd(a, options);

  // The corruption fired on the primary execution...
  EXPECT_EQ(injector.event_count(), 1u);
  // ...the primary check failed, and the re-run (same backend, trigger
  // already consumed) verified clean.
  EXPECT_TRUE(attested.verify_report.checked);
  EXPECT_TRUE(attested.verify_report.verified);
  EXPECT_TRUE(attested.verify_report.escalated());
  EXPECT_EQ(attested.verify_report.rung, VerifyRung::kRerun);
  ASSERT_EQ(attested.verify_report.attempts.size(), 2u);
  EXPECT_FALSE(attested.verify_report.attempts[0].outcome.passed);
  EXPECT_TRUE(attested.verify_report.attempts[1].outcome.passed);
  // The re-run repeats the classic execution verbatim: the caller gets
  // the bit-identical clean factors despite the corruption.
  EXPECT_TRUE(same_bits(clean.u, attested.u));
  EXPECT_TRUE(same_bits(clean.sigma, attested.sigma));
}

TEST(VerifyFacade, RepeatedSilentErrorEscalatesToReroute) {
  const linalg::MatrixF a = gaussian(48, 32, 112);
  // Corrupt the primary execution AND its re-run (result ordinals 0 and
  // 1 of slot 0); the ladder must leave the fault domain entirely.
  versal::FaultInjector injector(silent_plan(0xdecafbad, {0, 1}));
  SvdOptions options = verify_on();
  options.fault_injector = &injector;
  const Svd attested = svd(a, options);

  EXPECT_EQ(injector.event_count(), 2u);
  EXPECT_TRUE(attested.verify_report.verified);
  EXPECT_EQ(attested.verify_report.rung, VerifyRung::kReroute);
  ASSERT_EQ(attested.verify_report.attempts.size(), 3u);
  EXPECT_FALSE(attested.verify_report.attempts[0].outcome.passed);
  EXPECT_FALSE(attested.verify_report.attempts[1].outcome.passed);
  EXPECT_TRUE(attested.verify_report.attempts[2].outcome.passed);
  // The classic path's alternate is the host cpu backend, outside the
  // injector's fault domain.
  EXPECT_EQ(attested.verify_report.attempts[2].backend, "cpu");
  EXPECT_EQ(attested.backend, "cpu");
}

TEST(VerifyFacade, LadderFallsBackToHostReference) {
  const linalg::MatrixF a = gaussian(32, 24, 113);
  Svd corrupted = svd(a);
  corrupted.sigma[0] *= 2.0f;

  std::vector<std::pair<std::string, bool>> health_log;
  verify::EscalationHooks hooks;
  hooks.primary_backend = "aie";
  hooks.rerun = []() -> Svd { throw std::runtime_error("rerun unavailable"); };
  hooks.reroute = [](std::string* used) -> Svd {
    *used = "cpu";
    throw std::runtime_error("reroute unavailable");
  };
  hooks.health = [&](const std::string& backend, bool ok) {
    health_log.emplace_back(backend, ok);
  };

  const Svd out =
      verify::attest_result(a, verify_on(), std::move(corrupted), hooks);
  EXPECT_TRUE(out.verify_report.verified);
  EXPECT_EQ(out.verify_report.rung, VerifyRung::kReference);
  EXPECT_EQ(out.backend, "reference");
  ASSERT_EQ(out.verify_report.attempts.size(), 4u);
  EXPECT_FALSE(out.verify_report.attempts[0].outcome.passed);
  // Throwing rungs are recorded, not fatal: the ladder continues.
  EXPECT_NE(out.verify_report.attempts[1].outcome.note.find("rung raised"),
            std::string::npos);
  EXPECT_NE(out.verify_report.attempts[2].outcome.note.find("rung raised"),
            std::string::npos);
  EXPECT_TRUE(out.verify_report.attempts[3].outcome.passed);
  // Every rung fed the health ledger: the primary failure, the rerun
  // failure (same backend), and the reroute failure under its name.
  const std::vector<std::pair<std::string, bool>> expected = {
      {"aie", false}, {"aie", false}, {"cpu", false}};
  EXPECT_EQ(health_log, expected);
}

TEST(VerifyFacade, UncheckedPathStillFeedsHealth) {
  const linalg::MatrixF a = gaussian(32, 24, 114);
  const Svd clean = svd(a);

  std::vector<std::pair<std::string, bool>> health_log;
  verify::EscalationHooks hooks;
  hooks.primary_backend = "aie";
  hooks.health = [&](const std::string& backend, bool ok) {
    health_log.emplace_back(backend, ok);
  };

  // Policy off: the result comes back untouched (bit-identity), but the
  // execution outcome still reaches the error budget.
  const Svd out = verify::attest_result(a, SvdOptions{}, clean, hooks);
  EXPECT_FALSE(out.verify_report.checked);
  EXPECT_TRUE(same_bits(clean.u, out.u));
  const std::vector<std::pair<std::string, bool>> expected = {{"aie", true}};
  EXPECT_EQ(health_log, expected);
}

TEST(VerifyFacade, BatchAttestsEveryTask) {
  std::vector<linalg::MatrixF> batch;
  for (std::uint64_t seed = 115; seed < 118; ++seed) {
    batch.push_back(gaussian(32, 24, seed));
  }
  const BatchSvd out = svd_batch(batch, verify_on());
  for (const Svd& r : out.results) {
    EXPECT_TRUE(r.verify_report.checked);
    EXPECT_TRUE(r.verify_report.verified);
    EXPECT_EQ(r.verify_report.rung, VerifyRung::kPrimary);
  }
}

TEST(VerifyFacade, WideInputReportsSwappedFactorScores) {
  // Wide matrices run transposed; the report must describe the factors
  // the caller receives, so the U/V scores are swapped back.
  const linalg::MatrixF a = gaussian(24, 32, 119);
  const Svd attested = svd(a, verify_on());
  EXPECT_TRUE(attested.verify_report.checked);
  EXPECT_TRUE(attested.verify_report.verified);
  EXPECT_EQ(attested.verify_report.rung, VerifyRung::kPrimary);
  ASSERT_EQ(attested.verify_report.attempts.size(), 1u);
  const verify::VerifyOutcome& out = attested.verify_report.attempts[0].outcome;
  EXPECT_LE(out.u_orth, out.orth_bound);
  EXPECT_LE(out.residual, out.residual_bound);
}

// ---- result-cache attestation bookkeeping ---------------------------------

TEST(VerifyCache, TracksVerifiedEntriesAndEviction) {
  serve::ResultCache cache(4);
  const linalg::MatrixF a = gaussian(16, 8, 120);
  const std::uint64_t digest = serve::ResultCache::digest(a);

  Svd unattested;
  unattested.status = SvdStatus::kOk;
  unattested.sigma = {2.0f, 1.0f};
  cache.insert(a, digest, unattested);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().verified_entries, 0u);

  // Re-verifying an unattested hit stamps the stored entry in place.
  verify::VerifyReport report;
  report.checked = true;
  report.verified = true;
  report.rung = VerifyRung::kPrimary;
  cache.mark_verified(a, digest, "", report);
  EXPECT_EQ(cache.stats().verified_entries, 1u);
  const std::optional<Svd> hit = cache.lookup(a, digest);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->verify_report.verified);
  EXPECT_EQ(hit->verify_report.rung, VerifyRung::kPrimary);

  // The server evicts a cached result that fails re-verification.
  EXPECT_TRUE(cache.erase(a, digest));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().verified_entries, 0u);
  EXPECT_FALSE(cache.erase(a, digest));
  // mark_verified on a gone entry is a no-op, not a crash.
  cache.mark_verified(a, digest, "", report);
  EXPECT_EQ(cache.stats().verified_entries, 0u);
}

// ---- router health ledger -------------------------------------------------

serve::BreakerPolicy tight_policy(int failure_threshold = 1,
                                  double open_seconds = 5.0) {
  serve::BreakerPolicy policy;
  policy.failure_threshold = failure_threshold;
  policy.open_seconds = open_seconds;
  policy.half_open_probes = 1;
  policy.close_threshold = 1;
  return policy;
}

TEST(HealthRouter, ConsecutiveFailuresQuarantineTheWinner) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(/*failure_threshold=*/2));
  const SvdOptions options = verify_on();

  const RouteDecision healthy = router.route(64, 64, Slo{}, options, true);
  EXPECT_EQ(healthy.backend, "aie");
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kClosed);

  // One failure is not enough to trip the breaker...
  router.record_health("aie", false, options);
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kClosed);
  EXPECT_EQ(router.route(64, 64, Slo{}, options, true).backend, "aie");
  // ...the second consecutive one is.
  router.record_health("aie", false, options);
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kOpen);

  const RouteDecision routed = router.route(64, 64, Slo{}, options, true);
  EXPECT_NE(routed.backend, "aie");
  EXPECT_FALSE(routed.backend.empty());
  const backend::Candidate* aie = candidate(routed, "aie");
  ASSERT_NE(aie, nullptr);
  EXPECT_TRUE(aie->quarantined);
}

TEST(HealthRouter, HalfOpenProbeVerifiesCleanAndRecovers) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(1, /*open_seconds=*/5.0));
  FakeClock clock;
  SvdOptions options = verify_on();
  options.clock = &clock;

  router.record_health("aie", false, options);
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kOpen);
  EXPECT_NE(router.route(64, 64, Slo{}, options, true).backend, "aie");

  // Cooldown elapses: the next admission is the half-open probe, and it
  // consumes the only probe slot -- a second concurrent request must be
  // routed elsewhere until the probe reports.
  clock.advance(6.0);
  EXPECT_EQ(router.route(64, 64, Slo{}, options, true).backend, "aie");
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kHalfOpen);
  EXPECT_NE(router.route(64, 64, Slo{}, options, true).backend, "aie");

  // The probe attests clean: the breaker closes and the backend wins
  // routes again.
  router.record_health("aie", true, options);
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kClosed);
  EXPECT_EQ(router.route(64, 64, Slo{}, options, true).backend, "aie");
}

TEST(HealthRouter, FailedProbeReopensNeutralReleasesSlot) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(1, 5.0));
  FakeClock clock;
  SvdOptions options = verify_on();
  options.clock = &clock;

  router.record_health("aie", false, options);
  clock.advance(6.0);
  EXPECT_EQ(router.route(64, 64, Slo{}, options, true).backend, "aie");
  // A breaker-neutral outcome (deadline expiry) frees the probe slot
  // without judging the backend: the next request probes again.
  router.record_health_neutral("aie");
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kHalfOpen);
  EXPECT_EQ(router.route(64, 64, Slo{}, options, true).backend, "aie");

  // The probe fails attestation: straight back to quarantine for a
  // fresh cooldown.
  router.record_health("aie", false, options);
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kOpen);
  EXPECT_NE(router.route(64, 64, Slo{}, options, true).backend, "aie");
}

TEST(HealthRouter, TransitionsInvalidateTheRouteMemo) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(1));
  const SvdOptions options = verify_on();

  EXPECT_FALSE(router.route(64, 64, Slo{}, options).memo_hit);
  EXPECT_TRUE(router.route(64, 64, Slo{}, options).memo_hit);
  // Tripping a breaker changes which backend may win, so the memoized
  // scores must be re-derived.
  router.record_health("aie", false, options);
  EXPECT_FALSE(router.route(64, 64, Slo{}, options).memo_hit);
  EXPECT_TRUE(router.route(64, 64, Slo{}, options).memo_hit);
}

TEST(HealthRouter, VerifyOffRoutingIgnoresQuarantine) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(1));
  const SvdOptions attested = verify_on();
  router.record_health("aie", false, attested);
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kOpen);

  // With the verify policy off, routing is bit-identical to a build
  // without the verify layer: health admission never runs.
  const RouteDecision off = router.route(64, 64, Slo{}, SvdOptions{}, true);
  EXPECT_EQ(off.backend, "aie");
  const backend::Candidate* aie = candidate(off, "aie");
  ASSERT_NE(aie, nullptr);
  EXPECT_FALSE(aie->quarantined);
}

TEST(HealthRouter, AlternateExcludesThePrimaryAndTheQuarantined) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(1));
  const SvdOptions options = verify_on();

  const backend::Backend* alt = router.alternate(64, 64, options, "aie");
  ASSERT_NE(alt, nullptr);
  const std::string first_choice = alt->name();
  EXPECT_NE(first_choice, "aie");

  // Quarantining the first alternate pushes the rung to the next one.
  router.record_health(first_choice, false, options);
  const backend::Backend* next = router.alternate(64, 64, options, "aie");
  ASSERT_NE(next, nullptr);
  EXPECT_NE(std::string(next->name()), "aie");
  EXPECT_NE(std::string(next->name()), first_choice);
}

TEST(HealthRouter, UnknownAndClassicNamesAreIgnored) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(1));
  const SvdOptions options = verify_on();
  // The classic path (""), the reference rung, and unregistered names
  // carry no error budget: feeding them is a no-op, not a crash.
  for (const char* name : {"", "reference", "bogus"}) {
    router.record_health(name, false, options);
    router.record_health_neutral(name);
    EXPECT_EQ(router.health_state(name), serve::BreakerState::kClosed) << name;
  }
  EXPECT_EQ(router.route(64, 64, Slo{}, options, true).backend, "aie");
}

// A verified routed batch that ends in InputError is breaker-neutral for
// the backend that won the route: its half-open probe slot is released,
// exactly as for the same input through svd().
TEST(Health, RoutedBatchInputErrorReleasesTheProbeSlot) {
  Router& router = Router::shared();
  FakeClock clock;
  // The shared router outlives this test: drop its breakers (they hold
  // the FakeClock) and restore the default policy however the test ends.
  struct Restore {
    Router& router;
    ~Restore() {
      router.reset_health();
      router.set_health_policy(serve::BreakerPolicy{});
    }
  } restore{router};
  router.reset_health();
  router.set_health_policy(tight_policy(1, /*open_seconds=*/5.0));
  SvdOptions options = verify_on();
  options.clock = &clock;
  options.slo = Slo{};  // latency objective
  ASSERT_EQ(router.route(16, 16, Slo{}, options).backend, "cpu");

  router.record_health("cpu", false, options);
  ASSERT_EQ(router.health_state("cpu"), serve::BreakerState::kOpen);
  clock.advance(6.0);

  std::vector<linalg::MatrixF> batch = {gaussian(16, 16, 2100),
                                        gaussian(16, 16, 2101)};
  for (float& x : batch[1].data()) x *= 1e20f;
  EXPECT_THROW(svd_batch(batch, options), InputError);
  EXPECT_EQ(router.health_state("cpu"), serve::BreakerState::kHalfOpen);
  EXPECT_EQ(router.route(16, 16, Slo{}, options, true).backend, "cpu");
}

TEST(HealthRouter, ResetDropsQuarantineState) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  router.set_health_policy(tight_policy(1));
  const SvdOptions options = verify_on();
  router.record_health("aie", false, options);
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kOpen);
  router.reset_health();
  EXPECT_EQ(router.health_state("aie"), serve::BreakerState::kClosed);
  EXPECT_EQ(router.route(64, 64, Slo{}, options, true).backend, "aie");
}

}  // namespace
}  // namespace hsvd
