// Tests for the SLO-aware cost-model router (DESIGN.md section 14): the
// paper's crossover as a live dispatch policy, memoization per (shape,
// slo-class), feasibility recomputation against each request's actual
// bounds, the facade routing seam (including bit-identity of the aie pin
// with the classic path), routed batches, route.* metrics, and routed
// requests through the serving layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "backend/router.hpp"
#include "backend/slo.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "dse/explorer.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "linalg/reference_svd.hpp"
#include "obs/obs.hpp"
#include "serve/server.hpp"

namespace hsvd {
namespace {

using backend::make_backends;
using backend::RouteDecision;
using backend::Router;
using backend::Slo;
using backend::SloKind;

Slo latency_slo(double deadline = 0.0) {
  Slo slo;
  slo.deadline_seconds = deadline;
  return slo;
}

Slo throughput_slo(int batch = 16) {
  Slo slo;
  slo.kind = SloKind::kThroughput;
  slo.batch = batch;
  return slo;
}

Slo energy_slo() {
  Slo slo;
  slo.kind = SloKind::kEnergy;
  return slo;
}

const backend::Candidate* candidate(const RouteDecision& decision,
                                    const char* name) {
  for (const auto& c : decision.candidates) {
    if (name == std::string(c.backend->name())) return &c;
  }
  return nullptr;
}

linalg::MatrixF gaussian(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Rng rng(seed);
  return linalg::random_gaussian(rows, cols, rng).cast<float>();
}

// Max singular-value error relative to the reference spectrum's scale.
double sigma_scale_error(const std::vector<float>& got,
                         const std::vector<double>& ref) {
  const double scale = std::max(ref.empty() ? 0.0 : ref.front(), 1e-12);
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size() && i < ref.size(); ++i) {
    worst = std::max(worst, std::fabs(got[i] - ref[i]) / scale);
  }
  return worst;
}

bool same_bits(const linalg::MatrixF& a, const linalg::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size_bytes()) == 0;
}

// ---- the crossover as a dispatch policy -----------------------------------

// Tables II/III/VI: the AIE array wins small-n latency (1.05x over the
// FPGA baseline already at n = 128), the GPU W-cycle baseline wins
// large-n throughput, and the fabric cannot place very large problems
// at all. The router must reproduce exactly that policy from the cost
// models alone.
TEST(RouterCrossover, AieWinsSmallLatencyGpuWinsLargeThroughput) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  for (std::size_t n : {64u, 128u, 256u}) {
    const RouteDecision d = router.route(n, n, latency_slo(), SvdOptions{});
    EXPECT_EQ(d.backend, "aie") << "latency winner at n=" << n;
  }
  for (std::size_t n : {2048u, 4096u}) {
    const RouteDecision d = router.route(n, n, throughput_slo(), SvdOptions{});
    EXPECT_EQ(d.backend, "gpu-wcycle") << "throughput winner at n=" << n;
    // The AIE candidate is not merely beaten there -- no placement fits
    // the device, which is the paper's hard size wall.
    const backend::Candidate* aie = candidate(d, "aie");
    ASSERT_NE(aie, nullptr);
    EXPECT_FALSE(aie->estimate.feasible);
  }
  // Past the size wall the latency objective falls to the FPGA
  // comparator's fitted model.
  EXPECT_EQ(router.route(2048, 2048, latency_slo(), SvdOptions{}).backend,
            "fpga-bcv");
}

TEST(RouterCrossover, EnergyObjectiveSkipsBackendsWithoutAModel) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  const RouteDecision d = router.route(64, 64, energy_slo(), SvdOptions{});
  // Table II publishes no FPGA power figure, so the energy objective
  // must never pick (or even mark feasible) the fpga-bcv backend.
  EXPECT_NE(d.backend, "fpga-bcv");
  EXPECT_FALSE(d.backend.empty());
  const backend::Candidate* fpga = candidate(d, "fpga-bcv");
  ASSERT_NE(fpga, nullptr);
  EXPECT_FALSE(fpga->slo_feasible);
}

// ---- memoization ----------------------------------------------------------

TEST(RouterMemo, HitPerShapeAndSloClass) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  EXPECT_FALSE(router.route(96, 96, latency_slo(), SvdOptions{}).memo_hit);
  EXPECT_TRUE(router.route(96, 96, latency_slo(), SvdOptions{}).memo_hit);
  // Deadlines are excluded from the memo class: they change feasibility
  // flags, not which backend wins, so the scored candidates are reused.
  EXPECT_TRUE(router.route(96, 96, latency_slo(0.5), SvdOptions{}).memo_hit);
  // A different objective is a different class.
  EXPECT_FALSE(router.route(96, 96, energy_slo(), SvdOptions{}).memo_hit);
  EXPECT_TRUE(router.route(96, 96, energy_slo(), SvdOptions{}).memo_hit);
  // A different shape is a different entry.
  EXPECT_FALSE(router.route(96, 64, latency_slo(), SvdOptions{}).memo_hit);
}

TEST(RouterMemo, FeasibilityRecomputedAgainstTheActualDeadline) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  // An impossible deadline: the router still dispatches the best-
  // objective backend (degrade, don't fail), but every candidate is
  // marked SLO-infeasible.
  const RouteDecision tight =
      router.route(64, 64, latency_slo(1e-12), SvdOptions{});
  EXPECT_EQ(tight.backend, "aie");
  for (const auto& c : tight.candidates) EXPECT_FALSE(c.slo_feasible);
  // The same memoized candidates, re-flagged under a generous deadline.
  const RouteDecision loose =
      router.route(64, 64, latency_slo(10.0), SvdOptions{});
  EXPECT_TRUE(loose.memo_hit);
  EXPECT_EQ(loose.backend, "aie");
  const backend::Candidate* aie = candidate(loose, "aie");
  ASSERT_NE(aie, nullptr);
  EXPECT_TRUE(aie->slo_feasible);
}

TEST(RouterMemo, FindByNameAndUnknownThrows) {
  Router router(make_backends(dse::DesignSpaceExplorer{}));
  EXPECT_STREQ(router.find("cpu").name(), "cpu");
  EXPECT_STREQ(router.find("gpu-wcycle").name(), "gpu-wcycle");
  EXPECT_THROW(router.find("tpu"), InputError);
  EXPECT_THROW(router.find(""), InputError);
}

// ---- facade routing -------------------------------------------------------

TEST(RouterFacade, PinnedCpuProducesCorrectFactorsWithProvenance) {
  const linalg::MatrixF a = gaussian(24, 16, 2001);
  const auto ref = linalg::reference_svd(a.cast<double>());
  SvdOptions options;
  options.backend = "cpu";
  const Svd r = svd(a, options);
  ASSERT_EQ(r.status, SvdStatus::kOk);
  EXPECT_EQ(r.backend, "cpu");
  EXPECT_FALSE(r.modeled_time);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_LT(sigma_scale_error(r.sigma, ref.sigma), 5e-5);
}

TEST(RouterFacade, AutoRoutesSmallLatencyRequestToAie) {
  const linalg::MatrixF a = gaussian(64, 64, 2002);
  SvdOptions options;
  options.backend = "auto";
  const Svd r = svd(a, options);
  ASSERT_EQ(r.status, SvdStatus::kOk);
  EXPECT_EQ(r.backend, "aie");
  // The AIE path reports simulated accelerator time, never a model.
  EXPECT_GT(r.accelerator_seconds, 0.0);
  EXPECT_FALSE(r.modeled_time);
}

TEST(RouterFacade, PinnedAieIsBitIdenticalToTheClassicPath) {
  const linalg::MatrixF a = gaussian(32, 24, 2003);
  SvdOptions options;
  options.config = accel::HeteroSvdConfig{};
  options.config->rows = a.rows();
  options.config->cols = a.cols();
  options.config->p_eng = 4;
  options.config->p_task = 1;
  options.config->iterations = 6;
  options.threads = 1;
  const Svd classic = svd(a, options);

  SvdOptions routed = options;
  routed.backend = "aie";
  const Svd pinned = svd(a, routed);
  EXPECT_EQ(pinned.backend, "aie");
  // Factors AND the simulated timeline: the pin adds provenance labels,
  // nothing else.
  EXPECT_TRUE(same_bits(classic.u, pinned.u));
  EXPECT_TRUE(same_bits(classic.v, pinned.v));
  ASSERT_EQ(classic.sigma.size(), pinned.sigma.size());
  EXPECT_EQ(0, std::memcmp(classic.sigma.data(), pinned.sigma.data(),
                           classic.sigma.size() * sizeof(float)));
  EXPECT_EQ(classic.iterations, pinned.iterations);
  EXPECT_EQ(classic.accelerator_seconds, pinned.accelerator_seconds);
}

// ---- routed batches -------------------------------------------------------

TEST(RouterBatch, PinnedCpuBatchFansOutOnTheHost) {
  std::vector<linalg::MatrixF> batch;
  for (std::uint64_t i = 0; i < 3; ++i) batch.push_back(gaussian(24, 16, 2100 + i));
  SvdOptions options;
  options.backend = "cpu";
  const BatchSvd out = svd_batch(batch, options);
  EXPECT_EQ(out.backend, "cpu");
  EXPECT_EQ(out.failed_tasks, 0);
  EXPECT_GT(out.batch_seconds, 0.0);
  EXPECT_GT(out.throughput_tasks_per_s, 0.0);
  ASSERT_EQ(out.results.size(), 3u);
  for (const auto& r : out.results) {
    EXPECT_EQ(r.status, SvdStatus::kOk);
    EXPECT_EQ(r.backend, "cpu");
    EXPECT_GT(r.wall_seconds, 0.0);
  }
}

TEST(RouterBatch, AutoBatchRoutesToAieBitIdenticalToClassic) {
  std::vector<linalg::MatrixF> batch;
  for (std::uint64_t i = 0; i < 4; ++i) batch.push_back(gaussian(32, 16, 2200 + i));
  SvdOptions options;
  options.threads = 1;
  const BatchSvd classic = svd_batch(batch, options);

  SvdOptions routed = options;
  routed.backend = "auto";
  const BatchSvd out = svd_batch(batch, routed);
  EXPECT_EQ(out.backend, "aie");
  ASSERT_EQ(out.results.size(), classic.results.size());
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    EXPECT_EQ(out.results[i].backend, "aie");
    EXPECT_TRUE(same_bits(classic.results[i].u, out.results[i].u))
        << "task " << i;
  }
  EXPECT_EQ(classic.batch_seconds, out.batch_seconds);
}

TEST(RouterBatch, PinnedModeledBackendReportsModelThroughputForTheBatch) {
  std::vector<linalg::MatrixF> batch;
  for (std::uint64_t i = 0; i < 2; ++i) batch.push_back(gaussian(24, 16, 2300 + i));
  SvdOptions options;
  options.backend = "gpu-wcycle";
  const BatchSvd out = svd_batch(batch, options);
  EXPECT_EQ(out.backend, "gpu-wcycle");
  ASSERT_EQ(out.results.size(), 2u);
  for (const auto& r : out.results) {
    EXPECT_EQ(r.status, SvdStatus::kOk);
    EXPECT_TRUE(r.modeled_time);
    EXPECT_GT(r.modeled_seconds, 0.0);
  }
  // Honesty rule: the batch throughput comes from the Table III model,
  // never from the host wall clock that actually ran the factors.
  EXPECT_GT(out.throughput_tasks_per_s, 0.0);
  EXPECT_NEAR(out.batch_seconds, 2.0 / out.throughput_tasks_per_s, 1e-12);
}

// ---- route.* metrics ------------------------------------------------------

TEST(RouterMetrics, DispatchMemoAndEstimateErrorRecorded) {
  obs::ObsContext observer;
  // A shape no other test routes, so the process-wide router's memo is
  // provably cold on the first call.
  const linalg::MatrixF a = gaussian(88, 40, 2400);
  SvdOptions options;
  options.backend = "auto";
  options.observer = &observer;
  (void)svd(a, options);
  auto snap = observer.metrics().snapshot();
  EXPECT_EQ(snap.counters["route.memo.miss"], 1u);
  EXPECT_EQ(snap.counters["route.dispatch.aie"], 1u);

  (void)svd(a, options);
  snap = observer.metrics().snapshot();
  EXPECT_EQ(snap.counters["route.memo.hit"], 1u);

  SvdOptions pinned;
  pinned.backend = "cpu";
  pinned.observer = &observer;
  (void)svd(a, pinned);
  snap = observer.metrics().snapshot();
  EXPECT_EQ(snap.counters["route.pinned"], 1u);
  EXPECT_EQ(snap.counters["route.dispatch.cpu"], 1u);
  // Estimate-vs-actual error is recorded for every backend whose result
  // carries an independently measured time (simulated seconds on the
  // AIE, wall seconds on the CPU) -- three routed runs above.
  ASSERT_EQ(snap.histograms.count("route.estimate.rel_error"), 1u);
  EXPECT_EQ(snap.histograms["route.estimate.rel_error"].total, 3u);
}

// ---- the serving layer ----------------------------------------------------

TEST(RouterServer, RoutedRequestsCarryProvenanceAndCorrectFactors) {
  serve::ServerOptions options;
  options.workers = 1;
  serve::SvdServer server(options);

  const linalg::MatrixF a = gaussian(24, 16, 2500);
  const auto ref = linalg::reference_svd(a.cast<double>());

  serve::Request pin_cpu;
  pin_cpu.matrix = a;
  pin_cpu.backend = "cpu";
  const serve::Response cpu = server.serve(std::move(pin_cpu));
  ASSERT_EQ(cpu.status, serve::ServeStatus::kOk);
  EXPECT_EQ(cpu.backend, "cpu");
  EXPECT_EQ(cpu.result.backend, "cpu");
  EXPECT_LT(sigma_scale_error(cpu.result.sigma, ref.sigma), 5e-5);

  serve::Request pin_fpga;
  pin_fpga.matrix = a;
  pin_fpga.backend = "fpga-bcv";
  const serve::Response fpga = server.serve(std::move(pin_fpga));
  ASSERT_EQ(fpga.status, serve::ServeStatus::kOk);
  EXPECT_EQ(fpga.backend, "fpga-bcv");
  EXPECT_TRUE(fpga.result.modeled_time);
  EXPECT_LT(sigma_scale_error(fpga.result.sigma, ref.sigma), 5e-5);

  // Auto-routing through the server: at n = 64 the crossover says the
  // AIE array wins latency (below that the host flops model can win).
  const linalg::MatrixF b = gaussian(64, 64, 2501);
  const auto ref_b = linalg::reference_svd(b.cast<double>());
  serve::Request routed;
  routed.matrix = b;
  routed.backend = "auto";
  const serve::Response automatic = server.serve(std::move(routed));
  ASSERT_EQ(automatic.status, serve::ServeStatus::kOk);
  EXPECT_EQ(automatic.backend, "aie");
  EXPECT_LT(sigma_scale_error(automatic.result.sigma, ref_b.sigma), 5e-5);
}

TEST(RouterServer, RouteIntentSeparatesTheResultCacheIdentity) {
  serve::ServerOptions options;
  options.workers = 1;
  serve::TenantConfig tenant;
  tenant.name = "default";
  options.qos.tenants = {tenant};
  options.qos.cache_enabled = true;
  serve::SvdServer server(options);

  const linalg::MatrixF a = gaussian(24, 16, 2600);
  const auto submit_pinned = [&](const char* backend) {
    serve::Request request;
    request.matrix = a;
    request.backend = backend;
    return server.serve(std::move(request));
  };

  const serve::Response first = submit_pinned("cpu");
  ASSERT_EQ(first.status, serve::ServeStatus::kOk);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.backend, "cpu");

  // The identical matrix under the identical route intent: served from
  // the cache, provenance preserved.
  const serve::Response repeat = submit_pinned("cpu");
  ASSERT_EQ(repeat.status, serve::ServeStatus::kOk);
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_EQ(repeat.backend, "cpu");

  // The same matrix pinned elsewhere must NOT hit the cpu entry: the
  // cache key includes the route intent.
  const serve::Response other = submit_pinned("fpga-bcv");
  ASSERT_EQ(other.status, serve::ServeStatus::kOk);
  EXPECT_FALSE(other.cache_hit);
  EXPECT_EQ(other.backend, "fpga-bcv");
  EXPECT_TRUE(other.result.modeled_time);
}

}  // namespace
}  // namespace hsvd
