// Unit tests for the backend subsystem (DESIGN.md section 14): the
// --backend spec grammar and SLO validation, the slo_class memo
// buckets, the registry's capability matrix, the cost estimates, and
// each host-executed backend's functional execution pinned to the
// double-precision reference SVD -- including the honesty labels
// (modeled vs measured time, energy attribution).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "backend/backends.hpp"
#include "backend/slo.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "dse/explorer.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "linalg/metrics.hpp"
#include "linalg/reference_svd.hpp"

namespace hsvd {
namespace {

using backend::Backend;
using backend::BackendSpec;
using backend::Estimate;
using backend::make_backends;
using backend::parse_backend_spec;
using backend::ShardedAieBackend;
using backend::Slo;
using backend::slo_class;
using backend::SloKind;

// ---- parse_backend_spec ---------------------------------------------------

TEST(BackendSpec, BareAutoRoutesWithDefaultLatencySlo) {
  const BackendSpec spec = parse_backend_spec("auto");
  EXPECT_TRUE(spec.backend.empty());
  // "auto" must still carry an Slo: an empty backend with no slo is the
  // classic un-routed path, and bare auto has to trigger routing.
  ASSERT_TRUE(spec.slo.has_value());
  EXPECT_EQ(spec.slo->kind, SloKind::kLatency);
  EXPECT_EQ(spec.slo->deadline_seconds, 0.0);
}

TEST(BackendSpec, AutoLatencyWithDeadline) {
  const BackendSpec spec = parse_backend_spec("auto:latency:0.005");
  EXPECT_TRUE(spec.backend.empty());
  ASSERT_TRUE(spec.slo.has_value());
  EXPECT_EQ(spec.slo->kind, SloKind::kLatency);
  EXPECT_DOUBLE_EQ(spec.slo->deadline_seconds, 0.005);
}

TEST(BackendSpec, AutoThroughputWithBatch) {
  const BackendSpec spec = parse_backend_spec("auto:throughput:64");
  ASSERT_TRUE(spec.slo.has_value());
  EXPECT_EQ(spec.slo->kind, SloKind::kThroughput);
  EXPECT_EQ(spec.slo->batch, 64);
}

TEST(BackendSpec, AutoEnergyWithBudget) {
  const BackendSpec spec = parse_backend_spec("auto:energy:0.25");
  ASSERT_TRUE(spec.slo.has_value());
  EXPECT_EQ(spec.slo->kind, SloKind::kEnergy);
  EXPECT_DOUBLE_EQ(spec.slo->energy_budget_joules, 0.25);
}

TEST(BackendSpec, AutoKindWithoutValueKeepsDefaults) {
  const BackendSpec spec = parse_backend_spec("auto:throughput");
  ASSERT_TRUE(spec.slo.has_value());
  EXPECT_EQ(spec.slo->kind, SloKind::kThroughput);
  EXPECT_EQ(spec.slo->batch, 16);  // the struct default batch
}

TEST(BackendSpec, ExplicitPinsCarryNoSlo) {
  for (const char* name :
       {"aie", "aie-sharded", "cpu", "fpga-bcv", "gpu-wcycle"}) {
    SCOPED_TRACE(name);
    const BackendSpec spec = parse_backend_spec(name);
    EXPECT_EQ(spec.backend, name);
    EXPECT_FALSE(spec.slo.has_value());
    EXPECT_TRUE(backend::is_known_backend(name));
  }
  EXPECT_FALSE(backend::is_known_backend("tpu"));
  EXPECT_FALSE(backend::is_known_backend("auto"));
}

TEST(BackendSpec, UnknownBackendThrows) {
  EXPECT_THROW(parse_backend_spec("tpu"), InputError);
  EXPECT_THROW(parse_backend_spec("AIE"), InputError);  // names are exact
}

TEST(BackendSpec, PinWithSloIsAContradiction) {
  // A pin bypasses scoring, so attaching an objective to it must be
  // rejected loudly rather than silently ignored.
  EXPECT_THROW(parse_backend_spec("cpu:latency:0.01"), InputError);
  EXPECT_THROW(parse_backend_spec("gpu-wcycle:throughput"), InputError);
}

TEST(BackendSpec, MalformedSpecsThrow) {
  EXPECT_THROW(parse_backend_spec(""), InputError);
  EXPECT_THROW(parse_backend_spec("auto:bogus"), InputError);
  EXPECT_THROW(parse_backend_spec("auto:latency:abc"), InputError);
  EXPECT_THROW(parse_backend_spec("auto:latency:-1"), InputError);
  EXPECT_THROW(parse_backend_spec("auto:throughput:0"), InputError);
  EXPECT_THROW(parse_backend_spec("auto:latency:0.005:extra"), InputError);
}

TEST(BackendSpec, SloValidateRejectsOutOfRangeFields) {
  Slo slo;
  slo.deadline_seconds = -1.0;
  EXPECT_THROW(slo.validate(), InputError);
  slo = Slo{};
  slo.batch = 0;
  EXPECT_THROW(slo.validate(), InputError);
  slo = Slo{};
  slo.energy_budget_joules = -0.5;
  EXPECT_THROW(slo.validate(), InputError);
  EXPECT_NO_THROW(Slo{}.validate());
}

// ---- slo_class ------------------------------------------------------------

TEST(BackendSloClass, KindsAndPowerOfTwoBatchBuckets) {
  EXPECT_EQ(slo_class(std::nullopt), "latency");
  EXPECT_EQ(slo_class(Slo{}), "latency");

  Slo energy;
  energy.kind = SloKind::kEnergy;
  energy.energy_budget_joules = 2.0;  // budgets never change the class
  EXPECT_EQ(slo_class(energy), "energy");

  // Deadlines are deliberately excluded: they flag feasibility, they do
  // not change which backend wins, so they must share the memo entry.
  Slo deadline;
  deadline.deadline_seconds = 0.001;
  EXPECT_EQ(slo_class(deadline), slo_class(Slo{}));

  const auto thr = [](int batch) {
    Slo s;
    s.kind = SloKind::kThroughput;
    s.batch = batch;
    return slo_class(s);
  };
  EXPECT_EQ(thr(1), "throughput/b0");
  EXPECT_EQ(thr(16), "throughput/b4");
  EXPECT_EQ(thr(31), "throughput/b4");  // same power-of-two bucket
  EXPECT_EQ(thr(32), "throughput/b5");
}

// ---- registry -------------------------------------------------------------

TEST(BackendRegistry, FiveBackendsWithTheDocumentedCapabilities) {
  const auto backends = make_backends(dse::DesignSpaceExplorer{});
  ASSERT_EQ(backends.size(), 5u);
  const std::vector<std::string> names = {"aie", "aie-sharded", "cpu",
                                          "fpga-bcv", "gpu-wcycle"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(backends[i]->name(), names[i]);
    EXPECT_TRUE(backends[i]->capabilities().functional);
  }
  const auto caps = [&](const char* name) {
    for (const auto& b : backends) {
      if (name == std::string(b->name())) return b->capabilities();
    }
    ADD_FAILURE() << "missing backend " << name;
    return backend::Capabilities{};
  };
  // The AIE paths are the simulator itself: measured (simulated) time,
  // bit-identical factors.
  EXPECT_FALSE(caps("aie").modeled_time);
  EXPECT_TRUE(caps("aie").bit_identical_to_aie);
  EXPECT_FALSE(caps("aie-sharded").modeled_time);
  EXPECT_TRUE(caps("aie-sharded").bit_identical_to_aie);
  // The host CPU measures wall time.
  EXPECT_FALSE(caps("cpu").modeled_time);
  EXPECT_FALSE(caps("cpu").bit_identical_to_aie);
  EXPECT_TRUE(caps("cpu").has_energy_model);
  // The published comparators report fitted models; Table II has no
  // power figure, Table III does (270 W).
  EXPECT_TRUE(caps("fpga-bcv").modeled_time);
  EXPECT_FALSE(caps("fpga-bcv").has_energy_model);
  EXPECT_TRUE(caps("gpu-wcycle").modeled_time);
  EXPECT_TRUE(caps("gpu-wcycle").has_energy_model);
}

// ---- estimates ------------------------------------------------------------

TEST(BackendEstimate, CpuFlopsModelIsSelfConsistent) {
  const auto backends = make_backends(dse::DesignSpaceExplorer{});
  const Backend& cpu = *backends[2];
  const Estimate e = cpu.estimate(128, 128, Slo{}, SvdOptions{});
  ASSERT_TRUE(e.feasible);
  EXPECT_GT(e.latency_seconds, 0.0);
  EXPECT_DOUBLE_EQ(e.throughput_tasks_per_s, 1.0 / e.latency_seconds);
  EXPECT_DOUBLE_EQ(e.energy_per_task_joules, 65.0 * e.latency_seconds);
  // The model grows superlinearly in n: routing only needs the ordering
  // right, but it must at least be monotone.
  EXPECT_GT(cpu.estimate(512, 512, Slo{}, SvdOptions{}).latency_seconds,
            e.latency_seconds);
}

TEST(BackendEstimate, FittedModelsFlagClampedShapes) {
  const auto backends = make_backends(dse::DesignSpaceExplorer{});
  const Backend& fpga = *backends[3];
  const Backend& gpu = *backends[4];
  // Inside the Table II/III anchor range (n = 128..1024): interpolated.
  EXPECT_FALSE(fpga.estimate(256, 256, Slo{}, SvdOptions{}).modeled_extrapolated);
  EXPECT_FALSE(gpu.estimate(256, 256, Slo{}, SvdOptions{}).modeled_extrapolated);
  // Outside: clamped to the nearest anchor and flagged, and the router's
  // trust ranking depends on that flag surviving into the estimate.
  EXPECT_TRUE(fpga.estimate(16, 16, Slo{}, SvdOptions{}).modeled_extrapolated);
  EXPECT_TRUE(
      gpu.estimate(4096, 4096, Slo{}, SvdOptions{}).modeled_extrapolated);
  // No published FPGA power figure: the energy estimate stays zero.
  EXPECT_EQ(fpga.estimate(256, 256, Slo{}, SvdOptions{}).energy_per_task_joules,
            0.0);
  EXPECT_GT(gpu.estimate(256, 256, Slo{}, SvdOptions{}).energy_per_task_joules,
            0.0);
}

TEST(BackendEstimate, AieInfeasibleBeyondTheDevice) {
  const auto backends = make_backends(dse::DesignSpaceExplorer{});
  const Estimate small = backends[0]->estimate(64, 64, Slo{}, SvdOptions{});
  ASSERT_TRUE(small.feasible);
  EXPECT_GT(small.latency_seconds, 0.0);
  const Estimate huge = backends[0]->estimate(4096, 4096, Slo{}, SvdOptions{});
  EXPECT_FALSE(huge.feasible);
  EXPECT_NE(huge.note.find("no feasible AIE placement"), std::string::npos);
}

TEST(BackendEstimate, ShardCountRoundsDownToAPowerOfTwo) {
  const auto count = [](int shards) {
    SvdOptions options;
    options.shards = shards;
    return ShardedAieBackend::shard_count(options);
  };
  EXPECT_EQ(count(0), 2);  // the smallest genuinely sharded engine
  EXPECT_EQ(count(1), 2);
  EXPECT_EQ(count(2), 2);
  EXPECT_EQ(count(3), 2);
  EXPECT_EQ(count(5), 4);
  EXPECT_EQ(count(8), 8);
}

// ---- execution vs the reference SVD ---------------------------------------

struct RefCase {
  linalg::MatrixF a;
  linalg::SvdResult ref;
};

RefCase gaussian_case(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  const linalg::MatrixD a = linalg::random_gaussian(rows, cols, rng);
  RefCase c;
  c.ref = linalg::reference_svd(a);
  c.a = a.cast<float>();
  return c;
}

// Tolerance contract (same bounds as tests/test_differential.cpp): the
// host-executed backends run a real one-sided Jacobi, so their factors
// are held to float accuracy against the double-precision reference --
// the fitted timing model never touches the numerics.
void expect_matches_reference(const RefCase& c, const Svd& r,
                              const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(r.status, SvdStatus::kOk);
  ASSERT_EQ(r.sigma.size(), c.a.cols());
  const double scale = std::max(c.ref.sigma.front(), 1e-12);
  for (std::size_t i = 0; i < r.sigma.size(); ++i) {
    EXPECT_NEAR(r.sigma[i], c.ref.sigma[i], 5e-5 * scale) << "sigma[" << i
                                                          << "]";
  }
  EXPECT_LT(linalg::orthogonality_error(r.u.cast<double>()), 1e-3);
  EXPECT_LT(linalg::orthogonality_error(r.v.cast<double>()), 1e-3);
  std::vector<double> sigma(r.sigma.begin(), r.sigma.end());
  EXPECT_LT(linalg::reconstruction_error(c.a.cast<double>(), r.u.cast<double>(),
                                         sigma, r.v.cast<double>()),
            1e-4);
}

const Backend& registry_backend(const char* name) {
  static const auto backends = make_backends(dse::DesignSpaceExplorer{});
  for (const auto& b : backends) {
    if (name == std::string(b->name())) return *b;
  }
  throw std::logic_error("unknown backend in test");
}

TEST(BackendExecute, CpuMatchesReferenceAndMeasuresWallTime) {
  const RefCase c = gaussian_case(24, 16, 1001);
  const Svd r = registry_backend("cpu").execute(c.a, SvdOptions{});
  expect_matches_reference(c, r, "cpu 24x16");
  EXPECT_EQ(r.backend, "cpu");
  EXPECT_FALSE(r.modeled_time);
  EXPECT_EQ(r.modeled_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
  // Energy is attributed from measured wall time at the package power.
  EXPECT_DOUBLE_EQ(r.energy_joules, 65.0 * r.wall_seconds);
}

TEST(BackendExecute, CpuOddColumnCountPadsExactly) {
  // 13 columns force the Hestenes engine's even-n zero-column pad; the
  // padded factors must truncate away without a trace.
  const RefCase c = gaussian_case(21, 13, 1002);
  const Svd r = registry_backend("cpu").execute(c.a, SvdOptions{});
  ASSERT_EQ(r.u.rows(), 21u);
  ASSERT_EQ(r.u.cols(), 13u);
  ASSERT_EQ(r.v.rows(), 13u);
  ASSERT_EQ(r.v.cols(), 13u);
  expect_matches_reference(c, r, "cpu 21x13 (padded)");
}

TEST(BackendExecute, CpuSquareOddGainsZeroRowToo) {
  // A square odd input needs a zero row as well (rows >= padded cols).
  const RefCase c = gaussian_case(13, 13, 1003);
  const Svd r = registry_backend("cpu").execute(c.a, SvdOptions{});
  expect_matches_reference(c, r, "cpu 13x13 (row+col padded)");
}

TEST(BackendExecute, SingleColumnClosedForm) {
  Rng rng(1004);
  const linalg::MatrixD a = linalg::random_gaussian(9, 1, rng);
  const linalg::MatrixF af = a.cast<float>();
  double ss = 0.0;
  for (std::size_t r = 0; r < 9; ++r) ss += a(r, 0) * a(r, 0);
  const Svd r = registry_backend("cpu").execute(af, SvdOptions{});
  ASSERT_EQ(r.status, SvdStatus::kOk);
  ASSERT_EQ(r.sigma.size(), 1u);
  EXPECT_NEAR(r.sigma[0], std::sqrt(ss), 1e-5 * std::sqrt(ss));
  ASSERT_EQ(r.v.rows(), 1u);
  EXPECT_FLOAT_EQ(r.v(0, 0), 1.0f);
  double unorm = 0.0;
  for (std::size_t i = 0; i < 9; ++i)
    unorm += static_cast<double>(r.u(i, 0)) * r.u(i, 0);
  EXPECT_NEAR(unorm, 1.0, 1e-5);
}

TEST(BackendExecute, FpgaBcvMatchesReferenceWithModeledTime) {
  const RefCase c = gaussian_case(32, 24, 1005);
  const Svd r = registry_backend("fpga-bcv").execute(c.a, SvdOptions{});
  expect_matches_reference(c, r, "fpga-bcv 32x24");
  EXPECT_EQ(r.backend, "fpga-bcv");
  // Honesty labels: the factors above are real (host BCV Jacobi), but
  // the reported time is the Table II fitted model -- and the host wall
  // time is carried separately, never substituted.
  EXPECT_TRUE(r.modeled_time);
  EXPECT_GT(r.modeled_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
  // n = 24 is below the 128..1024 anchor range: clamped and flagged.
  EXPECT_TRUE(r.modeled_extrapolated);
  // No published power figure, so no energy claim.
  EXPECT_EQ(r.energy_joules, 0.0);
}

TEST(BackendExecute, GpuWcycleMatchesReferenceWithModeledEnergy) {
  const RefCase c = gaussian_case(32, 24, 1006);
  const Svd r = registry_backend("gpu-wcycle").execute(c.a, SvdOptions{});
  expect_matches_reference(c, r, "gpu-wcycle 32x24");
  EXPECT_EQ(r.backend, "gpu-wcycle");
  EXPECT_TRUE(r.modeled_time);
  EXPECT_GT(r.modeled_seconds, 0.0);
  EXPECT_GT(r.wall_seconds, 0.0);
  // Energy is the 270 W board power over the modeled latency.
  EXPECT_DOUBLE_EQ(r.energy_joules, 270.0 * r.modeled_seconds);
}

// Finite input whose squared column norms overflow fp32: the host pair
// kernel sees a non-finite coherence and the sweep loop must reject the
// input with a typed error naming the pair, not abort the process.
// One overflowing column is caught too: its infinite norm would otherwise
// hide behind a zero coherence and come back as sigma = inf with kOk.
TEST(BackendExecute, HostEnginesRejectFp32OverflowAsInputError) {
  RefCase all = gaussian_case(32, 16, 1010);
  for (float& x : all.a.data()) x *= 1e20f;
  RefCase one = gaussian_case(32, 16, 1011);
  for (float& x : one.a.col(0)) x *= 1e20f;
  for (const RefCase* c : {&all, &one}) {
    for (const char* name : {"cpu", "fpga-bcv", "gpu-wcycle"}) {
      SCOPED_TRACE(cat(name, c == &all ? " all columns" : " one column"));
      try {
        (void)registry_backend(name).execute(c->a, SvdOptions{});
        ADD_FAILURE() << "expected InputError";
      } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("column pair"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// ---- facade validation ----------------------------------------------------

TEST(BackendFacade, UnknownBackendNameRejected) {
  const RefCase c = gaussian_case(16, 8, 1007);
  SvdOptions options;
  options.backend = "tpu";
  EXPECT_THROW(svd(c.a, options), InputError);
}

TEST(BackendFacade, PinPlusSloRejected) {
  const RefCase c = gaussian_case(16, 8, 1008);
  SvdOptions options;
  options.backend = "cpu";
  options.slo = Slo{};
  EXPECT_THROW(svd(c.a, options), InputError);
}

TEST(BackendFacade, MalformedSloRejected) {
  const RefCase c = gaussian_case(16, 8, 1009);
  SvdOptions options;
  options.slo = Slo{};
  options.slo->batch = 0;
  EXPECT_THROW(svd(c.a, options), InputError);
  options.slo = Slo{};
  options.slo->deadline_seconds = -2.0;
  EXPECT_THROW(svd(c.a, options), InputError);
}

}  // namespace
}  // namespace hsvd
