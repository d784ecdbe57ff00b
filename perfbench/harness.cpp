// hsvd_perfbench: one run of one benchmark workload.
//
//   hsvd_perfbench --workload dense-128|batch-64x16|serve-mixed --seed N
//                  --seconds S --trace 0|1 [--threads T] [--spans PATH]
//                  [--setup-only]
//
// Drives the library through its public API from this one process. It
// prints "READY" once set-up is done (run.py times set-up by it) and, as
// its last line, one JSON record: correctness counts, end-to-end and
// per-layer metrics, the determinism fingerprint and the run
// environment. run.py turns the record into the benchmark's result line.
// WORKLOADS.md describes the workloads and every metric.
//
// Two kinds of time appear and every metric name says which: host time
// (what the simulator takes on this machine; *_ms, *_ns, *_s, *_ops_s)
// and simulated time (what the modelled VCK190 would take; sim_*).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "accel/sharded.hpp"
#include "backend/router.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "dse/explorer.hpp"
#include "heterosvd.hpp"
#include "jacobi/block.hpp"
#include "jacobi/hestenes.hpp"
#include "linalg/generators.hpp"
#include "linalg/ops.hpp"
#include "linalg/qr.hpp"
#include "linalg/reference_svd.hpp"
#include "obs/obs.hpp"
#include "scenarios/tall_skinny.hpp"
#include "scenarios/truncated.hpp"
#include "serve/server.hpp"
#include "spans.hpp"
#include "verify/verifier.hpp"

namespace perfbench {
namespace {

using hsvd::BatchSvd;
using hsvd::Svd;
using hsvd::SvdOptions;
using hsvd::linalg::MatrixF;
namespace serve = hsvd::serve;

// ---------------------------------------------------------------------
// Command line, statistics, output

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = -1;  // -1 = the workload's own thread count
  std::string spans_path;
  bool setup_only = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "hsvd_perfbench: %s\nusage: hsvd_perfbench --workload "
               "dense-128|batch-64x16|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--threads T] [--spans PATH] [--setup-only]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--setup-only") { a.setup_only = true; continue; }
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--threads") a.threads = std::stoi(value);
      else if (key == "--spans") a.spans_path = value;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (a.workload != "dense-128" && a.workload != "batch-64x16" &&
      a.workload != "serve-mixed") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.threads == 0 || a.threads < -1) usage("--threads must be >= 1");
  return a;
}

// Linear-interpolation quantile (Python's statistics "inclusive" rule).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}
// Interquartile range as a percentage of the median.
double iqr_pct(const std::vector<double>& v) {
  const double m = median(v);
  return m != 0.0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / m * 100.0 : 0.0;
}
std::string num(double v) {
  if (!std::isfinite(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::uint64_t fnv1a(const void* data, std::size_t bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Everything one run reports.
struct Record {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few diagnostics
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> fingerprint;  // exact values
  std::map<std::string, std::string> env;
  // Results that came back, and how many of them kNotConverged.
  std::int64_t returned = 0;
  std::int64_t not_converged = 0;

  void count_status(const Svd& r) {
    ++returned;
    if (r.status == hsvd::SvdStatus::kNotConverged) ++not_converged;
  }
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
  void put_e2e(const std::string& name, double v, const std::string& unit) {
    e2e[name] = {v, unit};
  }
  void put(const std::string& name, double v, const std::string& unit) {
    layer[name] = {v, unit};
  }

  std::string json() const {
    const auto metrics = [](const std::map<std::string, Metric>& m) {
      std::string s = "{";
      for (const auto& [name, metric] : m) {
        if (s.size() > 1) s += ", ";
        s += quoted(name) + ": {\"value\": " + num(metric.value) +
             ", \"unit\": " + quoted(metric.unit) + "}";
      }
      return s + "}";
    };
    const auto strings = [](const std::map<std::string, std::string>& m) {
      std::string s = "{";
      for (const auto& [k, v] : m) {
        if (s.size() > 1) s += ", ";
        s += quoted(k) + ": " + quoted(v);
      }
      return s + "}";
    };
    std::string f = "[";
    for (const auto& why : failures) f += (f.size() > 1 ? ", " : "") + quoted(why);
    return "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"e2e\": " + metrics(e2e) + ", \"layer\": " + metrics(layer) +
           ", \"fingerprint\": " + strings(fingerprint) +
           ", \"env\": " + strings(env) + ", \"failures\": " + f + "]}";
  }
};

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // Linux: KiB
}

MatrixF gaussian(std::size_t rows, std::size_t cols, hsvd::Rng& rng) {
  return hsvd::linalg::random_gaussian(rows, cols, rng).cast<float>();
}

// Process-wide lazy state every workload's first operation would
// otherwise pay for: SIMD dispatch, the shared pool, the router.
void warm_singletons() {
  (void)hsvd::simd::active();
  (void)hsvd::common::ThreadPool::shared();
  (void)hsvd::backend::Router::shared();
}

void announce_ready() {
  std::printf("READY %.6f\n", now_s());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Correctness gate, the sample and the accuracy set

double relative_residual(const MatrixF& a, const Svd& r) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  double err = 0.0;
  double ref = 0.0;
  std::vector<double> col(m);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) col[i] = a(i, j);
    for (std::size_t i = 0; i < m; ++i) ref += col[i] * col[i];
    for (std::size_t t = 0; t < r.sigma.size(); ++t) {
      const double w = static_cast<double>(r.sigma[t]) * r.v(j, t);
      for (std::size_t i = 0; i < m; ++i) col[i] -= w * r.u(i, t);
    }
    for (std::size_t i = 0; i < m; ++i) err += col[i] * col[i];
  }
  return ref > 0.0 ? std::sqrt(err / ref) : 0.0;
}

// Scores one result against its input. Full decompositions go through
// verify::ResultVerifier (finite, descending sigma, orthogonality and
// residual under the shape-scaled bounds); a kNotConverged one only to
// what the library promises for that status. A truncated top-k result is
// held to its own a-posteriori bound: orthonormal U within the
// verifier's bound for k columns, residual within scenario_bound.
// Returns "" on pass, else the reason.
std::string gate(const MatrixF& a, const Svd& r, double precision,
                 double* residual = nullptr) {
  if (r.status == hsvd::SvdStatus::kFailed) return "kFailed: " + r.message;
  if (r.sigma.empty() || r.u.empty()) return "empty factors";
  if (r.scenario == "truncated") {
    const std::size_t k = r.sigma.size();
    double orth = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      for (std::size_t t = 0; t < k; ++t) {
        double d = s == t ? -1.0 : 0.0;
        for (std::size_t i = 0; i < r.u.rows(); ++i) {
          d += static_cast<double>(r.u(i, s)) * r.u(i, t);
        }
        orth += d * d;
      }
    }
    const double bound =
        hsvd::verify::ResultVerifier::orthogonality_bound(k, precision);
    if (std::sqrt(orth) > bound) return "truncated U not orthonormal";
    const double res = relative_residual(a, r);
    if (residual != nullptr) *residual = res;
    if (!(res <= r.scenario_bound)) {
      return "truncated residual " + num(res) + " above its bound " +
             num(r.scenario_bound);
    }
    return "";
  }
  if (r.status == hsvd::SvdStatus::kNotConverged) {
    // The library promises only "the best factors available" here, and
    // the verifier's bounds follow from convergence: hold the result to
    // finite factors and a non-negative descending spectrum. How far such
    // factors are off, and how often they come back, is measured on the
    // accuracy set (report_accuracy) and enters the end-to-end metrics.
    if (residual != nullptr) *residual = relative_residual(a, r);
    const auto finite = [](auto values) {
      return std::all_of(values.begin(), values.end(),
                         [](float x) { return std::isfinite(x); });
    };
    if (!finite(r.u.data()) || !finite(r.v.data()) ||
        !finite(std::span<const float>(r.sigma))) {
      return "not-converged result has non-finite factors";
    }
    for (std::size_t t = 0; t < r.sigma.size(); ++t) {
      if (r.sigma[t] < 0.0f || (t > 0 && r.sigma[t] > r.sigma[t - 1])) {
        return "not-converged sigma not non-negative and descending";
      }
    }
    return "";
  }
  const auto outcome = hsvd::verify::ResultVerifier(precision).check(a, r);
  if (residual != nullptr) *residual = outcome.residual;
  if (!outcome.passed) return "verifier: " + outcome.note;
  return "";
}

// One input and what the library returned for it.
struct Sample {
  const MatrixF* a = nullptr;
  Svd r;
};

// Sigma against a double-precision reference. By Weyl's inequality a
// result that meets the residual bound has every singular value within
// residual * ||A||_F of the reference; twice that is allowed.
std::string check_sigma(const Sample& s, double precision, double* rel_err) {
  const auto ref = hsvd::linalg::reference_svd(s.a->cast<double>());
  const std::size_t k = std::min(s.r.sigma.size(), ref.sigma.size());
  double err = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    err = std::max(err, std::abs(static_cast<double>(s.r.sigma[i]) -
                                 ref.sigma[i]));
  }
  double fro = 0.0;
  for (double x : ref.sigma) fro += x * x;
  fro = std::sqrt(fro);
  const double allow =
      2.0 * fro *
      (s.r.scenario == "truncated"
           ? s.r.scenario_bound
           : hsvd::verify::ResultVerifier::residual_bound(s.a->cols(),
                                                          precision));
  *rel_err = ref.sigma.front() > 0.0 ? err / ref.sigma.front() : 0.0;
  if (err > allow) {
    return "sigma differs from the double reference by " + num(err) +
           " (allowed " + num(allow) + ")";
  }
  return "";
}

std::string hex64(std::uint64_t v) {
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(v));
  return hex;
}

// The sample: the first results of a run, in issue order, so it does not
// depend on host speed and its simulated time and sigma digest repeat
// exactly for a seed. Its results were gated when they were made; the
// kOk ones must also match the double reference here (check_sigma).
// `sim_throughput` < 0 derives the simulated
// rate from the sample's per-task latency (single-matrix workloads).
void report_sample(Record& rec, const std::vector<Sample>& sample,
                   double precision, double sim_throughput) {
  std::vector<double> sim;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  int not_converged = 0;
  for (const Sample& s : sample) {
    sim.push_back(s.r.accelerator_seconds);
    if (s.r.status == hsvd::SvdStatus::kNotConverged) ++not_converged;
    digest = fnv1a(s.r.sigma.data(), s.r.sigma.size() * sizeof(float), digest);
    if (s.r.status != hsvd::SvdStatus::kOk) continue;
    double rel = 0.0;
    const std::string why = check_sigma(s, precision, &rel);
    if (!why.empty()) rec.fail("sample: " + why);
  }
  // Mean, not median: the median is one sweep count's latency and would
  // read the same for every seed.
  const double sim_latency = mean(sim);
  if (sim_throughput < 0.0) sim_throughput = sim_latency > 0 ? 1.0 / sim_latency : 0.0;
  rec.put_e2e("sim_latency_us", sim_latency * 1e6, "us");
  rec.put_e2e("sim_throughput_tasks_s", sim_throughput, "1/s");
  rec.fingerprint["sim_latency_us"] = num(sim_latency * 1e6);
  rec.fingerprint["sim_throughput_tasks_s"] = num(sim_throughput);
  rec.fingerprint["sigma_digest"] = hex64(digest);
  rec.fingerprint["sample_size"] = std::to_string(sample.size());
  rec.fingerprint["sample_not_converged"] = std::to_string(not_converged);
}

// The accuracy set: square Gaussian inputs, `count` of each size, from a
// seed that is the same for every run. Each workload decomposes it once,
// after its timed phase, with its own call and options.
std::vector<MatrixF> accuracy_inputs(std::initializer_list<std::size_t> sizes,
                                     int count) {
  hsvd::Rng rng(0xacc5e7ULL);
  std::vector<MatrixF> out;
  for (std::size_t n : sizes) {
    for (int i = 0; i < count; ++i) out.push_back(gaussian(n, n, rng));
  }
  return out;
}

// Accuracy metrics over every result of the accuracy set, kNotConverged
// ones included: the largest sigma error against the double reference,
// the largest relative residual, and the share of results that
// converged. For given code they read the same in every run, so a change
// in accuracy, or in how often and how early the convergence watchdog
// stops, shows in full. Each result is also gated like a timed one.
void report_accuracy(Record& rec, const std::vector<Sample>& set,
                     double precision) {
  double sigma_err = 0.0;
  double residual = 0.0;
  int converged = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const Sample& s : set) {
    ++rec.attempted;
    double res = 0.0;
    double rel = 0.0;
    std::string why = gate(*s.a, s.r, precision, &res);
    const std::string sigma_why = check_sigma(s, precision, &rel);
    if (s.r.status == hsvd::SvdStatus::kOk) {
      ++converged;
      if (why.empty()) why = sigma_why;
    }
    if (!why.empty()) rec.fail("accuracy set: " + why);
    sigma_err = std::max(sigma_err, rel);
    residual = std::max(residual, res);
    digest = fnv1a(s.r.sigma.data(), s.r.sigma.size() * sizeof(float), digest);
  }
  const double ratio = static_cast<double>(converged) / set.size();
  rec.put_e2e("sigma_rel_err", sigma_err, "ratio");
  rec.put_e2e("residual_rel", residual, "ratio");
  rec.put_e2e("converged_ratio", ratio, "ratio");
  rec.fingerprint["accuracy_digest"] = hex64(digest);
  rec.fingerprint["accuracy_converged"] =
      std::to_string(converged) + "/" + std::to_string(set.size());
}

// One fixed accelerator run outside timing: the simulator's event counts
// and sweep count for the fingerprint and the versal.* metrics.
void accel_probe(Record& rec, const std::vector<MatrixF>& batch,
                 const SvdOptions& o) {
  const auto cfg = hsvd::planned_config(batch.front().rows(),
                                        batch.front().cols(),
                                        static_cast<int>(batch.size()), o);
  hsvd::accel::ShardedAccelerator acc(cfg, o.shards);
  const auto run = acc.run(batch);
  const double tasks = static_cast<double>(batch.size());
  double sweeps = 0.0;
  for (const auto& t : run.tasks) sweeps += t.iterations;
  const auto& st = run.stats;
  const std::pair<const char*, double> counts[] = {
      {"versal.kernel_invocations", st.kernel_invocations / tasks},
      {"versal.neighbour_transfers", st.neighbour_transfers / tasks},
      {"versal.dma_transfers", st.dma_transfers / tasks},
      {"versal.dma_bytes", st.dma_bytes / tasks},
      {"versal.stream_packets", st.stream_packets / tasks},
      {"versal.stream_bytes", st.stream_bytes / tasks},
      {"accel.sweeps", sweeps / tasks},
  };
  for (const auto& [name, value] : counts) {
    rec.put(name, value, std::strstr(name, "bytes") ? "B" : "count");
    rec.fingerprint[name] = num(value);
  }
  // Simulated busy fraction of the active AIE cores.
  rec.put("accel.core_utilization", run.core_utilization, "ratio");
  rec.fingerprint["accel.core_utilization"] = num(run.core_utilization);
  rec.fingerprint["config"] = "p_eng=" + std::to_string(cfg.p_eng) +
                              ",p_task=" + std::to_string(cfg.p_task);
}

// ---------------------------------------------------------------------
// Closed loop

// CPU time the hypervisor has taken from this virtual machine since boot,
// summed over its vCPUs: the steal column of /proc/stat (0 where the
// kernel does not report it).
double vm_steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

// A fixed piece of harness-local arithmetic, no library code: four
// 128x128 double matrix products, timed between operations. Its median
// tells a run on a slower or faster host from another; its spread within
// a run tells a steady host from a drifting one. It enters no end-to-end
// metric: it is there to judge them by.
class HostReference {
 public:
  void tick() {
    constexpr std::size_t n = 128;
    if (a_.empty()) {
      a_.resize(n * n);
      b_.resize(n * n);
      for (std::size_t i = 0; i < n * n; ++i) {
        a_[i] = static_cast<double>(i % 7) * 0.125;
        b_[i] = static_cast<double>(i % 5) * 0.25;
      }
    }
    c_.assign(n * n, 0.0);
    const double start = now_s();
    for (int rep = 0; rep < 4; ++rep) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < n; ++k) {
          const double x = a_[i * n + k];
          for (std::size_t j = 0; j < n; ++j) c_[i * n + j] += x * b_[k * n + j];
        }
      }
    }
    ms_.push_back((now_s() - start) * 1e3);
    sink_ = sink_ + c_[n * n - 1];
  }
  void report(Record& rec) const {
    rec.put("harness.reference_ms", median(ms_), "ms");
    rec.put("harness.reference_iqr_pct", iqr_pct(ms_), "%");
  }

 private:
  std::vector<double> a_, b_, c_, ms_;
  volatile double sink_ = 0.0;
};

// One operation's timed section: begin() and end() bracket the library
// call only.
struct OpTime {
  double start_s = 0.0;
  double end_s = 0.0;
  double steal_s = 0.0;
  std::int64_t tasks = 0;  // decompositions completed and gated clean

  void begin() {
    steal_s = vm_steal_s();
    start_s = now_s();
  }
  void end() {
    end_s = now_s();
    steal_s = vm_steal_s() - steal_s;
  }
};

struct ClosedLoop {
  std::vector<double> latency_s;  // library time per counted operation
  std::vector<double> gap_s;      // harness time between operations
  double busy_s = 0.0;
  std::int64_t tasks = 0;
  int ops = 0;
  int disturbed = 0;  // operations left out of the host-time figures
  double wall_s = 0.0;   // all operations
  double steal_s = 0.0;  // hypervisor steal during them
};

// An operation during which the hypervisor took more than this share of
// its wall time from the VM is left out of the host-time figures: on a
// shared host such stalls reach several times an operation's own time
// and say nothing about the code under test.
constexpr double kMaxStealShare = 0.25;

// Which operations count toward the host-time figures, given each one's
// steal share: all whose share is at most kMaxStealShare, and at least
// the half of them with the least steal.
std::vector<bool> kept_by_steal(const std::vector<double>& share) {
  std::vector<std::size_t> order(share.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return share[x] < share[y];
  });
  std::size_t keep = (order.size() + 1) / 2;
  while (keep < order.size() && share[order[keep]] <= kMaxStealShare) ++keep;
  std::vector<bool> out(share.size(), false);
  for (std::size_t k = 0; k < keep; ++k) out[order[k]] = true;
  return out;
}

// Issues op(0), op(1), ... back to back until `seconds` have passed and
// at least `min_ops` ran. Each op times only its library call; gating
// and a tick of the host reference happen after and show up as the gap
// before the next op. Operations disturbed by steal are left out (see
// kept_by_steal).
template <class Op>
ClosedLoop run_closed(double seconds, int min_ops, HostReference& ref, Op&& op) {
  std::vector<OpTime> all;
  ClosedLoop out;
  const double start = now_s();
  for (int i = 0; i < min_ops || now_s() - start < seconds; ++i) {
    all.push_back(op(i));
    ref.tick();
    if (i > 0) out.gap_s.push_back(all[i].start_s - all[i - 1].end_s);
  }
  std::vector<double> share;
  for (const OpTime& t : all) {
    out.wall_s += t.end_s - t.start_s;
    out.steal_s += t.steal_s;
    share.push_back(t.steal_s / std::max(t.end_s - t.start_s, 1e-9));
  }
  const std::vector<bool> keep = kept_by_steal(share);
  out.ops = static_cast<int>(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!keep[i]) {
      ++out.disturbed;
      continue;
    }
    out.latency_s.push_back(all[i].end_s - all[i].start_s);
    out.busy_s += all[i].end_s - all[i].start_s;
    out.tasks += all[i].tasks;
  }
  return out;
}

void report_closed(Record& rec, const ClosedLoop& loop) {
  rec.put_e2e("throughput_ops_s",
              loop.busy_s > 0 ? static_cast<double>(loop.tasks) / loop.busy_s
                              : 0.0,
              "1/s");
  rec.put_e2e("latency_p50_ms", median(loop.latency_s) * 1e3, "ms");
  rec.put_e2e("latency_p90_ms", quantile(loop.latency_s, 0.9) * 1e3, "ms");
  rec.put("harness.ops", static_cast<double>(loop.ops), "count");
  rec.put("harness.disturbed_ops", static_cast<double>(loop.disturbed), "count");
  rec.put("harness.steal_pct",
          loop.wall_s > 0 ? loop.steal_s / loop.wall_s * 100.0 : 0.0, "%");
  rec.put("harness.gen_lag_p90_ms", quantile(loop.gap_s, 0.9) * 1e3, "ms");
}

// ---------------------------------------------------------------------
// Traced re-execution of the facade's classic path

// Per-call layer times of one re-execution, in milliseconds.
struct Reexec {
  double planned = 0, build = 0, run = 0, derive_v = 0, svd = 0;
  double events = 0;  // versal.* event count of the run
  int max_sweeps = 0;
  hsvd::accel::HeteroSvdConfig cfg;
  std::vector<Svd> results;  // what the facade call itself returned
};

bool same_bits(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}
bool same_bits(const MatrixF& x, const MatrixF& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.data().size() * sizeof(float)) == 0;
}

// Repeats what hsvd::svd() (one matrix) or hsvd::svd_batch() does on
// the classic path -- planned_config(), accelerator construction, run(),
// derive_v() -- with a span around each call, then times the facade
// call on the same input. The two must agree bit for bit.
Reexec reexec(SpanRecorder& spans, std::int64_t id,
              const std::vector<MatrixF>& batch, const SvdOptions& o,
              Record& rec) {
  Reexec x;
  const bool single = batch.size() == 1;
  const std::size_t n = batch.size();
  hsvd::accel::RunResult run;
  std::vector<MatrixF> v(n);
  {
    Timed seq(spans, "facade.sequence", id);
    {
      Timed t(spans, "facade.planned_config", id);
      x.cfg = hsvd::planned_config(batch.front().rows(), batch.front().cols(),
                                   static_cast<int>(n), o);
      x.planned = t.stop() * 1e3;
    }
    std::unique_ptr<hsvd::accel::ShardedAccelerator> acc;
    {
      Timed t(spans, "accel.build", id);
      acc = std::make_unique<hsvd::accel::ShardedAccelerator>(x.cfg, o.shards);
      acc->attach_observer(o.observer);
      x.build = t.stop() * 1e3;
    }
    {
      Timed t(spans, "accel.run", id);
      hsvd::obs::ScopedPoolObservation observe(o.observer);
      run = acc->run(batch);
      x.run = t.stop() * 1e3;
    }
    {
      Timed t(spans, "facade.derive_v", id);
      if (single) {
        v[0] = hsvd::derive_v(batch[0], run.tasks[0].u, run.tasks[0].sigma,
                              o.threads);
      } else {
        hsvd::common::ThreadPool::shared().parallel_for(
            n, hsvd::common::ThreadPool::resolve_threads(o.threads),
            [&](std::size_t i) {
              v[i] = hsvd::derive_v(batch[i], run.tasks[i].u,
                                    run.tasks[i].sigma, 1);
            });
      }
      x.derive_v = t.stop() * 1e3;
    }
  }
  {
    Timed t(spans, "facade.svd", id);
    if (single) {
      x.results.push_back(hsvd::svd(batch[0], o));
    } else {
      x.results = hsvd::svd_batch(batch, o).results;
    }
    x.svd = t.stop() * 1e3;
  }
  const auto& st = run.stats;
  x.events = static_cast<double>(st.kernel_invocations + st.neighbour_transfers +
                                 st.dma_transfers + st.stream_packets);
  for (std::size_t i = 0; i < n; ++i) {
    x.max_sweeps = std::max(x.max_sweeps, run.tasks[i].iterations);
    const Svd& r = x.results[i];
    // An attested result that failed its check comes from a later rung of
    // the escalation ladder, which the re-execution does not repeat.
    if (r.verify_report.escalated()) continue;
    if (!same_bits(r.sigma, run.tasks[i].sigma) ||
        !same_bits(r.u, run.tasks[i].u) || !same_bits(r.v, v[i])) {
      rec.fail("traced re-execution differs from the facade's factors (op " +
               std::to_string(id) + ", task " + std::to_string(i) + ")");
    }
  }
  return x;
}

// Layer timings collected over the traced operations, in ms.
struct LayerTimes {
  std::map<std::string, std::vector<double>> ms;
  std::vector<double> ns_per_event;
  std::vector<double> reuse_ratio;
  void add(const std::string& name, double v) { ms[name].push_back(v); }
};

// One traced operation: the re-execution plus the calls that only the
// traced run makes (DSE alone, timing-only estimate, host block Jacobi).
Reexec traced_op(SpanRecorder& spans, std::int64_t id,
                 const std::vector<MatrixF>& batch, const SvdOptions& o,
                 Record& rec, LayerTimes& lt) {
  Timed op(spans, "op", id);
  Reexec x = reexec(spans, id, batch, o, rec);
  lt.add("facade.planned_config_ms", x.planned);
  lt.add("accel.build_ms", x.build);
  lt.add("accel.run_ms", x.run);
  lt.add("facade.derive_v_ms", x.derive_v);
  lt.add("facade.svd_ms", x.svd);
  lt.add("facade.unattributed_ms",
         x.svd - (x.planned + x.build + x.run + x.derive_v));
  if (x.events > 0) lt.ns_per_event.push_back(x.run * 1e6 / x.events);
  {
    // The DSE call planned_config() makes, on its own, for its time and
    // the explorer's placement accounting.
    hsvd::dse::DseRequest req;
    req.rows = batch.front().rows();
    req.cols = batch.front().cols();
    req.batch = static_cast<int>(batch.size());
    req.objective = batch.size() > 1 ? hsvd::dse::Objective::kThroughput
                                     : hsvd::dse::Objective::kLatency;
    req.device = o.device;
    req.threads = o.threads;
    req.observer = o.observer;
    hsvd::dse::DesignSpaceExplorer explorer;
    Timed t(spans, "dse.optimize", id);
    (void)explorer.optimize(req);
    lt.add("dse.optimize_ms", t.stop() * 1e3);
    const auto st = explorer.last_stats();
    const double total =
        static_cast<double>(st.placement_calls + st.placement_reuses);
    if (total > 0) lt.reuse_ratio.push_back(st.placement_reuses / total);
  }
  {
    // Timing plane alone: the same configuration and batch size, with
    // the run's sweep count as the fixed budget.
    auto cfg = x.cfg;
    cfg.precision.reset();
    cfg.iterations = std::max(1, x.max_sweeps);
    hsvd::accel::ShardedAccelerator est(cfg, o.shards);
    Timed t(spans, "accel.estimate", id);
    (void)est.estimate(static_cast<int>(batch.size()));
    const double ms = t.stop() * 1e3;
    lt.add("accel.estimate_ms", ms);
    lt.add("accel.data_plane_ms", x.run - ms);
  }
  {
    // Host fp32 block Jacobi on the first matrix, zero-padded to whole
    // P_eng blocks like the accelerator pads it (and to rows >= cols,
    // which the host engine needs; zero rows leave the spectrum alone).
    const MatrixF& a = batch.front();
    const std::size_t k = static_cast<std::size_t>(x.cfg.p_eng);
    const std::size_t cols = (a.cols() + k - 1) / k * k;
    MatrixF padded(std::max(a.rows(), cols), cols);
    for (std::size_t j = 0; j < a.cols(); ++j) {
      std::copy(a.col(j).begin(), a.col(j).end(), padded.col(j).begin());
    }
    hsvd::jacobi::BlockOptions bo;
    bo.block_cols = x.cfg.p_eng;
    bo.precision = o.precision;
    bo.accumulate_v = false;
    Timed t(spans, "jacobi.block_hestenes", id);
    (void)hsvd::jacobi::block_hestenes_svd(padded, bo);
    lt.add("jacobi.block_hestenes_ms", t.stop() * 1e3);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Timed t(spans, "verify.check", id);
    const std::string why = gate(batch[i], x.results[i], o.precision);
    lt.add("verify.check_ms", t.stop() * 1e3);
    if (!why.empty()) rec.fail("traced op: " + why);
  }
  return x;
}

void report_layer_times(Record& rec, const LayerTimes& lt) {
  for (const auto& [name, values] : lt.ms) rec.put(name, median(values), "ms");
  // The remainder is a difference of two separate executions, so its
  // spread over the traced operations says what it can resolve.
  const std::vector<double>& rest = lt.ms.at("facade.unattributed_ms");
  rec.put("facade.unattributed_iqr_ms",
          quantile(rest, 0.75) - quantile(rest, 0.25), "ms");
  rec.put("accel.host_ns_per_sim_event", median(lt.ns_per_event), "ns");
  rec.put("dse.placement_reuse_ratio", median(lt.reuse_ratio), "ratio");
}

// Scenario front-ends, QR and the router on given inputs, in ms.
void front_end_probes(SpanRecorder& spans, std::int64_t id,
                      const std::vector<const MatrixF*>& tall,
                      const std::vector<const MatrixF*>& topk,
                      const std::vector<const MatrixF*>& routed,
                      const SvdOptions& o, Record& rec, LayerTimes& lt) {
  for (const MatrixF* a : tall) {
    {
      Timed t(spans, "scenarios.tall_skinny", id);
      const Svd r = hsvd::scenarios::svd_tall_skinny(*a, o);
      lt.add("scenarios.tall_skinny_ms", t.stop() * 1e3);
      const std::string why = gate(*a, r, o.precision);
      if (!why.empty()) rec.fail("tall-skinny probe: " + why);
    }
    Timed t(spans, "linalg.qr", id);
    (void)hsvd::linalg::householder_qr(a->cast<double>());
    lt.add("linalg.qr_ms", t.stop() * 1e3);
  }
  for (const MatrixF* a : topk) {
    SvdOptions q = o;
    q.top_k = 8;
    Timed t(spans, "scenarios.truncated", id);
    const Svd r = hsvd::scenarios::svd_truncated(*a, q);
    lt.add("scenarios.truncated_ms", t.stop() * 1e3);
    const std::string why = gate(*a, r, o.precision);
    if (!why.empty()) rec.fail("truncated probe: " + why);
  }
  for (const MatrixF* a : routed) {
    SvdOptions q = o;
    q.backend = "auto";
    Timed t(spans, "backend.route", id);
    (void)hsvd::backend::Router::shared().route(a->rows(), a->cols(),
                                                hsvd::backend::Slo{}, q);
    lt.add("backend.route_ms", t.stop() * 1e3);
  }
}

// Host time of the workload's unit at one thread against its own thread
// count (the batch engine's pool gain), over the given inputs.
void pool_speedup(Record& rec, const std::vector<std::vector<MatrixF>>& units,
                  const SvdOptions& o) {
  std::vector<double> ratio;
  for (const auto& unit : units) {
    double t[2] = {0, 0};
    for (int k = 0; k < 2; ++k) {
      SvdOptions q = o;
      q.threads = k == 0 ? 1 : o.threads;
      const double start = now_s();
      if (unit.size() == 1) (void)hsvd::svd(unit[0], q);
      else (void)hsvd::svd_batch(unit, q);
      t[k] = now_s() - start;
    }
    ratio.push_back(t[0] / t[1]);
  }
  rec.put("common.pool_speedup", median(ratio), "ratio");
}

// A fixed dense-128 slice with and without a metrics-only observer.
void observer_overhead(Record& rec, std::uint64_t seed) {
  hsvd::Rng rng(seed ^ 0x0b5e7e7ULL);
  const MatrixF a = gaussian(128, 128, rng);
  SvdOptions o;
  o.threads = 1;
  std::vector<double> off, on;
  for (int rep = 0; rep < 3; ++rep) {
    for (int k = 0; k < 2; ++k) {
      hsvd::obs::ObsContext obs;
      SvdOptions q = o;
      q.observer = k == 1 ? &obs : nullptr;
      const double start = now_s();
      (void)hsvd::svd(a, q);
      (k == 1 ? on : off).push_back(now_s() - start);
    }
  }
  rec.put("obs.metrics_overhead_pct", (median(on) / median(off) - 1.0) * 100.0,
          "%");
}

// Repeated medians of the kernels BENCH_micro.json tracks (best-of-3
// there): dot3 and apply_rotation at n = 512, Hestenes sweeps/s.
void micro_kernels(Record& rec, std::uint64_t seed) {
  hsvd::Rng rng(seed ^ 0x51adULL);
  const MatrixF xm = gaussian(512, 1, rng);
  const MatrixF ym = gaussian(512, 1, rng);
  MatrixF xw = xm;
  MatrixF yw = ym;
  volatile float sink = 0.0f;
  // Mean ns per call over a loop of >= 5 ms, repeated `reps` times.
  const auto timed = [](int reps, auto&& fn) {
    std::vector<double> out;
    std::size_t iters = 16;
    for (int r = 0; r < reps;) {
      const double start = now_s();
      for (std::size_t i = 0; i < iters; ++i) fn();
      const double elapsed = now_s() - start;
      if (elapsed < 0.005) { iters *= 4; continue; }
      out.push_back(elapsed * 1e9 / static_cast<double>(iters));
      ++r;
    }
    return out;
  };
  const auto dot3 = timed(9, [&] {
    const auto g = hsvd::linalg::dot3(xm.col(0), ym.col(0));
    sink = sink + g.aii + g.ajj + g.aij;
  });
  const auto rot = timed(9, [&] {
    hsvd::linalg::apply_rotation(xw.col(0), yw.col(0), 0.8f, 0.6f);
    sink = sink + xw.col(0)[0];
  });
  const MatrixF a = gaussian(128, 64, rng);
  hsvd::jacobi::HestenesOptions ho;
  ho.fixed_sweeps = 4;
  ho.accumulate_v = false;
  const auto hest = timed(5, [&] {
    sink = sink + hsvd::jacobi::hestenes_svd(a, ho).sigma[0];
  });
  std::vector<double> rate;
  for (double ns : hest) rate.push_back(4.0 / (ns * 1e-9));
  rec.put("common.simd_dot3_ns", median(dot3), "ns");
  rec.put("common.simd_dot3_iqr_pct", iqr_pct(dot3), "%");
  rec.put("common.simd_apply_rotation_ns", median(rot), "ns");
  rec.put("common.simd_apply_rotation_iqr_pct", iqr_pct(rot), "%");
  rec.put("jacobi.hestenes_sweeps_per_s", median(rate), "1/s");
  rec.put("jacobi.hestenes_iqr_pct", iqr_pct(rate), "%");
}

// ---------------------------------------------------------------------
// Serving

constexpr double kPrecision = 1e-6;  // SvdOptions' default, used by serving

// Sampled attestation picks requests by a digest of the matrix and this
// policy seed. It is fixed, so the accuracy set, which the same options
// decompose, gets the same treatment in every run.
serve::ServerOptions server_options(hsvd::obs::ObsContext* obs, int threads) {
  serve::ServerOptions so;
  so.workers = 2;
  so.queue_capacity = 256;
  so.svd.threads = threads;
  so.svd.observer = obs;
  so.svd.verify.mode = hsvd::verify::VerifyMode::kSample;
  so.svd.verify.sample_rate = 0.25;
  so.svd.verify.seed = 0x5e1ec7ULL;
  so.observer = obs;
  for (const auto& [name, weight] :
       {std::pair<const char*, double>{"alpha", 2.0}, {"beta", 1.0}}) {
    serve::TenantConfig t;
    t.name = name;
    t.weight = weight;
    t.quota_rate = 1e6;  // quotas never bind: sheds would be failures
    t.quota_burst = 1e6;
    so.qos.tenants.push_back(t);
  }
  so.qos.coalesce_max_batch = 4;
  so.qos.cache_enabled = true;
  so.qos.cache_capacity = 256;
  return so;
}

struct Served {
  std::vector<serve::Response> responses;
  std::vector<double> due_s, submit_s;
  std::vector<double> steal_s;  // VM steal read at each submit, then at the end
  double end_s = 0.0;
  serve::ServerStats before, after;

  // VM steal between two times of the schedule, interpolated between
  // the readings.
  double steal_between(double t0, double t1) const {
    const auto at_time = [&](double t) {
      const std::size_t n = submit_s.size();
      if (t <= submit_s.front()) return steal_s.front();
      if (t >= end_s) return steal_s.back();
      const std::size_t k = static_cast<std::size_t>(
          std::upper_bound(submit_s.begin(), submit_s.end(), t) - submit_s.begin());
      const double x0 = submit_s[k - 1];
      const double x1 = k < n ? submit_s[k] : end_s;
      return steal_s[k - 1] +
             (steal_s[k] - steal_s[k - 1]) * (t - x0) / std::max(x1 - x0, 1e-9);
    };
    return at_time(t1) - at_time(t0);
  }
};

// Submits request i at due[i] (seconds from now) from one generator
// thread and collects every response. While the generator runs, this
// thread ticks `ref` (if given) four times a second.
Served submit_on_schedule(serve::SvdServer& server,
                          std::vector<serve::Request> requests,
                          const std::vector<double>& due_offset,
                          HostReference* ref = nullptr) {
  Served out;
  const std::size_t n = requests.size();
  out.due_s.resize(n);
  out.submit_s.resize(n);
  out.steal_s.resize(n + 1);
  std::vector<std::future<serve::Response>> futures(n);
  out.before = server.stats();
  const double start = now_s() + 0.002;
  std::string error;
  std::atomic<bool> submitted{false};
  std::thread generator([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        out.due_s[i] = start + due_offset[i];
        std::this_thread::sleep_until(at(out.due_s[i]));
        out.steal_s[i] = vm_steal_s();
        out.submit_s[i] = now_s();
        futures[i] = server.submit(std::move(requests[i]));
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
    submitted = true;
  });
  while (ref != nullptr && !submitted) {
    ref->tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  generator.join();
  if (!error.empty()) throw std::runtime_error("generator: " + error);
  for (auto& f : futures) out.responses.push_back(f.get());
  out.steal_s[n] = vm_steal_s();
  out.end_s = now_s();
  out.after = server.stats();
  return out;
}

bool served_ok(const serve::Response& r) {
  return r.status == serve::ServeStatus::kOk ||
         r.status == serve::ServeStatus::kNotConverged;
}

// serve.* metrics of one schedule, from Response and ServerStats.
void report_serve_layer(Record& rec, const Served& s) {
  std::vector<double> queue, service;
  std::size_t hits = 0, done = 0;
  for (std::size_t i = 0; i < s.responses.size(); ++i) {
    const auto& r = s.responses[i];
    queue.push_back(r.queue_seconds * 1e3);
    service.push_back(r.service_seconds * 1e3);
    if (served_ok(r)) {
      ++done;
      if (r.cache_hit) ++hits;
    }
  }
  const auto d = [&](auto field) {
    return static_cast<double>(s.after.*field - s.before.*field);
  };
  const double dispatches = d(&serve::ServerStats::batch_dispatches);
  rec.put("serve.queue_ms_p50", quantile(queue, 0.5), "ms");
  rec.put("serve.queue_ms_p90", quantile(queue, 0.9), "ms");
  rec.put("serve.service_ms_p50", quantile(service, 0.5), "ms");
  rec.put("serve.service_ms_p90", quantile(service, 0.9), "ms");
  rec.put("serve.cache_hit_ratio", done > 0 ? double(hits) / done : 0.0,
          "ratio");
  rec.put("serve.batch_fill",
          dispatches > 0 ? d(&serve::ServerStats::batch_tasks) / dispatches : 0.0,
          "tasks");
  const double submitted = d(&serve::ServerStats::submitted);
  rec.put("serve.shed_ratio",
          submitted > 0 ? d(&serve::ServerStats::shed) / submitted : 0.0,
          "ratio");
  rec.put("serve.peak_queue_depth",
          static_cast<double>(s.after.peak_queue_depth), "count");
}

// The serve layer on a closed-loop workload's own inputs: all of them
// submitted at once to a server configured as in serve-mixed.
void serve_burst(Record& rec, const std::vector<MatrixF>& items, int threads) {
  hsvd::obs::ObsContext obs;
  serve::SvdServer server(server_options(&obs, threads));
  std::vector<serve::Request> requests;
  for (std::size_t i = 0; i < items.size(); ++i) {
    serve::Request r;
    r.matrix = items[i];
    r.tenant = i % 3 == 2 ? "beta" : "alpha";
    requests.push_back(std::move(r));
  }
  const Served s = submit_on_schedule(server, std::move(requests),
                                      std::vector<double>(items.size(), 0.0));
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto& r = s.responses[i];
    const std::string why = served_ok(r) ? gate(items[i], r.result, kPrecision)
                                         : std::string(serve::to_string(r.status));
    if (!why.empty()) rec.fail("serve probe: " + why);
  }
  report_serve_layer(rec, s);
  server.shutdown();
}

// ---------------------------------------------------------------------
// Workloads

struct Context {
  Args args;
  Record rec;
  SpanRecorder spans;
  HostReference ref;  // ticked during the untraced timed phase
  int threads(int workload_default) const {
    return args.threads > 0 ? args.threads : workload_default;
  }
  // Untraced measuring time; a traced run splits --seconds between an
  // untraced and a traced phase so it can report the tracing overhead.
  double untraced_seconds() const {
    return args.trace ? args.seconds / 2 : args.seconds;
  }
};

// Per-layer metrics shared by the two closed-loop workloads.
void closed_loop_layers(Context& ctx, const ClosedLoop& untraced,
                        const std::vector<std::vector<MatrixF>>& units,
                        const SvdOptions& o) {
  ctx.spans.enable();
  LayerTimes lt;
  std::vector<double> traced_ms;
  const double start = now_s();
  for (std::size_t i = 0; i < 2 || now_s() - start < ctx.args.seconds / 2; ++i) {
    const Reexec x = traced_op(ctx.spans, static_cast<std::int64_t>(i),
                               units[i % units.size()], o, ctx.rec, lt);
    ctx.rec.attempted += static_cast<std::int64_t>(x.results.size());
    traced_ms.push_back(x.svd);
  }
  const MatrixF& a = units.front().front();
  front_end_probes(ctx.spans, -1, {&a}, {&a}, {&a}, o, ctx.rec, lt);
  report_layer_times(ctx.rec, lt);
  ctx.rec.put("harness.trace_overhead_pct",
              (median(traced_ms) / (median(untraced.latency_s) * 1e3) - 1.0) *
                  100.0,
              "%");
  // A batch is its own unit of pool work; single matrices come in pairs.
  const bool batched = units[0].size() > 1;
  if (batched) pool_speedup(ctx.rec, {units[0]}, o);
  else pool_speedup(ctx.rec, {units[0], units[1]}, o);
  std::vector<MatrixF> burst = units[0];
  for (std::size_t i = 1; !batched && i < 4; ++i) burst.push_back(units[i][0]);
  serve_burst(ctx.rec, burst, o.threads);
}

void finish_common(Context& ctx) {
  ctx.ref.report(ctx.rec);
  ctx.rec.put("accel.not_converged_ratio",
              ctx.rec.returned > 0 ? double(ctx.rec.not_converged) /
                                         double(ctx.rec.returned)
                                   : 0.0,
              "ratio");
  if (ctx.args.trace) {
    observer_overhead(ctx.rec, ctx.args.seed);
    micro_kernels(ctx.rec, ctx.args.seed);
    ctx.rec.put("harness.error_rate",
                ctx.rec.attempted > 0
                    ? double(ctx.rec.failed) / double(ctx.rec.attempted)
                    : 0.0,
                "ratio");
  }
}

// dense-128: one client, hsvd::svd() back to back on distinct 128x128
// Gaussian inputs with default options at one host thread.
void dense_128(Context& ctx) {
  constexpr int kPool = 128;
  constexpr int kSample = 40;
  hsvd::Rng rng(ctx.args.seed);
  std::vector<MatrixF> pool;
  for (int i = 0; i < kPool; ++i) pool.push_back(gaussian(128, 128, rng));
  SvdOptions o;
  o.threads = ctx.threads(1);
  warm_singletons();
  announce_ready();
  if (ctx.args.setup_only) return;

  std::vector<Sample> sample;
  const ClosedLoop loop =
      run_closed(ctx.untraced_seconds(), kSample, ctx.ref, [&](int i) {
        const MatrixF& a = pool[i % kPool];
        OpTime t;
        Svd r;
        std::string why;
        t.begin();
        try {
          r = hsvd::svd(a, o);
        } catch (const std::exception& e) {
          why = e.what();
        }
        t.end();
        if (why.empty()) {
          ctx.rec.count_status(r);
          why = gate(a, r, o.precision);
        }
        ++ctx.rec.attempted;
        if (why.empty()) t.tasks = 1;
        else ctx.rec.fail("svd: " + why);
        if (i < kSample) sample.push_back({&a, std::move(r)});
        return t;
      });
  ctx.rec.put_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report_closed(ctx.rec, loop);
  report_sample(ctx.rec, sample, o.precision, -1.0);
  const std::vector<MatrixF> acc_in = accuracy_inputs({128}, 8);
  std::vector<Sample> acc;
  for (const MatrixF& a : acc_in) acc.push_back({&a, hsvd::svd(a, o)});
  report_accuracy(ctx.rec, acc, o.precision);
  accel_probe(ctx.rec, {pool[0]}, o);
  if (ctx.args.trace) {
    std::vector<std::vector<MatrixF>> units;
    for (int i = 0; i < kPool; ++i) units.push_back({pool[i]});
    closed_loop_layers(ctx, loop, units, o);
  }
  finish_common(ctx);
}

// batch-64x16: one client, hsvd::svd_batch() back to back on batches of
// 16 distinct 64x64 Gaussian matrices, want_v, two host threads.
void batch_64x16(Context& ctx) {
  constexpr int kBatches = 8;
  constexpr int kSampleBatches = 4;
  hsvd::Rng rng(ctx.args.seed);
  std::vector<std::vector<MatrixF>> batches(kBatches);
  for (auto& b : batches) {
    for (int i = 0; i < 16; ++i) b.push_back(gaussian(64, 64, rng));
  }
  SvdOptions o;
  o.threads = ctx.threads(2);
  warm_singletons();
  announce_ready();
  if (ctx.args.setup_only) return;

  std::vector<Sample> sample;
  std::vector<double> sim_throughput;
  const ClosedLoop loop =
      run_closed(ctx.untraced_seconds(), kSampleBatches, ctx.ref, [&](int i) {
        const auto& batch = batches[i % kBatches];
        OpTime t;
        BatchSvd r;
        std::string why;
        t.begin();
        try {
          r = hsvd::svd_batch(batch, o);
        } catch (const std::exception& e) {
          why = e.what();
        }
        t.end();
        ctx.rec.attempted += static_cast<std::int64_t>(batch.size());
        if (!why.empty()) {
          ctx.rec.fail("svd_batch: " + why);
          ctx.rec.failed += static_cast<std::int64_t>(batch.size()) - 1;
          return t;
        }
        for (std::size_t k = 0; k < batch.size(); ++k) {
          ctx.rec.count_status(r.results[k]);
          const std::string bad = gate(batch[k], r.results[k], o.precision);
          if (bad.empty()) ++t.tasks;
          else ctx.rec.fail("svd_batch task: " + bad);
        }
        if (i < kSampleBatches) {
          sim_throughput.push_back(r.throughput_tasks_per_s);
          for (std::size_t k = 0; k < batch.size(); ++k) {
            sample.push_back({&batch[k], std::move(r.results[k])});
          }
        }
        return t;
      });
  ctx.rec.put_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  report_closed(ctx.rec, loop);
  report_sample(ctx.rec, sample, o.precision, mean(sim_throughput));
  const std::vector<MatrixF> acc_in = accuracy_inputs({64}, 32);
  std::vector<Sample> acc;
  for (std::size_t b = 0; b < acc_in.size(); b += 16) {
    BatchSvd r = hsvd::svd_batch({acc_in.begin() + b, acc_in.begin() + b + 16}, o);
    for (std::size_t k = 0; k < 16; ++k) {
      acc.push_back({&acc_in[b + k], std::move(r.results[k])});
    }
  }
  report_accuracy(ctx.rec, acc, o.precision);
  accel_probe(ctx.rec, batches[0], o);
  if (ctx.args.trace) closed_loop_layers(ctx, loop, batches, o);
  finish_common(ctx);
}

// serve-mixed request mix.
enum class Kind { kDense, kRepeat, kTall, kTopK, kAuto };

struct Planned {
  Kind kind = Kind::kDense;
  std::size_t payload = 0;
  std::string tenant;
};

struct Mix {
  std::vector<MatrixF> payloads;
  std::vector<Planned> requests;
};

constexpr std::size_t kDeck = 60;

// The mix comes in shuffled decks of 60 requests with exact shares, so
// every run sees the same composition and the seed decides only the
// payloads and the order: 33 small dense squares (11 each of n = 16, 32,
// 48), 9 repeats of an earlier dense payload (cache hits), 6 tall-skinny
// 256x32 (scenario auto runs the QR front end), 6 top-8 queries on
// 128x64, and 6 small squares routed with backend "auto".
Mix make_mix(std::uint64_t seed, std::size_t count) {
  hsvd::Rng rng(seed);
  std::vector<std::pair<Kind, std::size_t>> deck;
  for (std::size_t n : {16, 32, 48}) {
    deck.insert(deck.end(), 11, {Kind::kDense, n});
    deck.insert(deck.end(), 2, {Kind::kAuto, n});
  }
  deck.insert(deck.end(), 9, {Kind::kRepeat, 0});
  deck.insert(deck.end(), 6, {Kind::kTall, 0});
  deck.insert(deck.end(), 6, {Kind::kTopK, 0});
  HSVD_ASSERT(deck.size() == kDeck, "deck shares must add up to kDeck");
  Mix mix;
  std::vector<std::size_t> dense;
  for (std::size_t i = 0; i < count; ++i) {
    if (i % deck.size() == 0) {
      for (std::size_t j = deck.size() - 1; j > 0; --j) {
        std::swap(deck[j], deck[rng.below(j + 1)]);
      }
    }
    auto [kind, n] = deck[i % deck.size()];
    Planned p;
    p.kind = kind;
    p.tenant = rng.below(3) == 0 ? "beta" : "alpha";
    if (kind == Kind::kRepeat) {
      if (!dense.empty()) {
        p.payload = dense[rng.below(dense.size())];
        mix.requests.push_back(p);
        continue;
      }
      p.kind = Kind::kDense;  // nothing to repeat yet
      n = 32;
    }
    p.payload = mix.payloads.size();
    if (p.kind == Kind::kTall) {
      mix.payloads.push_back(gaussian(256, 32, rng));
    } else if (p.kind == Kind::kTopK) {
      mix.payloads.push_back(gaussian(128, 64, rng));
    } else {
      mix.payloads.push_back(gaussian(n, n, rng));
      if (p.kind == Kind::kDense) dense.push_back(p.payload);
    }
    mix.requests.push_back(p);
  }
  return mix;
}

// One request of every kind and size. The same for every seed, so set-up
// does the same work in every run.
Mix make_warm_up() {
  hsvd::Rng rng(0x3a7e5eedULL);
  Mix mix;
  const auto add = [&](Kind kind, std::size_t rows, std::size_t cols) {
    mix.requests.push_back({kind, mix.payloads.size(), "alpha"});
    mix.payloads.push_back(gaussian(rows, cols, rng));
  };
  for (std::size_t n : {16, 32, 48}) {
    add(Kind::kDense, n, n);
    add(Kind::kAuto, n, n);
  }
  add(Kind::kTall, 256, 32);
  add(Kind::kTopK, 128, 64);
  return mix;
}

serve::Request to_request(const Mix& mix, const Planned& p) {
  serve::Request r;
  r.matrix = mix.payloads[p.payload];
  r.tenant = p.tenant;
  if (p.kind == Kind::kTopK) r.top_k = 8;
  if (p.kind == Kind::kAuto) r.backend = "auto";
  return r;
}

// Arrival rate of serve-mixed, fixed: about 40% of the 25-34 requests/s
// this mix reached on a 4-core 2.1 GHz x86 VM with all of it offered at
// once (see WORKLOADS.md). Fixed so that a faster server shows as lower
// latency at the same load, not as a different load.
constexpr double kServeRate = 10.0;  // requests per second

// The mix's requests [first, first + count) on the fixed schedule.
Served run_schedule(serve::SvdServer& server, const Mix& mix,
                    std::size_t first, std::size_t count, double rate,
                    HostReference* ref = nullptr) {
  std::vector<serve::Request> requests;
  std::vector<double> due;
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(to_request(mix, mix.requests[first + i]));
    due.push_back(static_cast<double>(i) / rate);
  }
  return submit_on_schedule(server, std::move(requests), due, ref);
}

// Gates every response of a schedule; returns per-request latency from
// when it was due (failures count as missing every latency limit) and
// the time the last one completed.
std::vector<double> gate_served(Context& ctx, const Mix& mix,
                                std::size_t first, const Served& s,
                                std::int64_t* ok, double* last_done) {
  std::vector<double> latency;
  for (std::size_t i = 0; i < s.responses.size(); ++i) {
    const auto& r = s.responses[i];
    const MatrixF& a = mix.payloads[mix.requests[first + i].payload];
    const double done = s.submit_s[i] + r.queue_seconds + r.service_seconds;
    *last_done = std::max(*last_done, done);
    ++ctx.rec.attempted;
    if (served_ok(r)) ctx.rec.count_status(r.result);
    const std::string why = served_ok(r) ? gate(a, r.result, kPrecision)
                                         : std::string(serve::to_string(r.status)) +
                                               " " + r.message;
    if (why.empty()) {
      ++*ok;
      latency.push_back(done - s.due_s[i]);
    } else {
      ctx.rec.fail("request " + std::to_string(first + i) + ": " + why);
      latency.push_back(INFINITY);
    }
  }
  return latency;
}

// The latencies that count toward the host-time figures: failures always,
// others unless steal disturbed them (the closed loops' rule, applied to
// each request's window from due to done).
std::vector<double> counted_latency(const std::vector<double>& latency,
                                    const Served& s, Record& rec) {
  std::vector<double> share;
  for (std::size_t i = 0; i < latency.size(); ++i) {
    const double window = std::isfinite(latency[i]) ? latency[i] : 0.0;
    share.push_back(s.steal_between(s.due_s[i], s.due_s[i] + window) /
                    std::max(window, 1e-9));
  }
  const std::vector<bool> keep = kept_by_steal(share);
  std::vector<double> out;
  int disturbed = 0;
  for (std::size_t i = 0; i < latency.size(); ++i) {
    if (keep[i] || !std::isfinite(latency[i])) out.push_back(latency[i]);
    else ++disturbed;
  }
  rec.put("harness.disturbed_ops", disturbed, "count");
  rec.put("harness.steal_pct",
          (s.steal_s.back() - s.steal_s.front()) /
              (s.end_s - s.submit_s.front()) * 100.0,
          "%");
  return out;
}

void serve_mixed(Context& ctx) {
  const int threads = ctx.threads(1);
  const double rate = kServeRate;
  // At least one deck per phase, so the fixed sample is always complete.
  const auto requests = [&](double seconds) {
    return std::max<std::size_t>(
        kDeck, static_cast<std::size_t>(std::floor(seconds * rate)));
  };
  const std::size_t untraced = requests(ctx.untraced_seconds());
  const std::size_t traced = ctx.args.trace ? requests(ctx.args.seconds / 2) : 0;
  const Mix mix = make_mix(ctx.args.seed, untraced + traced);
  const Mix warm_mix = make_warm_up();
  hsvd::obs::ObsContext obs;
  const auto so = server_options(&obs, threads);
  warm_singletons();
  serve::SvdServer server(so);
  {
    // First requests of each kind pay the router's scoring and the
    // coalescer's per-shape DSE; users pay those once per server.
    (void)run_schedule(server, warm_mix, 0, warm_mix.requests.size(), 1e9);
  }
  announce_ready();
  if (ctx.args.setup_only) return;

  std::int64_t ok = 0;
  double last_done = 0.0;
  const Served phase = run_schedule(server, mix, 0, untraced, rate, &ctx.ref);
  const std::vector<double> latency =
      counted_latency(gate_served(ctx, mix, 0, phase, &ok, &last_done), phase,
                      ctx.rec);
  ctx.rec.put_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  ctx.rec.put_e2e("throughput_ops_s",
                  static_cast<double>(ok) / (last_done - phase.due_s.front()),
                  "1/s");
  ctx.rec.put_e2e("latency_p50_ms", quantile(latency, 0.5) * 1e3, "ms");
  ctx.rec.put_e2e("latency_p90_ms", quantile(latency, 0.9) * 1e3, "ms");
  ctx.rec.put("harness.ops", static_cast<double>(untraced), "count");

  // Fixed sample: the first ten dense requests of each size, re-run solo
  // with the server's options. The served factors must match them bit
  // for bit (coalescing and the cache promise identical results).
  std::vector<Sample> sample;
  std::map<std::size_t, int> per_size;
  const MatrixF* probe_input = nullptr;
  for (std::size_t i = 0; i < untraced; ++i) {
    const Planned& p = mix.requests[i];
    const MatrixF& a = mix.payloads[p.payload];
    if (p.kind != Kind::kDense || per_size[a.cols()] >= 10) continue;
    ++per_size[a.cols()];
    Svd solo = hsvd::svd(a, so.svd);
    const auto& served = phase.responses[i];
    if (served_ok(served) && (!same_bits(served.result.sigma, solo.sigma) ||
                              !same_bits(served.result.u, solo.u))) {
      ctx.rec.fail("served factors differ from a solo run (request " +
                   std::to_string(i) + ")");
    }
    if (probe_input == nullptr && a.cols() == 32) probe_input = &a;
    sample.push_back({&a, std::move(solo)});
  }
  report_sample(ctx.rec, sample, kPrecision, -1.0);
  const std::vector<MatrixF> acc_in = accuracy_inputs({16, 32, 48}, 8);
  std::vector<Sample> acc;
  for (const MatrixF& a : acc_in) acc.push_back({&a, hsvd::svd(a, so.svd)});
  report_accuracy(ctx.rec, acc, kPrecision);
  if (probe_input == nullptr) probe_input = sample.front().a;
  accel_probe(ctx.rec, {*probe_input}, so.svd);

  if (ctx.args.trace) {
    ctx.spans.enable();
    std::int64_t traced_ok = 0;
    double traced_last = 0.0;
    const Served tp = run_schedule(server, mix, untraced, traced, rate);
    Record scratch;  // the traced phase's steal figures are not reported
    const std::vector<double> traced_latency = counted_latency(
        gate_served(ctx, mix, untraced, tp, &traced_ok, &traced_last), tp,
        scratch);
    for (std::size_t i = 0; i < tp.responses.size(); ++i) {
      const auto& r = tp.responses[i];
      const auto id = static_cast<std::int64_t>(untraced + i);
      const double admitted = tp.submit_s[i];
      const double started = admitted + r.queue_seconds;
      const double done = started + r.service_seconds;
      const int root = ctx.spans.add("serve.request", tp.due_s[i], done, -1, id);
      ctx.spans.add("harness.gen_lag", tp.due_s[i], admitted, root, id);
      ctx.spans.add("serve.queue", admitted, started, root, id);
      ctx.spans.add("serve.service", started, done, root, id);
    }
    report_serve_layer(ctx.rec, tp);
    std::vector<double> lag;
    for (std::size_t i = 0; i < traced; ++i) {
      lag.push_back((tp.submit_s[i] - tp.due_s[i]) * 1e3);
    }
    ctx.rec.put("harness.gen_lag_p90_ms", quantile(lag, 0.9), "ms");
    ctx.rec.put("harness.trace_overhead_pct",
                (median(traced_latency) / median(latency) - 1.0) * 100.0, "%");

    // Layer calls on the traced phase's own payloads.
    LayerTimes lt;
    std::vector<const MatrixF*> tall, topk, routed;
    std::vector<std::vector<MatrixF>> dense_units;
    for (std::size_t i = untraced; i < untraced + traced; ++i) {
      const Planned& p = mix.requests[i];
      const MatrixF* a = &mix.payloads[p.payload];
      if (p.kind == Kind::kDense && dense_units.size() < 6) {
        dense_units.push_back({*a});
        const auto id = static_cast<std::int64_t>(i);
        (void)traced_op(ctx.spans, id, dense_units.back(), so.svd, ctx.rec, lt);
        ctx.rec.attempted += 1;
      }
      if (p.kind == Kind::kTall && tall.size() < 3) tall.push_back(a);
      if (p.kind == Kind::kTopK && topk.size() < 3) topk.push_back(a);
      if (p.kind == Kind::kAuto && routed.size() < 3) routed.push_back(a);
    }
    front_end_probes(ctx.spans, -1, tall, topk, routed, so.svd, ctx.rec, lt);
    report_layer_times(ctx.rec, lt);
    pool_speedup(ctx.rec, {dense_units.front()}, so.svd);
  }
  server.shutdown();
  finish_common(ctx);
}

// Run environment; a run with a thread or pipeline override in the
// environment, or from an unoptimised build, is not comparable.
bool record_env(Context& ctx) {
  auto& env = ctx.rec.env;
  env["nproc"] = std::to_string(hsvd::common::ThreadPool::hardware_threads());
  env["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef __OPTIMIZE__
  const bool optimised = true;
#else
  const bool optimised = false;
#endif
  env["optimised"] = optimised ? "yes" : "no";
  env["simd_kind"] = hsvd::simd::active().name;
  env["seed"] = std::to_string(ctx.args.seed);
  env["workload"] = ctx.args.workload;
  env["threads"] = ctx.args.threads > 0 ? std::to_string(ctx.args.threads)
                                        : "workload default";
  std::string rejected;
  for (const char* knob : {"HSVD_THREADS", "HSVD_PIPELINE", "HSVD_SIMD",
                           "HSVD_FORCE_SCALAR"}) {
    const char* value = std::getenv(knob);
    env[knob] = value != nullptr ? value : "";
    if (value != nullptr && (std::strcmp(knob, "HSVD_THREADS") == 0 ||
                             std::strcmp(knob, "HSVD_PIPELINE") == 0)) {
      rejected += std::string(knob) + " is set; ";
    }
  }
  if (!optimised) rejected += "the build is not optimised; ";
  if (!rejected.empty()) {
    std::fprintf(stderr, "hsvd_perfbench: run rejected: %s\n", rejected.c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  (void)now_s();  // pin the time origin
  Context ctx;
  ctx.args = parse_args(argc, argv);
  if (!record_env(ctx)) return 2;
  try {
    if (ctx.args.workload == "dense-128") dense_128(ctx);
    else if (ctx.args.workload == "batch-64x16") batch_64x16(ctx);
    else serve_mixed(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hsvd_perfbench: %s\n", e.what());
    return 1;
  }
  if (ctx.args.setup_only) return 0;
  if (!ctx.args.spans_path.empty() && ctx.spans.enabled() &&
      !ctx.spans.write(ctx.args.spans_path)) {
    std::fprintf(stderr, "hsvd_perfbench: cannot write %s\n",
                 ctx.args.spans_path.c_str());
    return 1;
  }
  for (const auto& why : ctx.rec.failures) {
    std::fprintf(stderr, "hsvd_perfbench: FAILED %s\n", why.c_str());
  }
  std::printf("%s\n", ctx.rec.json().c_str());
  return ctx.rec.failed == 0 ? 0 : 1;
}
