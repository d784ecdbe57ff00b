// hsvd -- command-line front end for the HeteroSVD library.
//
//   hsvd gen <rows> <cols> <out.{mtx|bin}> [condition]
//       Generate a random test matrix (optionally with a geometric
//       spectrum of the given condition number).
//   hsvd svd [--scenario auto|off|tall-skinny|truncated] [--top-k K]
//            <in.{mtx|bin}> [out_prefix]
//       Decompose a matrix on the simulated accelerator; writes
//       <prefix>_u.mtx, <prefix>_sigma.txt, <prefix>_v.mtx.
//       --scenario selects the workload front-end (DESIGN.md section
//       16): "auto" (default) engages the Householder-QR pre-reduction
//       above the aspect-ratio threshold and the randomized sketch
//       when --top-k asks for one; "off" forces the classic dense
//       path. A truncated run prints the a-posteriori error bound.
//   hsvd update [--out prefix] <in.{mtx|bin}> <u1> <v1> [<u2> <v2> ...]
//       Decompose, then stream rank-1 updates A <- A + u v^T through
//       the Brand core; each (u, v) pair is an m x 1 / n x 1 matrix
//       file. Drift is verifier-checked and a broken bound triggers a
//       full re-decomposition (counted in the summary line). Writes
//       the final factors like `hsvd svd`.
//   hsvd batch [--verify off|sample:p|always] <in1> [in2 ...]
//       Decompose same-shape matrices as one batch and print a
//       per-task status table plus a per-status summary. --verify
//       turns on result attestation: the table gains per-task verify
//       columns (pass/escape, relative residual, escalation rung) and
//       the command exits nonzero when any task escapes unverified
//       under --verify always. Exits nonzero when any task ends
//       SvdStatus::kFailed.
//   hsvd dse <n> [batch] [latency|throughput]
//       Run the design space exploration and print the best points.
//   hsvd estimate <n> <p_eng> <p_task> [freq_mhz] [iterations]
//       Simulated latency + analytic model for one configuration.
//   hsvd serve [--tenant SPEC]... [--priority P] [--cache N]
//              [--coalesce N] [--coalesce-window-ms W] [--workers N]
//              [--deadline-ms D] [--backend SPEC]
//              [--verify off|sample:p|always]
//              [--scenario NAME] [--top-k K] <in1> [in2 ...]
//       Push the matrices through an in-process serving instance with
//       the multi-tenant QoS layer: requests are assigned to the
//       --tenant tenants round-robin (SPEC is
//       name[:weight[:rate[:burst]]]); without --tenant every request
//       goes to one "default" tenant with an unlimited quota, so none
//       is shed by quota. Requests are coalesced into shape-bucketed
//       micro-batches, and answered from the digest-keyed result cache
//       when --cache is on. --backend routes every request through the
//       backend router ("auto", "auto:latency:0.005", or a pin like
//       "cpu"). --verify turns on result attestation with per-request
//       verify columns; under "always" the command exits nonzero when
//       any request escapes unverified. --scenario/--top-k tag every
//       request with workload-scenario intent: tagged requests
//       dispatch solo (never coalesced) and the result cache keys by
//       scenario + top_k. Prints a per-request and a per-tenant table;
//       exits nonzero when any request ends kFailed.
//   hsvd route [--sweep n1,n2,...] [--slo latency|throughput|energy]
//              [--batch B] [--csv route_table.csv]
//       Score every registered backend for each (square) shape under
//       each SLO and print the route table the cost-model router
//       dispatches from. The default sweep (64..4096) reproduces the
//       paper's crossover: the AIE array wins small-n latency, the GPU
//       W-cycle model wins large-n throughput, and shapes too large to
//       place fall through to the host/model backends. --csv exports
//       the full per-backend scoring (CI asserts the crossover on it).
//
// The global --threads N option (before the subcommand) sets the host
// worker-thread count for svd/dse; 0 (default) resolves via HSVD_THREADS
// or the hardware concurrency. Results are thread-count invariant.
// --shards S partitions each decomposition across S simulated AIE
// arrays (svd/batch) and co-explores shard counts up to S in dse;
// factors are bit-identical to the single-array path for every S.
// Combinations whose worker demand exceeds the machine's hardware
// threads are rejected up front with an InputError.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <string>

#include "accel/accelerator.hpp"
#include "backend/router.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "dse/explorer.hpp"
#include "dse/pareto.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "linalg/matrix_io.hpp"
#include "perfmodel/perf_model.hpp"
#include "scenarios/update.hpp"
#include "serve/qos.hpp"
#include "serve/server.hpp"
#include "verify/policy.hpp"

namespace {

using namespace hsvd;

// Host worker threads (--threads N, before the subcommand). 0 = auto via
// HSVD_THREADS / hardware concurrency; results are identical either way.
int g_threads = 0;

// Simulated AIE arrays per decomposition (--shards S, before the
// subcommand). 1 = the paper's single-array engine.
int g_shards = 1;

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

linalg::MatrixF load_any(const std::string& path) {
  return ends_with(path, ".bin") ? linalg::load_binary(path)
                                 : linalg::load_matrix_market(path);
}

void save_any(const linalg::MatrixF& m, const std::string& path) {
  if (ends_with(path, ".bin")) {
    linalg::save_binary(m, path);
  } else {
    linalg::save_matrix_market(m, path);
  }
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr, "usage: hsvd gen <rows> <cols> <out> [condition]\n");
    return 2;
  }
  const auto rows = std::strtoul(argv[1], nullptr, 10);
  const auto cols = std::strtoul(argv[2], nullptr, 10);
  const std::string out = argv[3];
  Rng rng(42);
  linalg::MatrixD m =
      argc > 4 ? linalg::matrix_with_spectrum(
                     rows, cols,
                     linalg::geometric_spectrum(cols, std::atof(argv[4])), rng)
               : linalg::random_gaussian(rows, cols, rng);
  save_any(m.cast<float>(), out);
  std::printf("wrote %zux%zu matrix to %s\n", static_cast<std::size_t>(rows),
              static_cast<std::size_t>(cols), out.c_str());
  return 0;
}

// Shared factor output for svd/update: <prefix>_u.mtx,
// <prefix>_sigma.txt, and <prefix>_v.mtx when V is present.
void write_factors(const Svd& r, const std::string& prefix) {
  linalg::save_matrix_market(r.u, prefix + "_u.mtx");
  if (!r.v.empty()) linalg::save_matrix_market(r.v, prefix + "_v.mtx");
  std::ofstream sig(prefix + "_sigma.txt");
  for (float s : r.sigma) sig << s << "\n";
  std::printf("wrote %s_u.mtx, %s_sigma.txt%s\n", prefix.c_str(),
              prefix.c_str(),
              r.v.empty() ? "" : (", " + prefix + "_v.mtx").c_str());
}

int cmd_svd(int argc, char** argv) {
  std::string scenario_spec;
  std::size_t top_k = 0;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--scenario" && has_value) {
      scenario_spec = argv[++i];
    } else if (arg == "--top-k" && has_value) {
      top_k = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hsvd svd: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: hsvd svd [--scenario auto|off|tall-skinny|truncated] "
                 "[--top-k K] <in> [out_prefix]\n");
    return 2;
  }
  const linalg::MatrixF a = load_any(positional[0]);
  const std::string prefix = positional.size() > 1 ? positional[1] : "hsvd_out";
  std::printf("decomposing %zux%zu...\n", a.rows(), a.cols());
  SvdOptions opts;
  opts.threads = g_threads;
  opts.shards = g_shards;
  if (!scenario_spec.empty()) {
    opts.scenario = scenarios::parse_scenario(scenario_spec);
  }
  opts.top_k = top_k;
  Svd r = svd(a, opts);
  std::printf("converged in %d sweeps (rate %.2e); simulated accelerator "
              "latency %.3f ms\n",
              r.iterations, r.convergence_rate, r.accelerator_seconds * 1e3);
  if (!r.scenario.empty()) {
    std::printf("scenario %s engaged", r.scenario.c_str());
    if (r.scenario_top_k > 0) {
      std::printf(" (top-%zu, a-posteriori bound %.3e)", r.scenario_top_k,
                  r.scenario_bound);
    }
    std::printf("\n");
  }
  if (r.status == SvdStatus::kNotConverged) {
    std::printf("warning: precision target not reached (%s)\n",
                r.message.c_str());
  }
  write_factors(r, prefix);
  return 0;
}

// One column vector for the update subcommand: an m x 1 matrix file.
std::vector<float> load_column(const std::string& path, std::size_t rows,
                               const char* role) {
  const linalg::MatrixF m = load_any(path);
  if (m.cols() != 1 || m.rows() != rows) {
    throw InputError(cat("hsvd update: ", role, " vector ", path, " must be ",
                         rows, "x1, got ", m.rows(), "x", m.cols()));
  }
  const auto data = m.data();
  return std::vector<float>(data.begin(), data.end());
}

int cmd_update(int argc, char** argv) {
  std::string prefix = "hsvd_update";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--out" && has_value) {
      prefix = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hsvd update: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.size() < 3 || (positional.size() - 1) % 2 != 0) {
    std::fprintf(stderr,
                 "usage: hsvd update [--out prefix] <in> <u1> <v1> "
                 "[<u2> <v2> ...]\n"
                 "each (u, v) pair applies the rank-1 update A <- A + u v^T "
                 "through the streaming scenario core\n");
    return 2;
  }
  const linalg::MatrixF a = load_any(positional[0]);
  std::printf("decomposing %zux%zu, then applying %zu rank-1 update(s)...\n",
              a.rows(), a.cols(), (positional.size() - 1) / 2);
  SvdOptions opts;
  opts.threads = g_threads;
  opts.shards = g_shards;
  scenarios::StreamingSvd stream(a, opts);
  for (std::size_t p = 1; p + 1 < positional.size(); p += 2) {
    const std::vector<float> u = load_column(positional[p], a.rows(), "u");
    const std::vector<float> v = load_column(positional[p + 1], a.cols(), "v");
    stream.apply(u, v);
  }
  const Svd& r = stream.current();
  std::printf("applied %d update(s): %d re-decomposition(s), last drift "
              "residual %s\n",
              stream.updates(), stream.redecompositions(),
              stream.last_residual() >= 0.0 ? sci(stream.last_residual()).c_str()
                                            : "unchecked");
  write_factors(r, prefix);
  return 0;
}

const char* status_name(SvdStatus status) {
  switch (status) {
    case SvdStatus::kOk: return "ok";
    case SvdStatus::kNotConverged: return "not-converged";
    case SvdStatus::kFailed: return "failed";
  }
  return "unknown";
}

// Per-request attestation columns sourced from Svd::verify_report.
std::string verify_status_cell(const verify::VerifyReport& rep) {
  if (!rep.checked) return "-";
  return rep.verified ? "pass" : "escape";
}

std::string verify_residual_cell(const verify::VerifyReport& rep) {
  const double r = rep.final_residual();
  return rep.checked && r >= 0.0 ? sci(r) : "-";
}

std::string verify_rung_cell(const verify::VerifyReport& rep) {
  return rep.checked ? verify::to_string(rep.rung) : "-";
}

// Counts results the attestation ladder could not verify. Under
// --verify always that is the hard failure the command must surface:
// every request was selected, so any unverified result is an escape.
template <typename Results, typename GetReport>
int count_verify_escapes(const Results& results, GetReport get_report) {
  int escapes = 0;
  for (const auto& r : results) {
    const verify::VerifyReport& rep = get_report(r);
    if (rep.checked && !rep.verified) ++escapes;
  }
  return escapes;
}

int cmd_batch(int argc, char** argv) {
  verify::VerifyPolicy vpolicy;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--verify" && has_value) {
      vpolicy = verify::parse_verify_policy(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hsvd batch: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: hsvd batch [--verify off|sample:p|always] "
                 "<in1> [in2 ...]\n");
    return 2;
  }
  std::vector<linalg::MatrixF> batch;
  batch.reserve(files.size());
  for (const std::string& f : files) batch.push_back(load_any(f));
  std::printf("decomposing %zu matrices of %zux%zu...\n", batch.size(),
              batch.front().rows(), batch.front().cols());
  SvdOptions opts;
  opts.threads = g_threads;
  opts.shards = g_shards;
  opts.verify = vpolicy;
  const BatchSvd out = svd_batch(batch, opts);

  Table table({"task", "status", "sweeps", "recoveries", "verify", "residual",
               "rung", "note"});
  int counts[3] = {0, 0, 0};
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const Svd& r = out.results[i];
    ++counts[static_cast<int>(r.status)];
    table.add_row({cat(i), status_name(r.status), cat(r.iterations),
                   cat(r.recovery_attempts), verify_status_cell(r.verify_report),
                   verify_residual_cell(r.verify_report),
                   verify_rung_cell(r.verify_report), r.message});
  }
  table.print();
  std::printf("%zu tasks: %d ok, %d not-converged, %d failed "
              "(simulated makespan %.3f ms, %.1f tasks/s)\n",
              out.results.size(), counts[0], counts[1], counts[2],
              out.batch_seconds * 1e3, out.throughput_tasks_per_s);
  if (out.failed_tasks > 0) {
    std::fprintf(stderr, "error: %d of %zu tasks failed\n", out.failed_tasks,
                 out.results.size());
    return 1;
  }
  if (vpolicy.mode == verify::VerifyMode::kAlways) {
    const int escapes = count_verify_escapes(
        out.results, [](const Svd& r) -> const verify::VerifyReport& {
          return r.verify_report;
        });
    if (escapes > 0) {
      std::fprintf(stderr,
                   "error: %d of %zu tasks escaped unverified under "
                   "--verify always\n",
                   escapes, out.results.size());
      return 1;
    }
  }
  return 0;
}

int cmd_dse(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: hsvd dse <n> [batch] [latency|throughput]\n");
    return 2;
  }
  dse::DseRequest req;
  req.rows = req.cols = std::strtoul(argv[1], nullptr, 10);
  req.batch = argc > 2 ? std::atoi(argv[2]) : 1;
  req.objective = (argc > 3 && std::strcmp(argv[3], "throughput") == 0)
                      ? dse::Objective::kThroughput
                      : dse::Objective::kLatency;
  req.threads = g_threads;
  req.max_shards = g_shards;
  dse::DesignSpaceExplorer explorer;
  auto points = explorer.enumerate(req);
  if (points.empty()) {
    std::fprintf(stderr, "no feasible design point\n");
    return 1;
  }
  auto front = dse::pareto_front(points);
  Table table({"P_eng", "P_task", "S", "MHz", "latency(ms)", "thr(t/s)",
               "power(W)", "pareto"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, points.size()); ++i) {
    const auto& p = points[i];
    bool on_front = false;
    for (const auto& f : front) {
      on_front |= f.p_eng == p.p_eng && f.p_task == p.p_task &&
                  f.shards == p.shards;
    }
    table.add_row({cat(p.p_eng), cat(p.p_task), cat(p.shards),
                   fixed(p.frequency_hz / 1e6, 0),
                   fixed(p.latency_seconds * 1e3, 3),
                   fixed(p.throughput_tasks_per_s, 1),
                   fixed(p.power_watts, 1), on_front ? "*" : ""});
  }
  table.print();
  std::printf("(%zu feasible points, %zu on the Pareto front)\n", points.size(),
              front.size());
  return 0;
}

int cmd_estimate(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: hsvd estimate <n> <p_eng> <p_task> [freq_mhz] "
                 "[iterations]\n");
    return 2;
  }
  accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = std::strtoul(argv[1], nullptr, 10);
  cfg.p_eng = std::atoi(argv[2]);
  cfg.p_task = std::atoi(argv[3]);
  cfg.pl_frequency_hz = argc > 4 ? std::atof(argv[4]) * 1e6 : 208.3e6;
  cfg.iterations = argc > 5 ? std::atoi(argv[5]) : 6;
  accel::HeteroSvdAccelerator acc(cfg);
  auto run = acc.estimate(cfg.p_task);
  perf::PerformanceModel model;
  auto lb = model.evaluate(cfg, cfg.p_task);
  std::printf("simulated: task %.3f ms, wave %.3f ms, throughput %.2f t/s\n",
              run.task_seconds * 1e3, run.batch_seconds * 1e3,
              run.throughput_tasks_per_s);
  std::printf("model:     task %.3f ms (iter %.3f ms, ddr %.3f ms, norm %.3f "
              "ms)\n",
              lb.t_task * 1e3, lb.t_iter * 1e3, lb.t_ddr * 1e3,
              lb.t_norm_stage * 1e3);
  std::printf("resources: %d AIE (%d orth, %d norm, %d mem), %d PLIO, %d "
              "URAM\n",
              run.resources.aie_total(), run.resources.aie_orth,
              run.resources.aie_norm, run.resources.aie_mem,
              run.resources.plio, run.resources.uram);
  return 0;
}

// One row of the route table: every backend scored for (n, slo).
void route_rows(backend::Router& router, std::size_t n,
                const backend::Slo& slo, const SvdOptions& opts, Table& table,
                CsvWriter& csv) {
  const backend::RouteDecision decision = router.route(n, n, slo, opts);
  for (const auto& c : decision.candidates) {
    const bool winner = decision.backend == c.backend->name();
    const bool modeled = c.backend->capabilities().modeled_time;
    std::string note = c.estimate.note;
    if (c.estimate.modeled_extrapolated) {
      note = note.empty() ? "clamped outside anchors"
                          : note + "; clamped outside anchors";
    }
    table.add_row(
        {cat(n), backend::to_string(slo.kind), c.backend->name(),
         winner ? "*" : "",
         c.estimate.feasible ? sci(c.estimate.latency_seconds) : "-",
         c.estimate.feasible ? fixed(c.estimate.throughput_tasks_per_s, 2)
                             : "-",
         c.estimate.feasible && c.estimate.energy_per_task_joules > 0.0
             ? sci(c.estimate.energy_per_task_joules)
             : "-",
         modeled ? "model" : "measured", note});
    csv.add_row({cat(n), backend::to_string(slo.kind), c.backend->name(),
                 winner ? "1" : "0", c.estimate.feasible ? "1" : "0",
                 sci(c.estimate.latency_seconds, 6),
                 sci(c.estimate.throughput_tasks_per_s, 6),
                 sci(c.estimate.energy_per_task_joules, 6),
                 c.estimate.modeled_extrapolated ? "1" : "0",
                 modeled ? "model" : "measured", note});
  }
}

int cmd_route(int argc, char** argv) {
  std::vector<std::size_t> sizes;
  std::vector<backend::SloKind> kinds;
  int batch = 16;
  std::string csv_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--sweep" && has_value) {
      std::string spec = argv[++i];
      for (std::size_t pos = 0; pos < spec.size();) {
        const std::size_t comma = spec.find(',', pos);
        const std::size_t end = comma == std::string::npos ? spec.size() : comma;
        sizes.push_back(std::strtoul(spec.substr(pos, end - pos).c_str(),
                                     nullptr, 10));
        pos = end + 1;
      }
    } else if (arg == "--slo" && has_value) {
      kinds.push_back(backend::parse_slo_kind(argv[++i]));
    } else if (arg == "--batch" && has_value) {
      batch = std::atoi(argv[++i]);
    } else if (arg == "--csv" && has_value) {
      csv_path = argv[++i];
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hsvd route: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      sizes.push_back(std::strtoul(arg.c_str(), nullptr, 10));
    }
  }
  if (sizes.empty()) sizes = {64, 128, 256, 512, 1024, 2048, 4096};
  if (kinds.empty()) {
    kinds = {backend::SloKind::kLatency, backend::SloKind::kThroughput,
             backend::SloKind::kEnergy};
  }

  SvdOptions opts;
  opts.threads = g_threads;
  backend::Router& router = backend::Router::shared();
  Table table({"n", "slo", "backend", "winner", "latency(s)", "thr(t/s)",
               "J/task", "time", "note"});
  CsvWriter csv({"n", "slo", "backend", "winner", "feasible",
                 "latency_seconds", "throughput_tasks_per_s",
                 "energy_per_task_joules", "extrapolated", "time_source",
                 "note"});
  for (std::size_t n : sizes) {
    if (n < 1) {
      std::fprintf(stderr, "hsvd route: invalid size in sweep\n");
      return 2;
    }
    for (backend::SloKind kind : kinds) {
      backend::Slo slo;
      slo.kind = kind;
      slo.batch = batch;
      route_rows(router, n, slo, opts, table, csv);
    }
  }
  table.print();
  if (!csv_path.empty()) {
    if (!csv.write_file(csv_path)) {
      std::fprintf(stderr, "hsvd route: cannot write %s\n", csv_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}

int cmd_serve(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<serve::TenantConfig> tenants;
  serve::Priority priority = serve::Priority::kNormal;
  std::size_t cache = 0;
  std::size_t coalesce = 1;
  double window_ms = 10.0;
  int workers = 2;
  double deadline_ms = 0.0;
  backend::BackendSpec backend_spec;
  bool backend_set = false;
  verify::VerifyPolicy vpolicy;
  std::string scenario_spec;
  std::size_t top_k = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tenant" && has_value) {
      tenants.push_back(serve::parse_tenant_spec(argv[++i]));
    } else if (arg == "--priority" && has_value) {
      priority = serve::parse_priority(argv[++i]);
    } else if (arg == "--backend" && has_value) {
      backend_spec = backend::parse_backend_spec(argv[++i]);
      backend_set = true;
    } else if (arg == "--verify" && has_value) {
      vpolicy = verify::parse_verify_policy(argv[++i]);
    } else if (arg == "--scenario" && has_value) {
      scenario_spec = argv[++i];
    } else if (arg == "--top-k" && has_value) {
      top_k = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--cache" && has_value) {
      cache = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--coalesce" && has_value) {
      coalesce = std::strtoul(argv[++i], nullptr, 10);
    } else if (arg == "--coalesce-window-ms" && has_value) {
      window_ms = std::atof(argv[++i]);
    } else if (arg == "--workers" && has_value) {
      workers = std::atoi(argv[++i]);
    } else if (arg == "--deadline-ms" && has_value) {
      deadline_ms = std::atof(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "hsvd serve: unknown option '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: hsvd serve [--tenant SPEC]... [--priority "
                 "latency|normal|batch] [--cache N] [--coalesce N] "
                 "[--coalesce-window-ms W] [--workers N] [--deadline-ms D] "
                 "[--backend SPEC] [--verify off|sample:p|always] "
                 "[--scenario NAME] [--top-k K] <in1> [in2 ...]\n");
    return 2;
  }

  std::vector<linalg::MatrixF> matrices;
  matrices.reserve(files.size());
  for (const std::string& f : files) matrices.push_back(load_any(f));

  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = files.size();
  options.default_deadline_seconds = deadline_ms / 1e3;
  options.svd.threads = g_threads;
  options.svd.shards = g_shards;
  options.svd.verify = vpolicy;
  options.qos.tenants = tenants;
  options.qos.coalesce_max_batch = coalesce < 1 ? 1 : coalesce;
  options.qos.coalesce_window_seconds = window_ms / 1e3;
  options.qos.cache_enabled = cache > 0;
  options.qos.cache_capacity = cache > 0 ? cache : 64;

  serve::SvdServer server(options);
  std::vector<std::future<serve::Response>> futures;
  futures.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    serve::Request request;
    request.matrix = matrices[i];
    if (!tenants.empty()) request.tenant = tenants[i % tenants.size()].name;
    request.priority = priority;
    if (backend_set) {
      request.backend = backend_spec.backend;
      request.slo = backend_spec.slo;
    }
    // Scenario intent rides on every request: the server parses the
    // name at dispatch (unknown names fail that request, not the
    // whole command) and keys the result cache by scenario + top_k.
    request.scenario = scenario_spec;
    request.top_k = top_k;
    futures.push_back(server.submit(std::move(request)));
  }

  Table table({"file", "tenant", "status", "backend", "sweeps", "attempts",
               "batch", "cached", "verify", "residual", "rung", "note"});
  int failed = 0;
  int escapes = 0;
  for (std::size_t i = 0; i < files.size(); ++i) {
    const serve::Response r = futures[i].get();
    if (r.status == serve::ServeStatus::kFailed) ++failed;
    const verify::VerifyReport& rep = r.result.verify_report;
    if (rep.checked && !rep.verified) ++escapes;
    table.add_row({files[i], r.tenant, serve::to_string(r.status),
                   r.backend.empty() ? "-" : r.backend, cat(r.result.iterations),
                   cat(r.attempts), cat(r.batch_size), r.cache_hit ? "*" : "",
                   verify_status_cell(rep), verify_residual_cell(rep),
                   verify_rung_cell(rep), r.message});
  }
  table.print();
  server.shutdown();

  const serve::ServerStats stats = server.stats();
  Table tenant_table({"tenant", "submitted", "ok", "shed", "expired",
                      "failed", "cache-hits", "coalesced"});
  for (const auto& [name, ts] : stats.tenants) {
    tenant_table.add_row({name, cat(ts.submitted), cat(ts.ok),
                          cat(ts.shed_quota + ts.shed_queue), cat(ts.expired),
                          cat(ts.failed), cat(ts.cache_hits),
                          cat(ts.coalesced)});
  }
  tenant_table.print();
  std::printf("%zu requests: %llu batch dispatches (fill %.2f), cache "
              "%llu/%llu hit/miss\n",
              files.size(),
              static_cast<unsigned long long>(stats.batch_dispatches),
              stats.batch_dispatches > 0
                  ? static_cast<double>(stats.batch_tasks) /
                        static_cast<double>(stats.batch_dispatches)
                  : 0.0,
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.cache_misses));
  if (failed > 0) {
    std::fprintf(stderr, "error: %d of %zu requests failed\n", failed,
                 files.size());
    return 1;
  }
  if (vpolicy.mode == verify::VerifyMode::kAlways && escapes > 0) {
    std::fprintf(stderr,
                 "error: %d of %zu requests escaped unverified under "
                 "--verify always\n",
                 escapes, files.size());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Global options come before the subcommand: hsvd [--threads N] <cmd> ...
  int arg0 = 1;
  while (arg0 < argc && std::strncmp(argv[arg0], "--", 2) == 0) {
    if (std::strcmp(argv[arg0], "--threads") == 0 && arg0 + 1 < argc) {
      g_threads = std::atoi(argv[arg0 + 1]);
      arg0 += 2;
    } else if (std::strcmp(argv[arg0], "--shards") == 0 && arg0 + 1 < argc) {
      g_shards = std::atoi(argv[arg0 + 1]);
      arg0 += 2;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[arg0]);
      return 2;
    }
  }
  argv += arg0 - 1;
  argc -= arg0 - 1;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: hsvd [--threads N] [--shards S] "
                 "<gen|svd|batch|dse|estimate|serve|route|update> ...\n"
                 "run a subcommand without arguments for its usage\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    // Reject oversubscribed --threads/--shards combinations before any
    // work starts (typed InputError, exit 1 via the handler below).
    validate_host_budget(g_threads, g_shards);
    if (cmd == "gen") return cmd_gen(argc - 1, argv + 1);
    if (cmd == "svd") return cmd_svd(argc - 1, argv + 1);
    if (cmd == "batch") return cmd_batch(argc - 1, argv + 1);
    if (cmd == "dse") return cmd_dse(argc - 1, argv + 1);
    if (cmd == "estimate") return cmd_estimate(argc - 1, argv + 1);
    if (cmd == "serve") return cmd_serve(argc - 1, argv + 1);
    if (cmd == "route") return cmd_route(argc - 1, argv + 1);
    if (cmd == "update") return cmd_update(argc - 1, argv + 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  return 2;
}
