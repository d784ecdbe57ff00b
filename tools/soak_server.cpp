// soak_server -- chaos soak driver for the serving layer.
//
// Pumps a stream of randomized requests through an SvdServer whose
// fabric is fault-injected, then prints a survival report: every
// request must reach a terminal status (ok / not-converged / shed /
// expired / circuit-open / failed) within its --retries attempt budget
// and in a call of at most --coalesce tasks, and -- with --verify -- every
// chaos-free request that succeeded must match a reference
// decomposition bit for bit, proving the resilience machinery (and the
// QoS layer's coalescing and result cache) never perturbs healthy
// work. Exits nonzero when any checked property is violated, so CI can
// gate on it.
//
//   soak_server [--requests N] [--seed S] [--chaos P] [--queue N]
//               [--workers N] [--deadline-ms D] [--retries N]
//               [--burst] [--verify] [--metrics file.json]
//               [--tenant SPEC]... [--bursty-tenant NAME]
//               [--bursty-offer N] [--fairness-tol F]
//               [--priority-latency P] [--priority-batch P]
//               [--dup P] [--dup-pool N] [--cache N]
//               [--coalesce N] [--coalesce-window-ms W]
//               [--qos-csv file.csv] [--silent-rate P]
//               [--attest off|sample:p|always] [--backend SPEC]
//               [--scenario-rate P]
//
// --chaos P       fraction of requests carrying an injected fault plan
//                 (default 0.3; each chaotic request gets its own
//                 seeded FaultInjector, so the run replays exactly).
//
// Silent-corruption scenario (the verified-compute soak):
//
// --silent-rate P fraction of requests carrying a kSilentError plan: a
//                 finite, plausible-looking exponent flip applied to
//                 the finished factors that no dataflow detection point
//                 sees. Only result attestation can catch it, so the
//                 attestation policy defaults to "always" whenever P >
//                 0; the run prints a per-backend breakout of checked /
//                 caught / escalated / escaped corruptions and any
//                 escape (a fired corruption whose result still passed
//                 the primary check) is a violation.
// --attest SPEC   explicit attestation policy (off | sample:p |
//                 always) for every request, overriding the default.
// --backend SPEC  route every request through the backend router
//                 ("auto", "auto:latency:0.005", or a pin like "cpu"),
//                 exercising the health-aware routing path: verified
//                 failures feed each backend's error budget, and
//                 quarantined backends stop winning routes until a
//                 half-open probe verifies clean.
//
// Workload-scenario traffic (DESIGN.md section 16):
//
// --scenario-rate P fraction of requests tagged as scenario traffic,
//                 alternating deterministically between a tall-skinny
//                 payload (aspect ratio 8, engaging the QR
//                 pre-reduction under scenario "auto") and a truncated
//                 top-k query on the standard payload. Scenario
//                 requests dispatch solo and cache under
//                 scenario-qualified keys; they are kept chaos-free so
//                 the --verify gate covers them, replaying each
//                 success against a reference carrying the same
//                 scenario options.
// --burst         submit everything at once instead of keeping a
//                 sliding window of queue-capacity requests in flight
//                 (maximizes load-shedding instead of minimizing it);
//                 the workers start once the whole burst is queued.
// --deadline-ms   per-request budget on the host monotonic clock
//                 (0 = none); expiry is cancelled cooperatively.
// --fault-retries in-run masked-tile recovery rounds (default 0 here,
//                 unlike the library's 2: surfacing faults to the
//                 serving layer is the point of the soak -- raise it to
//                 watch the accelerator absorb faults itself instead).
//
// Multi-tenant QoS scenario (see serve/qos.hpp). The tenant, fairness
// and priority flags act once at least one --tenant is given; without
// one every request goes to the server's unlimited "default" tenant.
// --dup, --cache and --coalesce work either way.
//
// --tenant SPEC        name[:weight[:rate[:burst]]], repeatable.
// --bursty-tenant NAME requests are offered round-robin, one slot per
//                      tenant per cycle -- except NAME, which gets
//                      --bursty-offer slots (default 4): an abusive
//                      client offering a multiple of everyone else.
//                      Give it a tight quota and the excess is shed at
//                      admission without touching the other tenants.
// --fairness-tol F     enables the fairness gate: among the background
//                      (non-bursty) tenants, each one's share of
//                      completed requests must stay within F of its
//                      configured weight share. Meaningful under
//                      overload (use --burst plus --deadline-ms so the
//                      served share is set by the scheduler, not by
//                      everything eventually finishing).
// --priority-latency P / --priority-batch P
//                      fraction of requests submitted in the latency /
//                      batch class (the rest are normal). Latency work
//                      preempts running batch work at sweep barriers.
// --dup P / --dup-pool N
//                      fraction of requests drawing their matrix from a
//                      small pool of N repeated payloads (duplicate
//                      traffic for the result cache).
// --cache N            enable the digest-keyed result cache, N entries.
// --coalesce N         shape-bucketed micro-batching, up to N requests
//                      per svd_batch dispatch; --coalesce-window-ms
//                      bounds the admission-age spread inside a batch.
// --qos-csv PATH       per-tenant CSV: offered/admitted/completed
//                      counts, per-status breakdown, client-observed
//                      p50/p99 latency, shed rate, completed share,
//                      and the global batch-fill ratio.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/accelerator.hpp"
#include "backend/router.hpp"
#include "common/csv.hpp"
#include "obs/obs.hpp"
#include "serve/qos.hpp"
#include "serve/server.hpp"
#include "verify/policy.hpp"
#include "versal/faults.hpp"

namespace {

using namespace hsvd;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_roll(std::uint64_t x) {
  return static_cast<double>(x >> 11) / static_cast<double>(1ull << 53);
}

// Deterministic request matrix: entries in [-1, 1].
linalg::MatrixF make_matrix(std::size_t rows, std::size_t cols,
                            std::uint64_t seed) {
  linalg::MatrixF m(rows, cols);
  std::uint64_t state = mix64(seed ^ 0x50a3ull);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      state = mix64(state);
      m(r, c) = static_cast<float>(static_cast<double>(state >> 11) /
                                       static_cast<double>(1ull << 53) * 2.0 -
                                   1.0);
    }
  }
  return m;
}

// Fault surfaces of the pinned soak configuration, harvested once from
// a probe placement so every chaos plan targets a real resource.
struct FaultSurfaces {
  std::vector<versal::TileCoord> orth_tiles;   // any kernel-running tile
  std::vector<versal::TileCoord> entry_tiles;  // layer-0 packet entries
  std::vector<versal::TileCoord> dma_sources;
  int slots = 1;
};

FaultSurfaces harvest_surfaces(const accel::HeteroSvdConfig& config) {
  accel::HeteroSvdAccelerator probe(config);
  FaultSurfaces s;
  const auto& tasks = probe.placement().tasks;
  s.slots = static_cast<int>(tasks.size());
  for (std::size_t slot = 0; slot < tasks.size(); ++slot) {
    for (const auto& layer : tasks[slot].orth) {
      for (const auto& tile : layer) s.orth_tiles.push_back(tile);
    }
    for (const auto& tile : tasks[slot].orth.front()) {
      s.entry_tiles.push_back(tile);
    }
    for (const auto& tr : probe.dataflow(slot).transitions) {
      for (const auto& mv : tr.moves) {
        if (mv.is_dma) s.dma_sources.push_back(mv.src);
      }
    }
  }
  return s;
}

versal::FaultPlan make_chaos_plan(const FaultSurfaces& s, std::uint64_t salt) {
  using versal::FaultKind;
  static constexpr FaultKind kKinds[] = {
      FaultKind::kTileHang,   FaultKind::kMemoryBitFlip,
      FaultKind::kStreamDrop, FaultKind::kStreamStall,
      FaultKind::kDmaDrop,    FaultKind::kDmaStall,
      FaultKind::kPlioDegrade};
  versal::FaultSpec spec;
  spec.kind = kKinds[mix64(salt ^ 0x1d) % (sizeof(kKinds) / sizeof(kKinds[0]))];
  spec.after_op = mix64(salt ^ 0xad) % 4;
  switch (spec.kind) {
    case FaultKind::kTileHang:
      spec.tile = s.orth_tiles[mix64(salt ^ 0xe9) % s.orth_tiles.size()];
      break;
    case FaultKind::kMemoryBitFlip:
    case FaultKind::kStreamDrop:
    case FaultKind::kStreamStall:
      spec.tile = s.entry_tiles[mix64(salt ^ 0x3c) % s.entry_tiles.size()];
      break;
    case FaultKind::kDmaDrop:
    case FaultKind::kDmaStall:
      spec.tile = s.dma_sources.empty()
                      ? s.entry_tiles[mix64(salt ^ 0x3c) % s.entry_tiles.size()]
                      : s.dma_sources[mix64(salt ^ 0x77) % s.dma_sources.size()];
      break;
    case FaultKind::kPlioDegrade:
      spec.slot = static_cast<int>(mix64(salt ^ 0x5107) %
                                   static_cast<std::uint64_t>(s.slots));
      spec.tile = versal::TileCoord{-1, -1};
      spec.bandwidth_scale = 0.25 + 0.5 * (mix64(salt ^ 0xbb) % 3) / 2.0;
      break;
  }
  if (spec.kind == FaultKind::kStreamStall ||
      spec.kind == FaultKind::kDmaStall) {
    spec.stall_seconds = 1e-6 * (1 + mix64(salt ^ 0xd1) % 5);
  }
  versal::FaultPlan plan;
  plan.seed = salt;
  plan.faults.push_back(spec);
  return plan;
}

// Silent-corruption plan: one kSilentError spec armed for the first
// result presentation. Injector-carrying requests run solo (never
// coalesced), so the request's factors are always presented as task
// slot 0 and the corruption fires exactly once.
versal::FaultPlan make_silent_plan(std::uint64_t salt) {
  versal::FaultSpec spec;
  spec.kind = versal::FaultKind::kSilentError;
  spec.slot = 0;
  spec.tile = versal::TileCoord{0, 0};
  spec.after_op = 0;
  versal::FaultPlan plan;
  plan.seed = salt;
  plan.faults.push_back(spec);
  return plan;
}

std::uint64_t parse_u64(const char* text, const char* flag) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "soak_server: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value);
}

bool same_matrix(const linalg::MatrixF& a, const linalg::MatrixF& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  return da.empty() ||
         std::memcmp(da.data(), db.data(), da.size_bytes()) == 0;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t requests = 200;
  std::uint64_t seed = 1;
  double chaos = 0.3;
  std::size_t queue = 32;
  int workers = 4;
  double deadline_ms = 0.0;
  int retries = 3;
  int fault_retries = 0;
  bool burst = false;
  bool verify = false;
  std::string metrics_path;
  // Multi-tenant QoS scenario.
  std::vector<serve::TenantConfig> tenants;
  std::string bursty_tenant;
  std::size_t bursty_offer = 4;
  double fairness_tol = -1.0;  // < 0 disables the gate
  double priority_latency = 0.0;
  double priority_batch = 0.0;
  double dup_fraction = 0.0;
  std::size_t dup_pool = 8;
  std::size_t cache_capacity = 0;
  std::size_t coalesce = 1;
  double coalesce_window_ms = 10.0;
  std::string qos_csv_path;
  // Verified-compute scenario.
  double silent_rate = 0.0;
  // Workload-scenario traffic.
  double scenario_rate = 0.0;
  std::string attest_spec;
  backend::BackendSpec backend_spec;
  bool backend_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--requests" && has_value) {
      requests = parse_u64(argv[++i], "--requests");
    } else if (arg == "--seed" && has_value) {
      seed = parse_u64(argv[++i], "--seed");
    } else if (arg == "--chaos" && has_value) {
      chaos = std::atof(argv[++i]);
    } else if (arg == "--queue" && has_value) {
      queue = parse_u64(argv[++i], "--queue");
    } else if (arg == "--workers" && has_value) {
      workers = static_cast<int>(parse_u64(argv[++i], "--workers"));
    } else if (arg == "--deadline-ms" && has_value) {
      deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--retries" && has_value) {
      retries = static_cast<int>(parse_u64(argv[++i], "--retries"));
    } else if (arg == "--fault-retries" && has_value) {
      fault_retries = static_cast<int>(parse_u64(argv[++i], "--fault-retries"));
    } else if (arg == "--burst") {
      burst = true;
    } else if (arg == "--verify") {
      verify = true;
    } else if (arg == "--metrics" && has_value) {
      metrics_path = argv[++i];
    } else if (arg == "--tenant" && has_value) {
      try {
        tenants.push_back(serve::parse_tenant_spec(argv[++i]));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "soak_server: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--bursty-tenant" && has_value) {
      bursty_tenant = argv[++i];
    } else if (arg == "--bursty-offer" && has_value) {
      bursty_offer = parse_u64(argv[++i], "--bursty-offer");
    } else if (arg == "--fairness-tol" && has_value) {
      fairness_tol = std::atof(argv[++i]);
    } else if (arg == "--priority-latency" && has_value) {
      priority_latency = std::atof(argv[++i]);
    } else if (arg == "--priority-batch" && has_value) {
      priority_batch = std::atof(argv[++i]);
    } else if (arg == "--dup" && has_value) {
      dup_fraction = std::atof(argv[++i]);
    } else if (arg == "--dup-pool" && has_value) {
      dup_pool = parse_u64(argv[++i], "--dup-pool");
    } else if (arg == "--cache" && has_value) {
      cache_capacity = parse_u64(argv[++i], "--cache");
    } else if (arg == "--coalesce" && has_value) {
      coalesce = parse_u64(argv[++i], "--coalesce");
    } else if (arg == "--coalesce-window-ms" && has_value) {
      coalesce_window_ms = std::atof(argv[++i]);
    } else if (arg == "--qos-csv" && has_value) {
      qos_csv_path = argv[++i];
    } else if (arg == "--silent-rate" && has_value) {
      silent_rate = std::atof(argv[++i]);
    } else if (arg == "--scenario-rate" && has_value) {
      scenario_rate = std::atof(argv[++i]);
    } else if (arg == "--attest" && has_value) {
      attest_spec = argv[++i];
    } else if (arg == "--backend" && has_value) {
      try {
        backend_spec = backend::parse_backend_spec(argv[++i]);
        backend_set = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "soak_server: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: soak_server [--requests N] [--seed S] [--chaos P] "
          "[--queue N] [--workers N] [--deadline-ms D] [--retries N] "
          "[--fault-retries N] [--burst] [--verify] [--metrics file.json] "
          "[--tenant SPEC]... [--bursty-tenant NAME] [--bursty-offer N] "
          "[--fairness-tol F] [--priority-latency P] [--priority-batch P] "
          "[--dup P] [--dup-pool N] [--cache N] [--coalesce N] "
          "[--coalesce-window-ms W] [--qos-csv file.csv] "
          "[--silent-rate P] [--attest off|sample:p|always] "
          "[--backend SPEC] [--scenario-rate P]\n");
      return 0;
    } else {
      std::fprintf(stderr, "soak_server: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }

  // Attestation policy: explicit --attest wins; otherwise silent
  // corruption forces "always" (nothing else can catch it).
  verify::VerifyPolicy attest;
  try {
    if (!attest_spec.empty()) {
      attest = verify::parse_verify_policy(attest_spec);
    } else if (silent_rate > 0.0) {
      attest = verify::parse_verify_policy("always");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "soak_server: %s\n", e.what());
    return 2;
  }

  const bool qos_mode = !tenants.empty();
  std::size_t bursty_index = tenants.size();  // sentinel: none
  if (qos_mode && !bursty_tenant.empty()) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (tenants[t].name == bursty_tenant) bursty_index = t;
    }
    if (bursty_index == tenants.size()) {
      std::fprintf(stderr, "soak_server: --bursty-tenant %s is not a --tenant\n",
                   bursty_tenant.c_str());
      return 2;
    }
  }

  // Offer schedule: one slot per tenant per cycle, except the bursty
  // tenant, which offers `bursty_offer` slots -- a client hammering the
  // service beyond its quota.
  std::vector<std::size_t> offer_schedule;
  if (qos_mode) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const std::size_t slots = (t == bursty_index) ? bursty_offer : 1;
      for (std::size_t k = 0; k < slots; ++k) offer_schedule.push_back(t);
    }
  }

  // Pinned micro-architecture: small enough for a fast soak, two bands
  // and two task slots so every fault surface (inter-band DMA, slot
  // isolation) exists.
  accel::HeteroSvdConfig config;
  config.rows = 24;
  config.cols = 16;
  config.p_eng = 4;
  config.p_task = 2;
  config.iterations = 3;

  const FaultSurfaces surfaces = harvest_surfaces(config);

  // Truncation rank for scenario-tagged top-k queries: well inside the
  // pinned 16-column spectrum so the sketch subspace converges at the
  // soak's iteration budget.
  constexpr std::size_t kScenarioTopK = 4;

  obs::ObsContext observer;
  serve::ServerOptions options;
  options.queue_capacity = queue;
  options.workers = workers;
  options.svd.config = config;
  options.svd.want_v = false;
  options.svd.threads = 1;  // parallelism comes from the server workers
  options.svd.fault_retries = fault_retries;
  options.retry.max_attempts = retries < 1 ? 1 : retries;
  options.retry.seed = seed;
  options.retry.initial_backoff_seconds = 1e-4;
  options.retry.max_backoff_seconds = 1e-2;
  options.default_deadline_seconds = deadline_ms / 1e3;
  options.observer = &observer;
  options.svd.verify = attest;
  // Per-request runs share the soak's registry so the attestation
  // (verify.*) and health-ledger (route.health.*) counters land in the
  // exported --metrics JSON alongside the serve.* counters.
  options.svd.observer = &observer;
  options.qos.tenants = tenants;
  options.qos.coalesce_max_batch = coalesce < 1 ? 1 : coalesce;
  options.qos.coalesce_window_seconds = coalesce_window_ms / 1e3;
  options.qos.cache_enabled = cache_capacity > 0;
  options.qos.cache_capacity = cache_capacity > 0 ? cache_capacity : 64;
  // A burst is queued whole before any worker starts, so the backlog the
  // scheduler shares out does not depend on how fast this host submits.
  options.start_paused = burst;

  // Injectors must outlive the server (requests reference them raw).
  std::vector<std::unique_ptr<versal::FaultInjector>> injectors;
  injectors.reserve(requests);

  std::vector<bool> chaotic(requests, false);
  std::vector<bool> silent(requests, false);
  // 0 = plain, 1 = tall-skinny payload, 2 = truncated top-k query.
  std::vector<char> scenario_kind(requests, 0);
  std::vector<versal::FaultInjector*> request_injector(requests, nullptr);
  std::vector<serve::Response> responses(requests);
  std::vector<char> terminal(requests, 0);
  std::vector<std::uint64_t> matrix_seed(requests, 0);
  std::vector<std::size_t> request_tenant(requests, 0);
  std::vector<serve::Priority> request_priority(requests,
                                                serve::Priority::kNormal);

  int exit_violations = 0;
  {
    serve::SvdServer server(options);
    std::deque<std::pair<std::size_t, std::future<serve::Response>>> window;
    const auto drain_one = [&]() {
      auto [index, future] = std::move(window.front());
      window.pop_front();
      responses[index] = future.get();
      terminal[index] = 1;
    };
    for (std::size_t i = 0; i < requests; ++i) {
      serve::Request request;
      // Duplicate traffic draws from a small payload pool so the result
      // cache has something to hit; everything else gets a unique seed.
      std::uint64_t mseed = seed + i;
      const double dup_roll = unit_roll(mix64(seed ^ (0xd0b1 + i)));
      if (dup_fraction > 0.0 && dup_pool > 0 && dup_roll < dup_fraction) {
        mseed = seed + 0xca11ull + mix64(seed ^ (0xca11 + i)) % dup_pool;
      }
      matrix_seed[i] = mseed;
      request.matrix = make_matrix(config.rows, config.cols, mseed);
      const double roll =
          static_cast<double>(mix64(seed ^ (0xc0 + i)) >> 11) /
          static_cast<double>(1ull << 53);
      const double silent_roll = unit_roll(mix64(seed ^ (0x511e47 + i)));
      if (silent_rate > 0.0 && silent_roll < silent_rate) {
        // Silent corruption is its own chaos class: excluded from the
        // bit-identity verify gate (its factors are corrupted on
        // purpose) and scored against the attestation ladder instead.
        silent[i] = true;
        chaotic[i] = true;
        injectors.push_back(std::make_unique<versal::FaultInjector>(
            make_silent_plan(mix64(seed ^ (0xde4d + i)))));
        request.fault_injector = injectors.back().get();
        request_injector[i] = injectors.back().get();
      } else if (roll < chaos) {
        chaotic[i] = true;
        injectors.push_back(std::make_unique<versal::FaultInjector>(
            make_chaos_plan(surfaces, mix64(seed ^ (0x5107 + i)))));
        request.fault_injector = injectors.back().get();
      } else if (scenario_rate > 0.0 &&
                 unit_roll(mix64(seed ^ (0x5ce9 + i))) < scenario_rate) {
        // Scenario traffic is kept chaos-free: it exercises the
        // front-end dispatch, solo scheduling, and scenario-qualified
        // cache keys, and the --verify gate below holds it to
        // bit-identical replays.
        if (mix64(seed ^ (0x7a11 + i)) & 1) {
          // Tall-skinny payload at the auto-engagement ratio: the
          // pinned config re-derives rows/cols per call, so the 8x
          // aspect only changes the host QR front-end, not the fabric.
          scenario_kind[i] = 1;
          request.matrix = make_matrix(config.cols * 8, config.cols, mseed);
          request.scenario = "auto";
        } else {
          scenario_kind[i] = 2;
          request.top_k = kScenarioTopK;
        }
      }
      if (backend_set) {
        request.backend = backend_spec.backend;
        request.slo = backend_spec.slo;
      }
      if (qos_mode) {
        const std::size_t tenant_idx =
            offer_schedule[i % offer_schedule.size()];
        request_tenant[i] = tenant_idx;
        request.tenant = tenants[tenant_idx].name;
        const double prio_roll = unit_roll(mix64(seed ^ (0x9910 + i)));
        if (prio_roll < priority_latency) {
          request.priority = serve::Priority::kLatency;
        } else if (prio_roll > 1.0 - priority_batch) {
          request.priority = serve::Priority::kBatch;
        }
        request_priority[i] = request.priority;
      }
      if (!burst) {
        while (window.size() >= queue) drain_one();
      }
      window.emplace_back(i, server.submit(std::move(request)));
    }
    server.resume();
    while (!window.empty()) drain_one();
    server.shutdown();

    const serve::ServerStats stats = server.stats();
    int counts[6] = {0, 0, 0, 0, 0, 0};
    for (const auto& response : responses) {
      ++counts[static_cast<int>(response.status)];
    }
    std::printf("soak report: %zu requests, %d workers, queue %zu, chaos "
                "%.0f%%\n",
                requests, workers, queue, chaos * 100.0);
    std::printf(
        "  ok %d  not-converged %d  shed %d  expired %d  circuit-open %d  "
        "failed %d\n",
        counts[0], counts[1], counts[2], counts[3], counts[4], counts[5]);
    std::printf("  retries %llu; breaker: %llu trips (state %s); peak queue "
                "%zu\n",
                static_cast<unsigned long long>(stats.retries),
                static_cast<unsigned long long>(stats.breaker_trips),
                serve::to_string(stats.breaker_state), stats.peak_queue_depth);
    if (qos_mode) {
      const double fill =
          stats.batch_dispatches > 0
              ? static_cast<double>(stats.batch_tasks) /
                    static_cast<double>(stats.batch_dispatches)
              : 0.0;
      std::printf("  qos: quota-shed %llu  preemptions %llu  cache %llu/%llu "
                  "hit/miss  batch fill %.2f (%llu dispatches)\n",
                  static_cast<unsigned long long>(stats.quota_shed),
                  static_cast<unsigned long long>(stats.preemptions),
                  static_cast<unsigned long long>(stats.cache_hits),
                  static_cast<unsigned long long>(stats.cache_misses),
                  fill,
                  static_cast<unsigned long long>(stats.batch_dispatches));
    }
    if (scenario_rate > 0.0) {
      int tall = 0;
      int tall_ok = 0;
      int trunc = 0;
      int trunc_ok = 0;
      for (std::size_t i = 0; i < requests; ++i) {
        const bool ok = responses[i].status == serve::ServeStatus::kOk;
        if (scenario_kind[i] == 1) {
          ++tall;
          tall_ok += ok ? 1 : 0;
        } else if (scenario_kind[i] == 2) {
          ++trunc;
          trunc_ok += ok ? 1 : 0;
        }
      }
      std::printf(
          "  scenarios: tall-skinny %d (%d ok)  truncated top-%zu %d (%d "
          "ok)\n",
          tall, tall_ok, kScenarioTopK, trunc, trunc_ok);
    }

    int violations = 0;
    for (std::size_t i = 0; i < requests; ++i) {
      if (!terminal[i]) {
        std::fprintf(stderr, "VIOLATION: request %zu never became terminal\n",
                     i);
        ++violations;
      }
      // Retries, coalesced ones included, stay inside the attempt
      // budget, and no call carries more tasks than the coalescer may
      // gather.
      if (responses[i].attempts > options.retry.max_attempts) {
        std::fprintf(stderr,
                     "VIOLATION: request %zu ran %d attempts, budget %d\n", i,
                     responses[i].attempts, options.retry.max_attempts);
        ++violations;
      }
      if (responses[i].batch_size > options.qos.coalesce_max_batch) {
        std::fprintf(stderr,
                     "VIOLATION: request %zu ran in a call of %zu tasks, "
                     "coalesce limit %zu\n",
                     i, responses[i].batch_size,
                     options.qos.coalesce_max_batch);
        ++violations;
      }
    }

    // Per-tenant breakout: sheds split by cause (quota vs queue), plus
    // deadline expiry and breaker rejections, so an overload run shows
    // *why* each tenant lost work.
    std::vector<std::vector<double>> latencies(tenants.size());
    std::vector<std::uint64_t> completed(tenants.size(), 0);
    std::vector<std::uint64_t> completed_normal(tenants.size(), 0);
    if (qos_mode) {
      for (std::size_t i = 0; i < requests; ++i) {
        const serve::Response& r = responses[i];
        if (r.status == serve::ServeStatus::kOk ||
            r.status == serve::ServeStatus::kNotConverged) {
          ++completed[request_tenant[i]];
          if (request_priority[i] == serve::Priority::kNormal) {
            ++completed_normal[request_tenant[i]];
          }
          latencies[request_tenant[i]].push_back(r.queue_seconds +
                                                 r.service_seconds);
        }
      }
      std::printf("  per-tenant:\n");
      std::printf(
          "    %-10s %8s %8s %10s %10s %8s %8s %8s %9s %7s %7s\n", "tenant",
          "offered", "ok", "not-conv", "shed-quota", "shed-q", "expired",
          "breaker", "failed", "preempt", "cached");
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        const serve::TenantStats& ts = stats.tenants.at(tenants[t].name);
        std::printf(
            "    %-10s %8llu %8llu %10llu %10llu %8llu %8llu %8llu %9llu "
            "%7llu %7llu\n",
            tenants[t].name.c_str(),
            static_cast<unsigned long long>(ts.submitted),
            static_cast<unsigned long long>(ts.ok),
            static_cast<unsigned long long>(ts.not_converged),
            static_cast<unsigned long long>(ts.shed_quota),
            static_cast<unsigned long long>(ts.shed_queue),
            static_cast<unsigned long long>(ts.expired),
            static_cast<unsigned long long>(ts.circuit_open),
            static_cast<unsigned long long>(ts.failed),
            static_cast<unsigned long long>(ts.preemptions),
            static_cast<unsigned long long>(ts.cache_hits));
      }

      // Fairness gate: among the background tenants, completed share
      // must track configured weight share within the tolerance.
      // Measured on normal-class completions only: fair-share is a
      // within-class guarantee, and the latency/batch classes trade it
      // for dispatch-order priority by design.
      if (fairness_tol >= 0.0) {
        double weight_sum = 0.0;
        std::uint64_t completed_sum = 0;
        for (std::size_t t = 0; t < tenants.size(); ++t) {
          if (t == bursty_index) continue;
          weight_sum += tenants[t].weight;
          completed_sum += completed_normal[t];
        }
        if (completed_sum == 0 || weight_sum <= 0.0) {
          std::fprintf(stderr,
                       "VIOLATION: fairness gate has no completed background "
                       "requests to measure\n");
          ++violations;
        } else {
          for (std::size_t t = 0; t < tenants.size(); ++t) {
            if (t == bursty_index) continue;
            const double share = static_cast<double>(completed_normal[t]) /
                                 static_cast<double>(completed_sum);
            const double target = tenants[t].weight / weight_sum;
            std::printf(
                "  fairness: %-10s normal-class completed share %.3f "
                "(target %.3f)\n",
                tenants[t].name.c_str(), share, target);
            if (share < target - fairness_tol ||
                share > target + fairness_tol) {
              std::fprintf(stderr,
                           "VIOLATION: tenant %s normal-class completed share "
                           "%.3f is outside %.3f +/- %.3f\n",
                           tenants[t].name.c_str(), share, target,
                           fairness_tol);
              ++violations;
            }
          }
        }
      }
    }

    if (attest.enabled()) {
      // Verified-compute breakout: per serving backend, how many
      // results were checked, how many escalated past the primary
      // execution, and -- for requests whose silent corruption actually
      // fired -- whether the attestation ladder caught it (the primary
      // check failed) or the corrupted factors escaped (passed the
      // primary check, or were never checked). Escapes are violations:
      // the whole point of the verify layer is that a fired silent
      // corruption never reaches the caller unflagged.
      struct BackendScore {
        int checked = 0;
        int escalated = 0;
        int caught = 0;
        int escaped = 0;
        int silent_fired = 0;
      };
      std::map<std::string, BackendScore> scores;
      int total_escapes = 0;
      int total_fired = 0;
      for (std::size_t i = 0; i < requests; ++i) {
        const serve::Response& r = responses[i];
        const verify::VerifyReport& rep = r.result.verify_report;
        BackendScore& sc =
            scores[r.backend.empty() ? std::string("classic") : r.backend];
        if (rep.checked) ++sc.checked;
        if (rep.escalated()) ++sc.escalated;
        const bool fired = silent[i] && request_injector[i] != nullptr &&
                           request_injector[i]->event_count() > 0;
        if (!fired) continue;
        ++sc.silent_fired;
        ++total_fired;
        const bool caught =
            rep.checked &&
            !(rep.verified && rep.rung == verify::VerifyRung::kPrimary);
        if (caught) {
          ++sc.caught;
        } else {
          ++sc.escaped;
          ++total_escapes;
          std::fprintf(stderr,
                       "VIOLATION: request %zu: silent corruption fired but "
                       "the result escaped attestation (backend %s)\n",
                       i, r.backend.empty() ? "classic" : r.backend.c_str());
          ++violations;
        }
      }
      std::printf("  attestation (%s): %d silent corruptions fired, %d "
                  "escaped\n",
                  verify::to_string(attest).c_str(), total_fired,
                  total_escapes);
      std::printf("    %-12s %8s %10s %8s %8s %8s\n", "backend", "checked",
                  "escalated", "silent", "caught", "escaped");
      for (const auto& [name, sc] : scores) {
        std::printf("    %-12s %8d %10d %8d %8d %8d\n", name.c_str(),
                    sc.checked, sc.escalated, sc.silent_fired, sc.caught,
                    sc.escaped);
      }
    }

    if (verify) {
      // Every chaos-free success must match a fresh, injector-free
      // reference decomposition bit for bit -- including results that
      // were served from the cache or from a coalesced svd_batch.
      SvdOptions reference_options;
      reference_options.config = config;
      reference_options.want_v = false;
      reference_options.threads = 1;
      std::size_t checked = 0;
      for (std::size_t i = 0; i < requests; ++i) {
        if (chaotic[i] || responses[i].status != serve::ServeStatus::kOk) {
          continue;
        }
        // Routed requests are compared against the backend that served
        // them: a pin replays that exact execution path (and bypasses
        // health admission), so quarantine-driven re-routing during the
        // soak cannot fake a divergence.
        SvdOptions per_request = reference_options;
        if (backend_set && !responses[i].backend.empty()) {
          per_request.backend = responses[i].backend;
        }
        // Scenario-tagged requests replay with the same scenario
        // intent: the tall payload re-derives its shape from the
        // recorded seed, and a top-k query pins the same rank --
        // otherwise the reference factors would not even share the
        // served result's dimensions.
        if (scenario_kind[i] == 2) per_request.top_k = kScenarioTopK;
        const linalg::MatrixF reference_matrix =
            scenario_kind[i] == 1
                ? make_matrix(config.cols * 8, config.cols, matrix_seed[i])
                : make_matrix(config.rows, config.cols, matrix_seed[i]);
        const Svd reference = svd(reference_matrix, per_request);
        ++checked;
        if (!same_matrix(responses[i].result.u, reference.u) ||
            responses[i].result.sigma != reference.sigma ||
            responses[i].result.iterations != reference.iterations) {
          std::fprintf(stderr,
                       "VIOLATION: request %zu diverged from the chaos-free "
                       "reference\n",
                       i);
          ++violations;
        }
      }
      std::printf("  verify: %zu clean successes checked against chaos-free "
                  "references\n",
                  checked);
    }

    if (qos_mode && !qos_csv_path.empty()) {
      const double fill_ratio =
          stats.batch_dispatches > 0
              ? static_cast<double>(stats.batch_tasks) /
                    static_cast<double>(stats.batch_dispatches)
              : 0.0;
      std::uint64_t completed_total = 0;
      for (std::uint64_t c : completed) completed_total += c;
      CsvWriter csv({"tenant", "weight", "offered", "admitted", "completed",
                     "ok", "not_converged", "shed_quota", "shed_queue",
                     "expired", "circuit_open", "failed", "preemptions",
                     "cache_hits", "coalesced", "p50_ms", "p99_ms",
                     "shed_rate", "completed_share", "batch_fill_ratio"});
      for (std::size_t t = 0; t < tenants.size(); ++t) {
        const serve::TenantStats& ts = stats.tenants.at(tenants[t].name);
        std::vector<double> sorted = latencies[t];
        std::sort(sorted.begin(), sorted.end());
        const double shed_rate =
            ts.submitted > 0
                ? static_cast<double>(ts.shed_quota + ts.shed_queue) /
                      static_cast<double>(ts.submitted)
                : 0.0;
        const double share =
            completed_total > 0 ? static_cast<double>(completed[t]) /
                                      static_cast<double>(completed_total)
                                : 0.0;
        csv.add_row({tenants[t].name, fmt(tenants[t].weight),
                     std::to_string(ts.submitted), std::to_string(ts.admitted),
                     std::to_string(completed[t]), std::to_string(ts.ok),
                     std::to_string(ts.not_converged),
                     std::to_string(ts.shed_quota),
                     std::to_string(ts.shed_queue), std::to_string(ts.expired),
                     std::to_string(ts.circuit_open),
                     std::to_string(ts.failed), std::to_string(ts.preemptions),
                     std::to_string(ts.cache_hits),
                     std::to_string(ts.coalesced),
                     fmt(quantile_sorted(sorted, 0.50) * 1e3),
                     fmt(quantile_sorted(sorted, 0.99) * 1e3), fmt(shed_rate),
                     fmt(share), fmt(fill_ratio)});
      }
      if (csv.write_file(qos_csv_path)) {
        std::printf("  wrote %s\n", qos_csv_path.c_str());
      } else {
        std::fprintf(stderr, "soak_server: cannot write %s\n",
                     qos_csv_path.c_str());
        return 2;
      }
    }

    if (!metrics_path.empty()) {
      if (observer.metrics().snapshot().write_json(metrics_path)) {
        std::printf("  wrote %s\n", metrics_path.c_str());
      } else {
        std::fprintf(stderr, "soak_server: cannot write %s\n",
                     metrics_path.c_str());
        return 2;
      }
    }

    exit_violations = violations;
  }
  if (exit_violations > 0) {
    std::fprintf(stderr, "FAIL: %d violations\n", exit_violations);
    return 1;
  }
  std::printf("PASS: every request reached a terminal status\n");
  return 0;
}
