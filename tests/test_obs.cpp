// Tests for the observability subsystem (src/obs/): metrics registry
// sharding and histogram math, Chrome-trace export validity, per-tile
// utilization accounting, and the inertness guarantee (observation never
// changes results or the simulated timeline).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "accel/accelerator.hpp"
#include "accel/report.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "heterosvd.hpp"
#include "linalg/generators.hpp"
#include "obs/obs.hpp"

namespace hsvd::obs {
namespace {

// --- minimal JSON validator ----------------------------------------------
// Recursive-descent structural parse: enough to prove the export is real
// JSON (balanced containers, escaped strings, numeric literals), which
// substring checks cannot.
class JsonScanner {
 public:
  explicit JsonScanner(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_];
        if (std::strchr("\"\\/bfnrt", e) == nullptr && e != 'u') return false;
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::strchr(".eE+-", text_[pos_]) != nullptr)) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

std::size_t count_substr(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

// --- metrics registry ----------------------------------------------------

TEST(MetricsRegistry, CountersGaugesAndText) {
  MetricsRegistry reg;
  reg.add("a.count");
  reg.add("a.count", 41);
  reg.set_gauge("b.gauge", 2.5);
  reg.set_gauge("b.gauge", 3.5);  // last write wins
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("a.count"), 42u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("b.gauge"), 3.5);
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("a.count 42"), std::string::npos);
  reg.reset();
  EXPECT_TRUE(reg.snapshot().counters.empty());
}

TEST(MetricsRegistry, ConcurrentShardsSumExactly) {
  // Hammer the registry from pool workers: every index adds a known
  // delta and records one histogram sample. Shard merging is an
  // order-independent integer sum, so the snapshot must be *exact*, not
  // approximate, for any interleaving.
  MetricsRegistry reg;
  constexpr std::size_t kIndices = 512;
  constexpr int kThreads = 8;
  reg.register_histogram("hammer.hist",
                         MetricsRegistry::exponential_bounds(1.0, 2.0, 12));
  common::ThreadPool::shared().parallel_for(
      kIndices, kThreads, [&](std::size_t i) {
        reg.add("hammer.count", i + 1);
        reg.add("hammer.calls");
        reg.observe("hammer.hist", static_cast<double>(i % 64));
      });
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hammer.count"),
            kIndices * (kIndices + 1) / 2);
  EXPECT_EQ(snap.counters.at("hammer.calls"), kIndices);
  const auto& hist = snap.histograms.at("hammer.hist");
  EXPECT_EQ(hist.total, kIndices);
  double expected_sum = 0.0;
  for (std::size_t i = 0; i < kIndices; ++i) {
    expected_sum += static_cast<double>(i % 64);
  }
  EXPECT_DOUBLE_EQ(hist.sum, expected_sum);
}

TEST(MetricsRegistry, SnapshotWhileRecordingNeverTearsACounter) {
  // Snapshots taken mid-hammer see some prefix of the adds (shards lock
  // one at a time) but never a torn or over-counted value.
  MetricsRegistry reg;
  constexpr std::size_t kIndices = 256;
  std::atomic<bool> done{false};
  std::uint64_t last_seen = 0;
  std::thread watcher([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snap = reg.snapshot();
      const auto it = snap.counters.find("mid.count");
      const std::uint64_t seen =
          it == snap.counters.end() ? 0 : it->second;
      EXPECT_LE(seen, kIndices);
      EXPECT_GE(seen, last_seen);  // monotone: counters only grow
      last_seen = seen;
    }
  });
  common::ThreadPool::shared().parallel_for(
      kIndices, 8, [&](std::size_t) { reg.add("mid.count"); });
  done.store(true, std::memory_order_release);
  watcher.join();
  EXPECT_EQ(reg.snapshot().counters.at("mid.count"), kIndices);
}

TEST(MetricsRegistry, HistogramBucketEdgesAndQuantiles) {
  MetricsRegistry reg;
  reg.register_histogram("edges", {1.0, 2.0, 4.0});
  // A value lands in the first bucket whose upper edge is >= value.
  reg.observe("edges", 0.5);   // bucket 0 (le 1)
  reg.observe("edges", 1.0);   // bucket 0: edge is inclusive
  reg.observe("edges", 1.5);   // bucket 1 (le 2)
  reg.observe("edges", 2.0);   // bucket 1
  reg.observe("edges", 3.0);   // bucket 2 (le 4)
  reg.observe("edges", 100.0); // overflow
  const auto hist = reg.snapshot().histograms.at("edges");
  ASSERT_EQ(hist.bounds.size(), 3u);
  ASSERT_EQ(hist.counts.size(), 4u);
  EXPECT_EQ(hist.counts[0], 2u);
  EXPECT_EQ(hist.counts[1], 2u);
  EXPECT_EQ(hist.counts[2], 1u);
  EXPECT_EQ(hist.counts[3], 1u);
  EXPECT_EQ(hist.total, 6u);
  EXPECT_DOUBLE_EQ(hist.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 100.0);
  // Quantiles interpolate within the winning bucket; the overflow
  // bucket clamps to the last edge.
  EXPECT_GT(hist.quantile(0.5), 1.0);
  EXPECT_LE(hist.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
}

TEST(MetricsRegistry, ExponentialBoundsAndDefaults) {
  const auto bounds = MetricsRegistry::exponential_bounds(1.0, 4.0, 5);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[4], 256.0);
  // Unregistered histograms fall back to the default edges.
  MetricsRegistry reg;
  reg.observe("unregistered", 3.0);
  const auto hist = reg.snapshot().histograms.at("unregistered");
  EXPECT_EQ(hist.bounds, MetricsRegistry::default_bounds());
  EXPECT_EQ(hist.total, 1u);
}

TEST(MetricsRegistry, SnapshotJsonIsValid) {
  MetricsRegistry reg;
  reg.add("c\"tricky\\name");
  reg.set_gauge("g", -1.25);
  reg.observe("h", 2.0);
  const std::string json = reg.snapshot().to_json();
  JsonScanner scanner(json);
  EXPECT_TRUE(scanner.valid()) << json;
}

// --- tracer --------------------------------------------------------------

TEST(TracerExport, ChromeJsonParsesAndSeparatesDomains) {
  Tracer tracer;
  tracer.span(Domain::kSim, "core(0,0)", "orth c0/c1", "kernel", 1e-6, 2e-6);
  tracer.span(Domain::kSim, "dma(0,0)", "shadow", "dma", 0.0, 5e-7);
  tracer.span(Domain::kHost, "worker-0", "batch-chain[0]", "pool", 0.0, 1e-3);
  tracer.instant(Domain::kSim, "faults", "inject:hang \"(1,1)\"", "fault",
                 2e-6);
  EXPECT_EQ(tracer.event_count(), 4u);
  const std::string json = tracer.to_chrome_json();
  JsonScanner scanner(json);
  ASSERT_TRUE(scanner.valid()) << json;
  // Two process groups: simulated fabric and host.
  EXPECT_NE(json.find("\"simulated fabric\""), std::string::npos);
  EXPECT_NE(json.find("\"host\""), std::string::npos);
  // Three complete spans, one instant, and the escaped instant name.
  EXPECT_EQ(count_substr(json, "\"ph\":\"X\""), 3u);
  EXPECT_EQ(count_substr(json, "\"ph\":\"i\""), 1u);
  EXPECT_NE(json.find("inject:hang \\\"(1,1)\\\""), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerExport, AcceleratorRunProducesAllTrackFamilies) {
  for (const int shards : {1, 2}) {
    SCOPED_TRACE(shards);
    accel::HeteroSvdConfig cfg;
    cfg.rows = 24;
    cfg.cols = 16;
    cfg.p_eng = 4;
    cfg.p_task = 2;
    cfg.iterations = 2;
    accel::HeteroSvdAccelerator acc(cfg, shards);
    ObsContext obs;
    obs.enable_tracing();
    acc.attach_observer(&obs);
    ScopedPoolObservation observe(&obs);

    Rng rng(7);
    std::vector<linalg::MatrixF> batch;
    for (int i = 0; i < 2; ++i) {
      batch.push_back(linalg::random_gaussian(24, 16, rng).cast<float>());
    }
    const auto run = acc.run(batch);
    EXPECT_EQ(run.failed_tasks, 0);

    const std::string json = obs.tracer()->to_chrome_json();
    JsonScanner scanner(json);
    ASSERT_TRUE(scanner.valid());
    // Per-tile kernel spans, inter-tile transfers, PLIO, the task slots.
    EXPECT_NE(json.find("\"core("), std::string::npos);
    EXPECT_NE(json.find("\"dma("), std::string::npos);
    EXPECT_NE(json.find("\"plio."), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"task\""), std::string::npos);

    bool saw_sim = false;
    bool saw_host = false;
    std::map<std::string, std::vector<std::pair<double, double>>> tracks;
    std::set<std::string> array_cores[2];
    for (const auto& span : obs.tracer()->spans()) {
      saw_sim = saw_sim || span.domain == Domain::kSim;
      saw_host = saw_host || span.domain == Domain::kHost;
      EXPECT_GE(span.duration_s, 0.0);
      if (span.domain != Domain::kSim) continue;
      // A DDR span is one request's latency, queueing included, so the
      // requests of one port overlap; every other simulated track is a
      // serial resource.
      if (span.track.rfind("ddr.", 0) != 0) {
        tracks[span.track].emplace_back(span.start_s,
                                        span.start_s + span.duration_s);
      }
      if (span.track.rfind("core(", 0) == 0) {
        const auto at = span.track.find('@');
        const std::string tag =
            at == std::string::npos ? "" : span.track.substr(at);
        if (shards == 1) {
          EXPECT_EQ(tag, "") << span.track;
        } else if (tag == "@a0" || tag == "@a1") {
          array_cores[tag == "@a1" ? 1 : 0].insert(span.track.substr(0, at));
        } else {
          ADD_FAILURE() << "core track without an array tag: " << span.track;
        }
      }
    }
    EXPECT_TRUE(saw_sim);
    EXPECT_TRUE(saw_host);  // pool observer fed batch-chain / task-post spans
    // No two spans on one track overlap: several arrays never draw on
    // one lane.
    for (auto& [track, spans] : tracks) {
      std::sort(spans.begin(), spans.end());
      for (std::size_t i = 1; i < spans.size(); ++i) {
        EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-12)
            << track << " span " << i;
      }
    }
    if (shards == 2) {
      // Both arrays ran kernels, each on its own tracks (the same tile
      // coordinates, told apart by the array tag).
      EXPECT_FALSE(array_cores[0].empty());
      EXPECT_FALSE(array_cores[1].empty());
      EXPECT_EQ(array_cores[0], array_cores[1]);
    }
  }
}

TEST(Trace, AcceleratorEndToEndTrace) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = 16;
  cfg.p_eng = 2;
  cfg.p_task = 1;
  cfg.iterations = 1;
  accel::HeteroSvdAccelerator acc(cfg);
  ObsContext obs;
  obs.enable_tracing();
  acc.attach_observer(&obs);
  const auto run = acc.estimate(1);
  EXPECT_GT(obs.tracer()->event_count(), 100u);  // kernels + packets + DMA
  // Every simulated span ends within the simulated makespan.
  for (const auto& span : obs.tracer()->spans()) {
    if (span.domain != Domain::kSim) continue;
    EXPECT_GE(span.start_s, 0.0) << span.track << " " << span.name;
    EXPECT_LE(span.start_s + span.duration_s, run.task_seconds * 1.0001)
        << span.track << " " << span.name;
  }
}

// --- utilization accounting ----------------------------------------------

TEST(Utilization, CountersMatchMetricsAndTimelineTotals) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 2;
  cfg.iterations = 2;
  accel::HeteroSvdAccelerator acc(cfg);
  ObsContext obs;
  acc.attach_observer(&obs);

  Rng rng(11);
  std::vector<linalg::MatrixF> batch;
  for (int i = 0; i < 3; ++i) {
    batch.push_back(linalg::random_gaussian(24, 16, rng).cast<float>());
  }
  const auto run = acc.run(batch);
  ASSERT_EQ(run.failed_tasks, 0);
  const versal::UtilizationReport& util = run.utilization;

  EXPECT_DOUBLE_EQ(util.makespan_seconds, run.batch_seconds);
  // The per-tile aggregate must reproduce the legacy scalar exactly on a
  // fault-free run -- both are busy-over-active-makespan.
  EXPECT_NEAR(util.core_utilization(), run.core_utilization, 1e-12);

  const auto snap = obs.metrics().snapshot();
  std::uint64_t invocations = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t stream_bytes = 0;
  double busy_cycles = 0.0;
  for (const auto& tile : util.tiles) {
    invocations += tile.kernel_invocations;
    dma_bytes += tile.dma_bytes;
    stream_bytes += tile.stream_bytes;
    busy_cycles += tile.busy_cycles;
    // Tally sanity: a tile never accounts more than the makespan.
    EXPECT_LE(tile.busy_cycles + tile.stalled_cycles + tile.idle_cycles,
              util.makespan_cycles() * (1.0 + 1e-9));
  }
  EXPECT_EQ(invocations, snap.counters.at("sim.kernel.invocations"));
  EXPECT_EQ(dma_bytes, snap.counters.at("sim.dma.bytes"));
  EXPECT_EQ(stream_bytes, snap.counters.at("sim.stream.bytes"));
  EXPECT_EQ(util.total_dma_bytes(), dma_bytes);
  EXPECT_EQ(util.total_stream_bytes(), stream_bytes);
  // Kernel-cycle histogram totals are the same events the busy tallies
  // integrate: counts match invocations, cycle sums match busy cycles.
  const auto& kernel_hist = snap.histograms.at("sim.kernel.cycles");
  EXPECT_EQ(kernel_hist.total, invocations);
  EXPECT_NEAR(kernel_hist.sum, busy_cycles, busy_cycles * 1e-9 + 1e-6);
}

TEST(Utilization, HeatGridRendersEveryTileRow) {
  accel::HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 1;
  cfg.iterations = 2;
  accel::HeteroSvdAccelerator acc(cfg);
  Rng rng(3);
  const auto run =
      acc.run({linalg::random_gaussian(24, 16, rng).cast<float>()});
  const std::string grid = accel::render_utilization(run.utilization);
  // Header plus one line per array row; busy tiles show digits, unused
  // tiles dots.
  EXPECT_EQ(count_substr(grid, "\n"),
            static_cast<std::size_t>(run.utilization.rows) + 1);
  EXPECT_NE(grid.find("core busy"), std::string::npos);
  EXPECT_NE(grid.find_first_of("0123456789*"), std::string::npos);
  EXPECT_NE(grid.find('.'), std::string::npos);
}

// --- the inertness guarantee ---------------------------------------------

TEST(ObsGuard, ObservationChangesNeitherResultsNorSimulatedTiming) {
  Rng rng(23);
  std::vector<linalg::MatrixF> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(linalg::random_gaussian(24, 16, rng).cast<float>());
  }
  accel::HeteroSvdConfig cfg;
  cfg.rows = 24;
  cfg.cols = 16;
  cfg.p_eng = 4;
  cfg.p_task = 2;
  cfg.iterations = 3;
  SvdOptions options;
  options.config = cfg;
  options.threads = 4;  // parallel chains when untraced, sequential traced

  const BatchSvd off = svd_batch(batch, options);

  ObsContext metrics_only;
  options.observer = &metrics_only;
  const BatchSvd with_metrics = svd_batch(batch, options);

  ObsContext tracing;
  tracing.enable_tracing();
  options.observer = &tracing;
  const BatchSvd with_tracing = svd_batch(batch, options);
  EXPECT_GT(tracing.tracer()->event_count(), 0u);

  for (const BatchSvd* observed : {&with_metrics, &with_tracing}) {
    // Simulated timing is bit-identical: observation reads timestamps,
    // it never schedules.
    EXPECT_EQ(observed->batch_seconds, off.batch_seconds);
    EXPECT_EQ(observed->throughput_tasks_per_s, off.throughput_tasks_per_s);
    ASSERT_EQ(observed->results.size(), off.results.size());
    for (std::size_t i = 0; i < off.results.size(); ++i) {
      const Svd& a = off.results[i];
      const Svd& b = observed->results[i];
      EXPECT_EQ(a.sigma, b.sigma);
      EXPECT_EQ(a.iterations, b.iterations);
      EXPECT_EQ(a.accelerator_seconds, b.accelerator_seconds);
      ASSERT_EQ(a.u.rows(), b.u.rows());
      ASSERT_EQ(a.u.cols(), b.u.cols());
      const auto da = a.u.data();
      const auto db = b.u.data();
      EXPECT_TRUE(da.empty() ||
                  std::memcmp(da.data(), db.data(), da.size_bytes()) == 0);
      const auto va = a.v.data();
      const auto vb = b.v.data();
      EXPECT_TRUE(va.empty() ||
                  std::memcmp(va.data(), vb.data(), va.size_bytes()) == 0);
    }
  }
}

}  // namespace
}  // namespace hsvd::obs
