// Timeline tracing across the simulator's two clock domains.
//
// The codebase runs on two clocks at once: the *simulated* clock (the
// transaction-level seconds the Versal fabric model computes -- AIE
// kernels, DMA/PLIO/DDR transfers, injected faults) and the *host* clock
// (wall time spent by thread-pool workers, batch slot chains, DSE
// candidate scoring). A Tracer records spans and instant events from
// both, tagged with their domain, and exports Chrome trace-event JSON
// loadable in Perfetto / chrome://tracing. The two domains land in two
// separate process groups (pid 1 = "simulated fabric", pid 2 = "host"),
// so the viewer never implies that simulated microseconds and host
// microseconds share an axis origin.
//
// Appends are mutex-serialized: host-domain spans genuinely arrive from
// concurrent pool workers. Simulated-domain recording additionally
// serializes the accelerator's batch engine (sequential slot chains and
// shard fan-out) so the simulated event order is reproducible.
#pragma once

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace hsvd::obs {

enum class Domain { kSim, kHost };

const char* to_string(Domain domain);

struct TraceSpan {
  Domain domain = Domain::kSim;
  std::string track;     // lane name, e.g. "core(2,3)" or "worker-1"
  std::string name;      // what ran, e.g. "kernel" or "batch-chain[0]"
  std::string category;  // trace-event cat, e.g. "kernel", "dma", "pool"
  double start_s = 0.0;
  double duration_s = 0.0;
};

struct TraceInstant {
  Domain domain = Domain::kSim;
  std::string track;
  std::string name;
  std::string category;
  double at_s = 0.0;
};

class Tracer {
 public:
  Tracer();

  void span(Domain domain, std::string track, std::string name,
            std::string category, double start_s, double duration_s);
  void instant(Domain domain, std::string track, std::string name,
               std::string category, double at_s);

  // Host-domain timestamp: seconds since this tracer was constructed.
  double host_now() const;

  // Copies (events may keep arriving from other threads).
  std::vector<TraceSpan> spans() const;
  std::vector<TraceInstant> instants() const;
  std::size_t event_count() const;
  void clear();

  // Chrome trace-event JSON: {"traceEvents": [...]} with "M" metadata
  // (process_name per domain, thread_name per track), "X" complete spans
  // and "i" thread-scoped instants, microsecond timestamps.
  std::string to_chrome_json() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceSpan> spans_;
  std::vector<TraceInstant> instants_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace hsvd::obs
