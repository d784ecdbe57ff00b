// Execution-trace export: run a small configuration with an obs tracer
// attached and emit a Chrome trace-event JSON (chrome://tracing or
// https://ui.perfetto.dev) showing per-resource activity -- kernels per
// core, DMA transfers, stream packets, PLIO and DDR transfers -- plus the
// simulated busy time of each span category.
//
//   build/examples/trace_explorer [n] [p_eng] [out.json]
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "accel/accelerator.hpp"
#include "obs/obs.hpp"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 64;
  const int p_eng = argc > 2 ? std::atoi(argv[2]) : 4;
  const char* out = argc > 3 ? argv[3] : "heterosvd_trace.json";

  hsvd::accel::HeteroSvdConfig cfg;
  cfg.rows = cfg.cols = n;
  cfg.p_eng = p_eng;
  cfg.p_task = 1;
  cfg.iterations = 1;
  hsvd::accel::HeteroSvdAccelerator acc(cfg);

  hsvd::obs::ObsContext obs;
  obs.enable_tracing();
  acc.attach_observer(&obs);
  auto run = acc.estimate(1);

  // Busy time per simulated span category (kernel, dma, stream, ...).
  std::map<std::string, double> busy;
  const auto spans = obs.tracer()->spans();
  for (const auto& span : spans) {
    if (span.domain == hsvd::obs::Domain::kSim) {
      busy[span.category] += span.duration_s;
    }
  }
  std::printf("traced %zux%zu, P_eng=%d: %zu spans over %.3f ms\n", n, n,
              p_eng, spans.size(), run.task_seconds * 1e3);
  std::printf("simulated busy time per category:\n");
  for (const auto& [category, seconds] : busy) {
    std::printf("  %-8s %.3f ms\n", category.c_str(), seconds * 1e3);
  }

  if (!obs.tracer()->write_chrome_json(out)) {
    std::printf("FAILED to write %s\n", out);
    return 1;
  }
  std::printf("wrote %s (open in chrome://tracing or Perfetto)\nOK\n", out);
  return 0;
}
