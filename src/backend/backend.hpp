// Backend: one execution target for an SVD request.
//
// The paper compares HeteroSVD on the VCK190 against a published FPGA
// BCV solver [6] and a GPU W-cycle solver [11]; this repo additionally
// has a sharded multi-array engine and a SIMD host path. A Backend
// wraps each of those five targets behind one interface:
//
//   estimate(shape, slo)  -- what would it cost to run this shape here?
//                            (analytic perf/power model for the AIE
//                            targets, fitted Table II/III models for the
//                            published comparators, a flops model for
//                            the host CPU)
//   execute(matrix, opts) -- actually produce factors.
//   execute_batch(batch, opts) -- produce factors for a same-shape batch.
//
// Honesty rules (DESIGN.md section 14): every result says where its
// reported time came from. The AIE backends report *simulated* seconds
// from the cycle-approximate fabric model; the CPU backend reports
// *wall* seconds; the FPGA/GPU backends execute a host one-sided Jacobi
// for real factors but report the published comparator's *fitted model*
// time (capabilities().modeled_time == true, and Svd::modeled_time on
// every result), never the host wall time, and never mixed.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "backend/slo.hpp"
#include "heterosvd.hpp"
#include "linalg/matrix.hpp"

namespace hsvd::backend {

// Static properties of a backend, used by the router to pre-filter
// candidates (e.g. the energy objective only considers backends with an
// energy model) and by callers to interpret results.
struct Capabilities {
  // Produces real factors (all five registered backends do).
  bool functional = true;
  // Reported latency/energy comes from a fitted model of a published
  // comparator, not from this process's execution.
  bool modeled_time = false;
  // estimate() can price energy per task.
  bool has_energy_model = true;
  // Factors are bit-identical to the classic AIE simulator path.
  bool bit_identical_to_aie = false;
};

// One scored candidate: what running (rows x cols) on this backend is
// expected to cost. All quantities are per task.
struct Estimate {
  // False when the backend cannot run the shape at all (e.g. no AIE
  // placement fits the device); `note` says why.
  bool feasible = false;
  double latency_seconds = 0.0;
  double throughput_tasks_per_s = 0.0;
  // 0 when the backend has no energy model.
  double energy_per_task_joules = 0.0;
  // True when a fitted comparator model was clamped outside its
  // published anchor range (baselines/interp.hpp): the number is the
  // nearest supported measurement, not an interpolation.
  bool modeled_extrapolated = false;
  std::string note;
};

class Backend {
 public:
  virtual ~Backend() = default;

  // Stable registry name ("aie", "aie-sharded", "cpu", "fpga-bcv",
  // "gpu-wcycle").
  virtual const char* name() const = 0;

  virtual Capabilities capabilities() const = 0;

  // Scores one shape against `slo` without executing. `options` carries
  // the device/threads/iteration context the estimate should assume;
  // routing-related fields (backend/slo) are ignored.
  virtual Estimate estimate(std::size_t rows, std::size_t cols,
                            const Slo& slo, const SvdOptions& options) const = 0;

  // Decomposes `a` (rows >= cols; wide inputs are transposed by the
  // facade before routing). `options` is the caller's SvdOptions; the
  // backend strips the routing fields before any recursive facade call.
  // The returned Svd carries the backend name and the modeled-time
  // labeling described in the header comment.
  virtual Svd execute(const linalg::MatrixF& a,
                      const SvdOptions& options) const = 0;

  // Decomposes every matrix of `batch` (one shape, rows >= cols) -- the
  // router's one execution path, a single request being a batch of one.
  // The default runs execute() per matrix, fanned out over the host pool
  // with single-threaded inner execution (a batch of one runs inline
  // with the caller's options), applies injected silent errors per task
  // slot, and labels the batch time honestly: the comparator's fitted
  // sustained rate on a modeled_time backend, the measured host wall
  // time otherwise. The AIE backends override it with the native batch
  // engine (hsvd::svd_batch with the routing fields stripped).
  virtual BatchSvd execute_batch(const std::vector<linalg::MatrixF>& batch,
                                 const SvdOptions& options) const;
};

}  // namespace hsvd::backend
