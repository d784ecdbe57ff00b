// HeteroSVD accelerator configuration: the micro-architecture parameters
// of Table I plus the problem description.
//
// First-order parameters: engine parallelism P_eng (AIEs per task column),
// task parallelism P_task (independent matrices in flight), PL frequency.
// Everything else (orth/norm/mem AIE counts, PLIOs, URAM) is derived by
// the placement engine and the resource model.
#pragma once

#include <optional>

#include "common/assert.hpp"
#include "jacobi/ordering.hpp"
#include "versal/resources.hpp"

namespace hsvd::accel {

struct HeteroSvdConfig {
  // Problem.
  std::size_t rows = 128;        // m
  std::size_t cols = 128;        // n
  int iterations = 6;            // ITER when fixed; see precision below
  std::optional<double> precision;  // when set, iterate until eq. (6) holds

  // First-order micro-architecture parameters (Table I).
  int p_eng = 8;                 // n_eng in [1, 11]
  int p_task = 1;                // k_task in [1, 26]
  double pl_frequency_hz = 208.3e6;

  // Host worker threads for executing independent task slots in parallel
  // (simulation wall-clock only; simulated timing is unaffected).
  // 0 = auto: the HSVD_THREADS environment variable, else all hardware
  // cores. 1 forces the sequential path.
  int host_threads = 0;

  // Bounded recovery: after a detected hardware fault with tile
  // attribution, run() masks the faulty tiles, re-places the design on
  // the healthy array (degrading P_task, then P_eng, when the original
  // shape no longer fits) and re-runs only the failed tasks -- at most
  // this many times. 0 disables recovery: failed tasks keep
  // SvdStatus::kFailed and the rest of the batch still completes.
  int fault_retries = 2;

  // Algorithm choice; the co-designed default.
  jacobi::OrderingKind ordering = jacobi::OrderingKind::kShiftingRing;
  // Output-memory strategy (Fig. 4); naive is the ablation baseline where
  // each AIE keeps its results in its own memory.
  bool relocated_outputs = true;

  // Target device.
  versal::DeviceResources device = versal::vck190();

  // Derived quantities -------------------------------------------------
  int block_cols() const { return p_eng; }
  // Columns after zero-padding to a multiple of P_eng (zero columns are
  // invariant under Jacobi rotations, so padding is numerically free).
  std::size_t padded_cols() const {
    const std::size_t k = static_cast<std::size_t>(p_eng);
    return (cols + k - 1) / k * k;
  }
  int blocks() const { return static_cast<int>(padded_cols()) / p_eng; }
  // Columns processed together in one block pair (2k in the paper).
  int pair_width() const { return 2 * p_eng; }
  // Orth-layers required by the shifting ring ordering: 2k - 1.
  int orth_layers() const { return pair_width() - 1; }
  // Block pairs per sweep ("num" in eqs. (11)-(12)).
  int block_pairs() const {
    const int p = blocks();
    return p * (p - 1) / 2;
  }

  void validate() const {
    HSVD_REQUIRE(rows >= cols, "matrix must be tall or square (rows >= cols)");
    HSVD_REQUIRE(cols >= 2, "need at least two columns");
    HSVD_REQUIRE(p_eng >= 1 && p_eng <= 11, "P_eng out of the paper's range [1, 11]");
    HSVD_REQUIRE(p_task >= 1 && p_task <= 26,
                 "P_task out of the paper's range [1, 26]");
    HSVD_REQUIRE(blocks() >= 2,
                 "need at least two blocks (cols >= 2 * P_eng); the block "
                 "pair is the accelerator's unit of work");
    HSVD_REQUIRE(pl_frequency_hz > 0, "PL frequency must be positive");
    HSVD_REQUIRE(host_threads >= 0, "host_threads must be nonnegative");
    HSVD_REQUIRE(fault_retries >= 0, "fault_retries must be nonnegative");
    HSVD_REQUIRE(iterations >= 1 || precision.has_value(),
                 "need a sweep budget or a precision target");
  }
};

}  // namespace hsvd::accel
