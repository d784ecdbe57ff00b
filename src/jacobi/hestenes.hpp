// Serial Hestenes-Jacobi SVD driven by an explicit ordering.
//
// This is the algorithm layer's single-threaded executable model: it
// consumes the same EngineSchedule objects the accelerator maps onto
// AIEs, so ordering correctness can be tested without any hardware model
// in the loop. Works in float (the AIE datatype) by default. The engine
// is the ordering's pair sequence run through jacobi::run_sweeps (the
// shared sweep loop and pair kernel, jacobi/sweep.hpp).
#pragma once

#include <optional>

#include "jacobi/ordering.hpp"
#include "jacobi/sweep.hpp"
#include "linalg/matrix.hpp"

namespace hsvd::jacobi {

struct HestenesOptions {
  OrderingKind ordering = OrderingKind::kShiftingRing;
  double precision = 1e-6;  // eq. (6) threshold
  // Threshold Jacobi: skip rotations whose pair coherence is below this
  // (0 = rotate everything). Classical speedup; convergence is preserved
  // as long as the threshold is at or below the precision target.
  double rotation_threshold = 0.0;
  int max_sweeps = 30;
  // When set, run exactly this many sweeps regardless of convergence
  // (the paper's Tables II/VI fix six iterations for fair comparison).
  std::optional<int> fixed_sweeps;
  bool accumulate_v = true;
};

// One sweep of the tournament ordering over `columns` columns: its
// rounds in order, each round's pairs in slot order.
PairSequence hestenes_sequence(OrderingKind ordering, int columns);

// Requires a.rows() >= a.cols() and an even column count (pad one zero
// column upstream for odd sizes; the accelerator front end does this too).
HestenesResult hestenes_svd(const linalg::MatrixF& a,
                            const HestenesOptions& opts = {});

}  // namespace hsvd::jacobi
