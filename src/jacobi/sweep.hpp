// The one Jacobi sweep engine: a pair sequence, the pair kernel, and the
// host sweep loop that every real-valued engine runs.
//
// Algorithm 1's pair step (lines 9-12) is the same everywhere: read the
// cached squared column norms aii/ajj, take one dot for aij, compute the
// rotation (eqs. (3)-(5)), apply it, and update both norms from the
// closed form. What distinguishes the engines -- plain Hestenes under a
// tournament ordering, block Hestenes, the BCV odd-even baseline -- is
// only the order in which column pairs are visited, so each engine is a
// PairSequence builder plus run_sweeps(). The accelerator computes its
// factors with run_sweeps() over block_sequence(), which is why they equal
// block_hestenes_svd's bit for bit (see DESIGN.md section 2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "jacobi/ordering.hpp"
#include "linalg/matrix.hpp"

namespace hsvd::jacobi {

// Column-pair visits of each sweep, in execution order. Sweep s runs
// sweeps[s % sweeps.size()]: tournament orderings repeat every sweep,
// while BCV's position permutation only returns home every two sweeps.
struct PairSequence {
  std::vector<std::vector<ColumnPair>> sweeps;

  const std::vector<ColumnPair>& sweep(int s) const {
    return sweeps[static_cast<std::size_t>(s) % sweeps.size()];
  }
};

// Flattens a tournament schedule (rounds of disjoint pairs) into one
// sweep's visits, round by round in slot order.
std::vector<ColumnPair> flatten(const EngineSchedule& schedule);

// Outcome of one pair step.
struct PairRotation {
  double coherence = 0.0;  // eq. (6) measure of the pair before rotation
  float c = 1.0f;
  float s = 0.0f;
  bool rotated = false;
  // Full dots spent re-deriving a norm the closed-form update cancelled.
  int norm_refreshes = 0;
};

// The pair kernel (Algorithm 1 lines 9-12). `aii`/`ajj` carry the squared
// norms of `left`/`right` in and are updated in place, so only the
// off-diagonal dot touches the column data. When a rotation cancels a
// dominant pair the incremental update is pure cancellation noise and
// can land non-positive; that norm is refreshed from its column. A
// non-finite coherence or norm (fp32 overflow in the Gram entries) leaves
// the pair untouched and is reported as a NaN coherence; the caller
// decides how to report it.
PairRotation rotate_pair(std::span<float> left, std::span<float> right,
                         float& aii, float& ajj,
                         float rotation_threshold = 0.0f);

struct SweepOptions {
  double precision = 1e-6;          // eq. (6) threshold
  double rotation_threshold = 0.0;  // threshold Jacobi (see HestenesOptions)
  int max_sweeps = 30;
  // When set, run exactly this many sweeps regardless of convergence.
  std::optional<int> fixed_sweeps;
};

struct HestenesResult {
  linalg::MatrixF u;          // rows x cols, orthonormal columns
  std::vector<float> sigma;   // descending
  linalg::MatrixF v;          // cols x cols (empty if accumulate_v = false)
  int sweeps = 0;
  double final_convergence_rate = 0.0;
  bool converged = false;
  // Instrumentation of the O(rows) column traversals, for asserting the
  // incremental-norm invariant: the pair loop issues exactly one dot per
  // pair visit (the off-diagonal aij); the diagonal Gram entries come
  // from the per-column norm cache, which is refreshed by `norm_dots`
  // full dots once per sweep to bound float drift.
  std::uint64_t pair_visits = 0;
  std::uint64_t pair_dots = 0;
  std::uint64_t norm_dots = 0;
};

// Watches a sweep loop in place of its precision test: sees every pair's
// coherence and decides, as each sweep closes, whether to stop. The
// accelerator's SystemModule watches the fabric's sweeps this way.
class SweepMonitor {
 public:
  virtual void begin_sweep() = 0;
  virtual void observe(double coherence) = 0;
  // Closes a sweep; true stops the loop.
  virtual bool end_sweep() = 0;

 protected:
  ~SweepMonitor() = default;
};

// The host sweep loop: refreshes the norm cache at each sweep start,
// runs the sweep's pair visits through rotate_pair (rotating V alongside
// when `v` is non-null), and stops when a sweep's maximum coherence falls
// below the precision target -- or, with a `monitor`, when the monitor
// says so -- or the sweep budget runs out. Fills the sweep count,
// convergence fields and counters of the result; the factors stay in
// `b`/`v` for normalize_in_place. Throws hsvd::InputError naming the pair
// and sweep when a pair's coherence is non-finite (the input overflows
// fp32 Gram products).
HestenesResult run_sweeps(linalg::MatrixF& b, linalg::MatrixF* v,
                          const PairSequence& seq, const SweepOptions& opts,
                          SweepMonitor* monitor = nullptr);

// A whole one-sided Jacobi SVD of `a` under `seq`: run_sweeps on a copy
// (with V = I accumulated when asked) followed by normalize_in_place.
HestenesResult sweep_svd(const linalg::MatrixF& a, bool accumulate_v,
                         const PairSequence& seq, const SweepOptions& opts);

}  // namespace hsvd::jacobi
