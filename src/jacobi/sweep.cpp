#include "jacobi/sweep.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/format.hpp"
#include "jacobi/convergence.hpp"
#include "jacobi/normalization.hpp"
#include "jacobi/rotation.hpp"
#include "linalg/ops.hpp"

namespace hsvd::jacobi {

std::vector<ColumnPair> flatten(const EngineSchedule& schedule) {
  std::vector<ColumnPair> visits;
  for (const auto& round : schedule) {
    visits.insert(visits.end(), round.begin(), round.end());
  }
  return visits;
}

PairRotation rotate_pair(std::span<float> left, std::span<float> right,
                         float& aii, float& ajj, float rotation_threshold) {
  const float aij = linalg::dot<float>(left, right);
  PairRotation out;
  out.coherence = pair_coherence(aii, ajj, aij);
  // An overflowed norm hides behind a zero coherence (|aij| / inf), so a
  // non-finite Gram diagonal counts as a non-finite coherence too.
  if (!std::isfinite(aii) || !std::isfinite(ajj)) {
    out.coherence = std::numeric_limits<double>::quiet_NaN();
  }
  if (!std::isfinite(out.coherence)) return out;
  const Rotation<float> rot =
      compute_rotation(aii, ajj, aij, rotation_threshold);
  if (rot.identity) return out;
  linalg::apply_rotation(left, right, rot.c, rot.s);
  linalg::rotated_norms(aii, ajj, aij, rot.c, rot.s, aii, ajj);
  if (!(aii > 0.0f)) {
    aii = linalg::dot<float>(left, left);
    ++out.norm_refreshes;
  }
  if (!(ajj > 0.0f)) {
    ajj = linalg::dot<float>(right, right);
    ++out.norm_refreshes;
  }
  out.c = rot.c;
  out.s = rot.s;
  out.rotated = true;
  return out;
}

namespace {

// Recomputes colnorm[j] = ||b.col(j)||^2 for every column.
void refresh_norms(const linalg::MatrixF& b, std::vector<float>& colnorm) {
  colnorm.resize(b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    const auto col = b.col(j);
    colnorm[j] = linalg::dot<float>(col, col);
  }
}

}  // namespace

HestenesResult run_sweeps(linalg::MatrixF& b, linalg::MatrixF* v,
                          const PairSequence& seq, const SweepOptions& opts,
                          SweepMonitor* monitor) {
  HSVD_REQUIRE(!seq.sweeps.empty(), "pair sequence has no sweeps");
  const int budget = opts.fixed_sweeps.value_or(opts.max_sweeps);
  HSVD_REQUIRE(budget >= 1, "sweep budget must be positive");
  const auto threshold = static_cast<float>(opts.rotation_threshold);

  HestenesResult out;
  ConvergenceTracker tracker(opts.precision);
  // Incremental Gram-norm cache, refreshed from scratch at every sweep
  // start so float drift stays bounded by one sweep's rotations.
  std::vector<float> colnorm;
  int sweep = 0;
  for (; sweep < budget; ++sweep) {
    tracker.begin_sweep();
    if (monitor != nullptr) monitor->begin_sweep();
    refresh_norms(b, colnorm);
    out.norm_dots += b.cols();
    for (const ColumnPair& pair : seq.sweep(sweep)) {
      const auto li = static_cast<std::size_t>(pair.left);
      const auto ri = static_cast<std::size_t>(pair.right);
      const PairRotation r =
          rotate_pair(b.col(li), b.col(ri), colnorm[li], colnorm[ri], threshold);
      ++out.pair_visits;
      ++out.pair_dots;
      out.norm_dots += static_cast<std::uint64_t>(r.norm_refreshes);
      if (!std::isfinite(r.coherence)) {
        throw InputError(cat("non-finite coherence for column pair (", li,
                             ", ", ri, ") in sweep ", sweep + 1,
                             ": the input overflows fp32 Gram products"));
      }
      tracker.observe(r.coherence);
      if (monitor != nullptr) monitor->observe(r.coherence);
      if (r.rotated && v != nullptr) {
        linalg::apply_rotation(v->col(li), v->col(ri), r.c, r.s);
      }
    }
    const bool stop = monitor != nullptr
                          ? monitor->end_sweep()
                          : !opts.fixed_sweeps.has_value() && tracker.converged();
    if (stop) {
      ++sweep;
      break;
    }
  }
  out.sweeps = sweep;
  out.final_convergence_rate = tracker.sweep_rate();
  out.converged = tracker.converged();
  return out;
}

HestenesResult sweep_svd(const linalg::MatrixF& a, bool accumulate_v,
                         const PairSequence& seq, const SweepOptions& opts) {
  linalg::MatrixF b = a;
  linalg::MatrixF v;
  if (accumulate_v) v = linalg::MatrixF::identity(a.cols());
  HestenesResult out = run_sweeps(b, accumulate_v ? &v : nullptr, seq, opts);
  normalize_in_place(b, v, accumulate_v, out.u, out.sigma, out.v);
  return out;
}

}  // namespace hsvd::jacobi
