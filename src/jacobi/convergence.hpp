// Convergence tracking for Hestenes-Jacobi sweeps (paper eq. (6)).
//
// Every orthogonalization reports the pre-rotation coherence of its pair;
// the tracker keeps the sweep maximum. A sweep has converged when no pair
// exceeded `precision` -- exactly the termination test of Algorithm 1.
#pragma once

#include <algorithm>

namespace hsvd::jacobi {

class ConvergenceTracker {
 public:
  explicit ConvergenceTracker(double precision) : precision_(precision) {}

  void begin_sweep() { sweep_max_ = 0.0; }

  void observe(double coherence) { sweep_max_ = std::max(sweep_max_, coherence); }

  double sweep_rate() const { return sweep_max_; }
  double precision() const { return precision_; }
  bool converged() const { return sweep_max_ < precision_; }

 private:
  double precision_;
  double sweep_max_ = 0.0;
};

}  // namespace hsvd::jacobi
