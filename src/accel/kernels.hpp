// Functional AIE kernels: the arithmetic that runs on norm-AIEs. The
// orth-AIEs run the host's own pair kernel, jacobi::rotate_pair
// (jacobi/sweep.hpp), so fabric and host sweeps share one pair step.
// Timing comes from perf::AieKernelModel so the simulator and the
// analytic model agree on per-kernel cost by construction.
#pragma once

#include <span>

namespace hsvd::accel {

struct NormKernelResult {
  float sigma = 0.0f;
};

// Normalizes one column in place (line 23 of Algorithm 1): sigma = ||b||,
// u = b / sigma. Zero columns keep sigma = 0 and are left untouched.
NormKernelResult norm_kernel(std::span<float> column);

}  // namespace hsvd::accel
