// The arithmetic of the norm-AIEs. The orth-AIEs' arithmetic is the host's
// own pair kernel, jacobi::rotate_pair (jacobi/sweep.hpp); the
// accelerator's data plane (solve_task) runs both on the host. Kernel
// timing comes from perf::AieKernelModel so the simulator and the
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
