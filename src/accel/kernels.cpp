#include "accel/kernels.hpp"

#include "linalg/ops.hpp"

namespace hsvd::accel {

NormKernelResult norm_kernel(std::span<float> column) {
  NormKernelResult out;
  out.sigma = linalg::norm2<float>(column);
  if (out.sigma > 0.0f) {
    const float inv = 1.0f / out.sigma;
    for (float& v : column) v *= inv;
  }
  return out;
}

}  // namespace hsvd::accel
