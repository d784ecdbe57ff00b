#include "jacobi/hestenes.hpp"

namespace hsvd::jacobi {

PairSequence hestenes_sequence(OrderingKind ordering, int columns) {
  return PairSequence{{flatten(make_schedule(ordering, columns))}};
}

HestenesResult hestenes_svd(const linalg::MatrixF& a, const HestenesOptions& opts) {
  HSVD_REQUIRE(a.rows() >= a.cols(), "hestenes_svd expects rows >= cols");
  HSVD_REQUIRE(a.cols() >= 2 && a.cols() % 2 == 0,
               "hestenes_svd expects an even column count >= 2");
  return sweep_svd(a, opts.accumulate_v,
                   hestenes_sequence(opts.ordering, static_cast<int>(a.cols())),
                   {opts.precision, opts.rotation_threshold, opts.max_sweeps,
                    opts.fixed_sweeps});
}

}  // namespace hsvd::jacobi
