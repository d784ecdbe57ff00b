// Block Hestenes-Jacobi (paper Algorithm 1, host-side executable model).
//
// A large matrix A (m x n) is split into p = n / block_cols column blocks.
// Each sweep enumerates block pairs round-robin; for every block pair the
// union of its 2*block_cols columns is orthogonalized with a full
// tournament ordering -- the same schedule the orth-AIE array executes.
// The engine is that pair sequence run through jacobi::run_sweeps, so
// convergence (eq. (6)) is the maximum pair coherence over the whole
// sweep (Algorithm 1 lines 10/15) and the pair step is the fabric's own
// kernel: the accelerator's factors equal this engine's bit for bit.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "jacobi/hestenes.hpp"
#include "jacobi/ordering.hpp"
#include "jacobi/sweep.hpp"
#include "linalg/matrix.hpp"

namespace hsvd::jacobi {

struct BlockOptions {
  int block_cols = 8;  // k: columns per block (= P_eng on hardware)
  OrderingKind ordering = OrderingKind::kShiftingRing;
  double precision = 1e-6;
  double rotation_threshold = 0.0;  // threshold Jacobi (see HestenesOptions)
  int max_sweeps = 30;
  std::optional<int> fixed_sweeps;
  bool accumulate_v = true;
};

// Round-robin enumeration of block pairs: rounds of disjoint pairs so that
// every unordered block pair appears exactly once per sweep. Handles odd p
// with a bye. Returns rounds[r] = list of (u, v), u < v.
std::vector<std::vector<std::pair<int, int>>> block_pair_rounds(int blocks);

// One block Hestenes sweep over `columns` columns in blocks of
// `block_cols`: block pairs in block_pair_rounds order, each expanded into
// the 2*block_cols-column tournament of `ordering` (block u's columns
// first). A single block degenerates to hestenes_sequence.
PairSequence block_sequence(OrderingKind ordering, int columns,
                            int block_cols);

// Requires a.cols() divisible by block_cols and rows >= cols.
HestenesResult block_hestenes_svd(const linalg::MatrixF& a,
                                  const BlockOptions& opts = {});

}  // namespace hsvd::jacobi
