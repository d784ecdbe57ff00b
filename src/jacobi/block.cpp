#include "jacobi/block.hpp"

#include <algorithm>
#include <utility>

namespace hsvd::jacobi {

std::vector<std::vector<std::pair<int, int>>> block_pair_rounds(int blocks) {
  HSVD_REQUIRE(blocks >= 2, "need at least two blocks to form pairs");
  // Circle method with a bye slot when the count is odd.
  const int p = blocks % 2 == 0 ? blocks : blocks + 1;
  const int bye = blocks % 2 == 0 ? -1 : p - 1;
  const int m = p - 1;
  std::vector<std::vector<std::pair<int, int>>> rounds;
  rounds.reserve(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, int>> row;
    row.reserve(static_cast<std::size_t>(p / 2));
    auto push = [&](int u, int v) {
      if (u == bye || v == bye) return;
      if (u > v) std::swap(u, v);
      row.push_back({u, v});
    };
    push(p - 1, r);
    for (int i = 1; i < p / 2; ++i) push((r + i) % m, ((r - i) % m + m) % m);
    rounds.push_back(std::move(row));
  }
  return rounds;
}

PairSequence block_sequence(OrderingKind ordering, int columns,
                            int block_cols) {
  HSVD_REQUIRE(block_cols >= 1, "block width must be positive");
  HSVD_REQUIRE(columns % block_cols == 0,
               "column count must be a multiple of block width");
  const int k = block_cols;
  const int p = columns / k;
  if (p == 1) return hestenes_sequence(ordering, columns);
  const std::vector<ColumnPair> local = flatten(make_schedule(ordering, 2 * k));
  // Local column c of a block pair (u, v): block u's columns, then v's.
  const auto global = [k](int c, int bu, int bv) {
    return c < k ? bu * k + c : bv * k + (c - k);
  };
  std::vector<ColumnPair> visits;
  for (const auto& round : block_pair_rounds(p)) {
    for (const auto& [bu, bv] : round) {
      for (const ColumnPair& pair : local) {
        visits.push_back(
            {global(pair.left, bu, bv), global(pair.right, bu, bv)});
      }
    }
  }
  return PairSequence{{std::move(visits)}};
}

HestenesResult block_hestenes_svd(const linalg::MatrixF& a,
                                  const BlockOptions& opts) {
  HSVD_REQUIRE(a.rows() >= a.cols(), "block_hestenes_svd expects rows >= cols");
  return sweep_svd(a, opts.accumulate_v,
                   block_sequence(opts.ordering, static_cast<int>(a.cols()),
                                  opts.block_cols),
                   {opts.precision, opts.rotation_threshold, opts.max_sweeps,
                    opts.fixed_sweeps});
}

}  // namespace hsvd::jacobi
