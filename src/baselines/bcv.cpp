#include "baselines/bcv.hpp"

#include <numeric>
#include <utility>

namespace hsvd::baselines {

std::vector<std::vector<std::pair<int, int>>> bcv_rounds(int columns) {
  HSVD_REQUIRE(columns >= 2, "need at least two columns");
  std::vector<std::vector<std::pair<int, int>>> rounds;
  rounds.reserve(static_cast<std::size_t>(columns));
  for (int r = 0; r < columns; ++r) {
    std::vector<std::pair<int, int>> row;
    for (int i = r % 2; i + 1 < columns; i += 2) row.push_back({i, i + 1});
    rounds.push_back(std::move(row));
  }
  return rounds;
}

jacobi::PairSequence bcv_sequence(int columns) {
  const auto rounds = bcv_rounds(columns);
  // Position permutation: pos[i] = column currently at array position i.
  std::vector<int> pos(static_cast<std::size_t>(columns));
  std::iota(pos.begin(), pos.end(), 0);
  jacobi::PairSequence seq;
  seq.sweeps.resize(2);
  for (auto& visits : seq.sweeps) {
    for (const auto& round : rounds) {
      for (const auto& [pi, pj] : round) {
        auto& ci = pos[static_cast<std::size_t>(pi)];
        auto& cj = pos[static_cast<std::size_t>(pj)];
        visits.push_back({ci, cj});
        // The transposition: the two columns swap physical positions
        // unconditionally.
        std::swap(ci, cj);
      }
    }
  }
  return seq;
}

jacobi::HestenesResult bcv_svd(const linalg::MatrixF& a, const BcvOptions& opts) {
  HSVD_REQUIRE(a.rows() >= a.cols(), "bcv_svd expects rows >= cols");
  HSVD_REQUIRE(a.cols() >= 2, "need at least two columns");
  return jacobi::sweep_svd(a, true, bcv_sequence(static_cast<int>(a.cols())),
                           {opts.precision, 0.0, opts.max_sweeps,
                            opts.fixed_sweeps});
}

}  // namespace hsvd::baselines
