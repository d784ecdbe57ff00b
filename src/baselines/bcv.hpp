// BCV (odd-even transposition) Jacobi ordering -- the algorithm of the
// FPGA baseline [6] ("ultra-parallel BCV Jacobi").
//
// For n columns, a sweep has n rounds alternating the odd phase
// (pairs (0,1), (2,3), ...) and the even phase (pairs (1,2), (3,4), ...).
// Unlike the tournament orderings in src/jacobi, a single BCV sweep does
// NOT visit every pair; convergence instead relies on repeated sweeps
// (the transpositions diffuse columns across positions). We implement it
// functionally to compare convergence behaviour against the ring
// orderings: bcv_sequence turns the position network into column-pair
// visits, and bcv_svd runs them through jacobi::run_sweeps.
#pragma once

#include <optional>
#include <vector>

#include "jacobi/sweep.hpp"
#include "linalg/matrix.hpp"

namespace hsvd::baselines {

// rounds[r] = disjoint position pairs of phase r (r even: odd phase).
std::vector<std::vector<std::pair<int, int>>> bcv_rounds(int columns);

// The column-pair visits of BCV sweeps. Column *positions* are paired;
// after each rotation the two columns swap positions, which is what
// carries every column across the array over a sweep. One sweep of n
// rounds reverses the position order and the next restores it, so the
// sequence has a period of two sweeps.
jacobi::PairSequence bcv_sequence(int columns);

struct BcvOptions {
  double precision = 1e-6;
  int max_sweeps = 60;
  std::optional<int> fixed_sweeps;
};

// One-sided Jacobi SVD with BCV ordering (bcv_sequence).
jacobi::HestenesResult bcv_svd(const linalg::MatrixF& a,
                               const BcvOptions& opts = {});

}  // namespace hsvd::baselines
