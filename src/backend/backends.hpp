// The five registered backends (see backend.hpp for the interface and
// the modeled-time honesty rules):
//
//   aie         -- the cycle-approximate Versal AIE simulator behind the
//                  classic facade path. Estimates come from the DSE
//                  (analytic perf model, eqs. (8)-(14)) plus the power
//                  model; execution is bit-identical to svd() without
//                  routing.
//   aie-sharded -- the multi-array engine (DESIGN.md section 11): the
//                  same fabric cut across S >= 2 simulated arrays.
//                  Factors are bit-identical to the single array; only
//                  the simulated timeline differs.
//   cpu         -- the host SIMD one-sided Jacobi (shifting-ring
//                  ordering, the runtime-dispatched AVX2 kernels).
//                  Reported time is measured wall time; the estimate is
//                  a coarse flops model.
//   fpga-bcv    -- the published FPGA comparator [6]: functional host
//                  BCV Jacobi (the baseline's own ordering), with the
//                  Table II fitted latency model attached as the
//                  reported (modeled) time. No published power figure,
//                  so no energy model.
//   gpu-wcycle  -- the published GPU comparator [11]: functional host
//                  Jacobi, with the Table III fitted latency/throughput
//                  model and the 270 W board power attached as the
//                  reported (modeled) time and energy.
#pragma once

#include <memory>
#include <vector>

#include "backend/backend.hpp"
#include "dse/explorer.hpp"

namespace hsvd::backend {

class AieBackend : public Backend {
 public:
  explicit AieBackend(dse::DesignSpaceExplorer explorer)
      : explorer_(std::move(explorer)) {}
  const char* name() const override { return "aie"; }
  Capabilities capabilities() const override {
    return {.functional = true,
            .modeled_time = false,
            .has_energy_model = true,
            .bit_identical_to_aie = true};
  }
  Estimate estimate(std::size_t rows, std::size_t cols, const Slo& slo,
                    const SvdOptions& options) const override;
  Svd execute(const linalg::MatrixF& a,
              const SvdOptions& options) const override;
  BatchSvd execute_batch(const std::vector<linalg::MatrixF>& batch,
                         const SvdOptions& options) const override;

 private:
  dse::DesignSpaceExplorer explorer_;
};

class ShardedAieBackend : public Backend {
 public:
  explicit ShardedAieBackend(dse::DesignSpaceExplorer explorer)
      : explorer_(std::move(explorer)) {}
  const char* name() const override { return "aie-sharded"; }
  Capabilities capabilities() const override {
    return {.functional = true,
            .modeled_time = false,
            .has_energy_model = true,
            .bit_identical_to_aie = true};
  }
  Estimate estimate(std::size_t rows, std::size_t cols, const Slo& slo,
                    const SvdOptions& options) const override;
  Svd execute(const linalg::MatrixF& a,
              const SvdOptions& options) const override;
  BatchSvd execute_batch(const std::vector<linalg::MatrixF>& batch,
                         const SvdOptions& options) const override;

  // Arrays the backend spans: SvdOptions::shards when the caller asked
  // for more than one, else 2 (the smallest genuinely sharded engine).
  static int shard_count(const SvdOptions& options);

 private:
  dse::DesignSpaceExplorer explorer_;
};

class CpuBackend : public Backend {
 public:
  const char* name() const override { return "cpu"; }
  Capabilities capabilities() const override {
    return {.functional = true,
            .modeled_time = false,
            .has_energy_model = true,
            .bit_identical_to_aie = false};
  }
  Estimate estimate(std::size_t rows, std::size_t cols, const Slo& slo,
                    const SvdOptions& options) const override;
  Svd execute(const linalg::MatrixF& a,
              const SvdOptions& options) const override;
};

class FpgaBcvBackend : public Backend {
 public:
  const char* name() const override { return "fpga-bcv"; }
  Capabilities capabilities() const override {
    return {.functional = true,
            .modeled_time = true,
            .has_energy_model = false,
            .bit_identical_to_aie = false};
  }
  Estimate estimate(std::size_t rows, std::size_t cols, const Slo& slo,
                    const SvdOptions& options) const override;
  Svd execute(const linalg::MatrixF& a,
              const SvdOptions& options) const override;
};

class GpuWcycleBackend : public Backend {
 public:
  const char* name() const override { return "gpu-wcycle"; }
  Capabilities capabilities() const override {
    return {.functional = true,
            .modeled_time = true,
            .has_energy_model = true,
            .bit_identical_to_aie = false};
  }
  Estimate estimate(std::size_t rows, std::size_t cols, const Slo& slo,
                    const SvdOptions& options) const override;
  Svd execute(const linalg::MatrixF& a,
              const SvdOptions& options) const override;
};

// All five backends in registry order. The two AIE backends hold copies
// of `explorer`, which share its placement counters and cross-call
// enumerate memo (dse::DseRequest::memoize) by construction.
std::vector<std::unique_ptr<Backend>> make_backends(
    const dse::DesignSpaceExplorer& explorer);

}  // namespace hsvd::backend
