// Analytic latency model of a sharded task (DESIGN.md section 11).
//
// Scales a single-array perf::LatencyBreakdown to S arrays: every block
// round spreads its q = p/2 pairs over the shards (so the per-round
// streaming term shrinks to ceil(q/S) pair slots), the normalization and
// DDR staging stages spread their p blocks the same way, and a new term
// appears -- the inter-shard ring edge, ceil(moves/S) block hops per
// sweep over the AIE->PL->NoC->PL->AIE path (S egress links drain the
// sweep's cross-shard moves in parallel). Used by the DSE to score
// multi-array design points and by bench_scaling for n beyond what the
// cycle-approximate simulator covers in bench time.
#pragma once

#include "accel/config.hpp"
#include "perfmodel/perf_model.hpp"
#include "perfmodel/resource_model.hpp"

namespace hsvd::shard {

struct ShardedBreakdown {
  int shards = 1;
  // Cross-shard block moves of one sweep, and the unqueued cost of one
  // block hop over the inter-shard edge.
  int moves_per_sweep = 0;
  double hop_seconds = 0.0;
  double edge_seconds_per_sweep = 0.0;
  double t_iter = 0.0;       // one sharded sweep
  double t_ddr = 0.0;        // staging, spread over the shard NoCs
  double t_norm_stage = 0.0; // normalization, spread over the shards
  double t_task = 0.0;       // one matrix
  double t_sys = 0.0;        // whole batch
  double throughput_tasks_per_s(int batch) const { return batch / t_sys; }
};

// `single` must be PerformanceModel::evaluate(config, batch). S = 1
// reproduces `single` exactly (zero edge traffic, identical terms).
ShardedBreakdown evaluate_sharded(const accel::HeteroSvdConfig& config,
                                  const perf::LatencyBreakdown& single,
                                  int shards, int batch);

// The resource footprint of `shards` identical arrays running one
// decomposition: S replicas of `single` plus one egress and one ingress
// inter-shard link PLIO per array. S = 1 returns `single` unchanged.
perf::ResourceUsage replicate_resources(const perf::ResourceUsage& single,
                                        int shards);

}  // namespace hsvd::shard
