// Multi-array sharded execution of one SVD (DESIGN.md section 11).
//
// A ShardedAccelerator partitions a single decomposition across S
// simulated AIE arrays. The unit of distribution is the block-level
// tournament ring: the pair sites of jacobi::block_ring_schedule are
// assigned to shards cyclically (site j -> shard j % S), so each block
// round's q = p/2 pairs spread over the S arrays and run concurrently.
// A block that stays on one shard between rounds keeps living in that
// array's PL URAM buffers for free; a block whose next site lives on
// another shard crosses the shard::InterShardLink -- out over the
// source array's AIE->PL PLIO, across the NoC/DDR fabric, and in over
// the destination's PL->AIE PLIO -- and its ready time carries that
// edge cost.
//
// Determinism and bit-identity. The factors come from the single-array
// data plane (solve_task): pairs within a block round are disjoint
// (tournament rounds), so spreading a round over shards does not change
// them, and they are bit-identical to the single-array path for every S.
// S = 1 delegates to the inner HeteroSvdAccelerator outright (the whole
// RunResult, timings included, is bit-identical to a plain run). The
// walk's host fan-out over shards touches only disjoint state per shard
// (its own array/channels/NoC and completion slots), so results are
// identical for any host thread count; cross-shard edge transfers are
// charged on the coordinator in schedule order, never concurrently.
//
// Faults. The fault injector is attached to shard 0 only (fault
// scenarios stay comparable with the single-array engine); detection
// points on any shard still fire. Recovery masks the blamed tile on the
// shard that raised it via mask_tiles -- a same-shape re-placement, so
// the block structure stays identical across arrays -- and re-runs the
// failed tasks.
#pragma once

#include <memory>
#include <vector>

#include "accel/accelerator.hpp"
#include "shard/topology.hpp"

namespace hsvd::accel {

class ShardedAccelerator {
 public:
  // Builds S identically configured single-array accelerators plus the
  // inter-shard link. shards must be >= 1; every array must fit the
  // device (throws PlacementError otherwise, like the inner engine).
  ShardedAccelerator(const HeteroSvdConfig& config, int shards);
  ~ShardedAccelerator();

  // Functional batch execution with per-task fault isolation and
  // bounded masked-tile recovery; the same contract as
  // HeteroSvdAccelerator::run. Tasks of a sharded batch run
  // sequentially (they share the inter-shard link's timelines).
  RunResult run(const std::vector<linalg::MatrixF>& batch);

  // The walk of `batch_size` tasks at config().iterations sweeps each.
  RunResult estimate(int batch_size);

  int shards() const { return static_cast<int>(arrays_.size()); }
  const HeteroSvdConfig& config() const { return arrays_.front()->config(); }
  HeteroSvdAccelerator& array(int s);
  // The priced AIE->PL->NoC->PL->AIE edge (null when S == 1: a single
  // array has no inter-shard traffic).
  const shard::InterShardLink* link() const { return link_.get(); }

  // Attachment points mirror the single-array engine. Faults and the
  // observer go to shard 0 (S = 1: the only array); with an enabled
  // tracer attached the per-round shard fan-out runs sequentially so
  // event order stays reproducible.
  void attach_faults(versal::FaultInjector* faults);
  void attach_observer(obs::ObsContext* observer);
  void attach_cancellation(const common::CancelToken* cancel);

 private:
  // The walk of one sharded task: staging on each block's home shard,
  // `sweeps` sharded sweeps, inter-shard edge charges between rounds, and
  // the distributed normalization stage; returns the task's end time.
  // Throws hsvd::FaultDetected (and records the raising shard in
  // *fault_shard) like the single-array walk.
  double execute_task(double ready, int sweeps, int task_id, int* fault_shard);

  RunResult execute_batch(int batch_size,
                          const std::vector<linalg::MatrixF>* batch,
                          std::vector<int>* fault_shards);

  bool fanout_parallel() const;

  std::vector<std::unique_ptr<HeteroSvdAccelerator>> arrays_;
  std::unique_ptr<shard::InterShardLink> link_;
  // Padded block tournament (phantom bye block id == config().blocks()
  // when the count is odd); pair site j of every round maps to shard
  // j % S.
  jacobi::EngineSchedule block_schedule_;
  int next_task_id_ = 0;
  const common::CancelToken* cancel_ = nullptr;
  obs::ObsContext* obs_ = nullptr;
};

}  // namespace hsvd::accel
