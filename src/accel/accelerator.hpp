// The HeteroSVD accelerator: Algorithm 1 on the simulated Versal fabric,
// as a host data plane plus a cycle-approximate walk of the fabric.
//
// One instance drives S >= 1 arrays (DESIGN.md section 11). Each array
// is a fabric: an AIE array simulator, a placement, per-task PLIO
// channels, the classified dataflow and a NoC; S > 1 arrays also share
// an inter-shard link. The fabric's timing depends on the data only
// through the sweep count (the paper's model, eqs. (8)-(14)), so the two
// are computed apart:
//   - the data plane (solve_task) sweeps the zero-padded input on the
//     host with jacobi::run_sweeps over the fabric's own pair order,
//     block_sequence(), while the SystemModule decides when to stop;
//   - the walk (execute_task) runs the block ring of
//     jacobi::block_ring_schedule, pair site j on array j % S, and
//     drives every Tx packet, orth/norm kernel, neighbour move, DMA, Rx
//     transfer and cross-array hop of that many sweeps through the
//     simulators, moving buffer records -- byte counts plus injected bit
//     flips -- through the tile memories, so capacity checks, fault
//     injection and the detection points see every buffer the silicon
//     would hold.
// S = 1 is the degenerate ring: every site sits on the one array and no
// block crosses, which is the paper's single-array timeline. run() is
// the data plane followed by the walk; estimate() is the walk at
// config.iterations sweeps.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/config.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "accel/dataflow.hpp"
#include "accel/placement.hpp"
#include "accel/pl_modules.hpp"
#include "jacobi/sweep.hpp"
#include "linalg/matrix.hpp"
#include "perfmodel/aie_timing.hpp"
#include "perfmodel/resource_model.hpp"
#include "shard/topology.hpp"
#include "versal/array.hpp"
#include "versal/noc.hpp"

namespace hsvd::accel {

struct TaskResult {
  linalg::MatrixF u;          // rows x cols (empty from estimate())
  std::vector<float> sigma;   // descending  (empty from estimate())
  int iterations = 0;
  double convergence_rate = 0.0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
  // Per-task robustness outcome. kFailed tasks have empty factors and a
  // diagnostic in `message`; `fault_tile` names the AIE tile the
  // detection point blamed (input to re-placement). `converged` is the
  // SystemModule decision in precision mode (always true in
  // fixed-iteration mode, which has no target). `recovery_attempts` is 0
  // for first-try results and n > 0 when the task succeeded on the nth
  // re-placed retry.
  hsvd::SvdStatus status = hsvd::SvdStatus::kOk;
  std::string message;
  std::optional<versal::TileCoord> fault_tile;
  bool converged = true;
  bool watchdog_stalled = false;
  int recovery_attempts = 0;
  bool ok() const { return status != hsvd::SvdStatus::kFailed; }
  double latency_seconds() const { return end_seconds - start_seconds; }
  // The kFailed result of a task whose detection point fired while its
  // slot was free at `at`.
  static TaskResult failed(const hsvd::FaultDetected& e, double at);
};

struct RunResult {
  std::vector<TaskResult> tasks;
  double batch_seconds = 0.0;      // makespan over the whole batch (t_sys)
  double task_seconds = 0.0;       // latency of the first task (t_task)
  double throughput_tasks_per_s = 0.0;
  versal::ArrayStats stats;
  perf::ResourceUsage resources;
  double core_utilization = 0.0;   // busy fraction of active AIE cores
  double memory_utilization = 0.0; // URAM usage fraction of the device
  int failed_tasks = 0;            // tasks still kFailed after recovery
  int recovery_runs = 0;           // re-placement + re-run rounds consumed
  // Per-tile busy/stall/idle tallies and link-byte counters for the
  // initial batch execution (recovery re-runs rebuild the array and are
  // not merged). utilization.core_utilization() equals core_utilization
  // for fault-free runs.
  versal::UtilizationReport utilization;
};

// Re-derives failed_tasks, and after any failure or recovery round the
// makespan and throughput over the tasks that completed. A fault-free run
// keeps its numbers untouched.
void settle_after_recovery(RunResult& result);

// The data plane of one task: zero-pads `matrix` to whole blocks (zero
// columns are fixed points of the rotations and drop out after
// normalization), sweeps it with jacobi::run_sweeps over `sequence` --
// the fabric's pair order -- while a SystemModule makes the stop and
// watchdog decisions, normalizes, and returns the factors sorted by
// descending sigma and truncated to the input's columns, with the sweep
// count and convergence outcome (kNotConverged with its diagnostic when
// a precision target is missed). Start and end times are left for the
// walk. Throws hsvd::FaultDetected, with no tile attributed, when the
// data overflows fp32: masking a tile cannot help.
TaskResult solve_task(const HeteroSvdConfig& config,
                      const jacobi::PairSequence& sequence,
                      const linalg::MatrixF& matrix);

class HeteroSvdAccelerator {
 public:
  // Builds `shards` identically placed arrays -- S = 1 is the paper's one
  // array -- plus, when S > 1, the inter-shard link between them. Throws
  // PlacementError when the configuration does not fit one array.
  explicit HeteroSvdAccelerator(const HeteroSvdConfig& config, int shards = 1);

  // Batch execution with per-task fault isolation. Every matrix must be
  // rows x cols. A task whose data overflows fp32, or whose walk trips a
  // detection point (corrupted or lost buffer, hung core), is recorded
  // as SvdStatus::kFailed without disturbing the other tasks; when the
  // detection attributes a tile and config().fault_retries allows, the
  // accelerator masks the tile on the array that raised it, re-places
  // that array and re-runs only the failed tasks. One array may degrade
  // P_task, then P_eng, to fit the healthy tiles; S > 1 arrays keep the
  // shape, so the block structure stays identical across them.
  RunResult run(const std::vector<linalg::MatrixF>& batch);

  // The walk of `batch_size` tasks at config().iterations sweeps each:
  // run()'s timeline, counters and capacity checks without the data.
  RunResult estimate(int batch_size);

  const HeteroSvdConfig& config() const { return config_; }
  int shards() const { return static_cast<int>(fabrics_.size()); }
  // The priced AIE->PL->NoC->PL->AIE edge between arrays (null when
  // S == 1: one array has no inter-shard traffic).
  const shard::InterShardLink* link() const { return link_.get(); }
  // The pair order the fabric sweeps: block_sequence(ordering,
  // padded_cols, P_eng) of the current configuration.
  const jacobi::PairSequence& pair_sequence() const { return sequence_; }
  // Attach a fault injector (not owned; nullptr detaches) to array 0,
  // so fault scenarios stay comparable for every S. PLIO degradation
  // faults are applied to its task slots' channels immediately;
  // tile-level faults fire from inside its array simulator.
  void attach_faults(versal::FaultInjector* faults);
  // Attach an observability context (not owned; nullptr detaches) to
  // every array. Metrics are recorded unconditionally once attached;
  // when the context's tracer is enabled the batch engine additionally
  // records task/PLIO/DDR spans and fault detect/recover instants, and
  // runs slot chains and the per-round shard fan-out sequentially so the
  // event order stays reproducible. Observation never changes results or
  // the simulated timeline.
  void attach_observer(obs::ObsContext* observer);
  obs::ObsContext* observer() const { return obs_; }
  // Attach a cooperative cancellation token (not owned; nullptr
  // detaches). The batch engine polls it before each task of a chain,
  // at each task's sweep barriers and before each recovery round, and
  // aborts the run by throwing hsvd::DeadlineExceeded once it expires.
  // Work is never interrupted mid-sweep, and an abort at a sweep
  // barrier purges the task's tile buffers on every array, so
  // cancellation leaves the simulator in a consistent state.
  void attach_cancellation(const common::CancelToken* cancel);
  const PlacementResult& placement(int shard = 0) const;
  const DataflowPlan& dataflow(std::size_t task_slot) const;
  const perf::AieKernelModel& kernel_model() const { return kernels_; }
  // Tiles of array 0 diagnosed faulty so far; re-placement never uses
  // them.
  const std::vector<versal::TileCoord>& masked_tiles() const {
    return fabrics_.front().masked;
  }
  // Simulator counters summed over every array; like RunResult::stats
  // they accumulate across runs.
  versal::ArrayStats array_stats() const;

 private:
  // Per task slot: 2 Tx + 2 Rx orth channels, 1 Tx + 1 Rx norm channel
  // (6 PLIOs, Table I), plus the PL modules of Fig. 2 wired to them.
  struct SlotChannels {
    versal::Channel tx[2];
    versal::Channel rx[2];
    versal::Channel norm_tx;
    versal::Channel norm_rx;
    std::unique_ptr<Sender> sender;
    std::unique_ptr<Receiver> receiver;
  };
  // One AIE array with its PL and NoC periphery.
  struct Fabric {
    explicit Fabric(const versal::DeviceResources& device);
    std::vector<versal::TileCoord> masked;
    PlacementResult placement;
    std::unique_ptr<versal::AieArraySim> array;
    std::vector<jacobi::EngineSchedule> slot_schedules;  // per task slot
    std::vector<DataflowPlan> dataflows;                 // per task slot
    std::vector<std::unique_ptr<SlotChannels>> channels;  // per task slot
    versal::NocModel noc;
    // Appended to the trace tracks this array draws: "" for one array,
    // "@a<s>" for array s of several.
    std::string track_tag;
  };
  // Completion times of one executed block pair: when each of its two
  // blocks is back in the PL URAM buffers.
  struct PairCompletion {
    double done_u = 0.0;
    double done_v = 0.0;
  };
  struct RingPair {
    int bu;
    int bv;
  };
  struct Crossing {
    int block;
    int from;
    int to;
  };

  // Walks `sweeps` sweeps and the normalization of one task on hardware
  // slot `slot` of every array, starting no earlier than `ready`;
  // returns the task's end time. `task_id` tags the task's column
  // buffers in tile memories; ids are assigned up front by execute_batch
  // so slot chains can run on concurrent host threads. Throws
  // hsvd::FaultDetected when a detection point fires, after recording
  // the raising array in `fault_shard`.
  double execute_task(int slot, double ready, int sweeps, int task_id,
                      int& fault_shard);

  // Runs `batch_size` tasks: each one's data plane when `batch` is given
  // (estimate() passes none and walks config_.iterations sweeps), then
  // its walk. `fault_shards[t]` is the array whose detection point
  // failed task t (-1 when none did).
  RunResult execute_batch(int batch_size,
                          const std::vector<linalg::MatrixF>* batch,
                          std::vector<int>& fault_shards);

  // One DDR -> PL URAM staging transfer on the NoC port wired to `slot`.
  double stage_from_ddr(Fabric& f, int slot, double when, double bytes);

  // Walks one block pair (bu, bv) of task `task_id` on hardware slot
  // `slot`, starting no earlier than `launch` (HLS loop-switch overhead
  // already included by the caller): Tx of both blocks over the slot's
  // two orth PLIOs, the (2k-1)-layer orthogonalization pipeline with its
  // inter-layer moves, and Rx back into the PL buffers. Throws
  // hsvd::FaultDetected, blaming a tile, when a core hangs or a column
  // buffer is lost or arrives at Rx carrying an injected bit flip.
  PairCompletion execute_block_pair(Fabric& f, int slot, int task_id, int bu,
                                    int bv, double launch);

  // Walks the normalization of block `blk` (norm Tx at `ready`, k norm
  // kernels, per-column Rx); returns when the block's results are back
  // in the PL buffers. Throws hsvd::FaultDetected when a core hangs.
  double execute_norm_block(Fabric& f, int slot, int blk, double ready);

  // Releases every buffer a failed task left in its slot's tile
  // memories on every array, so later tasks on the same tiles start
  // clean.
  void purge_task_buffers(int slot, int task_id);

  // Derives the pair sequence and the block ring's per-shard round
  // lists from config_. Called by the constructor and after every
  // successful re-placement, which may have changed the shape.
  void compile_schedule();

  // (Re)derives array `shard`'s placement, schedules, dataflows, array
  // simulator and PLIO channels from config_ and its masked tiles.
  void place(std::size_t shard);

  // Adds `bad` to array `shard`'s masked set and re-places it. One array
  // degrades config_.p_task down to 1, then config_.p_eng, when the
  // healthy tiles no longer fit the current shape; S > 1 arrays keep the
  // shape. Returns false when nothing fits (recovery impossible).
  bool mask_and_replace(std::size_t shard,
                        const std::vector<versal::TileCoord>& bad);

  // Scales every PLIO channel of each of array 0's task slots by the
  // attached fault injector's degraded-link factor (a no-op without an
  // injector). The paper's PLIOs are static physical routes, so a
  // degraded link stays degraded for the whole run.
  void apply_plio_degradation();

  HeteroSvdConfig config_;
  perf::AieKernelModel kernels_;
  perf::PlioModel plio_model_;
  std::vector<Fabric> fabrics_;
  std::unique_ptr<shard::InterShardLink> link_;
  jacobi::PairSequence sequence_;
  // The block ring (jacobi::block_ring_schedule, pair site j on array
  // j % S), compiled once per shape: per round and array, the pairs it
  // walks in site order; per round, the blocks whose next site is on
  // another array (none when S == 1); per array, the blocks it stages
  // and normalizes (their round-0 home).
  std::vector<std::vector<std::vector<RingPair>>> round_pairs_;
  std::vector<std::vector<Crossing>> crossings_;
  std::vector<std::vector<int>> home_blocks_;
  int next_task_id_ = 0;
  // HLS loop-switching overhead applied at block-round boundaries.
  double hls_overhead_s_ = 0.0;
  versal::FaultInjector* faults_ = nullptr;
  const common::CancelToken* cancel_ = nullptr;
  obs::ObsContext* obs_ = nullptr;
};

}  // namespace hsvd::accel
