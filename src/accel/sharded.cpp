#include "accel/sharded.hpp"

#include <algorithm>
#include <optional>

#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "jacobi/movement.hpp"
#include "perfmodel/resource_model.hpp"
#include "shard/merge.hpp"

namespace hsvd::accel {

ShardedAccelerator::ShardedAccelerator(const HeteroSvdConfig& config,
                                       int shards) {
  HSVD_REQUIRE(shards >= 1, "need at least one shard");
  config.validate();
  arrays_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    arrays_.push_back(std::make_unique<HeteroSvdAccelerator>(config));
  }
  if (shards > 1) {
    link_ = std::make_unique<shard::InterShardLink>(
        shards, config.device, config.pl_frequency_hz);
    block_schedule_ = jacobi::block_ring_schedule(config.blocks());
  }
}

ShardedAccelerator::~ShardedAccelerator() = default;

HeteroSvdAccelerator& ShardedAccelerator::array(int s) {
  HSVD_REQUIRE(s >= 0 && s < shards(), "shard index out of range");
  return *arrays_[static_cast<std::size_t>(s)];
}

void ShardedAccelerator::attach_faults(versal::FaultInjector* faults) {
  arrays_.front()->attach_faults(faults);
}

void ShardedAccelerator::attach_observer(obs::ObsContext* observer) {
  obs_ = observer;
  arrays_.front()->attach_observer(observer);
}

void ShardedAccelerator::attach_cancellation(const common::CancelToken* cancel) {
  cancel_ = cancel;
  arrays_.front()->attach_cancellation(cancel);
}

bool ShardedAccelerator::fanout_parallel() const {
  const int threads =
      common::ThreadPool::resolve_threads(config().host_threads);
  return threads > 1 && shards() > 1 &&
         (obs_ == nullptr || obs_->tracer() == nullptr);
}

double ShardedAccelerator::execute_task(double ready_at, int sweeps,
                                        int task_id, int* fault_shard) {
  const HeteroSvdConfig& cfg = config();
  const int p = cfg.blocks();
  const int s_count = shards();
  const double block_bytes =
      static_cast<double>(cfg.rows) * sizeof(float) * cfg.p_eng;
  const double hls = arrays_.front()->hls_overhead_seconds();

  // Round-0 occupancy of the block ring defines each block's home shard:
  // that is where its DDR staging lands and where it sits again after
  // every sweep's wrap-around (so normalization also runs there).
  std::vector<int> block_shard(static_cast<std::size_t>(p), 0);
  const auto& round0 = block_schedule_.front();
  for (std::size_t j = 0; j < round0.size(); ++j) {
    const int s = jacobi::shard_of_slot(static_cast<int>(j), s_count);
    if (round0[j].left < p) block_shard[static_cast<std::size_t>(round0[j].left)] = s;
    if (round0[j].right < p) block_shard[static_cast<std::size_t>(round0[j].right)] = s;
  }

  // Stage every block from DDR through its home shard's NoC (eq. (12)
  // per shard: the S staging streams run concurrently, each serialized
  // on its own DDRMC port).
  std::vector<double> ready(static_cast<std::size_t>(p), 0.0);
  for (int blk = 0; blk < p; ++blk) {
    const int s = block_shard[static_cast<std::size_t>(blk)];
    ready[static_cast<std::size_t>(blk)] =
        arrays_[static_cast<std::size_t>(s)]->stage_from_ddr(0, ready_at,
                                                             block_bytes);
  }

  const std::size_t round_count = block_schedule_.size();
  const bool parallel = fanout_parallel();

  // Per-shard pair lists of one round, rebuilt per round: (site j, bu, bv).
  struct SitePair {
    std::size_t site;
    int bu;
    int bv;
  };

  for (int iter = 0; iter < sweeps; ++iter) {
    for (std::size_t r = 0; r < round_count; ++r) {
      const auto& row = block_schedule_[r];
      std::vector<std::vector<SitePair>> per_shard(
          static_cast<std::size_t>(s_count));
      for (std::size_t j = 0; j < row.size(); ++j) {
        const int bu = row[j].left;
        const int bv = row[j].right;
        if (bu >= p || bv >= p) continue;  // phantom bye pair (odd p)
        per_shard[static_cast<std::size_t>(
                      jacobi::shard_of_slot(static_cast<int>(j), s_count))]
            .push_back(SitePair{j, bu, bv});
      }
      // All pairs of a round depend only on the previous round's ready
      // times, so the shards run concurrently; within a shard the pairs
      // serialize on its PLIO channels in site order. Every write below
      // is shard-disjoint (its own array, its pairs' matrix columns, its
      // completion slots), so the fan-out is thread-count invariant.
      std::vector<HeteroSvdAccelerator::PairCompletion> completions(row.size());
      std::vector<std::optional<hsvd::FaultDetected>> faults(
          static_cast<std::size_t>(s_count));
      const auto run_shard = [&](std::size_t s) {
        try {
          for (const SitePair& sp : per_shard[s]) {
            const double launch =
                std::max(ready[static_cast<std::size_t>(sp.bu)],
                         ready[static_cast<std::size_t>(sp.bv)]) +
                hls;
            completions[sp.site] = arrays_[s]->execute_block_pair(
                0, task_id, sp.bu, sp.bv, launch);
          }
        } catch (const hsvd::FaultDetected& e) {
          faults[s] = e;
        }
      };
      if (parallel) {
        common::ThreadPool::shared().parallel_for(
            static_cast<std::size_t>(s_count),
            common::ThreadPool::resolve_threads(cfg.host_threads), run_shard,
            "shard-round");
      } else {
        for (std::size_t s = 0; s < static_cast<std::size_t>(s_count); ++s) {
          run_shard(s);
        }
      }
      for (std::size_t s = 0; s < faults.size(); ++s) {
        if (faults[s].has_value()) {
          if (fault_shard != nullptr) *fault_shard = static_cast<int>(s);
          throw *faults[s];
        }
      }
      for (std::size_t s = 0; s < per_shard.size(); ++s) {
        for (const SitePair& sp : per_shard[s]) {
          ready[static_cast<std::size_t>(sp.bu)] = completions[sp.site].done_u;
          ready[static_cast<std::size_t>(sp.bv)] = completions[sp.site].done_v;
        }
      }
      // Ring rotation to the next round (wrap-around included: the final
      // rotation returns every block to its home site for the next sweep
      // -- and, after the last sweep, for normalization). Cross-shard
      // hops are charged on the coordinator in schedule order; intra-
      // shard moves stay inside the array's PL buffers for free.
      const std::size_t r_next = (r + 1) % round_count;
      for (const auto& mv :
           jacobi::sharded_moves_between(block_schedule_, r, r_next, s_count)) {
        if (mv.move.column >= p) continue;  // the phantom block never moves data
        if (!mv.crosses_shards()) continue;
        const std::size_t blk = static_cast<std::size_t>(mv.move.column);
        ready[blk] = link_->transfer(mv.from_shard, mv.to_shard, ready[blk],
                                     block_bytes);
        block_shard[blk] = mv.to_shard;
      }
    }
  }

  // ---- Normalization stage, distributed over the home shards ----------
  std::vector<std::vector<int>> norm_blocks(static_cast<std::size_t>(s_count));
  for (int blk = 0; blk < p; ++blk) {
    norm_blocks[static_cast<std::size_t>(block_shard[static_cast<std::size_t>(blk)])]
        .push_back(blk);
  }
  std::vector<double> norm_done(static_cast<std::size_t>(s_count), 0.0);
  std::vector<std::optional<hsvd::FaultDetected>> norm_faults(
      static_cast<std::size_t>(s_count));
  const auto run_norm = [&](std::size_t s) {
    try {
      for (int blk : norm_blocks[s]) {
        const double done = arrays_[s]->execute_norm_block(
            0, blk, ready[static_cast<std::size_t>(blk)] + hls);
        norm_done[s] = std::max(norm_done[s], done);
      }
    } catch (const hsvd::FaultDetected& e) {
      norm_faults[s] = e;
    }
  };
  if (parallel) {
    common::ThreadPool::shared().parallel_for(
        static_cast<std::size_t>(s_count),
        common::ThreadPool::resolve_threads(cfg.host_threads), run_norm,
        "shard-norm");
  } else {
    for (std::size_t s = 0; s < static_cast<std::size_t>(s_count); ++s) {
      run_norm(s);
    }
  }
  for (std::size_t s = 0; s < norm_faults.size(); ++s) {
    if (norm_faults[s].has_value()) {
      if (fault_shard != nullptr) *fault_shard = static_cast<int>(s);
      throw *norm_faults[s];
    }
  }
  return *std::max_element(norm_done.begin(), norm_done.end());
}

RunResult ShardedAccelerator::execute_batch(
    int batch_size, const std::vector<linalg::MatrixF>* batch,
    std::vector<int>* fault_shards) {
  HSVD_REQUIRE(batch_size >= 1, "batch must contain at least one task");
  for (auto& a : arrays_) a->reset_timelines();
  link_->reset_time();

  const int base_id = next_task_id_;
  next_task_id_ += batch_size;

  RunResult run;
  run.tasks.resize(static_cast<std::size_t>(batch_size));
  if (fault_shards != nullptr) {
    fault_shards->assign(static_cast<std::size_t>(batch_size), -1);
  }

  // Sharded tasks share the inter-shard link's timelines, so the batch
  // runs as one sequential chain (the host parallelism lives inside each
  // task's per-round shard fan-out instead). Every array sweeps the same
  // pair order, so the data plane is the single-array one.
  const HeteroSvdConfig& cfg = config();
  const jacobi::PairSequence& sequence = arrays_.front()->pair_sequence();
  double free_at = 0.0;
  for (int t = 0; t < batch_size; ++t) {
    if (cancel_ != nullptr && cancel_->expired()) {
      throw hsvd::DeadlineExceeded(
          cat(cancel_->cancelled() ? "cancelled" : "deadline expired",
              " before task ", t, " of the sharded batch"));
    }
    TaskResult task;
    int fault_shard = -1;
    try {
      if (batch != nullptr) {
        task = solve_task(cfg, sequence, (*batch)[static_cast<std::size_t>(t)]);
      } else {
        task.iterations = cfg.iterations;
      }
      task.start_seconds = free_at;
      task.end_seconds =
          execute_task(free_at, task.iterations, base_id + t, &fault_shard);
      free_at = task.end_seconds;
    } catch (const hsvd::FaultDetected& e) {
      task = TaskResult::failed(e, free_at);
      // The failed task left column buffers on every shard's tiles.
      for (auto& a : arrays_) a->purge_task_buffers(0, base_id + t);
      if (obs_ != nullptr) obs_->metrics().add("sim.fault.detected");
    }
    if (fault_shards != nullptr && task.status == hsvd::SvdStatus::kFailed) {
      // execute_task wrote the raising shard before throwing; -1 means
      // the failure predates any shard attribution.
      (*fault_shards)[static_cast<std::size_t>(t)] = fault_shard;
    }
    run.tasks[static_cast<std::size_t>(t)] = std::move(task);
  }
  for (const auto& task : run.tasks) {
    run.batch_seconds = std::max(run.batch_seconds, task.end_seconds);
  }
  run.task_seconds = run.tasks.front().latency_seconds();
  run.throughput_tasks_per_s = batch_size / run.batch_seconds;

  std::vector<versal::ArrayStats> stats;
  std::vector<versal::UtilizationReport> reports;
  for (const auto& a : arrays_) {
    stats.push_back(a->array_stats());
    reports.push_back(a->utilization(run.batch_seconds));
  }
  run.stats = shard::merge_stats(stats);
  run.utilization = shard::merge_utilization(reports);
  run.core_utilization = run.utilization.core_utilization();

  // Resource footprint: S identical arrays plus one egress + one ingress
  // link PLIO per shard. Memory utilization stays the per-device
  // fraction -- each array holds the same placement.
  const perf::ResourceUsage single =
      perf::estimate_resources(config(), arrays_.front()->placement());
  run.resources = single;
  const int s_count = shards();
  run.resources.aie_orth *= s_count;
  run.resources.aie_norm *= s_count;
  run.resources.aie_mem *= s_count;
  run.resources.uram *= s_count;
  run.resources.bram *= s_count;
  run.resources.lut *= static_cast<std::uint64_t>(s_count);
  run.resources.plio = single.plio * s_count + 2 * s_count;
  run.memory_utilization =
      static_cast<double>(single.uram) / config().device.total_uram;
  return run;
}

RunResult ShardedAccelerator::run(const std::vector<linalg::MatrixF>& batch) {
  if (shards() == 1) return arrays_.front()->run(batch);
  std::vector<int> fault_shards;
  RunResult result =
      execute_batch(static_cast<int>(batch.size()), &batch, &fault_shards);

  // Bounded recovery, like the single-array engine -- but a masked tile
  // is re-placed on the shard that raised the detection, with the same
  // shape (mask_tiles), so the block structure stays identical across
  // the arrays.
  int budget = config().fault_retries;
  double epoch = result.batch_seconds;
  int attempt = 0;
  while (budget-- > 0) {
    std::vector<std::size_t> failed;
    std::vector<std::vector<versal::TileCoord>> bad(
        static_cast<std::size_t>(shards()));
    for (std::size_t i = 0; i < result.tasks.size(); ++i) {
      if (result.tasks[i].status != hsvd::SvdStatus::kFailed) continue;
      failed.push_back(i);
      if (result.tasks[i].fault_tile.has_value() && fault_shards[i] >= 0) {
        bad[static_cast<std::size_t>(fault_shards[i])].push_back(
            *result.tasks[i].fault_tile);
      }
    }
    if (failed.empty()) break;
    if (cancel_ != nullptr && cancel_->expired()) {
      throw hsvd::DeadlineExceeded(
          cat(cancel_->cancelled() ? "cancelled" : "deadline expired",
              " before sharded recovery round ", attempt + 1));
    }
    bool masked_any = false;
    bool mask_failed = false;
    for (std::size_t s = 0; s < bad.size(); ++s) {
      if (bad[s].empty()) continue;
      std::sort(bad[s].begin(), bad[s].end());
      bad[s].erase(std::unique(bad[s].begin(), bad[s].end()), bad[s].end());
      if (arrays_[s]->mask_tiles(bad[s])) {
        masked_any = true;
      } else {
        mask_failed = true;
      }
    }
    if (!masked_any || mask_failed) break;
    ++attempt;
    ++result.recovery_runs;
    if (obs_ != nullptr) {
      obs_->metrics().add("sim.fault.recovery_rounds");
    }
    std::vector<linalg::MatrixF> sub;
    sub.reserve(failed.size());
    for (std::size_t i : failed) sub.push_back(batch[i]);
    std::vector<int> retry_fault_shards;
    RunResult retry = execute_batch(static_cast<int>(sub.size()), &sub,
                                    &retry_fault_shards);
    for (std::size_t j = 0; j < failed.size(); ++j) {
      TaskResult task = std::move(retry.tasks[j]);
      task.start_seconds += epoch;
      task.end_seconds += epoch;
      task.recovery_attempts = attempt;
      result.tasks[failed[j]] = std::move(task);
      fault_shards[failed[j]] = retry_fault_shards[j];
    }
    epoch += retry.batch_seconds;
    result.stats += retry.stats;
  }
  settle_after_recovery(result);
  return result;
}

RunResult ShardedAccelerator::estimate(int batch_size) {
  if (shards() == 1) return arrays_.front()->estimate(batch_size);
  HSVD_REQUIRE(config().iterations >= 1,
               "timing-only estimation needs a fixed iteration count");
  return execute_batch(batch_size, nullptr, nullptr);
}

}  // namespace hsvd::accel
