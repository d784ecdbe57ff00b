#include "accel/accelerator.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numeric>

#include "accel/kernels.hpp"
#include "shard/merge.hpp"
#include "shard/model.hpp"
#include "common/format.hpp"
#include "common/thread_pool.hpp"
#include "jacobi/block.hpp"
#include "jacobi/movement.hpp"
#include "jacobi/sweep.hpp"

namespace hsvd::accel {

namespace {

versal::BufferId column_buffer(int task_id, int global_col) {
  return {static_cast<std::uint32_t>(task_id),
          static_cast<std::uint32_t>(global_col), false};
}

// Lets the SystemModule make the stop and watchdog decisions of the host
// sweep loop (Algorithm 1 lines 15-16).
class SystemMonitor final : public jacobi::SweepMonitor {
 public:
  SystemMonitor(SystemModule& system, bool precision_mode)
      : system_(system), precision_mode_(precision_mode) {}

  void begin_sweep() override { system_.begin_iteration(); }
  void observe(double coherence) override { system_.observe_pair(coherence); }
  bool end_sweep() override {
    system_.end_iteration();
    if (system_.should_terminate(precision_mode_)) return true;
    // Convergence watchdog: a sweep stream whose off-diagonal coherence
    // has stopped decreasing will not reach the target; stop burning
    // sweeps and surface kNotConverged instead.
    stalled_ = precision_mode_ && system_.stalled();
    return stalled_;
  }
  bool stalled() const { return stalled_; }

 private:
  SystemModule& system_;
  bool precision_mode_;
  bool stalled_ = false;
};

}  // namespace

TaskResult TaskResult::failed(const hsvd::FaultDetected& e, double at) {
  TaskResult task;
  task.status = hsvd::SvdStatus::kFailed;
  task.message = e.what();
  if (e.has_tile()) {
    task.fault_tile = versal::TileCoord{e.tile_row(), e.tile_col()};
  }
  task.start_seconds = at;
  task.end_seconds = at;
  return task;
}

void settle_after_recovery(RunResult& result) {
  result.failed_tasks = 0;
  for (const auto& task : result.tasks) {
    if (task.status == hsvd::SvdStatus::kFailed) ++result.failed_tasks;
  }
  if (result.failed_tasks == 0 && result.recovery_runs == 0) return;
  double makespan = 0.0;
  int completed = 0;
  for (const auto& task : result.tasks) {
    if (task.status == hsvd::SvdStatus::kFailed) continue;
    makespan = std::max(makespan, task.end_seconds);
    ++completed;
  }
  result.batch_seconds = std::max(result.batch_seconds, makespan);
  result.throughput_tasks_per_s =
      result.batch_seconds > 0.0 ? completed / result.batch_seconds : 0.0;
}

TaskResult solve_task(const HeteroSvdConfig& config,
                      const jacobi::PairSequence& sequence,
                      const linalg::MatrixF& matrix) {
  HSVD_REQUIRE(matrix.rows() == config.rows && matrix.cols() == config.cols,
               "matrix shape does not match the accelerator configuration");
  linalg::MatrixF b(config.rows, config.padded_cols());
  b.assign_cols(0, matrix);

  // Sweep cap: the fixed iteration count, raised to 30 when a precision
  // target decides termination.
  const bool precision_mode = config.precision.has_value();
  jacobi::SweepOptions opts;
  opts.max_sweeps =
      precision_mode ? std::max(config.iterations, 30) : config.iterations;
  SystemModule system(config.precision.value_or(0.0));
  SystemMonitor monitor(system, precision_mode);
  TaskResult result;
  try {
    result.iterations =
        jacobi::run_sweeps(b, nullptr, sequence, opts, &monitor).sweeps;
  } catch (const hsvd::InputError& e) {
    throw hsvd::FaultDetected(e.what());
  }
  result.convergence_rate = system.convergence_rate();
  result.watchdog_stalled = monitor.stalled();
  if (precision_mode) {
    result.converged = system.should_terminate(true);
    if (!result.converged) {
      result.status = hsvd::SvdStatus::kNotConverged;
      result.message =
          monitor.stalled()
              ? cat("convergence watchdog: coherence stalled at ",
                    sci(system.convergence_rate()), " for ",
                    SystemModule::stall_limit(), " sweeps")
              : cat("sweep budget exhausted at coherence ",
                    sci(system.convergence_rate()));
    }
  }

  // Normalization stage (lines 19-25 of Algorithm 1).
  std::vector<float> sigma(b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    sigma[j] = norm_kernel(b.col(j)).sigma;
    if (!std::isfinite(sigma[j])) {
      throw hsvd::FaultDetected(cat("norm kernel produced a non-finite "
                                    "singular value for column ", j));
    }
  }
  // Sort factors by descending singular value (done on the PS side in the
  // paper's system; negligible next to the accelerator time). The
  // zero-padded columns have sigma = 0, sort last, and are truncated.
  std::vector<std::size_t> order(sigma.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return sigma[x] > sigma[y];
  });
  result.u = linalg::MatrixF(b.rows(), config.cols);
  result.sigma.resize(config.cols);
  for (std::size_t t = 0; t < config.cols; ++t) {
    result.sigma[t] = sigma[order[t]];
    const auto src = b.col(order[t]);
    std::copy(src.begin(), src.end(), result.u.col(t).begin());
  }
  return result;
}

HeteroSvdAccelerator::Fabric::Fabric(const versal::DeviceResources& device)
    : noc(device.ddr_ports, device.ddr_bytes_per_s, device.ddr_latency_s) {}

HeteroSvdAccelerator::HeteroSvdAccelerator(const HeteroSvdConfig& config,
                                           int shards)
    : config_(config) {
  HSVD_REQUIRE(shards >= 1, "need at least one shard");
  config_.validate();
  fabrics_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    fabrics_.emplace_back(config_.device);
    if (shards > 1) fabrics_.back().track_tag = cat("@a", s);
  }
  for (std::size_t s = 0; s < fabrics_.size(); ++s) place(s);
  compile_schedule();
  if (shards > 1) {
    link_ = std::make_unique<shard::InterShardLink>(
        shards, config_.device, config_.pl_frequency_hz);
  }
}

void HeteroSvdAccelerator::compile_schedule() {
  const int p = config_.blocks();
  const int s_count = shards();
  sequence_ = jacobi::block_sequence(config_.ordering,
                                     static_cast<int>(config_.padded_cols()),
                                     config_.p_eng);
  // The ring's rounds are block_pair_rounds() with the bye pair of an
  // odd count kept as a phantom block p, so one array walks exactly the
  // single-array block order.
  const jacobi::EngineSchedule ring = jacobi::block_ring_schedule(p);
  round_pairs_.assign(ring.size(), std::vector<std::vector<RingPair>>(
                                       static_cast<std::size_t>(s_count)));
  crossings_.assign(ring.size(), {});
  for (std::size_t r = 0; r < ring.size(); ++r) {
    for (std::size_t j = 0; j < ring[r].size(); ++j) {
      const jacobi::ColumnPair& pair = ring[r][j];
      if (pair.left >= p || pair.right >= p) continue;  // bye
      round_pairs_[r][static_cast<std::size_t>(
                          jacobi::shard_of_slot(static_cast<int>(j), s_count))]
          .push_back(RingPair{pair.left, pair.right});
    }
    // Ring rotation to the next round; the wrap-around returns every
    // block to its round-0 home for the next sweep and, after the last
    // sweep, for normalization. Moves inside one array stay in its PL
    // buffers for free.
    for (const auto& mv : jacobi::sharded_moves_between(
             ring, r, (r + 1) % ring.size(), s_count)) {
      if (mv.move.column >= p || !mv.crosses_shards()) continue;
      crossings_[r].push_back(
          Crossing{mv.move.column, mv.from_shard, mv.to_shard});
    }
  }
  std::vector<int> home(static_cast<std::size_t>(p), 0);
  for (std::size_t j = 0; j < ring.front().size(); ++j) {
    const int s = jacobi::shard_of_slot(static_cast<int>(j), s_count);
    for (const int blk : {ring.front()[j].left, ring.front()[j].right}) {
      if (blk < p) home[static_cast<std::size_t>(blk)] = s;
    }
  }
  home_blocks_.assign(static_cast<std::size_t>(s_count), {});
  for (int blk = 0; blk < p; ++blk) {
    home_blocks_[static_cast<std::size_t>(home[static_cast<std::size_t>(blk)])]
        .push_back(blk);
  }
  // Loop-switching overhead of the HLS state machines (t_hls): a fixed
  // number of PL cycles charged at each block-pair launch.
  hls_overhead_s_ = 64.0 / config_.pl_frequency_hz;
}

void HeteroSvdAccelerator::place(std::size_t shard) {
  Fabric& f = fabrics_[shard];
  auto placed = try_place(config_, f.masked);
  if (!placed.has_value()) {
    throw PlacementError(
        cat("configuration does not fit the healthy device: P_eng=",
            config_.p_eng, " P_task=", config_.p_task, " (",
            config_.orth_layers(), " orth-layers, ", f.masked.size(),
            " masked tiles)"));
  }
  f.placement = std::move(*placed);

  const versal::ArrayGeometry geo(config_.device.aie_rows,
                                  config_.device.aie_cols);
  f.array = std::make_unique<versal::AieArraySim>(geo, config_.device);
  f.array->attach_faults(shard == 0 ? faults_ : nullptr);
  f.array->attach_observer(obs_);
  f.array->set_track_tag(f.track_tag);

  f.slot_schedules.clear();
  f.dataflows.clear();
  f.channels.clear();

  // The shifting ring ordering aligns its shifts with the physical parity
  // of the first orth row, which can differ between vertically stacked
  // task slots; every slot therefore owns its schedule and dataflow.
  // (All slots share the same pair coverage, only slot assignment moves.)
  const int pair_cols = config_.pair_width();
  for (const auto& task : f.placement.tasks) {
    const int first_row = task.orth.front().front().row;
    auto schedule =
        jacobi::make_schedule(config_.ordering, pair_cols, first_row % 2);
    f.dataflows.push_back(build_dataflow(schedule, task, geo,
                                         config_.relocated_outputs
                                             ? MemoryStrategy::kRelocated
                                             : MemoryStrategy::kNaive));
    f.slot_schedules.push_back(std::move(schedule));
  }

  const double plio_rate_tx =
      std::min(plio_model_.plio_bits / 8.0 * config_.pl_frequency_hz,
               config_.device.plio_pl_to_aie_bytes_per_s);
  const double plio_rate_rx =
      std::min(plio_model_.plio_bits / 8.0 * config_.pl_frequency_hz,
               config_.device.plio_aie_to_pl_bytes_per_s);
  for (int t = 0; t < config_.p_task; ++t) {
    auto ch = std::make_unique<SlotChannels>(SlotChannels{
        {versal::Channel(cat("tx0.", t, f.track_tag), plio_rate_tx),
         versal::Channel(cat("tx1.", t, f.track_tag), plio_rate_tx)},
        {versal::Channel(cat("rx0.", t, f.track_tag), plio_rate_rx),
         versal::Channel(cat("rx1.", t, f.track_tag), plio_rate_rx)},
        versal::Channel(cat("ntx.", t, f.track_tag), plio_rate_tx),
        versal::Channel(cat("nrx.", t, f.track_tag), plio_rate_rx),
        nullptr,
        nullptr});
    // The dynamic-forwarding rule of section III-C: dest_id e routes to
    // engine e of the slot's first orth-layer.
    versal::ForwardingTable forwarding;
    const auto& layer0 =
        f.placement.tasks[static_cast<std::size_t>(t)].orth.front();
    for (std::size_t e = 0; e < layer0.size(); ++e) {
      forwarding.bind(static_cast<std::uint32_t>(e), layer0[e]);
    }
    ch->sender = std::make_unique<Sender>(ch->tx[0], ch->tx[1],
                                          std::move(forwarding), *f.array);
    ch->receiver =
        std::make_unique<Receiver>(ch->rx[0], ch->rx[1], f.array.get());
    f.channels.push_back(std::move(ch));
  }
  if (shard == 0) apply_plio_degradation();
}

void HeteroSvdAccelerator::attach_observer(obs::ObsContext* observer) {
  obs_ = observer;
  for (Fabric& f : fabrics_) f.array->attach_observer(observer);
}

void HeteroSvdAccelerator::attach_cancellation(
    const common::CancelToken* cancel) {
  cancel_ = cancel;
}

void HeteroSvdAccelerator::attach_faults(versal::FaultInjector* faults) {
  faults_ = faults;
  fabrics_.front().array->attach_faults(faults);
  apply_plio_degradation();
}

void HeteroSvdAccelerator::apply_plio_degradation() {
  if (faults_ == nullptr) return;
  const auto& channels = fabrics_.front().channels;
  for (std::size_t t = 0; t < channels.size(); ++t) {
    const double scale = faults_->plio_scale(static_cast<int>(t));
    if (scale >= 1.0) continue;
    auto& ch = *channels[t];
    for (versal::Channel* c : {&ch.tx[0], &ch.tx[1], &ch.rx[0], &ch.rx[1],
                               &ch.norm_tx, &ch.norm_rx}) {
      c->degrade(scale);
    }
  }
}

const PlacementResult& HeteroSvdAccelerator::placement(int shard) const {
  HSVD_REQUIRE(shard >= 0 && shard < shards(), "shard index out of range");
  return fabrics_[static_cast<std::size_t>(shard)].placement;
}

const DataflowPlan& HeteroSvdAccelerator::dataflow(std::size_t task_slot) const {
  const auto& dataflows = fabrics_.front().dataflows;
  HSVD_REQUIRE(task_slot < dataflows.size(), "task slot out of range");
  return dataflows[task_slot];
}

versal::ArrayStats HeteroSvdAccelerator::array_stats() const {
  versal::ArrayStats sum;
  for (const Fabric& f : fabrics_) sum += f.array->stats();
  return sum;
}

void HeteroSvdAccelerator::purge_task_buffers(int slot, int task_id) {
  const auto id = static_cast<std::uint32_t>(task_id);
  for (Fabric& f : fabrics_) {
    const auto& task = f.placement.tasks[static_cast<std::size_t>(slot)];
    for (const auto& layer : task.orth) {
      for (const auto& tile : layer) f.array->memory(tile).erase_task(id);
    }
    for (const auto& tile : task.mem) f.array->memory(tile).erase_task(id);
    for (const auto& tile : task.norm) f.array->memory(tile).erase_task(id);
  }
}

double HeteroSvdAccelerator::stage_from_ddr(Fabric& f, int slot, double when,
                                            double bytes) {
  const double done = f.noc.transfer_for_slot(slot, when, bytes);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.ddr.transfers");
    obs_->metrics().add("sim.ddr.bytes", static_cast<std::uint64_t>(bytes));
    if (obs::Tracer* tr = obs_->tracer()) {
      // Request latency: issue to completion, queueing included.
      tr->span(obs::Domain::kSim, cat("ddr.slot", slot, f.track_tag),
               "stage", "ddr", when, done - when);
    }
  }
  return done;
}

HeteroSvdAccelerator::PairCompletion HeteroSvdAccelerator::execute_block_pair(
    Fabric& f, int slot, int task_id, int bu, int bv, double launch) {
  const int k = config_.p_eng;
  const std::size_t m = config_.rows;
  const int layers = config_.orth_layers();
  const auto& task = f.placement.tasks[static_cast<std::size_t>(slot)];
  const auto& schedule = f.slot_schedules[static_cast<std::size_t>(slot)];
  const auto& plan = f.dataflows[static_cast<std::size_t>(slot)];
  auto& ch = *f.channels[static_cast<std::size_t>(slot)];
  const std::uint64_t col_bytes = m * sizeof(float);
  const double t_orth = kernels_.orth_seconds(m);

  // ---- Tx: both blocks of the pair over their own PLIOs ---------
  // Local column c (0..2k-1): block u columns then block v columns.
  std::vector<int> global(static_cast<std::size_t>(2 * k));
  for (int i = 0; i < k; ++i) {
    global[static_cast<std::size_t>(i)] = bu * k + i;
    global[static_cast<std::size_t>(k + i)] = bv * k + i;
  }
  const auto round0 = jacobi::slot_map(schedule, 0);
  std::vector<double> arrival(static_cast<std::size_t>(2 * k));
  for (int c = 0; c < 2 * k; ++c) {
    arrival[static_cast<std::size_t>(c)] = ch.sender->send_column(
        c < k ? 0 : 1,
        static_cast<std::uint32_t>(round0[static_cast<std::size_t>(c)].slot),
        static_cast<std::uint32_t>(global[static_cast<std::size_t>(c)]),
        static_cast<std::uint32_t>(task_id), launch, col_bytes);
  }

  // ---- Orthogonalization through the layer pipeline -------------
  for (int l = 0; l < layers; ++l) {
    const auto& row = schedule[static_cast<std::size_t>(l)];
    for (int e = 0; e < k; ++e) {
      const auto& pair = row[static_cast<std::size_t>(e)];
      const versal::TileCoord tile =
          task.orth[static_cast<std::size_t>(l)][static_cast<std::size_t>(e)];
      const double in_ready =
          std::max(arrival[static_cast<std::size_t>(pair.left)],
                   arrival[static_cast<std::size_t>(pair.right)]);
      const double end = f.array->run_kernel(tile, in_ready, t_orth);
      if (!std::isfinite(end)) {
        throw FaultDetected(cat("core ", versal::to_string(tile),
                                " hung during orthogonalization"),
                            tile.row, tile.col, in_ready);
      }
      const auto& mem = f.array->memory(tile);
      if (!mem.contains(column_buffer(
              task_id, global[static_cast<std::size_t>(pair.left)])) ||
          !mem.contains(column_buffer(
              task_id, global[static_cast<std::size_t>(pair.right)]))) {
        throw FaultDetected(
            cat("tile ", versal::to_string(tile),
                " is missing an input column (payload lost in transit)"),
            tile.row, tile.col, end);
      }
      arrival[static_cast<std::size_t>(pair.left)] = end;
      arrival[static_cast<std::size_t>(pair.right)] = end;
    }
    if (l + 1 < layers) {
      for (const auto& mv : plan.transitions[static_cast<std::size_t>(l)].moves) {
        const versal::BufferId id =
            column_buffer(task_id, global[static_cast<std::size_t>(mv.column)]);
        if (!mv.is_dma) {
          f.array->neighbour_move(mv.src, mv.dst, id);
          continue;
        }
        const double done = f.array->dma_move(
            mv.src, mv.dst, id, arrival[static_cast<std::size_t>(mv.column)]);
        arrival[static_cast<std::size_t>(mv.column)] = done;
        // Resolve the DMA shadow: the consumer's copy becomes the live
        // buffer, the producer's original is released.
        auto& dst_mem = f.array->memory(mv.dst);
        const versal::BufferId shadow{id.task, id.column, true};
        if (!dst_mem.contains(shadow)) {
          throw FaultDetected(cat("DMA of ", versal::to_string(id), " out of ",
                                  versal::to_string(mv.src),
                                  " lost its payload"),
                              mv.src.row, mv.src.col, done);
        }
        versal::BufferRecord record = dst_mem.take(shadow);
        f.array->memory(mv.src).erase(id);
        dst_mem.store(id, std::move(record));
      }
    }
  }

  // ---- Rx: updated columns back into the PL buffers --------------
  const auto last = jacobi::slot_map(schedule, schedule.size() - 1);
  PairCompletion completion;
  for (int c = 0; c < 2 * k; ++c) {
    const double done = ch.receiver->receive_column(
        c < k ? 0 : 1, arrival[static_cast<std::size_t>(c)],
        static_cast<double>(col_bytes));
    const versal::TileCoord tile =
        task.orth[schedule.size() - 1]
                 [static_cast<std::size_t>(last[static_cast<std::size_t>(c)].slot)];
    const versal::BufferId id =
        column_buffer(task_id, global[static_cast<std::size_t>(c)]);
    auto& mem = f.array->memory(tile);
    if (!mem.contains(id)) {
      throw FaultDetected(cat("column ", versal::to_string(id),
                              " never reached tile ", versal::to_string(tile),
                              " for Rx"),
                          tile.row, tile.col, done);
    }
    // Rx boundary integrity check: the fabric only routed this buffer,
    // so it must still be what the sender stamped; an injected flip that
    // survived the trip is an in-fabric SEU.
    if (mem.take(id).corrupted()) {
      throw FaultDetected(cat("checksum mismatch on ", versal::to_string(id),
                              " at tile ", versal::to_string(tile),
                              " (corrupted in the fabric)"),
                          tile.row, tile.col, done);
    }
    (c < k ? completion.done_u : completion.done_v) =
        std::max(c < k ? completion.done_u : completion.done_v, done);
  }
  return completion;
}

double HeteroSvdAccelerator::execute_norm_block(Fabric& f, int slot, int blk,
                                                double ready) {
  const int k = config_.p_eng;
  const std::size_t m = config_.rows;
  const auto& task = f.placement.tasks[static_cast<std::size_t>(slot)];
  auto& ch = *f.channels[static_cast<std::size_t>(slot)];
  const double col_bytes = static_cast<double>(m) * sizeof(float);
  const double block_bytes = col_bytes * k;
  const double t_norm = kernels_.norm_seconds(m);

  const double tx_done = ch.norm_tx.transfer(ready, block_bytes);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.plio.bytes",
                        static_cast<std::uint64_t>(block_bytes));
    if (obs::Tracer* tr = obs_->tracer()) {
      const double dur = ch.norm_tx.transfer_duration(block_bytes);
      tr->span(obs::Domain::kSim, cat("plio.", ch.norm_tx.timeline().name()),
               cat("blk", blk), "plio", tx_done - dur, dur);
    }
  }
  double blk_done = 0.0;
  for (int i = 0; i < k; ++i) {
    const versal::TileCoord tile = task.norm[static_cast<std::size_t>(i)];
    const double end = f.array->run_kernel(tile, tx_done, t_norm);
    if (!std::isfinite(end)) {
      throw FaultDetected(cat("core ", versal::to_string(tile),
                              " hung during normalization"),
                          tile.row, tile.col, tx_done);
    }
    const double rx_done =
        ch.norm_rx.transfer(end, col_bytes + sizeof(float));
    if (obs_ != nullptr) {
      obs_->metrics().add(
          "sim.plio.bytes",
          static_cast<std::uint64_t>(col_bytes + sizeof(float)));
      if (obs::Tracer* tr = obs_->tracer()) {
        const double dur =
            ch.norm_rx.transfer_duration(col_bytes + sizeof(float));
        tr->span(obs::Domain::kSim,
                 cat("plio.", ch.norm_rx.timeline().name()),
                 cat("blk", blk, ".e", i), "plio", rx_done - dur, dur);
      }
    }
    blk_done = std::max(blk_done, rx_done);
  }
  return blk_done;
}

double HeteroSvdAccelerator::execute_task(int slot, double ready, int sweeps,
                                          int task_id, int& fault_shard) {
  const double block_bytes =
      static_cast<double>(config_.rows) * sizeof(float) * config_.p_eng;
  const std::size_t s_count = fabrics_.size();
  // S > 1 arrays run each round on host threads, unless an enabled
  // tracer needs a reproducible event order.
  const int threads =
      s_count > 1 && (obs_ == nullptr || obs_->tracer() == nullptr)
          ? common::ThreadPool::resolve_threads(config_.host_threads)
          : 1;
  // Runs body(s) for every array: concurrently on `threads` host threads
  // (every write is array-disjoint: its own simulator, channels, NoC and
  // its pairs' block ready times), else in array order. Each array runs
  // to completion or to its own detection point; the fault of the lowest
  // raising array is then rethrown, so the outcome is thread-count
  // invariant.
  std::vector<std::exception_ptr> faults(s_count);
  const auto for_each_shard = [&](const char* label, const auto& body) {
    const auto guarded = [&](std::size_t s) {
      try {
        body(s);
      } catch (const hsvd::FaultDetected&) {
        faults[s] = std::current_exception();
      }
    };
    if (threads > 1) {
      common::ThreadPool::shared().parallel_for(s_count, threads, guarded,
                                                label);
    } else {
      for (std::size_t s = 0; s < s_count; ++s) guarded(s);
    }
    for (std::size_t s = 0; s < s_count; ++s) {
      if (faults[s]) {
        fault_shard = static_cast<int>(s);
        std::rethrow_exception(faults[s]);
      }
    }
  };

  // Stage DDR -> PL URAM buffers, one block at a time (eq. (12)), via
  // the NoC DDRMC port wired to this task slot on each block's home
  // array; the arrays' staging streams run concurrently.
  std::vector<double> block_ready(static_cast<std::size_t>(config_.blocks()));
  for (std::size_t s = 0; s < s_count; ++s) {
    for (const int blk : home_blocks_[s]) {
      block_ready[static_cast<std::size_t>(blk)] =
          stage_from_ddr(fabrics_[s], slot, ready, block_bytes);
    }
  }

  for (int iter = 0; iter < sweeps; ++iter) {
    // Sweep-barrier cancellation point: a deadline or a preemption
    // cancel lands between sweeps, where no rotation is in flight, and
    // the purge leaves the fabric as if the task never ran. The task
    // boundary in execute_batch already covered iter 0 an instant ago.
    if (iter > 0 && cancel_ != nullptr && cancel_->expired()) {
      purge_task_buffers(slot, task_id);
      throw hsvd::DeadlineExceeded(
          cat(cancel_->cancelled() ? "cancelled" : "deadline expired",
              " at sweep barrier ", iter, " of task ", task_id));
    }
    for (std::size_t r = 0; r < round_pairs_.size(); ++r) {
      // The pairs of a round are disjoint, so the arrays run them
      // concurrently; within an array they serialize on its PLIO
      // channels in site order.
      for_each_shard("shard-round", [&](std::size_t s) {
        for (const RingPair& pair : round_pairs_[r][s]) {
          const auto u = static_cast<std::size_t>(pair.bu);
          const auto v = static_cast<std::size_t>(pair.bv);
          const double launch =
              std::max(block_ready[u], block_ready[v]) + hls_overhead_s_;
          const PairCompletion done = execute_block_pair(
              fabrics_[s], slot, task_id, pair.bu, pair.bv, launch);
          block_ready[u] = done.done_u;
          block_ready[v] = done.done_v;
        }
      });
      // Blocks bound for another array cross the inter-shard link, in
      // schedule order on the coordinator.
      for (const Crossing& c : crossings_[r]) {
        double& at = block_ready[static_cast<std::size_t>(c.block)];
        at = link_->transfer(c.from, c.to, at, block_bytes);
      }
    }
  }

  // ---- Normalization stage (lines 19-25 of Algorithm 1), on each block's
  // home array ------------------------------------------------------------
  std::vector<double> norm_done(s_count, 0.0);
  for_each_shard("shard-norm", [&](std::size_t s) {
    for (const int blk : home_blocks_[s]) {
      norm_done[s] = std::max(
          norm_done[s],
          execute_norm_block(
              fabrics_[s], slot, blk,
              block_ready[static_cast<std::size_t>(blk)] + hls_overhead_s_));
    }
  });
  const double task_end = *std::max_element(norm_done.begin(), norm_done.end());

  if (obs_ != nullptr) {
    obs_->metrics().add("sim.tasks.completed");
    if (obs::Tracer* tr = obs_->tracer()) {
      tr->span(obs::Domain::kSim, cat("slot", slot), cat("task", task_id),
               "task", ready, task_end - ready);
    }
  }
  return task_end;
}

RunResult HeteroSvdAccelerator::execute_batch(
    int batch_size, const std::vector<linalg::MatrixF>* batch,
    std::vector<int>& fault_shards) {
  HSVD_REQUIRE(batch_size >= 1, "batch must contain at least one task");
  for (Fabric& f : fabrics_) {
    f.array->reset_time();
    for (auto& ch : f.channels) {
      for (versal::Channel* c : {&ch->tx[0], &ch->tx[1], &ch->rx[0],
                                 &ch->rx[1], &ch->norm_tx, &ch->norm_rx}) {
        c->timeline().reset();
      }
    }
    f.noc.reset_time();
  }
  if (link_ != nullptr) link_->reset_time();

  // Task ids are assigned up front (batch order) so the id sequence is
  // identical whether the slot chains below run sequentially or on
  // concurrent host threads.
  const int base_id = next_task_id_;
  next_task_id_ += batch_size;

  RunResult run;
  run.tasks.resize(static_cast<std::size_t>(batch_size));
  fault_shards.assign(static_cast<std::size_t>(batch_size), -1);

  // Per-task fault isolation: a detected fault fails only its own task.
  // The failed task's stranded tile buffers are purged so the slot's
  // remaining chain starts clean, and the slot's clock carries on from
  // where the failure was detected would be optimistic -- we charge no
  // extra time (the failed task's own latency is already lost).
  const auto run_one = [&](int slot, double& slot_free, int t) {
    // Cooperative cancellation point: a slot chain checks its deadline
    // between tasks, never inside one, so an expired token aborts with
    // every tile memory and timeline in a consistent state. The throw
    // propagates out of parallel_for (which finishes in-flight indices
    // first) and surfaces as hsvd::DeadlineExceeded from run().
    if (cancel_ != nullptr && cancel_->expired()) {
      throw hsvd::DeadlineExceeded(
          cat(cancel_->cancelled() ? "cancelled" : "deadline expired",
              " before task ", t, " on slot ", slot));
    }
    TaskResult task;
    int fault_shard = -1;
    try {
      if (batch != nullptr) {
        task = solve_task(config_, sequence_, (*batch)[static_cast<std::size_t>(t)]);
      } else {
        task.iterations = config_.iterations;
      }
      task.start_seconds = slot_free;
      task.end_seconds = execute_task(slot, slot_free, task.iterations,
                                      base_id + t, fault_shard);
      slot_free = task.end_seconds;
    } catch (const hsvd::FaultDetected& e) {
      task = TaskResult::failed(e, slot_free);
      purge_task_buffers(slot, base_id + t);
      fault_shards[static_cast<std::size_t>(t)] = fault_shard;
      if (obs_ != nullptr) {
        obs_->metrics().add("sim.fault.detected");
        if (obs::Tracer* tr = obs_->tracer()) {
          // Stamp the detection on the simulated timeline when the
          // detection point supplied its simulated time.
          const double at = e.sim_seconds() >= 0 ? e.sim_seconds() : slot_free;
          tr->instant(obs::Domain::kSim, "faults", cat("detect:", e.what()),
                      "fault", at);
        }
      }
    }
    run.tasks[static_cast<std::size_t>(t)] = std::move(task);
  };

  // Task-level host parallelism: tasks are round-robined over the
  // P_task hardware slots exactly as before, but each slot's chain of
  // tasks is independent of every other slot's -- a slot owns its PLIO
  // channels, its placement tiles (and thus its tile memories, core /
  // stream / DMA timelines), and, when P_task <= NoC ports, its DDRMC
  // port. Running the chains concurrently therefore reproduces the
  // sequential results and simulated timings bit for bit; only the
  // simulation's wall-clock changes. (Fault triggers are counted per
  // tile, so injected outcomes are thread-count invariant too.) Slots
  // sharing a DDR port (P_task > ports) would interleave on shared
  // state, and an enabled tracer needs a reproducible event order, so
  // those cases keep the sequential path. A sharded task spans every
  // array and shares the link's timelines, so S > 1 runs the batch as
  // one chain on slot 0; its host parallelism is the per-round fan-out
  // over arrays instead.
  const int slots = shards() == 1 ? config_.p_task : 1;
  const int chains = std::min(slots, batch_size);
  const int threads = common::ThreadPool::resolve_threads(config_.host_threads);
  const bool parallel_chains = threads > 1 && chains > 1 &&
                               config_.p_task <= fabrics_.front().noc.ports() &&
                               (obs_ == nullptr || obs_->tracer() == nullptr);
  const auto run_chain = [&](std::size_t slot_index) {
    const int slot = static_cast<int>(slot_index);
    double slot_free = 0.0;
    for (int t = slot; t < batch_size; t += slots) {
      run_one(slot, slot_free, t);
    }
  };
  if (parallel_chains) {
    common::ThreadPool::shared().parallel_for(
        static_cast<std::size_t>(chains), threads, run_chain, "batch-chain");
  } else {
    // Sequential path: keep the legacy batch-order interleaving. When
    // slots share a DDRMC port (P_task > NoC ports) the port serializes
    // transfers in issue order, so chain-by-chain execution would change
    // the simulated queueing (and batch_seconds) relative to the
    // round-robin wave order. With a tracer attached, each task's host
    // wall-clock lands as a host-domain span (the parallel path gets the
    // equivalent spans from the pool observer instead).
    obs::Tracer* host_trace =
        obs_ != nullptr ? obs_->tracer() : nullptr;
    std::vector<double> slot_free(static_cast<std::size_t>(chains), 0.0);
    for (int t = 0; t < batch_size; ++t) {
      const int slot = t % slots;
      const double host_start =
          host_trace != nullptr ? host_trace->host_now() : 0.0;
      run_one(slot, slot_free[static_cast<std::size_t>(slot)], t);
      if (host_trace != nullptr) {
        host_trace->span(obs::Domain::kHost, cat("chain-", slot),
                         cat("task", t), "pool", host_start,
                         host_trace->host_now() - host_start);
      }
    }
  }
  for (const auto& task : run.tasks) {
    run.batch_seconds = std::max(run.batch_seconds, task.end_seconds);
  }
  run.task_seconds = run.tasks.front().latency_seconds();
  run.throughput_tasks_per_s = batch_size / run.batch_seconds;

  // Counters sum over the arrays; utilization stacks them side by side.
  std::vector<versal::ArrayStats> stats;
  std::vector<versal::UtilizationReport> reports;
  for (const Fabric& f : fabrics_) {
    stats.push_back(f.array->stats());
    reports.push_back(f.array->utilization(run.batch_seconds));
  }
  run.stats = shard::merge_stats(stats);
  run.utilization = shard::merge_utilization(reports);
  run.core_utilization =
      shards() == 1
          ? fabrics_.front().array->core_utilization(run.batch_seconds)
          : run.utilization.core_utilization();
  // Every array holds the same placement shape, so memory utilization
  // stays the per-device fraction.
  const perf::ResourceUsage single =
      perf::estimate_resources(config_, fabrics_.front().placement);
  run.resources = shard::replicate_resources(single, shards());
  run.memory_utilization =
      static_cast<double>(single.uram) / config_.device.total_uram;
  return run;
}

bool HeteroSvdAccelerator::mask_and_replace(
    std::size_t shard, const std::vector<versal::TileCoord>& bad) {
  std::vector<versal::TileCoord>& masked = fabrics_[shard].masked;
  masked.insert(masked.end(), bad.begin(), bad.end());
  std::sort(masked.begin(), masked.end());
  masked.erase(std::unique(masked.begin(), masked.end()), masked.end());
  // Try the current shape on the healthy array first; when it no longer
  // fits, one array degrades task parallelism, then engine parallelism.
  // (Degrading P_eng shrinks the per-task footprint quadratically --
  // (2k-1) layers of k engines -- so some configuration fits unless the
  // masked set has consumed essentially the whole array.) S > 1 arrays
  // must keep the block structure identical, so they never degrade.
  const bool may_degrade = shards() == 1;
  HeteroSvdConfig candidate = config_;
  const int original_p_task = config_.p_task;
  while (true) {
    if (try_place(candidate, masked).has_value()) {
      config_ = candidate;
      compile_schedule();
      place(shard);
      return true;
    }
    if (may_degrade && candidate.p_task > 1) {
      --candidate.p_task;
      continue;
    }
    if (may_degrade && candidate.p_eng > 1) {
      --candidate.p_eng;
      candidate.p_task = original_p_task;
      continue;
    }
    return false;
  }
}

RunResult HeteroSvdAccelerator::run(const std::vector<linalg::MatrixF>& batch) {
  std::vector<int> fault_shards;
  RunResult result =
      execute_batch(static_cast<int>(batch.size()), &batch, fault_shards);
  // Bounded recovery: mask the tiles the detection points blamed on the
  // arrays that raised them, re-place those arrays on their healthy
  // tiles, and re-run only the failed tasks. Healthy results are never
  // touched, so they stay bit-identical to a fault-free run.
  int budget = config_.fault_retries;
  double epoch = result.batch_seconds;
  int attempt = 0;
  while (budget-- > 0) {
    std::vector<std::size_t> failed;
    std::vector<std::vector<versal::TileCoord>> bad(fabrics_.size());
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
              " before recovery round ", attempt + 1));
    }
    std::size_t masked = 0;
    bool replaced = true;
    for (std::size_t s = 0; s < bad.size(); ++s) {
      if (bad[s].empty()) continue;
      std::sort(bad[s].begin(), bad[s].end());
      bad[s].erase(std::unique(bad[s].begin(), bad[s].end()), bad[s].end());
      masked += bad[s].size();
      replaced = mask_and_replace(s, bad[s]) && replaced;
    }
    // Nothing to mask (the fault is not tile-bound), or an array cannot
    // host the design any more.
    if (masked == 0 || !replaced) break;
    ++attempt;
    ++result.recovery_runs;
    if (obs_ != nullptr) {
      obs_->metrics().add("sim.fault.recovery_rounds");
      obs_->metrics().add("sim.fault.masked_tiles", masked);
      if (obs::Tracer* tr = obs_->tracer()) {
        for (const auto& tiles : bad) {
          for (const auto& tile : tiles) {
            tr->instant(obs::Domain::kSim, "faults",
                        cat("recover:mask ", versal::to_string(tile)),
                        "fault", epoch);
          }
        }
      }
    }
    std::vector<linalg::MatrixF> sub;
    sub.reserve(failed.size());
    for (std::size_t i : failed) sub.push_back(batch[i]);
    std::vector<int> retry_fault_shards;
    RunResult retry =
        execute_batch(static_cast<int>(sub.size()), &sub, retry_fault_shards);
    for (std::size_t j = 0; j < failed.size(); ++j) {
      TaskResult task = std::move(retry.tasks[j]);
      // Recovery happens after the initial batch on the repaired
      // floorplan: append the re-run to the simulated timeline.
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

RunResult HeteroSvdAccelerator::estimate(int batch_size) {
  HSVD_REQUIRE(config_.iterations >= 1,
               "timing-only estimation needs a fixed iteration count");
  std::vector<int> fault_shards;
  return execute_batch(batch_size, nullptr, fault_shards);
}

}  // namespace hsvd::accel
