#include "versal/array.hpp"

#include <algorithm>
#include <limits>

#include "common/format.hpp"

namespace hsvd::versal {

AieArraySim::AieArraySim(const ArrayGeometry& geometry,
                         const DeviceResources& device)
    : geometry_(geometry), device_(device) {
  memories_.reserve(static_cast<std::size_t>(geometry_.tile_count()));
  cores_.reserve(static_cast<std::size_t>(geometry_.tile_count()));
  stream_ports_.reserve(static_cast<std::size_t>(geometry_.tile_count()));
  dma_engines_.reserve(static_cast<std::size_t>(geometry_.tile_count()));
  for (int i = 0; i < geometry_.tile_count(); ++i) {
    memories_.emplace_back(device_.tile_memory_bytes());
    cores_.emplace_back(cat("core", i));
    stream_ports_.emplace_back(cat("stream", i));
    dma_engines_.emplace_back(cat("dma", i));
  }
  tile_counters_ = std::make_unique<TileCounters[]>(
      static_cast<std::size_t>(geometry_.tile_count()));
}

void AieArraySim::attach_observer(obs::ObsContext* observer) {
  obs_ = observer;
  if (obs_ == nullptr) return;
  // Cycle histograms share the default exponential bounds; registering is
  // idempotent so repeated attachment is safe.
  const auto bounds = obs::MetricsRegistry::default_bounds();
  obs_->metrics().register_histogram("sim.kernel.cycles", bounds);
  obs_->metrics().register_histogram("sim.dma.cycles", bounds);
  obs_->metrics().register_histogram("sim.stream.cycles", bounds);
}

TileMemory& AieArraySim::memory(const TileCoord& t) {
  return memories_[static_cast<std::size_t>(geometry_.index_of(t))];
}

Timeline& AieArraySim::core(const TileCoord& t) {
  return cores_[static_cast<std::size_t>(geometry_.index_of(t))];
}

void AieArraySim::neighbour_move(const TileCoord& src, const TileCoord& dst,
                                 const BufferId& id) {
  HSVD_REQUIRE(geometry_.neighbour_transfer_possible(src, dst),
               cat("tiles ", to_string(src), " -> ", to_string(dst),
                   " are not neighbour-accessible"));
  stats_.neighbour_transfers.fetch_add(1, std::memory_order_relaxed);
  if (obs_ != nullptr) obs_->metrics().add("sim.neighbour.transfers");
  if (src == dst) return;
  BufferRecord record = memory(src).take(id);
  const std::uint64_t bytes = record.bytes;
  memory(dst).store(id, std::move(record));
  // The consuming tile reads the shared memory module: charge the link
  // bytes to the destination.
  counters(dst).neighbour_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

std::vector<BitFlip> AieArraySim::upsets(const TileCoord& tile,
                                         std::uint64_t bytes) {
  if (faults_ == nullptr) return {};
  return faults_->corrupt_payload(tile, bytes / sizeof(float));
}

double AieArraySim::dma_move(const TileCoord& src, const TileCoord& dst,
                             const BufferId& id, double ready) {
  stats_.dma_transfers.fetch_add(1, std::memory_order_relaxed);
  bool drop = false;
  double stall = 0.0;
  if (faults_ != nullptr) stall = faults_->on_dma(src, &drop);
  if (stall > 0 || drop) {
    counters(src).stall_seconds.fetch_add(stall, std::memory_order_relaxed);
    if (obs_ != nullptr) {
      obs_->metrics().add(drop ? "sim.fault.inject.dma_drop"
                               : "sim.fault.inject.dma_stall");
      if (obs::Tracer* tr = obs_->tracer()) {
        tr->instant(obs::Domain::kSim, "faults",
                    cat(drop ? "inject:dma-drop " : "inject:dma-stall ",
                        to_string(src)),
                    "fault", ready);
      }
    }
  }
  const BufferRecord& original = memory(src).load(id);
  const std::uint64_t bytes = original.bytes;
  // The shadow lives in the destination while the source keeps its
  // original until the consumer releases it: the 2x memory cost of DMA.
  // A dropped DMA consumes the engine's time but never lands the shadow;
  // a staged shadow can take an injected SEU.
  if (!drop) {
    BufferRecord shadow = original;
    for (const BitFlip& f : upsets(dst, bytes)) shadow.flip(f);
    memory(dst).store(BufferId{id.task, id.column, true}, std::move(shadow));
  }
  stats_.dma_bytes.fetch_add(bytes, std::memory_order_relaxed);
  counters(src).dma_bytes.fetch_add(bytes, std::memory_order_relaxed);
  Timeline& engine =
      dma_engines_[static_cast<std::size_t>(geometry_.index_of(src))];
  const double duration =
      stall + dma_setup_seconds() + static_cast<double>(bytes) / dma_rate();
  const double done = engine.schedule(ready, duration);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.dma.transfers");
    obs_->metrics().add("sim.dma.bytes", bytes);
    obs_->metrics().observe("sim.dma.cycles", duration * device_.aie_clock_hz);
    if (obs::Tracer* tr = obs_->tracer()) {
      tr->span(obs::Domain::kSim, cat("dma", to_string(src), track_tag_),
               cat(to_string(id), " -> ", to_string(dst)), "dma",
               done - duration, duration);
    }
  }
  return done;
}

double AieArraySim::stream_packet(const TileCoord& dst, const Packet& packet,
                                  double ready) {
  stats_.stream_packets.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t wire_bytes = packet.bytes();
  stats_.stream_bytes.fetch_add(wire_bytes, std::memory_order_relaxed);
  counters(dst).stream_bytes.fetch_add(wire_bytes, std::memory_order_relaxed);
  bool drop = false;
  double stall = 0.0;
  if (faults_ != nullptr) stall = faults_->on_stream(dst, &drop);
  if (stall > 0 || drop) {
    counters(dst).stall_seconds.fetch_add(stall, std::memory_order_relaxed);
    if (obs_ != nullptr) {
      obs_->metrics().add(drop ? "sim.fault.inject.stream_drop"
                               : "sim.fault.inject.stream_stall");
      if (obs::Tracer* tr = obs_->tracer()) {
        tr->instant(obs::Domain::kSim, "faults",
                    cat(drop ? "inject:stream-drop " : "inject:stream-stall ",
                        to_string(dst)),
                    "fault", ready);
      }
    }
  }
  if (!drop) {
    BufferRecord record{packet.payload_bytes, {}};
    for (const BitFlip& f : upsets(dst, packet.payload_bytes)) record.flip(f);
    memory(dst).store(BufferId{packet.header.task, packet.header.column, false},
                      std::move(record));
  }
  // Stream ports move 32 bits per AIE cycle.
  const double rate = 4.0 * device_.aie_clock_hz;
  Timeline& port = stream_ports_[static_cast<std::size_t>(geometry_.index_of(dst))];
  const double duration = stall + static_cast<double>(wire_bytes) / rate;
  const double done = port.schedule(ready, duration);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.stream.packets");
    obs_->metrics().add("sim.stream.bytes", wire_bytes);
    obs_->metrics().observe("sim.stream.cycles",
                            duration * device_.aie_clock_hz);
    if (obs::Tracer* tr = obs_->tracer()) {
      tr->span(obs::Domain::kSim, cat("stream", to_string(dst), track_tag_),
               cat("pkt c", packet.header.column, " t", packet.header.task),
               "stream", done - duration, duration);
    }
  }
  return done;
}

double AieArraySim::run_kernel(const TileCoord& tile, double ready,
                               double duration) {
  stats_.kernel_invocations.fetch_add(1, std::memory_order_relaxed);
  counters(tile).kernel_invocations.fetch_add(1, std::memory_order_relaxed);
  if (faults_ != nullptr && faults_->hang_core(tile)) {
    // The core never completes: report an unreachable completion time and
    // leave the timeline untouched so healthy tiles stay unperturbed.
    if (obs_ != nullptr) {
      obs_->metrics().add("sim.fault.inject.tile_hang");
      if (obs::Tracer* tr = obs_->tracer()) {
        tr->instant(obs::Domain::kSim, "faults",
                    cat("inject:hang ", to_string(tile)), "fault", ready);
      }
    }
    return std::numeric_limits<double>::infinity();
  }
  const double done = core(tile).schedule(ready, duration);
  if (obs_ != nullptr) {
    obs_->metrics().add("sim.kernel.invocations");
    obs_->metrics().observe("sim.kernel.cycles",
                            duration * device_.aie_clock_hz);
    if (obs::Tracer* tr = obs_->tracer()) {
      tr->span(obs::Domain::kSim, cat("core", to_string(tile), track_tag_),
               "kernel", "kernel", done - duration, duration);
    }
  }
  return done;
}

const ArrayStats& AieArraySim::stats() const {
  stats_snapshot_.neighbour_transfers =
      stats_.neighbour_transfers.load(std::memory_order_relaxed);
  stats_snapshot_.dma_transfers =
      stats_.dma_transfers.load(std::memory_order_relaxed);
  stats_snapshot_.dma_bytes = stats_.dma_bytes.load(std::memory_order_relaxed);
  stats_snapshot_.stream_packets =
      stats_.stream_packets.load(std::memory_order_relaxed);
  stats_snapshot_.stream_bytes =
      stats_.stream_bytes.load(std::memory_order_relaxed);
  stats_snapshot_.kernel_invocations =
      stats_.kernel_invocations.load(std::memory_order_relaxed);
  return stats_snapshot_;
}

void AieArraySim::reset_time() {
  for (auto& c : cores_) c.reset();
  for (auto& p : stream_ports_) p.reset();
  for (auto& d : dma_engines_) d.reset();
}

std::uint64_t AieArraySim::peak_memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : memories_) total += m.peak_bytes();
  return total;
}

double AieArraySim::core_utilization(double makespan) const {
  if (makespan <= 0) return 0.0;
  double busy = 0.0;
  int active = 0;
  for (const auto& c : cores_) {
    if (c.busy_seconds() > 0) {
      busy += c.busy_seconds();
      ++active;
    }
  }
  if (active == 0) return 0.0;
  return busy / (static_cast<double>(active) * makespan);
}

UtilizationReport AieArraySim::utilization(double makespan) const {
  UtilizationReport report;
  report.rows = geometry_.rows();
  report.cols = geometry_.cols();
  report.makespan_seconds = makespan;
  report.aie_clock_hz = device_.aie_clock_hz;
  const double hz = device_.aie_clock_hz;
  const double makespan_cycles = makespan * hz;
  report.tiles.resize(static_cast<std::size_t>(geometry_.tile_count()));
  for (int row = 0; row < geometry_.rows(); ++row) {
    for (int col = 0; col < geometry_.cols(); ++col) {
      const TileCoord coord{row, col};
      const auto i = static_cast<std::size_t>(geometry_.index_of(coord));
      TileUtilization& t = report.tiles[i];
      const TileCounters& c = tile_counters_[i];
      t.tile = coord;
      t.busy_cycles = cores_[i].busy_seconds() * hz;
      t.stalled_cycles =
          c.stall_seconds.load(std::memory_order_relaxed) * hz;
      t.idle_cycles =
          std::max(0.0, makespan_cycles - t.busy_cycles - t.stalled_cycles);
      t.dma_busy_cycles = dma_engines_[i].busy_seconds() * hz;
      t.stream_busy_cycles = stream_ports_[i].busy_seconds() * hz;
      t.kernel_invocations =
          c.kernel_invocations.load(std::memory_order_relaxed);
      t.neighbour_bytes = c.neighbour_bytes.load(std::memory_order_relaxed);
      t.dma_bytes = c.dma_bytes.load(std::memory_order_relaxed);
      t.stream_bytes = c.stream_bytes.load(std::memory_order_relaxed);
    }
  }
  return report;
}

}  // namespace hsvd::versal
