// The AIE array simulator: tiles with core timelines and checked
// memories, plus the three inter-tile transfer mechanisms of Fig. 1
// (neighbour access, DMA, packet streams) with their cost asymmetry.
//
// Transfers move buffer records (versal/memory.hpp), never data: each one
// does its capacity, peak and link-byte accounting and its timing from
// the record's byte count, and carries the record's injected bit flips
// along so a detection point downstream can see them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "versal/faults.hpp"
#include "versal/geometry.hpp"
#include "versal/memory.hpp"
#include "versal/packet.hpp"
#include "versal/resources.hpp"
#include "versal/timeline.hpp"
#include "versal/utilization.hpp"

namespace hsvd::versal {

struct ArrayStats {
  std::uint64_t neighbour_transfers = 0;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t stream_packets = 0;
  std::uint64_t stream_bytes = 0;
  std::uint64_t kernel_invocations = 0;

  // Element-wise sum (recovery re-runs and sharded runs merge counters).
  ArrayStats& operator+=(const ArrayStats& o) {
    neighbour_transfers += o.neighbour_transfers;
    dma_transfers += o.dma_transfers;
    dma_bytes += o.dma_bytes;
    stream_packets += o.stream_packets;
    stream_bytes += o.stream_bytes;
    kernel_invocations += o.kernel_invocations;
    return *this;
  }
};

class AieArraySim {
 public:
  AieArraySim(const ArrayGeometry& geometry, const DeviceResources& device);

  const ArrayGeometry& geometry() const { return geometry_; }
  const DeviceResources& device() const { return device_; }

  TileMemory& memory(const TileCoord& t);
  Timeline& core(const TileCoord& t);

  // --- Accounted transfers ---------------------------------------------
  // Neighbour transfer: requires geometric adjacency (throws otherwise).
  // Zero-copy in time (the consuming kernel reads the shared memory
  // module directly); the buffer record moves to dst.
  void neighbour_move(const TileCoord& src, const TileCoord& dst,
                      const BufferId& id);

  // DMA transfer: allowed between any two tiles. Lands a shadow of the
  // buffer (id.shadow set) in dst while src keeps its original -- the
  // "twice the memory" cost -- and occupies the source tile's DMA engine
  // for bytes / dma_rate. A dropped DMA never lands the shadow. Returns
  // completion time.
  double dma_move(const TileCoord& src, const TileCoord& dst,
                  const BufferId& id, double ready);

  // Stream packet from PL into a tile (or between tiles) through the
  // packet-switched network; serializes on the destination's stream port
  // and, unless the packet is dropped, stores its column's record.
  double stream_packet(const TileCoord& dst, const Packet& packet,
                       double ready);

  // Records a kernel run on the tile's core timeline.
  double run_kernel(const TileCoord& tile, double ready, double duration);

  const ArrayStats& stats() const;
  void reset_time();

  // Aggregate peak memory over all tiles (bytes) -- resource report.
  std::uint64_t peak_memory_bytes() const;

  // Busy-time utilization of the cores that ran at least one kernel,
  // relative to `makespan` seconds.
  double core_utilization(double makespan) const;

  // Per-tile busy/stall/idle cycle tallies and link-byte counters for a
  // run whose critical path ended at `makespan` seconds. Reads the
  // timelines and relaxed counters only -- never perturbs the schedule.
  // Aggregates match the scalar accessors exactly (core_utilization,
  // stats().dma_bytes, ...).
  UtilizationReport utilization(double makespan) const;

  // DMA engine rate (bytes/s): 32-bit per AIE clock cycle.
  double dma_rate() const { return 4.0 * device_.aie_clock_hz; }

  // Per-transfer DMA setup: buffer-descriptor programming plus lock
  // acquire/release (~300 AIE cycles). Part of why DMA is the slow path.
  double dma_setup_seconds() const { return 300.0 / device_.aie_clock_hz; }

  // Optional fault injection: when attached, kernels, DMA transfers,
  // packet stores, and staged buffers are perturbed per the injector's
  // FaultPlan (not owned; pass nullptr to detach). A hung core reports
  // +infinity as its kernel completion time -- the accelerator's
  // detection points treat a non-finite timestamp as a dead tile.
  void attach_faults(FaultInjector* faults) { faults_ = faults; }
  FaultInjector* faults() const { return faults_; }

  // Optional observability context (not owned; nullptr detaches). When
  // attached, transfers and kernels record metrics counters/histograms,
  // and -- when the context's tracer is enabled -- simulated-domain spans
  // (per-tile kernel/DMA/stream tracks) plus fault-injection instants.
  // An enabled *tracer* serializes the accelerator's batch engine so
  // event order stays reproducible; metrics-only observation is sharded
  // and stays parallel-safe.
  void attach_observer(obs::ObsContext* observer);
  obs::ObsContext* observer() const { return obs_; }
  // Appended to every per-tile track name this array draws ("core(r,c)"
  // + tag), so several arrays can share one tracer. Empty by default.
  void set_track_tag(std::string tag) { track_tag_ = std::move(tag); }

 private:
  ArrayGeometry geometry_;
  DeviceResources device_;
  std::vector<TileMemory> memories_;
  std::vector<Timeline> cores_;
  std::vector<Timeline> stream_ports_;
  std::vector<Timeline> dma_engines_;  // one per tile (mm2s side)
  // Counters are atomic so that task slots touching disjoint tiles can
  // execute concurrently (the accelerator's parallel batch engine); sums
  // are order-independent, so totals match the sequential run exactly.
  struct AtomicStats {
    std::atomic<std::uint64_t> neighbour_transfers{0};
    std::atomic<std::uint64_t> dma_transfers{0};
    std::atomic<std::uint64_t> dma_bytes{0};
    std::atomic<std::uint64_t> stream_packets{0};
    std::atomic<std::uint64_t> stream_bytes{0};
    std::atomic<std::uint64_t> kernel_invocations{0};
  };
  AtomicStats stats_;
  // Per-tile tallies behind the utilization report. Same atomicity
  // contract as AtomicStats: relaxed adds from concurrent task slots,
  // order-independent sums. Held in a fixed-size array because atomics
  // are not movable.
  struct TileCounters {
    std::atomic<std::uint64_t> kernel_invocations{0};
    std::atomic<std::uint64_t> neighbour_bytes{0};
    std::atomic<std::uint64_t> dma_bytes{0};
    std::atomic<std::uint64_t> stream_bytes{0};
    std::atomic<double> stall_seconds{0.0};
  };
  // The upsets the attached injector plants in a buffer of `bytes` staged
  // on `tile` (none without an injector).
  std::vector<BitFlip> upsets(const TileCoord& tile, std::uint64_t bytes);
  TileCounters& counters(const TileCoord& t) {
    return tile_counters_[static_cast<std::size_t>(geometry_.index_of(t))];
  }
  std::unique_ptr<TileCounters[]> tile_counters_;
  mutable ArrayStats stats_snapshot_;  // materialized by stats()
  FaultInjector* faults_ = nullptr;
  obs::ObsContext* obs_ = nullptr;
  std::string track_tag_;
};

}  // namespace hsvd::versal
