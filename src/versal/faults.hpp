// Deterministic fault injection for the simulated Versal fabric.
//
// Real AIE deployments contend with SEUs in tile memories, hung cores,
// stalled DMA channels, dropped packets, and degraded PLIO links. A
// FaultInjector attaches to an AieArraySim and perturbs its transfers and
// kernels according to a declarative FaultPlan: each FaultSpec names a
// fault kind, a target resource (tile, DMA engine, or task-slot PLIO
// group), and a trigger ordinal -- the nth operation of the matching
// category on that resource. Trigger counting is *per resource*, never
// global, so the same plan fires at the same architectural points no
// matter how the host interleaves concurrent task slots: a tile belongs
// to exactly one slot chain and each chain issues its tile's operations
// in a fixed order. The plan seed picks derived randomness (which bit a
// SEU flips) via a splitmix64 hash, so a plan replays bit-identically.
//
// The injector only *causes* faults; detection lives at the accelerator's
// dataflow boundaries (the Rx integrity check, missing-buffer checks, hung
// cores) and recovery in the accelerator's retry/re-placement policy.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "versal/geometry.hpp"

namespace hsvd::versal {

enum class FaultKind {
  kTileHang,       // the tile's core stops completing kernels (sticky)
  kMemoryBitFlip,  // SEU: flip one bit of the nth buffer staged on the tile
  kStreamDrop,     // the nth packet into the tile loses its payload
  kStreamStall,    // the nth packet into the tile is delayed
  kDmaDrop,        // the nth DMA out of the tile loses the shadow copy
  kDmaStall,       // the nth DMA out of the tile is delayed
  kPlioDegrade,    // a task slot's PLIO bandwidth is scaled down
  kSilentError,    // post-detection corruption of a returned factor:
                   // flies under every dataflow checksum and non-finite
                   // guard, only result attestation can catch it
};

const char* to_string(FaultKind kind);

// True for kinds that corrupt data or halt progress (and therefore must
// be caught by a detection point); stalls and bandwidth degradation only
// stretch the simulated timeline.
bool corrupts(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kStreamDrop;
  // Target tile: the hung core (kTileHang), the staging destination
  // (kMemoryBitFlip, kStreamDrop, kStreamStall) or the DMA engine's
  // source tile (kDmaDrop, kDmaStall). Ignored for kPlioDegrade.
  TileCoord tile{0, 0};
  // Target task slot for kPlioDegrade and kSilentError.
  int slot = 0;
  // Fires on the nth (0-based) matching operation at the target.
  std::uint64_t after_op = 0;
  double stall_seconds = 0.0;    // kStreamStall / kDmaStall
  double bandwidth_scale = 1.0;  // kPlioDegrade: multiplier in (0, 1]
};

struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<FaultSpec> faults;
};

// One fault that actually fired, for campaign reporting.
struct FaultEvent {
  FaultKind kind = FaultKind::kStreamDrop;
  TileCoord tile{0, 0};
  std::uint64_t op = 0;   // the per-resource ordinal it fired at
  std::string detail;
};

// One single-bit upset: bit `bit` of 32-bit word `word` of a buffer.
struct BitFlip {
  std::size_t word = 0;
  int bit = 0;
  friend bool operator==(const BitFlip&, const BitFlip&) = default;
};

// FNV-1a over the byte image of a float buffer (content digest of the
// serving layer's result cache and the verifier).
std::uint64_t buffer_checksum(std::span<const float> data);

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // --- hooks consulted by AieArraySim (thread-safe) -------------------
  // Counts a kernel launch on `tile`; true once a kTileHang has triggered
  // (sticky: the core never completes again).
  bool hang_core(const TileCoord& tile);
  // Counts a packet into `tile`; returns the injected delay and sets
  // *drop when the payload is lost.
  double on_stream(const TileCoord& tile, bool* drop);
  // Counts a DMA issued by `src`'s engine; delay + shadow-drop flag.
  double on_dma(const TileCoord& src, bool* drop);
  // Counts a buffer of `words` 32-bit words staged into `tile`'s memory;
  // returns the seed-chosen bits an armed kMemoryBitFlip upsets in it
  // (empty when none fires).
  std::vector<BitFlip> corrupt_payload(const TileCoord& tile, std::size_t words);
  // Counts a finished result for task `slot` and may apply an armed
  // kSilentError: a seed-chosen exponent-bit flip of either sigma[0] or
  // a dominant U entry -- a finite, plausible-looking corruption that no
  // dataflow detection point sees. Returns true when it fired.
  bool corrupt_result(int slot, std::span<float> u,
                      std::vector<float>& sigma);

  // --- PLIO degradation (applied by the accelerator at attach) --------
  // Combined bandwidth multiplier for a task slot's PLIO channels.
  double plio_scale(int slot) const;

  const FaultPlan& plan() const { return plan_; }
  // Faults that fired so far, in a deterministic order (sorted by plan
  // index; each spec fires at most once except sticky hangs, logged once).
  std::vector<FaultEvent> events() const;
  std::size_t event_count() const;
  // Clears trigger counters and the event log so the same plan can drive
  // a fresh run.
  void reset();

 private:
  // Operation categories counted independently per tile (kResult is
  // keyed by task slot, encoded as TileCoord{0, slot}).
  enum class OpClass { kKernel, kStream, kDma, kStore, kResult };

  struct Armed {
    std::size_t plan_index;  // salt for derived randomness + log ordering
    bool fired = false;
  };

  double on_channel_op(OpClass cls, FaultKind drop_kind, FaultKind stall_kind,
                       const TileCoord& tile, bool* drop);
  void record(std::size_t plan_index, const TileCoord& tile, std::uint64_t op,
              std::string detail);

  FaultPlan plan_;
  // (OpClass, tile) -> per-resource operation counter.
  std::map<std::pair<int, TileCoord>, std::uint64_t> counters_;
  // (OpClass, tile) -> armed specs targeting that resource.
  std::map<std::pair<int, TileCoord>, std::vector<Armed>> armed_;
  std::vector<FaultEvent> events_;
  std::vector<std::size_t> event_plan_index_;
  mutable std::mutex mutex_;
};

}  // namespace hsvd::versal
