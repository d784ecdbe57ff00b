#include "versal/faults.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/format.hpp"

namespace hsvd::versal {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTileHang: return "tile-hang";
    case FaultKind::kMemoryBitFlip: return "memory-bit-flip";
    case FaultKind::kStreamDrop: return "stream-drop";
    case FaultKind::kStreamStall: return "stream-stall";
    case FaultKind::kDmaDrop: return "dma-drop";
    case FaultKind::kDmaStall: return "dma-stall";
    case FaultKind::kPlioDegrade: return "plio-degrade";
    case FaultKind::kSilentError: return "silent-error";
  }
  return "unknown";
}

bool corrupts(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTileHang:
    case FaultKind::kMemoryBitFlip:
    case FaultKind::kStreamDrop:
    case FaultKind::kDmaDrop:
    case FaultKind::kSilentError:
      return true;
    case FaultKind::kStreamStall:
    case FaultKind::kDmaStall:
    case FaultKind::kPlioDegrade:
      return false;
  }
  return false;
}

std::uint64_t buffer_checksum(std::span<const float> data) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (float f : data) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;  // FNV prime
    }
  }
  return h;
}

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

int op_class_of(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTileHang: return 0;          // OpClass::kKernel
    case FaultKind::kStreamDrop:
    case FaultKind::kStreamStall: return 1;       // OpClass::kStream
    case FaultKind::kDmaDrop:
    case FaultKind::kDmaStall: return 2;          // OpClass::kDma
    case FaultKind::kMemoryBitFlip: return 3;     // OpClass::kStore
    case FaultKind::kSilentError: return 4;       // OpClass::kResult
    case FaultKind::kPlioDegrade: return -1;      // not operation-counted
  }
  return -1;
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (std::size_t i = 0; i < plan_.faults.size(); ++i) {
    const int cls = op_class_of(plan_.faults[i].kind);
    if (cls < 0) continue;  // PLIO degrades are queried, not triggered
    // Silent errors target a task slot, not a tile; key them on the
    // slot so concurrent batch post-passes count independently.
    const TileCoord target = plan_.faults[i].kind == FaultKind::kSilentError
                                 ? TileCoord{0, plan_.faults[i].slot}
                                 : plan_.faults[i].tile;
    armed_[{cls, target}].push_back(Armed{i, false});
  }
}

void FaultInjector::record(std::size_t plan_index, const TileCoord& tile,
                           std::uint64_t op, std::string detail) {
  // Keep the log sorted by plan index so events() is independent of the
  // real-time order in which concurrent slot chains hit their triggers.
  FaultEvent ev;
  ev.kind = plan_.faults[plan_index].kind;
  ev.tile = tile;
  ev.op = op;
  ev.detail = std::move(detail);
  const auto at = std::upper_bound(event_plan_index_.begin(),
                                   event_plan_index_.end(), plan_index);
  const auto pos = at - event_plan_index_.begin();
  event_plan_index_.insert(at, plan_index);
  events_.insert(events_.begin() + pos, std::move(ev));
}

bool FaultInjector::hang_core(const TileCoord& tile) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::pair<int, TileCoord> key{0, tile};
  const std::uint64_t op = counters_[key]++;
  auto it = armed_.find(key);
  if (it == armed_.end()) return false;
  bool hung = false;
  for (auto& armed : it->second) {
    const FaultSpec& spec = plan_.faults[armed.plan_index];
    if (spec.kind != FaultKind::kTileHang) continue;
    if (armed.fired) {
      hung = true;  // sticky: once hung, every later kernel hangs
    } else if (op >= spec.after_op) {
      armed.fired = true;
      hung = true;
      record(armed.plan_index, tile, op, cat("core ", to_string(tile), " hung"));
    }
  }
  return hung;
}

double FaultInjector::on_channel_op(OpClass cls, FaultKind drop_kind,
                                    FaultKind stall_kind, const TileCoord& tile,
                                    bool* drop) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::pair<int, TileCoord> key{static_cast<int>(cls), tile};
  const std::uint64_t op = counters_[key]++;
  auto it = armed_.find(key);
  if (it == armed_.end()) return 0.0;
  double delay = 0.0;
  for (auto& armed : it->second) {
    const FaultSpec& spec = plan_.faults[armed.plan_index];
    if (armed.fired || op != spec.after_op) continue;
    if (spec.kind == drop_kind) {
      armed.fired = true;
      if (drop != nullptr) *drop = true;
      record(armed.plan_index, tile, op,
             cat(to_string(spec.kind), " at ", to_string(tile)));
    } else if (spec.kind == stall_kind) {
      armed.fired = true;
      delay += spec.stall_seconds;
      record(armed.plan_index, tile, op,
             cat(to_string(spec.kind), " at ", to_string(tile), " +",
                 spec.stall_seconds, "s"));
    }
  }
  return delay;
}

double FaultInjector::on_stream(const TileCoord& tile, bool* drop) {
  return on_channel_op(OpClass::kStream, FaultKind::kStreamDrop,
                       FaultKind::kStreamStall, tile, drop);
}

double FaultInjector::on_dma(const TileCoord& src, bool* drop) {
  return on_channel_op(OpClass::kDma, FaultKind::kDmaDrop,
                       FaultKind::kDmaStall, src, drop);
}

std::vector<BitFlip> FaultInjector::corrupt_payload(const TileCoord& tile,
                                                    std::size_t words) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::pair<int, TileCoord> key{3, tile};
  const std::uint64_t op = counters_[key]++;
  std::vector<BitFlip> flips;
  auto it = armed_.find(key);
  if (it == armed_.end() || words == 0) return flips;
  for (auto& armed : it->second) {
    const FaultSpec& spec = plan_.faults[armed.plan_index];
    if (spec.kind != FaultKind::kMemoryBitFlip || armed.fired ||
        op != spec.after_op) {
      continue;
    }
    armed.fired = true;
    // The flipped bit is a pure function of (plan seed, spec index): the
    // same plan corrupts the same bit in every replay.
    const std::uint64_t r =
        splitmix64(plan_.seed ^ (0x51ed2701u + armed.plan_index));
    const BitFlip flip{static_cast<std::size_t>(r % words),
                       static_cast<int>((r >> 32) % 32)};
    flips.push_back(flip);
    record(armed.plan_index, tile, op,
           cat("bit ", flip.bit, " of word ", flip.word, " flipped at ",
               to_string(tile)));
  }
  return flips;
}

bool FaultInjector::corrupt_result(int slot, std::span<float> u,
                                   std::vector<float>& sigma) {
  std::lock_guard<std::mutex> lock(mutex_);
  const TileCoord target{0, slot};
  const std::pair<int, TileCoord> key{4, target};
  const std::uint64_t op = counters_[key]++;
  auto it = armed_.find(key);
  if (it == armed_.end() || u.empty() || sigma.empty()) return false;
  bool corrupted = false;
  for (auto& armed : it->second) {
    const FaultSpec& spec = plan_.faults[armed.plan_index];
    if (spec.kind != FaultKind::kSilentError || armed.fired ||
        op != spec.after_op) {
      continue;
    }
    armed.fired = true;
    const std::uint64_t r =
        splitmix64(plan_.seed ^ (0x7a11c0deull + armed.plan_index));
    std::string detail;
    if ((r >> 48) % 4 == 3) {
      // Flip the exponent's low bit of sigma[0]: the leading singular
      // value silently doubles or halves while staying finite.
      std::uint32_t bits;
      std::memcpy(&bits, &sigma[0], sizeof(bits));
      bits ^= 1u << 23;
      std::memcpy(&sigma[0], &bits, sizeof(bits));
      detail = cat("silent-error scaled sigma[0] on slot ", slot);
    } else {
      // Same flip on a dominant U entry: scan cyclically from a
      // seed-chosen start for an entry near the peak magnitude, so the
      // damage is guaranteed to dwarf the verification bounds.
      float peak = 0.0f;
      for (float x : u) peak = std::max(peak, std::fabs(x));
      std::size_t idx = static_cast<std::size_t>(r % u.size());
      for (std::size_t scanned = 0; scanned < u.size(); ++scanned) {
        if (u[idx] != 0.0f && std::fabs(u[idx]) >= 0.5f * peak) break;
        idx = idx + 1 == u.size() ? 0 : idx + 1;
      }
      std::uint32_t bits;
      std::memcpy(&bits, &u[idx], sizeof(bits));
      bits ^= 1u << 23;
      std::memcpy(&u[idx], &bits, sizeof(bits));
      detail = cat("silent-error scaled U word ", idx, " on slot ", slot);
    }
    record(armed.plan_index, target, op, std::move(detail));
    corrupted = true;
  }
  return corrupted;
}

double FaultInjector::plio_scale(int slot) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double scale = 1.0;
  for (const auto& spec : plan_.faults) {
    if (spec.kind == FaultKind::kPlioDegrade && spec.slot == slot) {
      scale *= spec.bandwidth_scale;
    }
  }
  return scale;
}

std::vector<FaultEvent> FaultInjector::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t FaultInjector::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void FaultInjector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  events_.clear();
  event_plan_index_.clear();
  for (auto& [key, specs] : armed_) {
    for (auto& armed : specs) armed.fired = false;
  }
}

}  // namespace hsvd::versal
