// Per-tile data memory with capacity accounting.
//
// A tile's memory holds buffer records: one per column of a task's working
// matrix staged on the tile, plus DMA shadow copies. A record holds no
// data -- the factors are computed on the host (DESIGN.md section 2) --
// only the buffer's byte count and the net set of single-bit upsets
// injected into it while it crossed the fabric. Allocation is checked
// against the 4 x 8 KB budget so placement bugs that would not fit on
// silicon fail loudly in simulation. Peak usage is tracked for the
// resource reports.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "versal/faults.hpp"

namespace hsvd::versal {

// A column buffer of one task; `shadow` marks the DMA copy that waits in
// the consumer's memory until the producer's original is released.
struct BufferId {
  std::uint32_t task = 0;
  std::uint32_t column = 0;
  bool shadow = false;
  friend bool operator==(const BufferId&, const BufferId&) = default;
};

// "c<column>.t<task>", plus "#dma" for a shadow: the buffer's name in
// fault messages and trace spans.
std::string to_string(const BufferId& id);

struct BufferRecord {
  std::uint64_t bytes = 0;
  // Net injected upsets: a second flip of the same bit cancels the first,
  // so the buffer matches what the sender stamped exactly when this is
  // empty.
  std::vector<BitFlip> flips;

  void flip(const BitFlip& f);
  bool corrupted() const { return !flips.empty(); }
};

class TileMemory {
 public:
  explicit TileMemory(std::uint64_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  // Allocates (or replaces) the record under `id`. Throws
  // std::runtime_error if the tile memory would overflow.
  void store(const BufferId& id, BufferRecord record);

  bool contains(const BufferId& id) const { return find(id) != buffers_.end(); }

  const BufferRecord& load(const BufferId& id) const;

  // Removes a record and returns it; throws if absent.
  BufferRecord take(const BufferId& id);

  // Removes a record; no-op if absent.
  void erase(const BufferId& id);

  // Removes every record of `task`; returns the number removed. Used to
  // purge a failed task's stranded columns so later tasks on the same
  // tiles do not inherit its memory footprint.
  std::size_t erase_task(std::uint32_t task);

  std::uint64_t used_bytes() const { return used_; }
  std::uint64_t peak_bytes() const { return peak_; }
  std::uint64_t capacity_bytes() const { return capacity_; }

 private:
  using Buffers = std::vector<std::pair<BufferId, BufferRecord>>;
  Buffers::iterator find(const BufferId& id);
  Buffers::const_iterator find(const BufferId& id) const;

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t peak_ = 0;
  // A tile holds a handful of buffers at a time: a flat list beats a map.
  Buffers buffers_;
};

}  // namespace hsvd::versal
