#include "versal/memory.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace hsvd::versal {

std::string to_string(const BufferId& id) {
  return cat("c", id.column, ".t", id.task, id.shadow ? "#dma" : "");
}

void BufferRecord::flip(const BitFlip& f) {
  const auto it = std::find(flips.begin(), flips.end(), f);
  if (it == flips.end()) {
    flips.push_back(f);
  } else {
    flips.erase(it);
  }
}

TileMemory::Buffers::iterator TileMemory::find(const BufferId& id) {
  return std::find_if(buffers_.begin(), buffers_.end(),
                      [&id](const auto& entry) { return entry.first == id; });
}

TileMemory::Buffers::const_iterator TileMemory::find(const BufferId& id) const {
  return const_cast<TileMemory*>(this)->find(id);
}

void TileMemory::store(const BufferId& id, BufferRecord record) {
  const auto it = find(id);
  std::uint64_t after = used_ + record.bytes;
  if (it != buffers_.end()) after -= it->second.bytes;
  if (after > capacity_) {
    throw std::runtime_error(cat("tile memory overflow: need ", after,
                                 " bytes of ", capacity_, " storing '",
                                 to_string(id), "'"));
  }
  used_ = after;
  peak_ = peak_ > used_ ? peak_ : used_;
  if (it != buffers_.end()) {
    it->second = std::move(record);
  } else {
    buffers_.emplace_back(id, std::move(record));
  }
}

const BufferRecord& TileMemory::load(const BufferId& id) const {
  const auto it = find(id);
  HSVD_REQUIRE(it != buffers_.end(), cat("missing buffer '", to_string(id), "'"));
  return it->second;
}

BufferRecord TileMemory::take(const BufferId& id) {
  const auto it = find(id);
  HSVD_REQUIRE(it != buffers_.end(), cat("missing buffer '", to_string(id), "'"));
  BufferRecord record = std::move(it->second);
  used_ -= record.bytes;
  buffers_.erase(it);
  return record;
}

void TileMemory::erase(const BufferId& id) {
  if (contains(id)) take(id);
}

std::size_t TileMemory::erase_task(std::uint32_t task) {
  std::size_t removed = 0;
  for (auto it = buffers_.begin(); it != buffers_.end();) {
    if (it->first.task == task) {
      used_ -= it->second.bytes;
      it = buffers_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

}  // namespace hsvd::versal
