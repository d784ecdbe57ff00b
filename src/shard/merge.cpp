#include "shard/merge.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace hsvd::shard {

versal::ArrayStats merge_stats(
    const std::vector<versal::ArrayStats>& per_shard) {
  versal::ArrayStats sum;
  for (const auto& s : per_shard) sum += s;
  return sum;
}

versal::UtilizationReport merge_utilization(
    const std::vector<versal::UtilizationReport>& per_shard) {
  if (per_shard.empty()) return {};
  if (per_shard.size() == 1) return per_shard.front();

  const auto& first = per_shard.front();
  versal::UtilizationReport merged;
  merged.rows = first.rows;
  merged.cols = first.cols * static_cast<int>(per_shard.size());
  merged.aie_clock_hz = first.aie_clock_hz;
  for (const auto& r : per_shard) {
    HSVD_REQUIRE(r.rows == first.rows && r.cols == first.cols,
                 "per-shard utilization reports must share one geometry");
    HSVD_REQUIRE(r.aie_clock_hz == first.aie_clock_hz,
                 "per-shard utilization reports must share one AIE clock");
    merged.makespan_seconds = std::max(merged.makespan_seconds,
                                       r.makespan_seconds);
  }

  merged.tiles.resize(static_cast<std::size_t>(merged.rows) *
                      static_cast<std::size_t>(merged.cols));
  const double makespan_cycles = merged.makespan_cycles();
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    const int col_off = static_cast<int>(s) * first.cols;
    for (const auto& tile : per_shard[s].tiles) {
      versal::TileUtilization shifted = tile;
      shifted.tile.col += col_off;
      // A shard that finished early sat idle until the merged makespan.
      shifted.idle_cycles = std::max(
          makespan_cycles - shifted.busy_cycles - shifted.stalled_cycles, 0.0);
      const std::size_t idx =
          static_cast<std::size_t>(shifted.tile.row) *
              static_cast<std::size_t>(merged.cols) +
          static_cast<std::size_t>(shifted.tile.col);
      merged.tiles[idx] = shifted;
    }
  }
  return merged;
}

}  // namespace hsvd::shard
