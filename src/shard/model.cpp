#include "shard/model.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "jacobi/block.hpp"
#include "shard/topology.hpp"

namespace hsvd::shard {

ShardedBreakdown evaluate_sharded(const accel::HeteroSvdConfig& config,
                                  const perf::LatencyBreakdown& single,
                                  int shards, int batch) {
  config.validate();
  HSVD_REQUIRE(shards >= 1, "need at least one shard");
  HSVD_REQUIRE(batch >= 1, "batch must be positive");

  const auto& dev = config.device;
  const int p = config.blocks();
  const double blk_bytes = static_cast<double>(config.rows) * sizeof(float) *
                           static_cast<double>(config.p_eng);
  const auto rounds = jacobi::block_pair_rounds(p);
  const double q = static_cast<double>(rounds.front().size());
  const double round_count = static_cast<double>(rounds.size());

  ShardedBreakdown b;
  b.shards = shards;

  // A round's q pairs spread over the shards; each shard streams its
  // ceil(q/S) pairs through its own two Tx PLIOs, so the eq. (11) race
  // between round streaming and pipeline drain replays with the shorter
  // streaming term.
  const double pair_slots = std::ceil(q / shards);
  const double round_stream = pair_slots * (single.t_tx_blk + single.t_aie_wait);
  const double datawait =
      std::max(single.t_pipeline + single.t_algo - round_stream, 0.0);
  const double t_round = round_stream + datawait;

  // The sweep's cross-shard block moves drain through S parallel edges.
  b.moves_per_sweep = inter_shard_block_moves_per_sweep(p, shards);
  b.hop_seconds = InterShardLink::hop_seconds(dev, config.pl_frequency_hz,
                                              blk_bytes);
  b.edge_seconds_per_sweep =
      std::ceil(static_cast<double>(b.moves_per_sweep) / shards) *
      b.hop_seconds;

  b.t_iter = round_count * t_round + single.t_pipeline +
             b.edge_seconds_per_sweep;

  // Staging and normalization both walk each shard's ceil(p/S) home
  // blocks concurrently across shards.
  const double blocks_per_shard = std::ceil(static_cast<double>(p) / shards);
  b.t_ddr = blocks_per_shard *
            (blk_bytes / dev.ddr_bytes_per_s + dev.ddr_latency_s);
  b.t_norm_stage = blocks_per_shard * single.t_tx_blk + single.t_norm_kernel +
                   single.t_rx_blk;

  b.t_task = b.t_ddr + config.iterations * b.t_iter + b.t_norm_stage +
             single.t_hls;
  const double waves = std::ceil(static_cast<double>(batch) / config.p_task);
  const double slots_per_port =
      std::ceil(static_cast<double>(config.p_task) / dev.ddr_ports);
  const double t_wave = b.t_task + (slots_per_port - 1) * b.t_ddr;
  b.t_sys = batch == 1 ? b.t_task : waves * t_wave;
  return b;
}

perf::ResourceUsage replicate_resources(const perf::ResourceUsage& single,
                                        int shards) {
  HSVD_REQUIRE(shards >= 1, "need at least one shard");
  if (shards == 1) return single;
  perf::ResourceUsage all = single;
  all.aie_orth *= shards;
  all.aie_norm *= shards;
  all.aie_mem *= shards;
  all.uram *= shards;
  all.bram *= shards;
  all.lut *= static_cast<std::uint64_t>(shards);
  all.plio = single.plio * shards + 2 * shards;
  return all;
}

}  // namespace hsvd::shard
