// Multi-array sharded execution of one SVD (DESIGN.md section 11).
//
// There is one accelerator driver for one or S arrays:
// HeteroSvdAccelerator(config, shards). It walks the block-level
// tournament ring of jacobi::block_ring_schedule with pair site j on
// array j % S, so each block round's q = p/2 pairs spread over the
// arrays and run concurrently. A block that stays on one array between
// rounds keeps living in that array's PL URAM buffers for free; a block
// whose next site lives on another array crosses the
// shard::InterShardLink -- out over the source array's AIE->PL PLIO,
// across the NoC/DDR fabric, and in over the destination's PL->AIE PLIO
// -- and its ready time carries that edge cost. S = 1 is the degenerate
// ring: every site sits on the one array, no block crosses, and there is
// no link.
//
// The factors come from the single-array data plane (solve_task): pairs
// within a block round are disjoint, so spreading a round over arrays
// does not change them. The fault injector reaches array 0 only; a
// detection on any array masks the blamed tile on that array with a
// same-shape re-placement. ShardedAccelerator is the name multi-array
// callers have always used for the driver.
#pragma once

#include "accel/accelerator.hpp"

namespace hsvd::accel {

using ShardedAccelerator = HeteroSvdAccelerator;

}  // namespace hsvd::accel
