// Tests for the Versal simulator substrate: tile memory accounting on
// buffer records, timelines/channels, packets, and the array-level
// transfer mechanisms.
#include <gtest/gtest.h>

#include "versal/array.hpp"
#include "versal/memory.hpp"
#include "versal/packet.hpp"
#include "versal/timeline.hpp"

namespace hsvd::versal {
namespace {

// Column 0 of task 0, its DMA shadow, and a second column.
const BufferId kA{0, 0, false};
const BufferId kShadowA{0, 0, true};
const BufferId kB{0, 1, false};

BufferRecord bytes(std::uint64_t n) { return BufferRecord{n, {}}; }

TEST(TileMemory, StoresAndLoads) {
  TileMemory mem(1024);
  mem.store(kA, bytes(8));
  EXPECT_TRUE(mem.contains(kA));
  EXPECT_FALSE(mem.contains(kShadowA));
  EXPECT_EQ(mem.load(kA).bytes, 8u);
  EXPECT_EQ(mem.used_bytes(), 8u);
}

TEST(TileMemory, BufferNamesKeepTheColumnTaskText) {
  EXPECT_EQ(to_string(BufferId{2, 3, false}), "c3.t2");
  EXPECT_EQ(to_string(BufferId{12, 0, true}), "c0.t12#dma");
}

TEST(TileMemory, OverflowThrows) {
  TileMemory mem(16);  // room for 4 floats
  mem.store(kA, bytes(16));
  EXPECT_THROW(mem.store(kB, bytes(4)), std::runtime_error);
  // Replacing an existing buffer of equal size is fine.
  BufferRecord flipped = bytes(16);
  flipped.flip({1, 9});
  mem.store(kA, flipped);
  EXPECT_TRUE(mem.load(kA).corrupted());
  EXPECT_EQ(mem.used_bytes(), 16u);
}

TEST(TileMemory, EraseReleasesCapacity) {
  TileMemory mem(16);
  mem.store(kA, bytes(16));
  mem.erase(kA);
  EXPECT_EQ(mem.used_bytes(), 0u);
  EXPECT_EQ(mem.peak_bytes(), 16u);  // peak is sticky
  mem.store(kB, bytes(16));          // fits again
  EXPECT_TRUE(mem.contains(kB));
  EXPECT_EQ(mem.erase_task(0), 1u);  // a failed task's purge
  EXPECT_EQ(mem.used_bytes(), 0u);
}

TEST(TileMemory, MissingBufferThrows) {
  TileMemory mem(64);
  EXPECT_THROW(mem.load(kA), std::invalid_argument);
  EXPECT_THROW(mem.take(kA), std::invalid_argument);
  mem.erase(kA);  // erase of an absent buffer is a no-op
}

TEST(BufferRecord, RepeatedFlipOfOneBitCancels) {
  BufferRecord record = bytes(64);
  record.flip({3, 7});
  record.flip({5, 7});
  EXPECT_TRUE(record.corrupted());
  record.flip({3, 7});
  EXPECT_TRUE(record.corrupted());
  record.flip({5, 7});
  EXPECT_FALSE(record.corrupted());  // both bits are back
}

TEST(Timeline, SerializesOperations) {
  Timeline t("x");
  EXPECT_DOUBLE_EQ(t.schedule(0.0, 2.0), 2.0);
  // Ready earlier than the resource frees: starts at 2.
  EXPECT_DOUBLE_EQ(t.schedule(1.0, 1.0), 3.0);
  // Ready later than free: idle gap allowed.
  EXPECT_DOUBLE_EQ(t.schedule(10.0, 1.0), 11.0);
  EXPECT_DOUBLE_EQ(t.busy_seconds(), 4.0);
}

TEST(Channel, TransferTimeFollowsRate) {
  Channel ch("c", 1e9);  // 1 GB/s
  EXPECT_DOUBLE_EQ(ch.transfer_duration(1e6), 1e-3);
  const double done1 = ch.transfer(0.0, 1e6);
  const double done2 = ch.transfer(0.0, 1e6);  // queued behind the first
  EXPECT_DOUBLE_EQ(done1, 1e-3);
  EXPECT_DOUBLE_EQ(done2, 2e-3);
}

TEST(Packet, BytesIncludeHeaderBeat) {
  Packet p;
  p.payload_bytes = 512;  // 128 floats
  EXPECT_EQ(p.bytes(), 16u + 512u);
}

TEST(ForwardingTable, BindsAndRejectsDuplicates) {
  ForwardingTable table;
  table.bind(3, {1, 2});
  EXPECT_TRUE(table.has(3));
  EXPECT_EQ(table.route(3), (TileCoord{1, 2}));
  EXPECT_THROW(table.bind(3, {0, 0}), std::invalid_argument);
  EXPECT_THROW(table.route(9), std::invalid_argument);
}

class ArraySimTest : public ::testing::Test {
 protected:
  ArraySimTest() : geo_(8, 8), sim_(geo_, vck190()) {}
  ArrayGeometry geo_;
  AieArraySim sim_;
};

TEST_F(ArraySimTest, NeighbourMoveTransfersOwnership) {
  sim_.memory({0, 3}).store(kA, bytes(12));
  sim_.neighbour_move({0, 3}, {1, 3}, kA);
  EXPECT_FALSE(sim_.memory({0, 3}).contains(kA));
  EXPECT_TRUE(sim_.memory({1, 3}).contains(kA));
  EXPECT_EQ(sim_.memory({0, 3}).used_bytes(), 0u);
  EXPECT_EQ(sim_.memory({1, 3}).used_bytes(), 12u);
  EXPECT_EQ(sim_.stats().neighbour_transfers, 1u);
}

TEST_F(ArraySimTest, NeighbourMoveRejectsNonNeighbours) {
  sim_.memory({0, 0}).store(kA, bytes(12));
  EXPECT_THROW(sim_.neighbour_move({0, 0}, {4, 4}, kA), std::invalid_argument);
}

TEST_F(ArraySimTest, DmaMoveDuplicatesBuffer) {
  sim_.memory({0, 0}).store(kA, bytes(16));
  const double done = sim_.dma_move({0, 0}, {5, 5}, kA, 0.0);
  EXPECT_GT(done, 0.0);
  // Shadow copy coexists with the original: the 2x memory cost.
  EXPECT_TRUE(sim_.memory({0, 0}).contains(kA));
  EXPECT_TRUE(sim_.memory({5, 5}).contains(kShadowA));
  EXPECT_EQ(sim_.memory({0, 0}).used_bytes() + sim_.memory({5, 5}).used_bytes(),
            32u);
  EXPECT_EQ(sim_.stats().dma_transfers, 1u);
  EXPECT_EQ(sim_.stats().dma_bytes, 16u);
}

TEST_F(ArraySimTest, DmaChargesSetupPlusTransfer) {
  // 1 KB over the DMA engine at 4 B/cycle @ 1.25 GHz plus the 300-cycle
  // buffer-descriptor/lock setup.
  sim_.memory({0, 0}).store(kA, bytes(1024));
  const double done = sim_.dma_move({0, 0}, {3, 3}, kA, 0.0);
  EXPECT_NEAR(done, sim_.dma_setup_seconds() + 1024.0 / (4.0 * 1.25e9), 1e-12);
  EXPECT_GT(sim_.dma_setup_seconds(), 0.0);
}

TEST_F(ArraySimTest, DmaChargesTheRecordByteCount) {
  // The record's byte count alone prices the transfer; there is no data.
  sim_.memory({0, 0}).store(kA, bytes(2048));
  const double done = sim_.dma_move({0, 0}, {3, 3}, kA, 0.0);
  EXPECT_NEAR(done, sim_.dma_setup_seconds() + 2048.0 / (4.0 * 1.25e9), 1e-12);
  EXPECT_EQ(sim_.stats().dma_bytes, 2048u);
  EXPECT_EQ(sim_.memory({3, 3}).load(kShadowA).bytes, 2048u);
}

TEST_F(ArraySimTest, StreamPacketStoresPayloadAndSerializes) {
  Packet p;
  p.header = {0, 7, 0};
  p.payload_bytes = 256;
  const double t1 = sim_.stream_packet({2, 2}, p, 0.0);
  const double t2 = sim_.stream_packet({2, 2}, p, 0.0);
  EXPECT_GT(t2, t1);  // same port: serialized
  const BufferId stored{0, 7, false};
  EXPECT_TRUE(sim_.memory({2, 2}).contains(stored));
  EXPECT_EQ(sim_.memory({2, 2}).load(stored).bytes, 256u);
  EXPECT_EQ(sim_.memory({2, 2}).used_bytes(), 256u);  // re-sent, not doubled
  EXPECT_EQ(sim_.stats().stream_packets, 2u);
  EXPECT_EQ(sim_.stats().stream_bytes, 2u * (16u + 256u));
}

TEST_F(ArraySimTest, KernelsAccumulateUtilization) {
  sim_.run_kernel({1, 1}, 0.0, 1e-6);
  sim_.run_kernel({1, 1}, 0.0, 1e-6);
  EXPECT_EQ(sim_.stats().kernel_invocations, 2u);
  // One active core busy 2 us over a 4 us makespan: 50%.
  EXPECT_NEAR(sim_.core_utilization(4e-6), 0.5, 1e-9);
}

TEST_F(ArraySimTest, ResetTimeClearsTimelinesButKeepsStats) {
  sim_.run_kernel({1, 1}, 0.0, 1e-6);
  sim_.reset_time();
  EXPECT_DOUBLE_EQ(sim_.core({1, 1}).next_free(), 0.0);
  EXPECT_EQ(sim_.stats().kernel_invocations, 1u);  // stats are cumulative
}

TEST_F(ArraySimTest, PeakMemoryAggregates) {
  sim_.memory({0, 0}).store(kA, bytes(400));
  sim_.memory({3, 3}).store(kB, bytes(200));
  sim_.memory({0, 0}).erase(kA);
  EXPECT_EQ(sim_.peak_memory_bytes(), 600u);
}

}  // namespace
}  // namespace hsvd::versal
