// Tests for the fault injection subsystem (versal/faults.hpp): trigger
// semantics, per-resource counting, deterministic derived randomness, and
// the AieArraySim hooks that consult it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/format.hpp"
#include "versal/array.hpp"
#include "versal/faults.hpp"
#include "versal/resources.hpp"

namespace hsvd::versal {
namespace {

std::vector<float> ramp(std::size_t n) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(i) + 0.5f;
  return v;
}

TEST(FaultChecksum, SensitiveToSingleBit) {
  std::vector<float> a = ramp(64);
  std::vector<float> b = a;
  const std::uint64_t ca = buffer_checksum(a);
  EXPECT_EQ(ca, buffer_checksum(b));  // deterministic
  std::uint32_t bits;
  std::memcpy(&bits, &b[17], sizeof(bits));
  bits ^= 1u << 13;
  std::memcpy(&b[17], &bits, sizeof(bits));
  EXPECT_NE(ca, buffer_checksum(b));
}

TEST(FaultKinds, NamesAndCorruptionClass) {
  EXPECT_STREQ(to_string(FaultKind::kTileHang), "tile-hang");
  EXPECT_STREQ(to_string(FaultKind::kPlioDegrade), "plio-degrade");
  EXPECT_TRUE(corrupts(FaultKind::kTileHang));
  EXPECT_TRUE(corrupts(FaultKind::kMemoryBitFlip));
  EXPECT_TRUE(corrupts(FaultKind::kStreamDrop));
  EXPECT_TRUE(corrupts(FaultKind::kDmaDrop));
  EXPECT_FALSE(corrupts(FaultKind::kStreamStall));
  EXPECT_FALSE(corrupts(FaultKind::kDmaStall));
  EXPECT_FALSE(corrupts(FaultKind::kPlioDegrade));
}

TEST(FaultInjector, HangFiresAtOrdinalAndIsSticky) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kTileHang, {2, 3}, 0, 2, 0.0, 1.0});
  FaultInjector inj(plan);
  EXPECT_FALSE(inj.hang_core({2, 3}));  // op 0
  EXPECT_FALSE(inj.hang_core({2, 3}));  // op 1
  EXPECT_TRUE(inj.hang_core({2, 3}));   // op 2: triggers
  EXPECT_TRUE(inj.hang_core({2, 3}));   // sticky ever after
  // Other tiles have their own counters and never hang.
  EXPECT_FALSE(inj.hang_core({2, 4}));
  EXPECT_EQ(inj.event_count(), 1u);
}

TEST(FaultInjector, StreamDropFiresExactlyOnceAtItsOrdinal) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kStreamDrop, {1, 1}, 0, 1, 0.0, 1.0});
  FaultInjector inj(plan);
  bool drop = false;
  EXPECT_EQ(inj.on_stream({1, 1}, &drop), 0.0);
  EXPECT_FALSE(drop);                    // op 0: not yet
  EXPECT_EQ(inj.on_stream({1, 1}, &drop), 0.0);
  EXPECT_TRUE(drop);                     // op 1: fires
  drop = false;
  EXPECT_EQ(inj.on_stream({1, 1}, &drop), 0.0);
  EXPECT_FALSE(drop);                    // one-shot: op 2 is clean
}

TEST(FaultInjector, StallDelaysWithoutDropping) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kDmaStall, {0, 5}, 0, 0, 3e-6, 1.0});
  FaultInjector inj(plan);
  bool drop = false;
  EXPECT_DOUBLE_EQ(inj.on_dma({0, 5}, &drop), 3e-6);
  EXPECT_FALSE(drop);
  EXPECT_DOUBLE_EQ(inj.on_dma({0, 5}, &drop), 0.0);  // one-shot
}

TEST(FaultInjector, BitFlipIsSingleBitAndSeedDeterministic) {
  FaultPlan plan;
  plan.seed = 77;
  plan.faults.push_back({FaultKind::kMemoryBitFlip, {4, 4}, 0, 0, 0.0, 1.0});

  FaultInjector a(plan);
  const std::vector<BitFlip> first = a.corrupt_payload({4, 4}, 32);
  // Exactly one bit of one word of the 32-word buffer.
  ASSERT_EQ(first.size(), 1u);
  EXPECT_LT(first[0].word, 32u);
  EXPECT_GE(first[0].bit, 0);
  EXPECT_LT(first[0].bit, 32);
  ASSERT_EQ(a.events().size(), 1u);
  EXPECT_EQ(a.events()[0].detail,
            cat("bit ", first[0].bit, " of word ", first[0].word,
                " flipped at ", to_string(TileCoord{4, 4})));
  // One-shot: the next buffer staged on the tile is clean.
  EXPECT_TRUE(a.corrupt_payload({4, 4}, 32).empty());

  // A fresh injector with the same plan corrupts the same bit.
  FaultInjector b(plan);
  EXPECT_EQ(b.corrupt_payload({4, 4}, 32), first);

  // A different seed (almost surely) picks a different bit.
  plan.seed = 78;
  FaultInjector c(plan);
  const std::vector<BitFlip> third = c.corrupt_payload({4, 4}, 32);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_NE(third, first);
}

TEST(FaultInjector, ResetRearms) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kStreamDrop, {0, 0}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  bool drop = false;
  inj.on_stream({0, 0}, &drop);
  EXPECT_TRUE(drop);
  EXPECT_EQ(inj.event_count(), 1u);
  inj.reset();
  EXPECT_EQ(inj.event_count(), 0u);
  drop = false;
  inj.on_stream({0, 0}, &drop);
  EXPECT_TRUE(drop);  // counter and armed state both rewound
}

TEST(FaultInjector, PlioScaleCombinesPerSlot) {
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kPlioDegrade, {-1, -1}, 1, 0, 0.0, 0.5});
  plan.faults.push_back({FaultKind::kPlioDegrade, {-1, -1}, 1, 0, 0.0, 0.5});
  FaultInjector inj(plan);
  EXPECT_DOUBLE_EQ(inj.plio_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(inj.plio_scale(1), 0.25);
}

// --- AieArraySim hook integration -------------------------------------

TEST(FaultArray, HungCoreReportsUnreachableCompletion) {
  AieArraySim array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kTileHang, {3, 3}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  array.attach_faults(&inj);
  EXPECT_TRUE(std::isinf(array.run_kernel({3, 3}, 0.0, 1e-6)));
  // Healthy tiles are untouched.
  EXPECT_DOUBLE_EQ(array.run_kernel({3, 4}, 0.0, 1e-6), 1e-6);
  // The hung core's timeline stays empty: no phantom busy time.
  EXPECT_DOUBLE_EQ(array.core({3, 3}).busy_seconds(), 0.0);
}

TEST(FaultArray, DroppedDmaNeverLandsTheShadow) {
  AieArraySim array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kDmaDrop, {1, 1}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  array.attach_faults(&inj);
  const BufferId c0{0, 0, false};
  array.memory({1, 1}).store(c0, BufferRecord{64, {}});
  const double done = array.dma_move({1, 1}, {5, 5}, c0, 0.0);
  EXPECT_GT(done, 0.0);  // the engine still burned its time
  EXPECT_FALSE(array.memory({5, 5}).contains(BufferId{0, 0, true}));
  EXPECT_EQ(array.memory({5, 5}).used_bytes(), 0u);
  EXPECT_TRUE(array.memory({1, 1}).contains(c0));  // source intact
  // The next DMA from the same tile is clean (one-shot).
  const BufferId c1{0, 1, false};
  array.memory({1, 1}).store(c1, BufferRecord{64, {}});
  array.dma_move({1, 1}, {5, 5}, c1, 0.0);
  EXPECT_TRUE(array.memory({5, 5}).contains(BufferId{0, 1, true}));
}

TEST(FaultArray, StreamBitFlipIsCaughtByChecksum) {
  AieArraySim array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.seed = 9;
  plan.faults.push_back({FaultKind::kMemoryBitFlip, {2, 7}, 0, 0, 0.0, 1.0});
  FaultInjector inj(plan);
  array.attach_faults(&inj);
  Packet packet;
  packet.header = {0, 4, 2};
  packet.payload_bytes = 24 * sizeof(float);
  array.stream_packet({2, 7}, packet, 0.0);
  const BufferId stored{2, 4, false};
  ASSERT_TRUE(array.memory({2, 7}).contains(stored));
  // The Rx integrity check fires on a record whose net flips are
  // non-empty: the stored column no longer matches what was sent.
  const BufferRecord& record = array.memory({2, 7}).load(stored);
  EXPECT_TRUE(record.corrupted());
  ASSERT_EQ(record.flips.size(), 1u);
  EXPECT_LT(record.flips[0].word, 24u);
  ASSERT_EQ(inj.events().size(), 1u);
  EXPECT_EQ(inj.events().front().kind, FaultKind::kMemoryBitFlip);
  // A DMA shadow of the corrupted buffer carries the flip along.
  array.dma_move({2, 7}, {6, 7}, stored, 0.0);
  EXPECT_TRUE(array.memory({6, 7}).load(BufferId{2, 4, true}).corrupted());
}

TEST(FaultArray, StallStretchesTheTimelineOnly) {
  AieArraySim clean_array(ArrayGeometry(8, 50), vck190());
  AieArraySim stalled_array(ArrayGeometry(8, 50), vck190());
  FaultPlan plan;
  plan.faults.push_back({FaultKind::kStreamStall, {0, 2}, 0, 0, 5e-6, 1.0});
  FaultInjector inj(plan);
  stalled_array.attach_faults(&inj);
  Packet packet;
  packet.header = {0, 0, 0};
  packet.payload_bytes = 16 * sizeof(float);
  const double clean_done = clean_array.stream_packet({0, 2}, packet, 0.0);
  const double stalled_done = stalled_array.stream_packet({0, 2}, packet, 0.0);
  EXPECT_NEAR(stalled_done - clean_done, 5e-6, 1e-12);
  // Payload intact: stalls never corrupt.
  const BufferRecord& stalled =
      stalled_array.memory({0, 2}).load(BufferId{0, 0, false});
  EXPECT_FALSE(stalled.corrupted());
  EXPECT_EQ(stalled.bytes,
            clean_array.memory({0, 2}).load(BufferId{0, 0, false}).bytes);
}

}  // namespace
}  // namespace hsvd::versal
