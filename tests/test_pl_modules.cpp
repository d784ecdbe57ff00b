// Tests for the PL-side modules of Fig. 2 (sender with dynamic
// forwarding, receiver, system module).
#include <gtest/gtest.h>

#include "accel/pl_modules.hpp"

namespace hsvd::accel {
namespace {

class SenderTest : public ::testing::Test {
 protected:
  SenderTest()
      : geo_(4, 4),
        array_(geo_, versal::vck190()),
        tx0_("tx0", 1e9),
        tx1_("tx1", 1e9) {
    versal::ForwardingTable fw;
    fw.bind(0, {1, 0});
    fw.bind(1, {1, 1});
    sender_ = std::make_unique<Sender>(tx0_, tx1_, std::move(fw), array_);
  }
  versal::ArrayGeometry geo_;
  versal::AieArraySim array_;
  versal::Channel tx0_, tx1_;
  std::unique_ptr<Sender> sender_;
};

TEST_F(SenderTest, RoutesPayloadThroughForwardingTable) {
  const double done =
      sender_->send_column(0, 1, /*column=*/7, /*task=*/0, 0.0, 64);
  EXPECT_GT(done, 0.0);
  const versal::BufferId column{0, 7, false};
  EXPECT_TRUE(array_.memory({1, 1}).contains(column));
  EXPECT_EQ(array_.memory({1, 1}).load(column).bytes, 64u);
  EXPECT_FALSE(array_.memory({1, 0}).contains(column));
}

TEST_F(SenderTest, SerializesPerChannel) {
  const double a = sender_->send_column(0, 0, 1, 0, 0.0, 1000);
  const double b = sender_->send_column(0, 0, 2, 0, 0.0, 1000);
  const double c = sender_->send_column(1, 1, 3, 0, 0.0, 1000);
  EXPECT_GT(b, a);        // same channel: queued
  EXPECT_LT(c, b);        // other channel: parallel
}

TEST_F(SenderTest, UnknownDestinationThrows) {
  EXPECT_THROW(sender_->send_column(0, 9, 0, 0, 0.0, 64),
               std::invalid_argument);
  EXPECT_THROW(sender_->send_column(2, 0, 0, 0, 0.0, 64),
               std::invalid_argument);
}

TEST(ReceiverModule, SerializesPerChannelAndValidates) {
  versal::Channel rx0("rx0", 1e9), rx1("rx1", 1e9);
  Receiver receiver(rx0, rx1);
  const double a = receiver.receive_column(0, 0.0, 1e6);
  const double b = receiver.receive_column(0, 0.0, 1e6);
  const double c = receiver.receive_column(1, 0.0, 1e6);
  EXPECT_NEAR(a, 1e-3, 1e-12);
  EXPECT_NEAR(b, 2e-3, 1e-12);
  EXPECT_NEAR(c, 1e-3, 1e-12);
  EXPECT_THROW(receiver.receive_column(3, 0.0, 1.0), std::invalid_argument);
}

TEST(SystemModuleUnit, ConvergenceDecision) {
  SystemModule system(1e-6);
  system.begin_iteration();
  system.observe_pair(0.5);
  EXPECT_FALSE(system.should_terminate(true));
  EXPECT_DOUBLE_EQ(system.convergence_rate(), 0.5);
  system.begin_iteration();
  system.observe_pair(1e-9);
  EXPECT_TRUE(system.should_terminate(true));
  // Fixed-iteration mode never terminates on convergence.
  EXPECT_FALSE(system.should_terminate(false));
}

}  // namespace
}  // namespace hsvd::accel
