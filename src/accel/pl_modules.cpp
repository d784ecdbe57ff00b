#include "accel/pl_modules.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/format.hpp"

namespace hsvd::accel {

Sender::Sender(versal::Channel& tx0, versal::Channel& tx1,
               versal::ForwardingTable forwarding, versal::AieArraySim& array)
    : tx0_(tx0), tx1_(tx1), forwarding_(std::move(forwarding)), array_(array) {}

double Sender::send_column(int which_block_channel, std::uint32_t dest_id,
                           std::uint32_t column, std::uint32_t task,
                           double ready, std::uint64_t column_bytes) {
  HSVD_REQUIRE(which_block_channel == 0 || which_block_channel == 1,
               "a block pair uses exactly two Tx PLIOs");
  versal::Channel& tx = which_block_channel == 0 ? tx0_ : tx1_;
  const auto bytes = static_cast<double>(column_bytes);
  const double at_plio = tx.transfer(ready, bytes);
  if (obs::ObsContext* obs = array_.observer()) {
    obs->metrics().add("sim.plio.bytes", column_bytes);
    if (obs::Tracer* tr = obs->tracer()) {
      const double dur = tx.transfer_duration(bytes);
      tr->span(obs::Domain::kSim, cat("plio.", tx.timeline().name()),
               cat("c", column, ".t", task), "plio", at_plio - dur, dur);
    }
  }
  const versal::Packet packet{{dest_id, column, task}, column_bytes};
  return array_.stream_packet(forwarding_.route(dest_id), packet, at_plio);
}

Receiver::Receiver(versal::Channel& rx0, versal::Channel& rx1,
                   const versal::AieArraySim* array)
    : rx0_(rx0), rx1_(rx1), array_(array) {}

double Receiver::receive_column(int which_block_channel, double ready,
                                double column_bytes) {
  HSVD_REQUIRE(which_block_channel == 0 || which_block_channel == 1,
               "a block pair uses exactly two Rx PLIOs");
  versal::Channel& rx = which_block_channel == 0 ? rx0_ : rx1_;
  const double done = rx.transfer(ready, column_bytes);
  if (array_ != nullptr) {
    if (obs::ObsContext* obs = array_->observer()) {
      obs->metrics().add("sim.plio.bytes",
                         static_cast<std::uint64_t>(column_bytes));
      if (obs::Tracer* tr = obs->tracer()) {
        const double dur = rx.transfer_duration(column_bytes);
        tr->span(obs::Domain::kSim, cat("plio.", rx.timeline().name()), "col",
                 "plio", done - dur, dur);
      }
    }
  }
  return done;
}

}  // namespace hsvd::accel
