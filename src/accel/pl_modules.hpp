// PL-side modules of the HeteroSVD system (paper Fig. 2).
//
// The PL fabric hosts four cooperating state machines per task slot.
// The data arrangement module stages blocks from DDR into URAM ping-pong
// buffers and serves them in block-pair order; the accelerator's walk
// models it directly as the NoC staging transfers plus one ready time per
// block (accelerator.cpp, execute_task). The other three are:
//   Sender          -- packs columns into header-routed packets and
//                      pushes them through the two orth Tx PLIOs; the
//                      dynamic-forwarding table maps a packet's dest_id
//                      to the physical layer-0 tile (section III-C).
//   Receiver        -- drains the two orth Rx PLIOs, reassembles blocks,
//                      and reports per-block completion times.
//   SystemModule    -- accumulates the convergence rate (eq. (6)) and
//                      decides when to leave the orthogonalization stage.
//
// Sender and Receiver are timing models: they own their Channel timelines
// and move byte counts, never data. The SystemModule watches the host sweep
// loop that computes the factors (accelerator.hpp, solve_task) and makes
// its stop and watchdog decisions.
#pragma once

#include <vector>

#include "jacobi/convergence.hpp"
#include "versal/array.hpp"
#include "versal/packet.hpp"
#include "versal/timeline.hpp"

namespace hsvd::accel {

class Sender {
 public:
  // `tx0`/`tx1` carry the two blocks of a pair; `forwarding` must route
  // every engine-slot dest_id used by the schedule.
  Sender(versal::Channel& tx0, versal::Channel& tx1,
         versal::ForwardingTable forwarding, versal::AieArraySim& array);

  // Sends one column of `column_bytes`: packetizes, serializes on the
  // block's Tx PLIO, then forwards through the packet switch to the tile
  // bound to `dest_id`, whose memory receives the column's buffer record.
  // Returns the arrival time at the tile's memory.
  double send_column(int which_block_channel, std::uint32_t dest_id,
                     std::uint32_t column, std::uint32_t task,
                     double ready, std::uint64_t column_bytes);

  const versal::ForwardingTable& forwarding() const { return forwarding_; }

 private:
  versal::Channel& tx0_;
  versal::Channel& tx1_;
  versal::ForwardingTable forwarding_;
  versal::AieArraySim& array_;
};

class Receiver {
 public:
  // `array` (optional) supplies the observability context the Rx PLIO
  // transfers report to; the receiver itself never touches the fabric.
  Receiver(versal::Channel& rx0, versal::Channel& rx1,
           const versal::AieArraySim* array = nullptr);

  // Receives one column of a block over the block's Rx PLIO; returns the
  // completion time at the PL buffers.
  double receive_column(int which_block_channel, double ready,
                        double column_bytes);

 private:
  versal::Channel& rx0_;
  versal::Channel& rx1_;
  const versal::AieArraySim* array_;
};

class SystemModule {
 public:
  explicit SystemModule(double precision) : tracker_(precision) {}

  void begin_iteration() { tracker_.begin_sweep(); }
  void observe_pair(double coherence) { tracker_.observe(coherence); }
  // The convergence decision of Algorithm 1 line 2 / lines 15-16.
  bool should_terminate(bool precision_mode) const {
    return precision_mode && tracker_.converged();
  }
  double convergence_rate() const { return tracker_.sweep_rate(); }

  // Convergence watchdog: closes one sweep and updates the stall counter.
  // A sweep "stalls" when its off-diagonal coherence fails to drop
  // meaningfully below the previous sweep's -- the signature of a
  // corrupted iteration (or a matrix that cannot reach the precision
  // target at this datatype). Jacobi sweeps are not strictly monotone,
  // so only `stall_limit()` *consecutive* stalled sweeps trip the
  // watchdog; one improving sweep resets the counter.
  void end_iteration() {
    const double rate = tracker_.sweep_rate();
    if (have_last_ && rate >= last_rate_ * kStallShrink) {
      ++stalled_sweeps_;
    } else {
      stalled_sweeps_ = 0;
    }
    last_rate_ = rate;
    have_last_ = true;
  }
  int stalled_sweeps() const { return stalled_sweeps_; }
  static constexpr int stall_limit() { return 5; }
  bool stalled() const { return stalled_sweeps_ >= stall_limit(); }

 private:
  // A sweep must shrink the coherence by at least this factor to count
  // as progress.
  static constexpr double kStallShrink = 0.999;
  jacobi::ConvergenceTracker tracker_;
  double last_rate_ = 0.0;
  bool have_last_ = false;
  int stalled_sweeps_ = 0;
};

}  // namespace hsvd::accel
