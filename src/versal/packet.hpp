// Packet-switched stream communication (paper Fig. 1(b)).
//
// The PL sender packs each column into a packet whose header carries a
// destination id; AIE switches forward the packet to the tile registered
// for that id (dynamic forwarding). A ForwardingTable is the rule set the
// sender module programs (section III-C: odd/even columns of a block pair
// routed over four PLIOs to their orth-AIEs).
#pragma once

#include <cstdint>
#include <map>

#include "common/assert.hpp"
#include "versal/geometry.hpp"

namespace hsvd::versal {

struct PacketHeader {
  std::uint32_t dest_id = 0;   // forwarding key
  std::uint32_t column = 0;    // column index of the payload
  std::uint32_t task = 0;      // batch task the column belongs to
};

// A packet carries the size of its column, not the column: the factors
// are computed on the host, and the fabric only needs what the wire and
// the tile memories are charged for.
struct Packet {
  PacketHeader header;
  std::uint64_t payload_bytes = 0;
  std::uint64_t bytes() const {
    // 128-bit header beat + payload words.
    return 16 + payload_bytes;
  }
};

class ForwardingTable {
 public:
  // Registers a destination tile for a forwarding key. A key can only be
  // bound once (the hardware analogue is a fixed packet-switch route).
  void bind(std::uint32_t dest_id, TileCoord tile);

  bool has(std::uint32_t dest_id) const { return routes_.count(dest_id) > 0; }

  TileCoord route(std::uint32_t dest_id) const;

  std::size_t size() const { return routes_.size(); }

 private:
  std::map<std::uint32_t, TileCoord> routes_;
};

}  // namespace hsvd::versal
