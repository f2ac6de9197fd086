// RTP-style H.264 packetization (RFC 6184-shaped, wire format ours).
//
// Packetizer: one access unit of NAL units in, MediaPackets out.  NALs
// larger than the MTU are split into kFragStart/kFragMiddle/kFragEnd
// fragments (FU-A analogue: the NAL header byte rides in the packet
// header, payload bytes are split raw).  Runs of two or more small NALs
// are coalesced into one kAggregate packet (STAP-A analogue:
// [u16 size][header byte][payload] per unit).  The marker flag is set
// on the last packet of each access unit.
//
// Depacketizer: consumes the jitter buffer's in-order release stream
// and reassembles NAL units, turning declared losses and broken
// fragment chains into explicit loss events the session forwards to
// Decoder::notify_loss() — a dropped packet produces *missing* data,
// not malformed data, so without this signal the resilient decoder
// would never know to resync.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "h264/nal.hpp"
#include "net/jitter.hpp"
#include "net/wire.hpp"

namespace affectsys::net {

struct PacketizerConfig {
  /// Maximum payload bytes per packet; NALs above this fragment.
  std::size_t mtu = 128;
};

class Packetizer {
 public:
  explicit Packetizer(const PacketizerConfig& cfg) : cfg_(cfg) {}

  /// Packetizes one access unit; `timestamp`/`generation`/`layer` stamp
  /// every packet, the last packet carries the marker.  Sequence numbers
  /// continue across calls (and wrap at 65535 by design).  Per-layer
  /// sequence spaces come from giving each layer its own Packetizer —
  /// one instance never interleaves layers.
  std::vector<MediaPacket> packetize(std::span<const h264::NalUnit> nals,
                                     std::uint32_t timestamp,
                                     std::uint32_t generation,
                                     std::uint8_t layer = 0);

  std::uint16_t next_seq() const { return seq_; }

  /// Bound on every packet's payload: single, fragment and aggregate
  /// packets all stay at or under the MTU (at least 1).
  std::size_t max_payload_bytes() const {
    return std::max<std::size_t>(cfg_.mtu, 1);
  }

 private:
  PacketizerConfig cfg_;
  std::uint16_t seq_ = 0;
};

/// One NAL unit reassembled from the wire, with its media position.
struct ReceivedNal {
  h264::NalUnit nal;
  std::uint32_t timestamp = 0;
  std::uint32_t generation = 0;
  std::uint8_t layer = 0;  ///< simulcast layer the unit arrived on
};

/// One depacketizer output: a NAL unit, or an explicit loss event where
/// media went missing (a declared-lost packet or an unreassemblable
/// fragment chain), in stream order.
struct DepacketizerEvent {
  bool loss = false;
  ReceivedNal nal;  ///< valid when !loss
};

struct DepacketizerStats {
  std::uint64_t nals_out = 0;
  std::uint64_t loss_events = 0;
  std::uint64_t fragments_reassembled = 0;  ///< NALs rebuilt from fragments
  std::uint64_t aggregates_split = 0;       ///< aggregate packets expanded
  std::uint64_t malformed = 0;              ///< undecodable packet contents
};

class Depacketizer {
 public:
  /// Consumes jitter-buffer releases (already in sequence order) and
  /// emits NAL units / loss events in stream order.
  std::vector<DepacketizerEvent> push(std::span<const Released> releases);

  const DepacketizerStats& stats() const { return stats_; }

 private:
  void abort_assembly(std::vector<DepacketizerEvent>& out);

  DepacketizerStats stats_;
  bool assembling_ = false;
  bool dropping_frags_ = false;  ///< chain lost its start; eat the rest
  std::uint8_t frag_header_ = 0;
  std::uint32_t frag_ts_ = 0;
  std::uint32_t frag_gen_ = 0;
  std::uint8_t frag_layer_ = 0;
  std::vector<std::uint8_t> frag_payload_;
};

}  // namespace affectsys::net
