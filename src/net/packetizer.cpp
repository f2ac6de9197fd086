#include "net/packetizer.hpp"

#include <algorithm>
#include <utility>

namespace affectsys::net {

namespace {

std::uint8_t nal_header_byte(const h264::NalUnit& nal) {
  return static_cast<std::uint8_t>(((nal.ref_idc & 0x3u) << 5) |
                                   (static_cast<std::uint8_t>(nal.type) & 0x1Fu));
}

h264::NalUnit nal_from_header(std::uint8_t header,
                              std::vector<std::uint8_t> payload) {
  h264::NalUnit nal;
  nal.type = static_cast<h264::NalType>(header & 0x1Fu);
  nal.ref_idc = static_cast<std::uint8_t>((header >> 5) & 0x3u);
  nal.payload = std::move(payload);
  return nal;
}

}  // namespace

std::vector<MediaPacket> Packetizer::packetize(
    std::span<const h264::NalUnit> nals, std::uint32_t timestamp,
    std::uint32_t generation, std::uint8_t layer) {
  std::vector<MediaPacket> out;
  const std::size_t mtu = max_payload_bytes();
  std::size_t i = 0;
  while (i < nals.size()) {
    // Try STAP-style aggregation: how many consecutive NALs fit in one
    // packet at 3 bytes of framing each ([u16 size][header byte])?
    std::size_t agg_end = i;
    std::size_t used = 0;
    while (agg_end < nals.size()) {
      const std::size_t need = 3 + nals[agg_end].payload.size();
      if (used + need > mtu) break;
      used += need;
      ++agg_end;
    }
    if (agg_end - i >= 2) {
      MediaPacket p;
      p.seq = seq_++;
      p.timestamp = timestamp;
      p.generation = generation;
      p.layer = layer;
      p.kind = PacketKind::kAggregate;
      for (; i < agg_end; ++i) {
        const h264::NalUnit& nal = nals[i];
        const std::uint16_t size =
            static_cast<std::uint16_t>(1 + nal.payload.size());
        p.payload.push_back(static_cast<std::uint8_t>(size >> 8));
        p.payload.push_back(static_cast<std::uint8_t>(size & 0xFF));
        p.payload.push_back(nal_header_byte(nal));
        p.payload.insert(p.payload.end(), nal.payload.begin(),
                         nal.payload.end());
      }
      out.push_back(std::move(p));
      continue;
    }

    const h264::NalUnit& nal = nals[i];
    if (nal.payload.size() <= mtu) {
      MediaPacket p;
      p.seq = seq_++;
      p.timestamp = timestamp;
      p.generation = generation;
      p.layer = layer;
      p.kind = PacketKind::kSingle;
      p.nal_header = nal_header_byte(nal);
      p.payload = nal.payload;
      out.push_back(std::move(p));
    } else {
      // FU-style fragmentation: the header byte rides in every
      // fragment's packet header, payload bytes split raw at the MTU.
      std::size_t offset = 0;
      while (offset < nal.payload.size()) {
        const std::size_t take = std::min(mtu, nal.payload.size() - offset);
        MediaPacket p;
        p.seq = seq_++;
        p.timestamp = timestamp;
        p.generation = generation;
        p.layer = layer;
        p.kind = offset == 0 ? PacketKind::kFragStart
                 : offset + take == nal.payload.size() ? PacketKind::kFragEnd
                                                       : PacketKind::kFragMiddle;
        p.nal_header = nal_header_byte(nal);
        p.payload.assign(nal.payload.begin() + offset,
                         nal.payload.begin() + offset + take);
        out.push_back(std::move(p));
        offset += take;
      }
    }
    ++i;
  }
  if (!out.empty()) out.back().marker = true;
  return out;
}

void Depacketizer::abort_assembly(std::vector<DepacketizerEvent>& out) {
  assembling_ = false;
  frag_payload_.clear();
  out.push_back(DepacketizerEvent{true, {}});
  ++stats_.loss_events;
}

std::vector<DepacketizerEvent> Depacketizer::push(
    std::span<const Released> releases) {
  std::vector<DepacketizerEvent> out;
  for (const Released& r : releases) {
    if (r.lost) {
      // The lost packet's kind is unknowable; if fragments follow with
      // no start, eat them — their NAL is covered by this loss event.
      if (assembling_) {
        abort_assembly(out);
      } else {
        out.push_back(DepacketizerEvent{true, {}});
        ++stats_.loss_events;
      }
      dropping_frags_ = true;
      continue;
    }
    const MediaPacket& p = r.packet;
    switch (p.kind) {
      case PacketKind::kSingle: {
        if (assembling_) abort_assembly(out);
        dropping_frags_ = false;
        DepacketizerEvent ev;
        ev.nal = ReceivedNal{nal_from_header(p.nal_header, p.payload),
                             p.timestamp, p.generation, p.layer};
        out.push_back(std::move(ev));
        ++stats_.nals_out;
        break;
      }
      case PacketKind::kAggregate: {
        if (assembling_) abort_assembly(out);
        dropping_frags_ = false;
        std::size_t pos = 0;
        bool bad = false;
        while (pos + 3 <= p.payload.size()) {
          const std::uint16_t size = static_cast<std::uint16_t>(
              (p.payload[pos] << 8) | p.payload[pos + 1]);
          if (size < 1 || pos + 2 + size > p.payload.size()) {
            bad = true;
            break;
          }
          DepacketizerEvent ev;
          ev.nal = ReceivedNal{
              nal_from_header(
                  p.payload[pos + 2],
                  std::vector<std::uint8_t>(
                      p.payload.begin() + pos + 3,
                      p.payload.begin() + pos + 2 + size)),
              p.timestamp, p.generation, p.layer};
          out.push_back(std::move(ev));
          ++stats_.nals_out;
          pos += 2 + size;
        }
        if (bad || pos != p.payload.size()) ++stats_.malformed;
        ++stats_.aggregates_split;
        break;
      }
      case PacketKind::kFragStart: {
        if (assembling_) abort_assembly(out);
        dropping_frags_ = false;
        assembling_ = true;
        frag_header_ = p.nal_header;
        frag_ts_ = p.timestamp;
        frag_gen_ = p.generation;
        frag_layer_ = p.layer;
        frag_payload_ = p.payload;
        break;
      }
      case PacketKind::kFragMiddle: {
        if (dropping_frags_) break;
        if (!assembling_) {
          // Orphan continuation with no declared gap: unreachable from
          // our sender, but account for the NAL it implies.
          out.push_back(DepacketizerEvent{true, {}});
          ++stats_.loss_events;
          dropping_frags_ = true;
          break;
        }
        frag_payload_.insert(frag_payload_.end(), p.payload.begin(),
                             p.payload.end());
        break;
      }
      case PacketKind::kFragEnd: {
        if (dropping_frags_) {
          dropping_frags_ = false;
          break;
        }
        if (!assembling_) {
          out.push_back(DepacketizerEvent{true, {}});
          ++stats_.loss_events;
          break;
        }
        frag_payload_.insert(frag_payload_.end(), p.payload.begin(),
                             p.payload.end());
        DepacketizerEvent ev;
        ev.nal = ReceivedNal{
            nal_from_header(frag_header_, std::move(frag_payload_)),
            frag_ts_, frag_gen_, frag_layer_};
        out.push_back(std::move(ev));
        assembling_ = false;
        frag_payload_ = {};
        ++stats_.fragments_reassembled;
        ++stats_.nals_out;
        break;
      }
      case PacketKind::kParity:
        // Parity never enters the jitter buffer; tolerate anyway.
        ++stats_.malformed;
        break;
    }
  }
  return out;
}

}  // namespace affectsys::net
