// Media transport suite (ctest label "net"): wire/serial arithmetic,
// packetizer/depacketizer round trips, jitter-buffer ordering across
// the uint16 wrap, XOR-FEC recovery, channel determinism, and the
// seeded loss/jitter/FEC end-to-end sweep of ISSUE 6 — packetize ->
// drop/reorder -> depacketize -> decode, with bit-match-by-POC checks
// where FEC recovers and resync-counter checks where it doesn't.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <vector>

#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "h264/decoder.hpp"
#include "h264/nal.hpp"
#include "net/channel.hpp"
#include "net/fec.hpp"
#include "net/jitter.hpp"
#include "net/packetizer.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "serve/session.hpp"

namespace fault = affectsys::fault;
namespace h264 = affectsys::h264;
namespace net = affectsys::net;
namespace serve = affectsys::serve;

namespace {

/// Blob bound for the hand-built FEC cases: the default MTU's longest
/// wire packet.
constexpr std::size_t kMaxWire =
    net::kWireHeaderBytes + net::PacketizerConfig{}.mtu;

net::MediaPacket mk_packet(std::uint16_t seq) {
  net::MediaPacket p;
  p.seq = seq;
  p.kind = net::PacketKind::kSingle;
  p.nal_header = 0x65;
  p.payload = {static_cast<std::uint8_t>(seq & 0xFF),
               static_cast<std::uint8_t>(seq >> 8)};
  return p;
}

/// Wraps packets as in-order jitter releases (depacketizer input).
std::vector<net::Released> as_released(
    const std::vector<net::MediaPacket>& packets) {
  std::vector<net::Released> rel;
  for (const auto& p : packets) rel.push_back(net::Released{false, p.seq, p});
  return rel;
}

bool same_frame(const h264::YuvFrame& a, const h264::YuvFrame& b) {
  return a.y.data == b.y.data && a.cb.data == b.cb.data &&
         a.cr.data == b.cr.data;
}

/// Clean strict decode of the reference clip, keyed by POC.
const std::map<int, h264::DecodedPicture>& clean_by_poc() {
  static const std::map<int, h264::DecodedPicture> pics = [] {
    h264::Decoder dec(h264::DecoderConfig{true, /*resilient=*/false});
    std::map<int, h264::DecodedPicture> out;
    for (auto& pic : dec.decode_annexb(fault::scenario_reference_stream())) {
      out.emplace(pic.poc, std::move(pic));
    }
    return out;
  }();
  return pics;
}

struct E2eResult {
  std::vector<h264::DecodedPicture> pics;
  net::TransportStats stats;
  net::ChannelStats channel;
  std::uint64_t loss_signals = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t resync_skips = 0;
};

/// How many times run_e2e streams the clip through the link.  Two
/// passes matter: the clip holds a single IDR (gop_size == frame
/// count), so a pass-1 loss needs the pass-2 IDR to resync at, and
/// pass-2 packets are the successors that expose pass-1 tail gaps to
/// the jitter buffer — exactly how the serve path's wrapping clip
/// behaves.
constexpr int kE2ePasses = 2;

/// The ISSUE 6 sweep body: stream the reference clip through a
/// TransportLink (one access unit per tick) into a resilient decoder
/// that takes loss events via notify_loss, then drain.
E2eResult run_e2e(std::uint64_t seed, double rate, std::uint32_t kinds,
                  bool fec) {
  fault::FaultPlan plan(fault::FaultConfig{seed, rate, kinds});
  fault::FaultCounts counts;
  net::TransportLink link(fault::net_scenario_transport(fec), &plan, &counts);
  const std::vector<h264::NalUnit> units =
      h264::unpack_annexb(fault::scenario_reference_stream());

  h264::Decoder dec(h264::DecoderConfig{true, /*resilient=*/true});
  E2eResult r;
  const auto drain = [&](std::uint64_t now) {
    for (const net::DepacketizerEvent& ev : link.receive(now)) {
      if (ev.loss) {
        dec.notify_loss();
        continue;
      }
      if (auto pic = dec.decode_nal(ev.nal.nal)) r.pics.push_back(*pic);
    }
  };

  std::uint64_t tick = 0;
  std::uint32_t au = 0;
  for (int pass = 0; pass < kE2ePasses; ++pass) {
    std::size_t i = 0;
    while (i < units.size()) {
      std::vector<h264::NalUnit> au_units;
      while (i < units.size()) {
        const bool slice = h264::is_slice(units[i]);
        au_units.push_back(units[i++]);
        if (slice) break;
      }
      link.send(au_units, au++, 0, tick);
      drain(tick);
      ++tick;
    }
  }
  for (int extra = 0; extra < 64 && !link.idle(); ++extra) drain(tick++);
  drain(tick + 8);

  r.stats = link.stats();
  r.channel = link.channel_stats();
  r.loss_signals = dec.activity().loss_signals;
  r.resyncs = dec.activity().resyncs;
  r.resync_skips = dec.activity().resync_skips;
  return r;
}

/// Every decoded picture must equal the clean decode of the same POC —
/// the resilient-decoder + FEC contract: damaged pictures are skipped,
/// never silently wrong.
void expect_pics_match_clean(const E2eResult& r, const char* what) {
  for (const h264::DecodedPicture& pic : r.pics) {
    const auto it = clean_by_poc().find(pic.poc);
    ASSERT_NE(it, clean_by_poc().end()) << what << ": unknown poc " << pic.poc;
    EXPECT_TRUE(same_frame(pic.frame, it->second.frame))
        << what << ": poc " << pic.poc << " diverged from clean decode";
  }
}

}  // namespace

// ---------------------------------------------------------------- wire

TEST(Wire, Seq16WrapSafeComparisons) {
  // The satellite-2 bug class: naive `a < b` breaks at 65535 -> 0.
  EXPECT_TRUE(net::seq16_newer(0, 65535));
  EXPECT_FALSE(net::seq16_newer(65535, 0));
  EXPECT_TRUE(net::seq16_newer(100, 50));
  EXPECT_FALSE(net::seq16_newer(50, 100));
  EXPECT_FALSE(net::seq16_newer(7, 7));
  EXPECT_EQ(net::seq16_delta(0, 65535), 1);
  EXPECT_EQ(net::seq16_delta(65535, 0), -1);
  EXPECT_EQ(net::seq16_delta(5, 5), 0);
  EXPECT_TRUE(net::seq16_newer(32767, 0));   // edge of the half-space
  EXPECT_FALSE(net::seq16_newer(32768, 0));  // and one past it
}

TEST(Wire, SeqUnrollerMonotoneAcrossWrap) {
  net::SeqUnroller u;
  const std::uint64_t a = u.unroll(65534);
  const std::uint64_t b = u.unroll(65535);
  const std::uint64_t c = u.unroll(0);
  const std::uint64_t d = u.unroll(1);
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(c, a + 2);
  EXPECT_EQ(d, a + 3);
  // Re-presenting an older seq maps back to its original position.
  EXPECT_EQ(u.peek(65535), b);
}

TEST(Wire, SerializeParseRoundTrip) {
  net::MediaPacket p;
  p.seq = 0xBEEF;
  p.timestamp = 0x01020304;
  p.generation = 7;
  p.kind = net::PacketKind::kFragMiddle;
  p.marker = true;
  p.nal_header = 0x65;
  p.fec_base = 0xFFFE;
  p.fec_count = 4;
  p.payload = {0x00, 0x00, 0x03, 0x00, 0xAB};
  const auto bytes = net::serialize_packet(p);
  ASSERT_EQ(bytes.size(), net::kWireHeaderBytes + p.payload.size());
  const auto back = net::parse_packet(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST(Wire, ParseRejectsTruncationAndBadFields) {
  const auto bytes = net::serialize_packet(mk_packet(3));
  for (std::size_t len = 0; len < net::kWireHeaderBytes; ++len) {
    EXPECT_FALSE(net::parse_packet(std::span<const std::uint8_t>(
                     bytes.data(), len))
                     .has_value())
        << "length " << len;
  }
  auto bad_kind = bytes;
  bad_kind[10] = 0x7E;
  EXPECT_FALSE(net::parse_packet(bad_kind).has_value());
  // Byte 11 is (layer << 1) | marker: 0x02 became "layer 1, no marker",
  // so the first invalid value is layer == kMaxLayers.
  auto layer_ok = bytes;
  layer_ok[11] = 0x02;
  const auto parsed = net::parse_packet(layer_ok);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->layer, 1);
  EXPECT_FALSE(parsed->marker);
  auto bad_layer = bytes;
  bad_layer[11] = static_cast<std::uint8_t>(net::kMaxLayers << 1);
  EXPECT_FALSE(net::parse_packet(bad_layer).has_value());
}

// ---------------------------------------------------------- packetizer

TEST(Packetizer, AggregatesSmallAndFragmentsLarge) {
  std::vector<h264::NalUnit> nals(3);
  nals[0].type = h264::NalType::kSps;
  nals[0].ref_idc = 3;
  nals[0].payload = {0x42, 0x00, 0x1E};
  nals[1].type = h264::NalType::kPps;
  nals[1].ref_idc = 3;
  nals[1].payload = {0xC8};
  nals[2].type = h264::NalType::kSliceIdr;
  nals[2].ref_idc = 3;
  nals[2].payload.assign(40, 0x5A);

  net::Packetizer pk(net::PacketizerConfig{16});
  const auto packets = pk.packetize(nals, 9, 2);
  ASSERT_EQ(packets.size(), 4u);  // 1 aggregate + 3 fragments
  EXPECT_EQ(packets[0].kind, net::PacketKind::kAggregate);
  EXPECT_EQ(packets[1].kind, net::PacketKind::kFragStart);
  EXPECT_EQ(packets[2].kind, net::PacketKind::kFragMiddle);
  EXPECT_EQ(packets[3].kind, net::PacketKind::kFragEnd);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].seq, i);
    EXPECT_EQ(packets[i].timestamp, 9u);
    EXPECT_EQ(packets[i].generation, 2u);
    EXPECT_EQ(packets[i].marker, i + 1 == packets.size());
  }

  net::Depacketizer dp;
  const auto events = dp.push(as_released(packets));
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ASSERT_FALSE(events[i].loss);
    EXPECT_EQ(events[i].nal.nal.type, nals[i].type);
    EXPECT_EQ(events[i].nal.nal.ref_idc, nals[i].ref_idc);
    EXPECT_EQ(events[i].nal.nal.payload, nals[i].payload);
  }
  EXPECT_EQ(dp.stats().aggregates_split, 1u);
  EXPECT_EQ(dp.stats().fragments_reassembled, 1u);
  EXPECT_EQ(dp.stats().loss_events, 0u);
}

TEST(Packetizer, FragmentBoundarySpansEmulationPattern) {
  // An emulation-prevention pattern (00 00 03 00 / 00 00 01) split
  // mid-sequence by the MTU must reassemble byte-exactly — fragments
  // carry raw EBSP bytes, framing never reinterprets them.
  h264::NalUnit nal;
  nal.type = h264::NalType::kSliceNonIdr;
  nal.ref_idc = 2;
  nal.payload = {0xAA, 0x00, 0x00, 0x03, 0x00, 0x00,
                 0x01, 0xBB, 0x00, 0x00, 0x00};
  for (std::size_t mtu = 1; mtu <= nal.payload.size() + 1; ++mtu) {
    net::Packetizer pk(net::PacketizerConfig{mtu});
    net::Depacketizer dp;
    const auto events =
        dp.push(as_released(pk.packetize(std::span(&nal, 1), 0, 0)));
    ASSERT_EQ(events.size(), 1u) << "mtu " << mtu;
    ASSERT_FALSE(events[0].loss);
    EXPECT_EQ(events[0].nal.nal.payload, nal.payload) << "mtu " << mtu;
  }
}

TEST(Depacketizer, LossAbortsFragmentChain) {
  h264::NalUnit nal;
  nal.type = h264::NalType::kSliceIdr;
  nal.ref_idc = 3;
  nal.payload.assign(24, 0x33);
  net::Packetizer pk(net::PacketizerConfig{8});
  const auto packets = pk.packetize(std::span(&nal, 1), 0, 0);
  ASSERT_EQ(packets.size(), 3u);

  // Middle fragment declared lost: one loss event, no NAL, and the
  // trailing fragment is eaten silently (same NAL, already counted).
  std::vector<net::Released> rel;
  rel.push_back(net::Released{false, packets[0].seq, packets[0]});
  rel.push_back(net::Released{true, packets[1].seq, {}});
  rel.push_back(net::Released{false, packets[2].seq, packets[2]});
  net::Depacketizer dp;
  const auto events = dp.push(rel);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].loss);
  EXPECT_EQ(dp.stats().nals_out, 0u);
  EXPECT_EQ(dp.stats().loss_events, 1u);
}

// -------------------------------------------------------------- jitter

TEST(Jitter, WrapCrossingReorderHeals) {
  // Satellite 2's regression: a reorder straddling 65535 -> 0 must
  // release in serial order with no spurious loss.
  net::JitterBuffer jb(net::JitterConfig{2});
  EXPECT_TRUE(jb.insert(mk_packet(65534), 0));
  EXPECT_TRUE(jb.insert(mk_packet(0), 0));  // arrives before 65535
  auto r = jb.pop_due(0);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].seq, 65534);

  EXPECT_TRUE(jb.insert(mk_packet(65535), 1));
  EXPECT_TRUE(jb.insert(mk_packet(1), 1));
  r = jb.pop_due(1);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].seq, 65535);
  EXPECT_EQ(r[1].seq, 0);
  EXPECT_EQ(r[2].seq, 1);
  EXPECT_EQ(jb.stats().lost_declared, 0u);
}

TEST(Jitter, GapDeclaredLostAfterDepthAcrossWrap) {
  net::JitterBuffer jb(net::JitterConfig{1});
  EXPECT_TRUE(jb.insert(mk_packet(65535), 0));
  ASSERT_EQ(jb.pop_due(0).size(), 1u);

  EXPECT_TRUE(jb.insert(mk_packet(1), 1));  // seq 0 missing
  EXPECT_TRUE(jb.pop_due(1).empty());       // still inside the depth
  auto r = jb.pop_due(2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r[0].lost);
  EXPECT_EQ(r[0].seq, 0);
  ASSERT_FALSE(r[1].lost);
  EXPECT_EQ(r[1].seq, 1);
  EXPECT_EQ(jb.stats().lost_declared, 1u);
}

TEST(Jitter, DuplicateAndLateDrops) {
  net::JitterBuffer jb(net::JitterConfig{2});
  EXPECT_TRUE(jb.insert(mk_packet(10), 0));
  EXPECT_FALSE(jb.insert(mk_packet(10), 0));  // duplicate while buffered
  ASSERT_EQ(jb.pop_due(0).size(), 1u);
  EXPECT_FALSE(jb.insert(mk_packet(10), 1));  // late: already released
  EXPECT_FALSE(jb.would_accept(10));
  EXPECT_TRUE(jb.would_accept(11));
  EXPECT_EQ(jb.stats().duplicates_dropped, 1u);
  EXPECT_EQ(jb.stats().late_dropped, 1u);
}

// ----------------------------------------------------------------- fec

TEST(Fec, RecoversSingleLossAcrossWrap) {
  const net::FecConfig fc{true, 4};
  net::FecEncoder enc(fc);
  std::vector<net::MediaPacket> group;
  std::optional<net::MediaPacket> parity;
  for (std::uint16_t s : {65533, 65534, 65535, 0}) {
    net::MediaPacket p = mk_packet(s);
    if (s == 65534) p.payload.push_back(0x7F);  // unequal lengths
    group.push_back(p);
    if (auto out = enc.add(p)) parity = std::move(out);
  }
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->kind, net::PacketKind::kParity);
  EXPECT_EQ(parity->fec_base, 65533);
  EXPECT_EQ(parity->fec_count, 4);

  net::FecRecovery rec(fc, kMaxWire);
  for (const auto& p : group) {
    if (p.seq != 65535) rec.add_data(p);
  }
  rec.add_parity(*parity);
  const auto rebuilt = rec.recover();
  ASSERT_EQ(rebuilt.size(), 1u);
  EXPECT_EQ(rebuilt[0], group[2]);  // header fields and payload bit-exact
  EXPECT_EQ(rec.stats().packets_recovered, 1u);
}

TEST(Fec, TwoLossesInGroupStayMissing) {
  const net::FecConfig fc{true, 4};
  net::FecEncoder enc(fc);
  std::vector<net::MediaPacket> group;
  std::optional<net::MediaPacket> parity;
  for (std::uint16_t s = 0; s < 4; ++s) {
    group.push_back(mk_packet(s));
    if (auto out = enc.add(group.back())) parity = std::move(out);
  }
  ASSERT_TRUE(parity.has_value());
  net::FecRecovery rec(fc, kMaxWire);
  rec.add_data(group[0]);
  rec.add_data(group[3]);
  rec.add_parity(*parity);
  EXPECT_TRUE(rec.recover().empty());
  EXPECT_EQ(rec.stats().packets_recovered, 0u);
  // The straggler shows up later: now recoverable.
  rec.add_data(group[1]);
  const auto rebuilt = rec.recover();
  ASSERT_EQ(rebuilt.size(), 1u);
  EXPECT_EQ(rebuilt[0], group[2]);
}

TEST(Fec, CompleteGroupDiscardsParity) {
  const net::FecConfig fc{true, 2};
  net::FecEncoder enc(fc);
  std::optional<net::MediaPacket> parity;
  std::vector<net::MediaPacket> group;
  for (std::uint16_t s = 0; s < 2; ++s) {
    group.push_back(mk_packet(s));
    if (auto out = enc.add(group.back())) parity = std::move(out);
  }
  net::FecRecovery rec(fc, kMaxWire);
  for (const auto& p : group) rec.add_data(p);
  rec.add_parity(*parity);
  EXPECT_TRUE(rec.recover().empty());
  EXPECT_EQ(rec.stats().groups_complete, 1u);
}

// Each lane caches the wire blobs of the last 1,024 data packets in pool
// blocks sized to the longest packet its packetizer emits.  Singles,
// fragments and aggregates all stay within the MTU, and a recovered
// blob is never longer than its group's longest member, so a lossy,
// reordering, duplicating stream never spills a blob to the heap.
TEST(Fec, BlobBlocksHoldTheLongestWirePacketAtEveryMtu) {
  for (const std::size_t mtu : {std::size_t{96}, std::size_t{1400}}) {
    for (const double rate : {0.01, 0.05, 0.2}) {
      fault::FaultPlan plan(fault::FaultConfig{41, rate, fault::kNetKinds});
      net::TransportConfig tc = fault::net_scenario_transport(/*fec=*/true);
      tc.packetizer.mtu = mtu;
      net::TransportLink link(tc, &plan, nullptr);
      // Seeded access units sized around the MTU: small NALs aggregate,
      // mid-sized ones ride alone, large ones fragment.
      std::mt19937_64 rng(mtu * 1000 + static_cast<std::uint64_t>(rate * 100));
      std::uint64_t tick = 0;
      std::uint64_t nals = 0;
      while (link.fec_stats().data_seen < 2500) {
        std::vector<h264::NalUnit> au(1 + rng() % 3);
        for (h264::NalUnit& nal : au) {
          nal.type = h264::NalType::kSliceNonIdr;
          nal.ref_idc = 2;
          const std::size_t scale = 1 + rng() % 3;  // quarter, half, triple
          const std::size_t size =
              1 + rng() % (scale == 1 ? mtu / 4 : scale == 2 ? mtu : 3 * mtu);
          nal.payload.resize(size);
          for (std::uint8_t& b : nal.payload) {
            b = static_cast<std::uint8_t>(rng());
          }
        }
        nals += au.size();
        link.send(au, static_cast<std::uint32_t>(tick), 0, tick);
        link.receive(tick++);
      }
      for (int extra = 0; extra < 64 && !link.idle(); ++extra) {
        link.receive(tick++);
      }
      const net::FecStats& fs = link.fec_stats();
      EXPECT_EQ(fs.block_bytes, net::kWireHeaderBytes + mtu)
          << "mtu " << mtu << " rate " << rate;
      EXPECT_EQ(fs.blob_heap_fallbacks, 0u)
          << "mtu " << mtu << " rate " << rate;
      EXPECT_GT(link.channel_stats().dropped_data, 0u)
          << "mtu " << mtu << " rate " << rate;
      EXPECT_GT(fs.packets_recovered, 0u)
          << "mtu " << mtu << " rate " << rate;
      EXPECT_GT(link.stats().nals_received, nals / 2)
          << "mtu " << mtu << " rate " << rate;
    }
  }
}

// A receiver caches whatever the network delivers: a hand-built packet
// longer than the bound falls back to a heap blob, still serves as a
// survivor, and is itself recovered bit-exactly.
TEST(Fec, OversizeBlobFallsBackToHeapAndRecoversBitExactly) {
  constexpr std::size_t kMtu = 96;
  const net::FecConfig fc{true, 4};
  net::FecEncoder enc(fc);
  std::vector<net::MediaPacket> sent;
  std::vector<net::MediaPacket> parities;
  for (std::uint16_t s = 0; s < 8; ++s) {
    net::MediaPacket p = mk_packet(s);
    // Seq 1 (a survivor of group 0) and seq 6 (the loss in group 1)
    // run past the 96-byte MTU.
    if (s == 1 || s == 6) p.payload.resize(kMtu + 40 + s, 0x5A);
    sent.push_back(p);
    if (auto parity = enc.add(p)) parities.push_back(std::move(*parity));
  }
  ASSERT_EQ(parities.size(), 2u);

  net::FecRecovery rec(fc, net::kWireHeaderBytes + kMtu);
  for (const auto& p : sent) {
    if (p.seq != 2 && p.seq != 6) rec.add_data(p);
  }
  EXPECT_EQ(rec.stats().blob_heap_fallbacks, 1u);  // seq 1
  for (const auto& parity : parities) rec.add_parity(parity);
  const auto rebuilt = rec.recover();
  ASSERT_EQ(rebuilt.size(), 2u);
  EXPECT_EQ(rebuilt[0], sent[2]);
  EXPECT_EQ(rebuilt[1], sent[6]);  // header fields and payload bit-exact
  EXPECT_EQ(rec.stats().packets_recovered, 2u);
  EXPECT_EQ(rec.stats().block_bytes, net::kWireHeaderBytes + kMtu);
  // Seq 6's rebuilt blob is re-registered through the fallback too.
  EXPECT_EQ(rec.stats().blob_heap_fallbacks, 2u);
}

// ------------------------------------------------------------- channel

TEST(Channel, RateZeroIsIdentity) {
  fault::FaultPlan plan(fault::FaultConfig{3, 0.0, fault::kNetKinds});
  fault::FaultCounts counts;
  net::NetChannel ch(net::ChannelConfig{}, &plan, &counts);
  for (std::uint16_t s = 0; s < 50; ++s) ch.send(mk_packet(s), 4);
  const auto out = ch.deliver(4);
  ASSERT_EQ(out.size(), 50u);
  for (std::uint16_t s = 0; s < 50; ++s) EXPECT_EQ(out[s].seq, s);
  EXPECT_EQ(ch.stats().dropped(), 0u);
  EXPECT_EQ(counts.total, 0u);
}

TEST(Channel, SeededReplayIdentity) {
  const auto run = [] {
    fault::FaultPlan plan(fault::FaultConfig{77, 0.3, fault::kNetKinds});
    net::NetChannel ch(net::ChannelConfig{3}, &plan, nullptr);
    std::vector<std::pair<std::uint64_t, std::uint16_t>> schedule;
    std::uint64_t tick = 0;
    for (std::uint16_t s = 0; s < 300; ++s) {
      if (s % 4 == 0) {
        for (const auto& p : ch.deliver(tick)) {
          schedule.emplace_back(tick, p.seq);
        }
        ++tick;
      }
      ch.send(mk_packet(s), tick);
    }
    for (std::uint64_t t = tick; t < tick + 8; ++t) {
      for (const auto& p : ch.deliver(t)) schedule.emplace_back(t, p.seq);
    }
    return schedule;
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------- end-to-end transport

TEST(Transport, CleanChannelIsIdentity) {
  for (const bool fec : {false, true}) {
    const E2eResult r = run_e2e(1, 0.0, fault::kNetKinds, fec);
    ASSERT_EQ(r.pics.size(), kE2ePasses * clean_by_poc().size())
        << "fec " << fec;
    for (const auto& pic : r.pics) {
      EXPECT_TRUE(same_frame(pic.frame, clean_by_poc().at(pic.poc).frame));
    }
    EXPECT_EQ(r.channel.dropped(), 0u);
    EXPECT_EQ(r.loss_signals, 0u);
    EXPECT_EQ(r.stats.nals_sent, r.stats.nals_received);
  }
}

TEST(Transport, FecRecoversSeededLossSweep) {
  // ISSUE 6 acceptance: at seeded 5% packet loss with FEC on, at least
  // 0.6 of dropped data packets recover (group-of-4 independent-loss
  // math predicts ~0.95^3 ~= 0.86 per loss), and every decoded picture
  // is bit-exact against the clean decode at its POC.
  const std::uint32_t loss_only = fault::kind_bit(fault::FaultKind::kPacketLoss);
  std::uint64_t dropped = 0;
  std::uint64_t recovered = 0;
  std::uint64_t full_runs = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const E2eResult r = run_e2e(seed, 0.05, loss_only, /*fec=*/true);
    expect_pics_match_clean(r, "fec sweep");
    dropped += r.channel.dropped_data;
    recovered += r.stats.packets_recovered;
    if (r.stats.loss_events == 0 &&
        r.stats.nals_received == r.stats.nals_sent) {
      // Every loss recovered in time: the decode must be complete.
      EXPECT_EQ(r.pics.size(), kE2ePasses * clean_by_poc().size())
          << "seed " << seed;
      ++full_runs;
    }
  }
  ASSERT_GT(dropped, 0u) << "sweep never exercised loss";
  EXPECT_GE(static_cast<double>(recovered),
            0.6 * static_cast<double>(dropped))
      << recovered << " of " << dropped << " recovered";
  EXPECT_GT(full_runs, 0u) << "no run recovered everything";
}

TEST(Transport, NoFecLossResyncsWithoutCrash) {
  // FEC off: losses must surface as notify_loss resyncs (skip to the
  // next IDR), never as wrong pixels or a crash.
  const std::uint32_t kinds = fault::kind_bit(fault::FaultKind::kPacketLoss) |
                              fault::kind_bit(fault::FaultKind::kBurstLoss);
  std::uint64_t signals = 0;
  std::uint64_t resyncs = 0;
  std::uint64_t skips = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const E2eResult r = run_e2e(seed, 0.08, kinds, /*fec=*/false);
    expect_pics_match_clean(r, "no-fec sweep");
    EXPECT_EQ(r.stats.packets_recovered, 0u);
    signals += r.loss_signals;
    resyncs += r.resyncs;
    skips += r.resync_skips;
  }
  EXPECT_GT(signals, 0u);
  EXPECT_GT(resyncs, 0u);
  EXPECT_GT(skips, 0u);
}

TEST(Transport, ReorderAndDuplicateAreFullyHealed) {
  // Reorder displaces by one slot (inside the jitter depth) and the
  // buffer discards duplicates, so these kinds alone must yield a
  // byte-perfect decode.
  const std::uint32_t kinds =
      fault::kind_bit(fault::FaultKind::kPacketReorder) |
      fault::kind_bit(fault::FaultKind::kPacketDuplicate);
  const E2eResult r = run_e2e(5, 0.4, kinds, /*fec=*/false);
  ASSERT_EQ(r.pics.size(), kE2ePasses * clean_by_poc().size());
  for (const auto& pic : r.pics) {
    EXPECT_TRUE(same_frame(pic.frame, clean_by_poc().at(pic.poc).frame));
  }
  EXPECT_EQ(r.loss_signals, 0u);
  EXPECT_GT(r.channel.reordered + r.channel.duplicated, 0u);
}

TEST(Transport, SequenceWrapEndToEnd) {
  // >65536 packets through a clean link: the seq counter wraps and
  // nothing is declared lost, duplicated or misordered.
  net::TransportConfig tc = fault::net_scenario_transport(false);
  net::TransportLink link(tc, nullptr, nullptr);
  h264::NalUnit nal;
  nal.type = h264::NalType::kSliceNonIdr;
  nal.ref_idc = 2;
  std::uint64_t received = 0;
  for (std::uint64_t t = 0; t < 66000; ++t) {
    nal.payload = {static_cast<std::uint8_t>(t), 0x01,
                   static_cast<std::uint8_t>(t >> 8), 0x7F};
    link.send(std::span(&nal, 1), static_cast<std::uint32_t>(t), 0, t);
    for (const auto& ev : link.receive(t)) {
      ASSERT_FALSE(ev.loss) << "tick " << t;
      ASSERT_EQ(ev.nal.nal.payload[0], static_cast<std::uint8_t>(received));
      ++received;
    }
  }
  EXPECT_EQ(received, 66000u);
  EXPECT_EQ(link.jitter_stats().lost_declared, 0u);
}

// ------------------------------------------------- decoder loss signal

TEST(DecoderLoss, NotifyLossForcesResyncAtNextIdr) {
  const std::vector<h264::NalUnit> units =
      h264::unpack_annexb(fault::scenario_reference_stream());
  h264::Decoder dec(h264::DecoderConfig{true, /*resilient=*/true});
  std::vector<h264::DecodedPicture> pics;
  std::size_t decoded = 0;
  bool signalled = false;
  // Two passes: the clip has one IDR, so the resync target for a loss
  // in pass 1 is pass 2's opening keyframe (as with the serve path's
  // wrapping clip).
  for (int pass = 0; pass < 2; ++pass) {
    for (const h264::NalUnit& u : units) {
      if (!signalled && decoded == 3) {
        dec.notify_loss();
        signalled = true;
        EXPECT_TRUE(dec.awaiting_keyframe());
      }
      if (auto pic = dec.decode_nal(u)) {
        ++decoded;
        pics.push_back(*pic);
      }
    }
  }
  ASSERT_TRUE(signalled);
  EXPECT_EQ(dec.activity().loss_signals, 1u);
  EXPECT_EQ(dec.activity().resyncs, 1u);
  EXPECT_GT(dec.activity().resync_skips, 0u);
  // 3 pictures before the loss, all of pass 2 after the resync.
  EXPECT_EQ(pics.size(), 3 + clean_by_poc().size());
  for (const auto& pic : pics) {
    EXPECT_TRUE(same_frame(pic.frame, clean_by_poc().at(pic.poc).frame));
  }
}

TEST(DecoderLoss, StrictDecoderOnlyCounts) {
  h264::Decoder dec(h264::DecoderConfig{true, /*resilient=*/false});
  dec.notify_loss();
  EXPECT_EQ(dec.activity().loss_signals, 1u);
  EXPECT_FALSE(dec.awaiting_keyframe());
}

// ------------------------------------------------------ replay identity

TEST(NetScenario, TwoRunByteIdentityForEveryPlan) {
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    for (const double rate : {0.0, 0.02, 0.05, 0.15}) {
      for (const bool fec : {false, true}) {
        fault::ScenarioConfig cfg;
        cfg.seed = seed;
        cfg.rate = rate;
        cfg.kinds = fault::kNetKinds;
        const auto a = fault::run_net_scenario(cfg,
                                               fault::net_scenario_transport(fec));
        const auto b = fault::run_net_scenario(cfg,
                                               fault::net_scenario_transport(fec));
        EXPECT_EQ(a, b) << "seed " << seed << " rate " << rate << " fec "
                        << fec;
      }
    }
  }
}

TEST(NetScenario, RateZeroMatchesCleanDecode) {
  fault::ScenarioConfig cfg;
  cfg.rate = 0.0;
  const auto res = fault::run_net_scenario(cfg);
  h264::Decoder dec(h264::DecoderConfig{true, /*resilient=*/true});
  const auto pics = dec.decode_annexb(fault::scenario_reference_stream());
  EXPECT_EQ(res.pixel_digest, fault::digest_pictures(pics));
  EXPECT_EQ(res.pictures, pics.size());
  EXPECT_EQ(res.packets_dropped, 0u);
  EXPECT_EQ(res.faults, 0u);
}

TEST(CrossSuite, NetKindsDoNotPerturbOtherSuites) {
  // Satellite 3: every suite masks its own sites, so widening a plan's
  // kind mask with kNetKinds must leave bitstream/audio/serve runs
  // byte-identical — pre-PR-6 seeds replay unchanged.
  fault::ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.rate = 0.2;

  cfg.kinds = fault::kBitstreamKinds;
  const auto bs_a = fault::run_bitstream_scenario(cfg);
  cfg.kinds = fault::kBitstreamKinds | fault::kNetKinds;
  const auto bs_b = fault::run_bitstream_scenario(cfg);
  EXPECT_EQ(bs_a, bs_b);

  cfg.kinds = fault::kAudioKinds;
  const auto au_a = fault::run_audio_scenario(cfg);
  cfg.kinds = fault::kAudioKinds | fault::kNetKinds;
  const auto au_b = fault::run_audio_scenario(cfg);
  EXPECT_EQ(au_a, au_b);

  cfg.kinds = fault::kAllKinds & ~fault::kNetKinds;
  const auto sv_a = fault::run_serve_scenario(cfg);
  cfg.kinds = fault::kAllKinds;
  const auto sv_b = fault::run_serve_scenario(cfg);
  EXPECT_EQ(sv_a, sv_b);

  // And the converse: a net plan ignores foreign kinds.
  cfg.kinds = fault::kNetKinds;
  const auto nt_a = fault::run_net_scenario(cfg);
  cfg.kinds = fault::kAllKinds;
  const auto nt_b = fault::run_net_scenario(cfg);
  EXPECT_EQ(nt_a, nt_b);
}

// ------------------------------------------------------ serve transport

TEST(ServeTransport, ZeroLossDigestMatchesInProcessPath) {
  // With a perfect channel the transport-fed session must decode the
  // exact same pixels in the exact same ticks as the in-process path.
  const serve::SessionEnv env = fault::scenario_env();
  serve::SessionConfig base;
  base.seed = 5;

  serve::Session inproc(1, base, env, /*inline_inference=*/true);
  serve::SessionConfig tcfg = base;
  tcfg.transport = fault::net_scenario_transport(true);
  serve::Session piped(2, tcfg, env, /*inline_inference=*/true);

  for (std::uint64_t t = 0; t < 60; ++t) {
    inproc.pump_audio(t);
    inproc.tick_media(t, /*degrade_level=*/0);
    piped.pump_audio(t);
    piped.tick_media(t, /*degrade_level=*/0);
  }
  const serve::SessionReport a = inproc.report();
  const serve::SessionReport b = piped.report();
  EXPECT_EQ(a.decode_digest, b.decode_digest);
  EXPECT_EQ(a.stats.frames_decoded, b.stats.frames_decoded);
  EXPECT_EQ(a.stats.nals_deleted, b.stats.nals_deleted);
  EXPECT_EQ(b.stats.packets_lost, 0u);
  EXPECT_EQ(b.stats.nals_lost, 0u);
  EXPECT_GT(b.stats.packets_sent, 0u);
  EXPECT_EQ(b.transport.nals_sent, b.transport.nals_received);
}

TEST(ServeTransport, LossySessionReplaysByteIdentically) {
  const serve::SessionEnv env = fault::scenario_env();
  const auto run = [&] {
    serve::SessionConfig cfg;
    cfg.seed = 9;
    cfg.fault = fault::FaultConfig{41, 0.05, fault::kNetKinds};
    cfg.transport = fault::net_scenario_transport(true);
    serve::Session s(3, cfg, env, /*inline_inference=*/true);
    for (std::uint64_t t = 0; t < 50; ++t) {
      s.pump_audio(t);
      s.tick_media(t, 0);
    }
    return s.report();
  };
  const serve::SessionReport a = run();
  const serve::SessionReport b = run();
  EXPECT_EQ(a.decode_digest, b.decode_digest);
  EXPECT_EQ(a.stats.frames_decoded, b.stats.frames_decoded);
  EXPECT_EQ(a.stats.packets_lost, b.stats.packets_lost);
  EXPECT_EQ(a.stats.packets_recovered, b.stats.packets_recovered);
  EXPECT_EQ(a.stats.nals_lost, b.stats.nals_lost);
  EXPECT_GT(a.stats.packets_lost, 0u);
}