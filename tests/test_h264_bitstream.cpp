// Unit tests for the H.264 syntax layer: bit I/O, Exp-Golomb, emulation
// prevention, NAL packing and entropy coding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "h264/bitstream.hpp"
#include "h264/entropy.hpp"
#include "h264/nal.hpp"

namespace h264 = affectsys::h264;

TEST(BitIo, SingleBitsRoundTrip) {
  h264::BitWriter bw;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) bw.put_bit(b);
  bw.finish_rbsp();
  h264::BitReader br(bw.bytes());
  for (bool b : pattern) EXPECT_EQ(br.get_bit(), b);
}

TEST(BitIo, FixedWidthFields) {
  h264::BitWriter bw;
  bw.put_bits(0xA5, 8);
  bw.put_bits(0x3, 2);
  bw.put_bits(0x12345, 20);
  bw.finish_rbsp();
  h264::BitReader br(bw.bytes());
  EXPECT_EQ(br.get_bits(8), 0xA5u);
  EXPECT_EQ(br.get_bits(2), 0x3u);
  EXPECT_EQ(br.get_bits(20), 0x12345u);
}

TEST(BitIo, ReadPastEndThrows) {
  h264::BitWriter bw;
  bw.put_bits(0xFF, 8);
  h264::BitReader br(bw.bytes());
  br.get_bits(8);
  EXPECT_THROW(br.get_bit(), h264::BitstreamError);
}

TEST(BitIo, PutBitsRejectsOver32) {
  h264::BitWriter bw;
  EXPECT_THROW(bw.put_bits(0, 33), std::invalid_argument);
}

class ExpGolombUe : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ExpGolombUe, RoundTrips) {
  h264::BitWriter bw;
  bw.put_ue(GetParam());
  bw.finish_rbsp();
  h264::BitReader br(bw.bytes());
  EXPECT_EQ(br.get_ue(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, ExpGolombUe,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 8u, 255u,
                                           1023u, 65535u, 1000000u));

class ExpGolombSe : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(ExpGolombSe, RoundTrips) {
  h264::BitWriter bw;
  bw.put_se(GetParam());
  bw.finish_rbsp();
  h264::BitReader br(bw.bytes());
  EXPECT_EQ(br.get_se(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Values, ExpGolombSe,
                         ::testing::Values(0, 1, -1, 2, -2, 17, -17, 1000,
                                           -1000, 123456, -123456));

TEST(ExpGolomb, KnownEncodings) {
  // ue(0) = "1", ue(1) = "010", ue(2) = "011".
  h264::BitWriter bw;
  bw.put_ue(0);
  bw.put_ue(1);
  bw.put_ue(2);
  // bits: 1 010 011 -> 1010011x
  ASSERT_GE(bw.bit_count(), 7u);
  h264::BitReader br(bw.bytes());
  EXPECT_EQ(br.get_bits(7), 0b1010011u);
}

namespace {

/// Bit-at-a-time Exp-Golomb reader: the loop BitReader::get_ue ran for
/// every code before it gained a 64-bit fast path.
struct OracleBits {
  std::span<const std::uint8_t> data;
  std::size_t pos = 0;

  bool bit() {
    if (pos >= data.size() * 8) throw h264::BitstreamError("oracle: end");
    const bool b = (data[pos / 8] >> (7 - pos % 8)) & 1u;
    ++pos;
    return b;
  }
  std::uint32_t ue() {
    unsigned zeros = 0;
    while (!bit()) {
      if (++zeros > 31) throw h264::BitstreamError("oracle: malformed");
    }
    std::uint32_t suffix = 0;
    for (unsigned i = 0; i < zeros; ++i) {
      suffix = (suffix << 1) | static_cast<std::uint32_t>(bit());
    }
    return (1u << zeros) - 1 + suffix;
  }
  std::int32_t se() {
    const std::uint32_t code = ue();
    const auto k = static_cast<std::int64_t>((code + 1) / 2);
    return static_cast<std::int32_t>(code % 2 == 1 ? k : -k);
  }
};

/// A reader over `data` advanced to bit `offset`.
h264::BitReader reader_at(std::span<const std::uint8_t> data,
                          std::size_t offset) {
  h264::BitReader br(data);
  for (std::size_t left = offset; left > 0;) {
    const auto n = static_cast<unsigned>(std::min<std::size_t>(left, 32));
    br.get_bits(n);
    left -= n;
  }
  return br;
}

/// Reads codes from every bit offset of `data` until the stream errs,
/// comparing each value, the bits consumed and the throw with the oracle.
/// Returns the number of codes compared.
template <typename Read, typename ReadOracle>
std::size_t compare_at_every_offset(std::span<const std::uint8_t> data,
                                    Read read, ReadOracle read_oracle) {
  std::size_t codes = 0;
  for (std::size_t offset = 0; offset <= data.size() * 8; ++offset) {
    h264::BitReader br = reader_at(data, offset);
    OracleBits oracle{data, offset};
    for (;;) {
      bool oracle_threw = false;
      std::int64_t want = 0;
      try {
        want = read_oracle(oracle);
      } catch (const h264::BitstreamError&) {
        oracle_threw = true;
      }
      if (oracle_threw) {
        EXPECT_THROW(read(br), h264::BitstreamError)
            << data.size() << " bytes, bit " << br.bits_consumed();
        break;
      }
      const std::size_t at = br.bits_consumed();
      EXPECT_EQ(static_cast<std::int64_t>(read(br)), want)
          << data.size() << " bytes, bit " << at;
      EXPECT_EQ(br.bits_consumed(), oracle.pos)
          << data.size() << " bytes, bit " << at;
      if (br.bits_consumed() != oracle.pos) break;
      ++codes;
    }
  }
  return codes;
}

/// Seeded streams of 0..9 bytes and a few longer ones, mixing written
/// codes of every length with random and zero-heavy bytes, so reads
/// start with 0..9 bytes left and prefixes run from 0 to past 31 zeros.
std::vector<std::vector<std::uint8_t>> seeded_streams() {
  std::mt19937 rng(4242);
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t len : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 17, 24}) {
    for (int kind = 0; kind < 3; ++kind) {
      std::vector<std::uint8_t> bytes;
      if (kind == 0) {
        h264::BitWriter bw;
        std::uniform_int_distribution<int> bits(0, 32);
        while (bw.bit_count() < len * 8) {
          const int b = bits(rng);
          const std::uint64_t v =
              b == 32 ? 0xFFFFFFFEull : (rng() & ((1ull << b) - 1));
          bw.put_ue(static_cast<std::uint32_t>(v));
        }
        bytes = bw.take();
        bytes.resize(len);  // truncates the last code
      } else {
        std::uniform_int_distribution<int> byte(0, 255);
        std::bernoulli_distribution zero(kind == 2 ? 0.7 : 0.0);
        for (std::size_t i = 0; i < len; ++i) {
          bytes.push_back(zero(rng) ? std::uint8_t{0}
                                    : static_cast<std::uint8_t>(byte(rng)));
        }
      }
      out.push_back(std::move(bytes));
    }
  }
  return out;
}

}  // namespace

TEST(BitIo, UeMatchesBitAtATimeOracleAtEveryOffset) {
  std::size_t codes = 0;
  for (const auto& bytes : seeded_streams()) {
    codes += compare_at_every_offset(
        bytes, [](h264::BitReader& br) { return br.get_ue(); },
        [](OracleBits& o) { return o.ue(); });
  }
  EXPECT_GT(codes, 1000u);
}

TEST(BitIo, SeMatchesBitAtATimeOracleAtEveryOffset) {
  std::size_t codes = 0;
  for (const auto& bytes : seeded_streams()) {
    codes += compare_at_every_offset(
        bytes, [](h264::BitReader& br) { return br.get_se(); },
        [](OracleBits& o) { return o.se(); });
  }
  EXPECT_GT(codes, 1000u);
}

TEST(BitIo, UeLongestPrefixesAndMalformedCodes) {
  // 31 leading zeros is the longest legal prefix (ue up to 2^32 - 2);
  // 32 is malformed and throws even with bits to spare after it.
  {
    h264::BitWriter bw;
    bw.put_ue(0xFFFFFFFEu);
    bw.put_ue(0x7FFFFFFFu);  // 30 zeros
    bw.put_ue(5);
    bw.finish_rbsp();
    h264::BitReader br(bw.bytes());
    EXPECT_EQ(br.get_ue(), 0xFFFFFFFEu);
    EXPECT_EQ(br.get_ue(), 0x7FFFFFFFu);
    EXPECT_EQ(br.get_ue(), 5u);
  }
  // Prefixes of 20..31 zeros at every bit alignment, with all-ones
  // suffixes: the bits a peek too short for the code would lose.
  for (unsigned zeros = 20; zeros <= 31; ++zeros) {
    const auto value = static_cast<std::uint32_t>((2ull << zeros) - 2);
    for (int align = 0; align < 8; ++align) {
      h264::BitWriter bw;
      for (int i = 0; i < align; ++i) bw.put_ue(0);
      bw.put_ue(value);
      bw.put_ue(value);
      bw.finish_rbsp();
      h264::BitReader br(bw.bytes());
      for (int i = 0; i < align; ++i) ASSERT_EQ(br.get_ue(), 0u);
      EXPECT_EQ(br.get_ue(), value) << zeros << " zeros at bit " << align;
      EXPECT_EQ(br.get_ue(), value) << zeros << " zeros, second code";
    }
  }
  for (const std::size_t zero_bytes : {4u, 5u, 8u}) {
    std::vector<std::uint8_t> bytes(zero_bytes, 0x00);
    bytes.resize(zero_bytes + 9, 0xFF);
    h264::BitReader br(bytes);
    EXPECT_THROW(br.get_ue(), h264::BitstreamError) << zero_bytes;
  }
}

TEST(BitIo, UeTruncatedInsideLastEightBytesThrows) {
  // A 14-bit code (6 zeros) starting 4 bits before the end of streams of
  // 1..12 bytes: the fast path must not read it from a short peek.
  for (std::size_t len = 1; len <= 12; ++len) {
    std::vector<std::uint8_t> bytes(len, 0xFF);
    bytes[len - 1] = 0xF0;  // 1111 0000: the code's first 4 zeros
    h264::BitReader br = reader_at(bytes, len * 8 - 4);
    EXPECT_THROW(br.get_ue(), h264::BitstreamError) << len;
  }
}

TEST(ExpGolomb, FuzzRoundTrip) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<std::uint32_t> d(0, 1u << 20);
  h264::BitWriter bw;
  std::vector<std::uint32_t> vals(500);
  for (auto& v : vals) {
    v = d(rng);
    bw.put_ue(v);
  }
  bw.finish_rbsp();
  h264::BitReader br(bw.bytes());
  for (auto v : vals) EXPECT_EQ(br.get_ue(), v);
}

TEST(EmulationPrevention, InsertsAndRemoves) {
  const std::vector<std::uint8_t> rbsp = {0x00, 0x00, 0x01, 0xAB,
                                          0x00, 0x00, 0x00, 0x00, 0x02};
  const auto ebsp = h264::add_emulation_prevention(rbsp);
  // No 0x000001 or 0x000000 patterns may survive.
  for (std::size_t i = 0; i + 2 < ebsp.size(); ++i) {
    const bool bad = ebsp[i] == 0 && ebsp[i + 1] == 0 && ebsp[i + 2] <= 1;
    EXPECT_FALSE(bad) << "at offset " << i;
  }
  EXPECT_EQ(h264::remove_emulation_prevention(ebsp), rbsp);
}

TEST(EmulationPrevention, RandomPayloadRoundTrip) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> byte(0, 4);  // zero-heavy payloads
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::uint8_t> rbsp(200);
    for (auto& b : rbsp) b = static_cast<std::uint8_t>(byte(rng));
    const auto ebsp = h264::add_emulation_prevention(rbsp);
    EXPECT_EQ(h264::remove_emulation_prevention(ebsp), rbsp);
  }
}

TEST(Nal, PackUnpackRoundTrip) {
  std::vector<h264::NalUnit> units(3);
  units[0].type = h264::NalType::kSps;
  units[0].ref_idc = 3;
  units[0].payload = {0x42, 0x00, 0x1E};
  units[1].type = h264::NalType::kSliceIdr;
  units[1].ref_idc = 3;
  units[1].payload = {0x11, 0x22, 0x33, 0x44};
  units[2].type = h264::NalType::kSliceNonIdr;
  units[2].ref_idc = 0;
  units[2].payload = {0x55};

  const auto stream = h264::pack_annexb(units);
  const auto parsed = h264::unpack_annexb(stream);
  ASSERT_EQ(parsed.size(), units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(parsed[i].type, units[i].type);
    EXPECT_EQ(parsed[i].ref_idc, units[i].ref_idc);
    EXPECT_EQ(parsed[i].payload, units[i].payload);
  }
}

TEST(Nal, TruncatedStartCodePrefixYieldsNoUnits) {
  // Streams cut off inside (or right after) a start code must parse to
  // zero units — no out-of-bounds header read, no phantom unit.
  const std::vector<std::vector<std::uint8_t>> truncated = {
      {},
      {0x00},
      {0x00, 0x00},
      {0x00, 0x00, 0x01},        // complete code, no header byte
      {0x00, 0x00, 0x00, 0x01},  // 4-byte code, no header byte
  };
  for (const auto& stream : truncated) {
    EXPECT_TRUE(h264::unpack_annexb(stream).empty())
        << "stream of " << stream.size() << " bytes";
  }
}

TEST(Nal, StartCodeTruncatedAtStreamEndIsIgnored) {
  // A valid unit followed by a dangling start code: the unit survives,
  // the dangling code is not a unit.
  std::vector<h264::NalUnit> units(1);
  units[0].type = h264::NalType::kSliceIdr;
  units[0].ref_idc = 3;
  units[0].payload = {0x11, 0x22};
  auto stream = h264::pack_annexb(units);
  stream.insert(stream.end(), {0x00, 0x00, 0x01});
  const auto parsed = h264::unpack_annexb(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].payload, units[0].payload);
}

TEST(Nal, AdjacentStartCodesYieldNoEmptyUnit) {
  // "00 00 01 | 00 00 01 | header payload": the zero-byte region
  // between the codes holds no header and must be skipped cleanly.
  const std::vector<std::uint8_t> stream = {0x00, 0x00, 0x01, 0x00, 0x00,
                                            0x01, 0x65, 0xAB, 0xCD};
  const auto parsed = h264::unpack_annexb(stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].type, h264::NalType::kSliceIdr);
  EXPECT_EQ((parsed[0].payload), (std::vector<std::uint8_t>{0xAB, 0xCD}));
}

TEST(Nal, ZeroLengthPayloadRoundTrips) {
  // Header-only units (empty payload) are legal framing and must be
  // preserved through pack/unpack, in every position.
  std::vector<h264::NalUnit> units(3);
  units[0].type = h264::NalType::kSps;
  units[0].ref_idc = 3;
  units[0].payload = {};  // leading
  units[1].type = h264::NalType::kSliceIdr;
  units[1].ref_idc = 2;
  units[1].payload = {0x42, 0x17};
  units[2].type = h264::NalType::kPps;
  units[2].ref_idc = 1;
  units[2].payload = {};  // trailing
  const auto parsed = h264::unpack_annexb(h264::pack_annexb(units));
  ASSERT_EQ(parsed.size(), units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(parsed[i].type, units[i].type) << "unit " << i;
    EXPECT_EQ(parsed[i].ref_idc, units[i].ref_idc) << "unit " << i;
    EXPECT_EQ(parsed[i].payload, units[i].payload) << "unit " << i;
  }
}

TEST(Nal, UnpackFuzzedTruncationsNeverCrash) {
  // Every prefix of a real packed stream must parse without throwing
  // or reading out of bounds (the fault layer truncates mid-NAL and
  // mid-start-code at will).
  std::vector<h264::NalUnit> units(2);
  units[0].type = h264::NalType::kSps;
  units[0].ref_idc = 3;
  units[0].payload = {0x42, 0x00, 0x1E, 0x00};
  units[1].type = h264::NalType::kSliceIdr;
  units[1].ref_idc = 3;
  units[1].payload = {0x00, 0x01, 0x00, 0x00, 0x02, 0x00};
  const auto stream = h264::pack_annexb(units);
  for (std::size_t len = 0; len <= stream.size(); ++len) {
    const auto parsed = h264::unpack_annexb(
        std::span<const std::uint8_t>(stream.data(), len));
    EXPECT_LE(parsed.size(), units.size()) << "prefix " << len;
  }
}

TEST(Nal, ByteSizeCountsHeader) {
  h264::NalUnit nal;
  nal.payload = {1, 2, 3};
  EXPECT_EQ(nal.byte_size(), 4u);
}

TEST(EmulationPrevention, GuardsTrailingZeroRun) {
  // Regression: add_emulation_prevention used to leave an RBSP's final
  // 00 00 unguarded, so the EBSP ended in a bare zero run that
  // unpack_annexb's padding trim then ate — the pack/unpack asymmetry.
  const std::vector<std::vector<std::uint8_t>> rbsps = {
      {0x00, 0x00},
      {0x00, 0x00, 0x00},
      {0x00, 0x00, 0x03},
      {0xAB, 0x00, 0x00},
      {0x00, 0x00, 0x00, 0x00},
      {0x42, 0x00, 0x00, 0x03, 0x00, 0x00},
  };
  for (const auto& rbsp : rbsps) {
    const auto ebsp = h264::add_emulation_prevention(rbsp);
    ASSERT_GE(ebsp.size(), 2u);
    EXPECT_FALSE(ebsp[ebsp.size() - 2] == 0 && ebsp.back() == 0)
        << "EBSP may not end in 00 00";
    EXPECT_EQ(h264::remove_emulation_prevention(ebsp), rbsp);
  }
}

TEST(EmulationPrevention, ExhaustiveZeroHeavyRoundTrip) {
  // Every payload up to 5 bytes over {00, 01, 02, 03, AB}: covers every
  // placement of a 00 00 0{0..3} sequence — start, middle, end — plus
  // overlapping runs.  For each, the EBSP invariant must hold (no
  // 00 00 0{0,1} anywhere, no trailing 00 00) and the round trip must
  // be exact.
  const std::uint8_t alpha[] = {0x00, 0x01, 0x02, 0x03, 0xAB};
  for (std::size_t len = 0; len <= 5; ++len) {
    std::vector<std::size_t> idx(len, 0);
    while (true) {
      std::vector<std::uint8_t> rbsp(len);
      for (std::size_t i = 0; i < len; ++i) rbsp[i] = alpha[idx[i]];
      const auto ebsp = h264::add_emulation_prevention(rbsp);
      for (std::size_t i = 0; i + 2 < ebsp.size(); ++i) {
        ASSERT_FALSE(ebsp[i] == 0 && ebsp[i + 1] == 0 && ebsp[i + 2] <= 1)
            << "emulation at offset " << i;
      }
      if (ebsp.size() >= 2) {
        ASSERT_FALSE(ebsp[ebsp.size() - 2] == 0 && ebsp.back() == 0);
      }
      ASSERT_EQ(h264::remove_emulation_prevention(ebsp), rbsp);

      std::size_t k = 0;
      for (; k < len; ++k) {
        if (++idx[k] < sizeof(alpha)) break;
        idx[k] = 0;
      }
      if (k == len) break;
    }
  }
}

TEST(Nal, PackUnpackPreservesGuardedTrailingZeros) {
  // The full framing round trip for zero-tailed payloads, in every NAL
  // position: RBSP -> EBSP -> Annex-B -> units -> RBSP must be the
  // identity (trailing-zero padding trim included).
  const std::vector<std::vector<std::uint8_t>> rbsps = {
      {0x00, 0x00},
      {0x11, 0x00, 0x00},
      {0x00, 0x00, 0x03},
      {0x00, 0x00, 0x00},
      {0x7F, 0x00, 0x00, 0x00, 0x00},
  };
  for (const auto& rbsp : rbsps) {
    for (std::size_t pos = 0; pos < 2; ++pos) {
      std::vector<h264::NalUnit> units(2);
      units[0].type = h264::NalType::kSps;
      units[0].ref_idc = 3;
      units[0].payload = {0x42};
      units[1].type = h264::NalType::kSliceIdr;
      units[1].ref_idc = 3;
      units[1].payload = {0x65};
      units[pos].payload = h264::add_emulation_prevention(rbsp);

      const auto parsed = h264::unpack_annexb(h264::pack_annexb(units));
      ASSERT_EQ(parsed.size(), units.size()) << "position " << pos;
      EXPECT_EQ(parsed[pos].payload, units[pos].payload)
          << "EBSP changed through pack/unpack at position " << pos;
      EXPECT_EQ(h264::remove_emulation_prevention(parsed[pos].payload), rbsp)
          << "RBSP round trip at position " << pos;
    }
  }
}

TEST(Entropy, ZeroBlockIsOneSymbol) {
  h264::Block4x4 zero{};
  h264::BitWriter bw;
  const std::size_t bits = h264::encode_residual_block(bw, zero);
  EXPECT_EQ(bits, 1u);  // ue(0) == one bit
  bw.finish_rbsp();
  h264::BitReader br(bw.bytes());
  int nz = -1;
  const auto decoded = h264::decode_residual_block(br, &nz);
  EXPECT_EQ(nz, 0);
  EXPECT_EQ(decoded, zero);
}

TEST(Entropy, DenseBlockRoundTrip) {
  h264::Block4x4 blk{};
  int v = -8;
  for (auto& row : blk) {
    for (auto& x : row) x = (v == 0) ? ++v : v++;
  }
  h264::BitWriter bw;
  h264::encode_residual_block(bw, blk);
  bw.finish_rbsp();
  h264::BitReader br(bw.bytes());
  EXPECT_EQ(h264::decode_residual_block(br), blk);
}

TEST(Entropy, FuzzRoundTripManyBlocks) {
  std::mt19937 rng(31337);
  std::uniform_int_distribution<int> level(-32, 32);
  std::uniform_real_distribution<double> density(0.0, 1.0);
  for (int iter = 0; iter < 300; ++iter) {
    const double p = density(rng);
    h264::Block4x4 blk{};
    for (auto& row : blk) {
      for (auto& x : row) {
        if (density(rng) < p) x = level(rng);
      }
    }
    h264::BitWriter bw;
    h264::encode_residual_block(bw, blk);
    bw.finish_rbsp();
    h264::BitReader br(bw.bytes());
    int nz = 0;
    const auto decoded = h264::decode_residual_block(br, &nz);
    EXPECT_EQ(decoded, blk);
    EXPECT_EQ(nz, h264::count_nonzero(blk));
  }
}

TEST(Entropy, SparseCheaperThanDense) {
  h264::Block4x4 sparse{};
  sparse[0][0] = 3;
  h264::Block4x4 dense{};
  for (auto& row : dense) {
    for (auto& x : row) x = 5;
  }
  h264::BitWriter bw1, bw2;
  const auto bits_sparse = h264::encode_residual_block(bw1, sparse);
  const auto bits_dense = h264::encode_residual_block(bw2, dense);
  EXPECT_LT(bits_sparse, bits_dense);
}
