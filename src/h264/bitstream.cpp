#include "h264/bitstream.hpp"

#include <bit>

namespace affectsys::h264 {

void BitWriter::put_bit(bool b) {
  if (spare_ == 0) {
    bytes_.push_back(0);
    spare_ = 8;
  }
  --spare_;
  if (b) bytes_.back() |= static_cast<std::uint8_t>(1u << spare_);
}

void BitWriter::put_bits(std::uint32_t value, unsigned count) {
  if (count > 32) throw std::invalid_argument("put_bits: count > 32");
  for (unsigned i = count; i-- > 0;) {
    put_bit((value >> i) & 1u);
  }
}

void BitWriter::put_ue(std::uint32_t value) {
  // code_num = value; write leading zeros then (value+1) in binary.
  const std::uint64_t v = static_cast<std::uint64_t>(value) + 1;
  const int len = std::bit_width(v);
  for (int i = 0; i < len - 1; ++i) put_bit(false);
  for (int i = len; i-- > 0;) put_bit((v >> i) & 1u);
}

void BitWriter::put_se(std::int32_t value) {
  // Mapping per spec 9.1.1: k>0 -> 2k-1, k<=0 -> -2k.
  const std::uint32_t code =
      value > 0 ? static_cast<std::uint32_t>(2 * value - 1)
                : static_cast<std::uint32_t>(-2 * static_cast<std::int64_t>(value));
  put_ue(code);
}

void BitWriter::finish_rbsp() {
  put_bit(true);
  while (spare_ != 0) put_bit(false);
}

bool BitReader::get_bit() {
  if (pos_ >= data_.size() * 8) {
    throw BitstreamError("BitReader: read past end of stream");
  }
  const std::uint8_t byte = data_[pos_ / 8];
  const bool b = (byte >> (7 - pos_ % 8)) & 1u;
  ++pos_;
  return b;
}

std::uint32_t BitReader::get_bits(unsigned count) {
  if (count > 32) throw std::invalid_argument("get_bits: count > 32");
  std::uint32_t v = 0;
  for (unsigned i = 0; i < count; ++i) {
    v = (v << 1) | static_cast<std::uint32_t>(get_bit());
  }
  return v;
}

std::uint32_t BitReader::get_ue() {
  // Fast path: one big-endian 64-bit peek.  After the shift at least 57
  // bits of it are stream bits, enough for a code of up to 28 leading
  // zeros (2 * 28 + 1 bits).  Longer codes, and the last 7 bytes of the
  // stream, take the bit loop below, which owns the error cases.
  const std::size_t byte = pos_ / 8;
  if (data_.size() >= byte + 8) {
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < 8; ++i) word = (word << 8) | data_[byte + i];
    word <<= pos_ % 8;
    const int zeros = std::countl_zero(word);
    if (zeros <= 28) {
      const int len = 2 * zeros + 1;
      pos_ += static_cast<std::size_t>(len);
      return static_cast<std::uint32_t>((word >> (64 - len)) - 1);
    }
  }
  unsigned zeros = 0;
  while (!get_bit()) {
    if (++zeros > 31) throw BitstreamError("get_ue: malformed Exp-Golomb");
  }
  std::uint32_t suffix = zeros ? get_bits(zeros) : 0;
  return (1u << zeros) - 1 + suffix;
}

std::int32_t BitReader::get_se() {
  const std::uint32_t code = get_ue();
  const auto k = static_cast<std::int64_t>((code + 1) / 2);
  return static_cast<std::int32_t>(code % 2 == 1 ? k : -k);
}

std::vector<std::uint8_t> add_emulation_prevention(
    std::span<const std::uint8_t> rbsp) {
  std::vector<std::uint8_t> out;
  out.reserve(rbsp.size() + rbsp.size() / 64);
  int zeros = 0;
  for (std::uint8_t b : rbsp) {
    if (zeros >= 2 && b <= 0x03) {
      out.push_back(0x03);
      zeros = 0;
    }
    out.push_back(b);
    zeros = (b == 0x00) ? zeros + 1 : 0;
  }
  // An RBSP ending in 00 00 needs a trailing guard byte, or the EBSP's
  // final zeros are indistinguishable from Annex-B framing (the next
  // unit's start-code prefix / stream padding) and unpack_annexb would
  // trim them — the asymmetry the transport round-trip tests caught.
  // Conforming RBSPs end with rbsp_trailing_bits (nonzero last byte), so
  // this fires only for raw payloads, but the invariant unpack_annexb
  // relies on — an EBSP never ends in 00 00 — now holds for everything
  // this function produces.
  if (zeros >= 2) out.push_back(0x03);
  return out;
}

std::vector<std::uint8_t> remove_emulation_prevention(
    std::span<const std::uint8_t> ebsp) {
  std::vector<std::uint8_t> out;
  remove_emulation_prevention_into(ebsp, out);
  return out;
}

void remove_emulation_prevention_into(std::span<const std::uint8_t> ebsp,
                                      std::vector<std::uint8_t>& out) {
  out.clear();
  out.reserve(ebsp.size());
  int zeros = 0;
  for (std::size_t i = 0; i < ebsp.size(); ++i) {
    // A 0x03 after two zeros is an emulation-prevention byte when the
    // byte after it is <= 0x03 — or when there is no byte after it at
    // all (the trailing guard add_emulation_prevention appends for an
    // RBSP ending in 00 00; a *data* 0x03 in that position would itself
    // have been escaped, so stripping here is unambiguous).
    if (zeros >= 2 && ebsp[i] == 0x03 &&
        (i + 1 == ebsp.size() || ebsp[i + 1] <= 0x03)) {
      zeros = 0;
      continue;  // skip the emulation-prevention byte
    }
    out.push_back(ebsp[i]);
    zeros = (ebsp[i] == 0x00) ? zeros + 1 : 0;
  }
}

}  // namespace affectsys::h264
