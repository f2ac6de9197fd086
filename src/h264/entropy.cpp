#include "h264/entropy.hpp"

namespace affectsys::h264 {

const int kZigzagRow[16] = {0, 0, 1, 2, 1, 0, 0, 1, 2, 3, 3, 2, 1, 2, 3, 3};
const int kZigzagCol[16] = {0, 1, 0, 0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 3, 2, 3};

std::size_t encode_residual_block(BitWriter& bw, const Block4x4& levels) {
  const std::size_t start_bits = bw.bit_count();
  // Scan into zig-zag order.
  int scan[16];
  int last = -1;
  int total = 0;
  for (int i = 0; i < 16; ++i) {
    scan[i] = levels[kZigzagRow[i]][kZigzagCol[i]];
    if (scan[i] != 0) {
      last = i;
      ++total;
    }
  }
  bw.put_ue(static_cast<std::uint32_t>(total));
  if (total > 0) {
    bw.put_ue(static_cast<std::uint32_t>(last));
    // Levels coded from the highest-frequency coefficient toward DC
    // (CAVLC order); after each level except the final one, run_before
    // gives the number of zeros separating it from the next coefficient.
    int emitted = 0;
    for (int i = last; i >= 0; --i) {
      if (scan[i] == 0) continue;
      bw.put_se(scan[i]);
      if (++emitted == total) break;
      int run = 0;
      for (int j = i - 1; j >= 0 && scan[j] == 0; --j) ++run;
      bw.put_ue(static_cast<std::uint32_t>(run));
    }
  }
  return bw.bit_count() - start_bits;
}

Block4x4 decode_residual_block(BitReader& br, int* nonzero_out) {
  Block4x4 out{};
  const std::uint32_t total = br.get_ue();
  if (total > 16) throw BitstreamError("decode_residual_block: total > 16");
  if (nonzero_out) *nonzero_out = static_cast<int>(total);
  if (total == 0) return out;

  const std::uint32_t last = br.get_ue();
  if (last > 15 || total > last + 1) {
    throw BitstreamError("decode_residual_block: bad last position");
  }
  int pos = static_cast<int>(last);
  for (std::uint32_t k = 0; k < total; ++k) {
    if (pos < 0) throw BitstreamError("decode_residual_block: position underflow");
    const int level = br.get_se();
    if (level == 0) throw BitstreamError("decode_residual_block: zero level");
    out[kZigzagRow[pos]][kZigzagCol[pos]] = level;
    if (k + 1 < total) {
      const std::uint32_t run = br.get_ue();
      pos -= 1 + static_cast<int>(run);
    }
  }
  return out;
}

}  // namespace affectsys::h264
