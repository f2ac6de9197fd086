#include "h264/frame.hpp"

#include <stdexcept>

namespace affectsys::h264 {

YuvFrame::YuvFrame(int width, int height)
    : y(width, height, kBlankLuma), cb(width / 2, height / 2, kBlankChroma),
      cr(width / 2, height / 2, kBlankChroma) {
  if (width <= 0 || height <= 0 || width % kMbSize || height % kMbSize) {
    throw std::invalid_argument(
        "YuvFrame: dimensions must be positive multiples of 16");
  }
}

void YuvFrame::blank() {
  std::fill(y.data.begin(), y.data.end(), kBlankLuma);
  std::fill(cb.data.begin(), cb.data.end(), kBlankChroma);
  std::fill(cr.data.begin(), cr.data.end(), kBlankChroma);
}

}  // namespace affectsys::h264
