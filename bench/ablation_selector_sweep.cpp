// Ablation: Input Selector parameter sweep.
//
// DESIGN.md calls out the (S_th, f) deletion policy as a design choice;
// this bench maps the power/quality Pareto the two knobs span, which is
// the space the emotion input navigates at runtime.
#include <cstdio>

#include "adaptive/input_selector.hpp"
#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/quality.hpp"
#include "h264/testvideo.hpp"
#include "power/model.hpp"

using namespace affectsys;

int main() {
  // Prototype clip identical to the playback system's defaults.
  h264::VideoConfig vc{64, 64, 48, 1.2, 0.6, 2.5, 77};
  const auto video = h264::generate_mixed_video(vc, 0.25);
  h264::EncoderConfig ec{64, 64, 24, 12, 2, 4};
  h264::Encoder enc(ec);
  const auto stream = enc.encode_annexb(video);

  // Calibrate the power model once on the standard decode.
  h264::Decoder ref;
  ref.decode_annexb(stream);
  const auto coeff = power::calibrate_to_deblock_share(
      power::EnergyCoefficients{}, ref.activity(), 0.314);
  const double std_energy = power::decode_energy(ref.activity(), coeff).total_nj();

  std::printf("=== ablation: Input Selector (S_th x f) power/quality Pareto ===\n");
  std::printf("%6s %4s %10s %10s %12s %10s\n", "S_th", "f", "deleted",
              "norm.power", "saving", "PSNR(dB)");
  for (std::size_t s_th : {0u, 80u, 140u, 250u, 500u, 4096u}) {
    for (unsigned f : {1u, 2u, 4u}) {
      adaptive::InputSelector sel({s_th, f});
      const auto filtered = sel.filter_annexb(stream);
      h264::Decoder dec;
      auto decoded = dec.decode_annexb(filtered);
      const double energy =
          power::decode_energy(dec.activity(), coeff).total_nj();
      const auto display = h264::assemble_display_sequence(
          std::move(decoded), static_cast<int>(video.size()));
      std::vector<h264::YuvFrame> frames;
      for (const auto& p : display) frames.push_back(p.frame);
      const double psnr = h264::sequence_psnr(video, frames);
      std::printf("%6zu %4u %6zu/%-3zu %10.3f %11.1f%% %10.2f\n", s_th, f,
                  sel.stats().deleted, sel.stats().units_in, energy / std_energy,
                  100.0 * (1.0 - energy / std_energy), psnr);
      if (s_th == 0) break;  // f is irrelevant when nothing qualifies
    }
  }
  std::printf("\npaper operating point: S_th=140, f=1 (the 'Deletion' mode)\n");
  return 0;
}
