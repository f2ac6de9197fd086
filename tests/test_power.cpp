// Tests for the power/area model, its calibration and the battery model.
#include <gtest/gtest.h>

#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/testvideo.hpp"
#include "power/area.hpp"
#include "power/battery.hpp"
#include "power/model.hpp"

namespace h264 = affectsys::h264;
namespace power = affectsys::power;

namespace {

h264::DecodeActivity decode_reference(bool deblock) {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 12;
  const auto video = h264::generate_test_video(vc);
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.gop_size = 12;
  ec.b_frames = 2;
  h264::Encoder enc(ec);
  h264::Decoder dec({.enable_deblock = deblock});
  dec.decode_annexb(enc.encode_annexb(video));
  return dec.activity();
}

}  // namespace

TEST(PowerModel, EnergyIsAdditiveOverModules) {
  const auto act = decode_reference(true);
  const power::EnergyCoefficients coeff;
  const auto e = power::decode_energy(act, coeff);
  EXPECT_GT(e.parser_nj, 0.0);
  EXPECT_GT(e.cavlc_nj, 0.0);
  EXPECT_GT(e.iqit_nj, 0.0);
  EXPECT_GT(e.prediction_nj, 0.0);
  EXPECT_GT(e.deblock_nj, 0.0);
  EXPECT_GT(e.static_nj, 0.0);
  EXPECT_NEAR(e.total_nj(),
              e.parser_nj + e.cavlc_nj + e.iqit_nj + e.prediction_nj +
                  e.deblock_nj + e.static_nj,
              1e-9);
}

TEST(PowerModel, ZeroActivityZeroEnergy) {
  const auto e =
      power::decode_energy(h264::DecodeActivity{}, power::EnergyCoefficients{});
  EXPECT_EQ(e.total_nj(), 0.0);
}

TEST(PowerModel, CalibrationHitsTargetShareExactly) {
  const auto act = decode_reference(true);
  const power::EnergyCoefficients base;
  for (double target : {0.10, 0.314, 0.50}) {
    const auto calibrated =
        power::calibrate_to_deblock_share(base, act, target);
    const auto e = power::decode_energy(act, calibrated);
    EXPECT_NEAR(e.deblock_share(), target, 1e-9) << "target " << target;
  }
}

TEST(PowerModel, CalibrationRejectsDegenerateInputs) {
  const auto act = decode_reference(true);
  const power::EnergyCoefficients base;
  EXPECT_THROW(power::calibrate_to_deblock_share(base, act, 0.0),
               std::invalid_argument);
  EXPECT_THROW(power::calibrate_to_deblock_share(base, act, 1.0),
               std::invalid_argument);
  // Reference with no DF activity cannot be calibrated.
  const auto no_df = decode_reference(false);
  EXPECT_THROW(power::calibrate_to_deblock_share(base, no_df, 0.314),
               std::invalid_argument);
}

TEST(PowerModel, DeblockOffSavesExactlyTheCalibratedShare) {
  const auto with_df = decode_reference(true);
  const auto without_df = decode_reference(false);
  const auto coeff = power::calibrate_to_deblock_share(
      power::EnergyCoefficients{}, with_df, 0.314);
  const double on = power::decode_energy(with_df, coeff).total_nj();
  const double off = power::decode_energy(without_df, coeff).total_nj();
  // Same stream, DF disabled: every non-DF counter is identical, so the
  // saving equals the calibrated share.
  EXPECT_NEAR(1.0 - off / on, 0.314, 1e-6);
}

TEST(PowerModel, AveragePower) {
  power::EnergyBreakdown e;
  e.static_nj = 2.5e6;  // 2.5 mJ over 1 s -> 2.5 mW
  EXPECT_NEAR(power::average_power_mw(e, 25, 25.0), 2.5, 1e-9);
  EXPECT_EQ(power::average_power_mw(e, 0, 25.0), 0.0);
}

TEST(AreaModel, MatchesPaperFigures) {
  const power::AreaModel area;
  // Paper: 1.9 mm^2 total, 4.23% Pre-store Buffer overhead, 65 nm, 1.2 V,
  // 28 MHz.
  EXPECT_NEAR(area.proposed_mm2(), 1.9, 0.05);
  EXPECT_NEAR(area.prestore_overhead(), 0.0423, 0.002);
  EXPECT_EQ(area.technology_nm, 65.0);
  EXPECT_EQ(area.supply_v, 1.2);
  EXPECT_EQ(area.clock_mhz, 28.0);
}

TEST(Battery, CapacityAndHours) {
  power::BatteryModel cell;
  // 300 mAh at 3.85 V = 4158 J.
  EXPECT_NEAR(cell.capacity_j(), 4158.0, 1.0);
  // 100 mW total draw -> 11.55 hours.
  EXPECT_NEAR(cell.hours_at_mw(100.0), 11.55, 0.01);
  EXPECT_EQ(cell.hours_at_mw(0.0), 0.0);
  // Video at 30 mW with a 30% share implies 100 mW total.
  EXPECT_NEAR(cell.playback_hours(30.0), 11.55, 0.01);
}
