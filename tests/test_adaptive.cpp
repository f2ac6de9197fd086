// Tests for the affect-adaptive decoder layer: Input Selector semantics,
// mode configs, the continuous-arousal policy and the playback simulation.
#include <gtest/gtest.h>

#include "adaptive/input_selector.hpp"
#include "adaptive/modes.hpp"
#include "adaptive/playback.hpp"
#include "h264/encoder.hpp"
#include "h264/testvideo.hpp"

namespace adaptive = affectsys::adaptive;
namespace affect = affectsys::affect;
namespace h264 = affectsys::h264;

namespace {

/// Encoded NAL units of a small mixed clip (busy + quiet halves).
std::vector<h264::NalUnit> encoded_units() {
  h264::VideoConfig vc;
  vc.width = 64;
  vc.height = 64;
  vc.frames = 24;
  vc.noise = 2.5;
  vc.motion = 1.2;
  vc.detail = 0.6;
  const auto video = h264::generate_mixed_video(vc, 0.5);
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 24;
  ec.gop_size = 12;
  ec.b_frames = 2;
  h264::Encoder enc(ec);
  auto units = enc.parameter_sets();
  for (auto& pic : enc.encode(video)) units.push_back(std::move(pic.nal));
  return units;
}

}  // namespace

// ------------------------------------------------------------ InputSelector

TEST(InputSelector, NeverDeletesIdrOrParameterSets) {
  adaptive::InputSelector sel({100000, 1});  // delete everything eligible
  const auto kept = sel.filter(encoded_units());
  bool has_sps = false, has_pps = false, has_idr = false;
  for (const auto& nal : kept) {
    has_sps |= nal.type == h264::NalType::kSps;
    has_pps |= nal.type == h264::NalType::kPps;
    has_idr |= nal.type == h264::NalType::kSliceIdr;
  }
  EXPECT_TRUE(has_sps);
  EXPECT_TRUE(has_pps);
  EXPECT_TRUE(has_idr);
  // With a huge S_th every P/B slice is a candidate and f=1 deletes all.
  EXPECT_EQ(sel.stats().deleted, sel.stats().candidates);
  EXPECT_GT(sel.stats().deleted, 0u);
}

TEST(InputSelector, SthZeroDeletesNothing) {
  adaptive::InputSelector sel({0, 1});
  const auto units = encoded_units();
  const auto kept = sel.filter(units);
  EXPECT_EQ(kept.size(), units.size());
  EXPECT_EQ(sel.stats().deleted, 0u);
}

TEST(InputSelector, FrequencyControlsDeletionFraction) {
  const auto units = encoded_units();
  adaptive::InputSelector all({100000, 1});
  all.filter(units);
  const std::size_t m = all.stats().candidates;
  ASSERT_GT(m, 3u);
  for (unsigned f : {2u, 3u, 4u}) {
    adaptive::InputSelector sel({100000, f});
    sel.filter(units);
    // Deleted = ceil(m / f) by the "first of each group of f" rule.
    EXPECT_EQ(sel.stats().deleted, (m + f - 1) / f) << "f=" << f;
  }
}

TEST(InputSelector, LargerSthDeletesMore) {
  const auto units = encoded_units();
  std::size_t prev = 0;
  for (std::size_t s_th : {60u, 140u, 400u, 100000u}) {
    adaptive::InputSelector sel({s_th, 1});
    sel.filter(units);
    EXPECT_GE(sel.stats().deleted, prev) << "s_th=" << s_th;
    prev = sel.stats().deleted;
  }
}

TEST(InputSelector, StatsByteAccounting) {
  adaptive::InputSelector sel({140, 1});
  const auto units = encoded_units();
  std::size_t total_bytes = 0;
  for (const auto& u : units) total_bytes += u.byte_size();
  sel.filter(units);
  EXPECT_EQ(sel.stats().bytes_in, total_bytes);
  EXPECT_LE(sel.stats().bytes_out, total_bytes);
  EXPECT_EQ(sel.stats().units_in, units.size());
  EXPECT_EQ(sel.stats().units_out + sel.stats().deleted, units.size());
}

TEST(InputSelector, FilteredStreamStillDecodes) {
  adaptive::InputSelector sel({140, 1});
  const auto filtered = sel.filter_annexb(h264::pack_annexb(encoded_units()));
  affectsys::h264::Decoder dec;
  EXPECT_NO_THROW(dec.decode_annexb(filtered));
  EXPECT_GT(dec.activity().frames_decoded, 0u);
}

TEST(InputSelector, RejectsZeroFrequency) {
  EXPECT_THROW(adaptive::InputSelector({140, 0}), std::invalid_argument);
}

// --------------------------------------------------------------------- modes

TEST(Modes, ConfigsMatchSemantics) {
  const auto std_cfg = adaptive::mode_config(adaptive::DecoderMode::kStandard);
  EXPECT_TRUE(std_cfg.deblock);
  EXPECT_FALSE(std_cfg.delete_nals);
  const auto del = adaptive::mode_config(adaptive::DecoderMode::kDeletion);
  EXPECT_TRUE(del.deblock);
  EXPECT_TRUE(del.delete_nals);
  const auto dfoff = adaptive::mode_config(adaptive::DecoderMode::kDeblockOff);
  EXPECT_FALSE(dfoff.deblock);
  EXPECT_FALSE(dfoff.delete_nals);
  const auto comb = adaptive::mode_config(adaptive::DecoderMode::kCombined);
  EXPECT_FALSE(comb.deblock);
  EXPECT_TRUE(comb.delete_nals);
  EXPECT_EQ(comb.selector.s_th, 140u);
  EXPECT_EQ(comb.selector.f, 1u);
}

TEST(Modes, DefaultPolicyMatchesPaperCaseStudy) {
  const adaptive::AffectVideoPolicy policy;
  EXPECT_EQ(policy.mode_for(affect::Emotion::kDistracted),
            adaptive::DecoderMode::kCombined);
  EXPECT_EQ(policy.mode_for(affect::Emotion::kConcentrated),
            adaptive::DecoderMode::kDeletion);
  EXPECT_EQ(policy.mode_for(affect::Emotion::kTense),
            adaptive::DecoderMode::kStandard);
  EXPECT_EQ(policy.mode_for(affect::Emotion::kRelaxed),
            adaptive::DecoderMode::kDeblockOff);
}

TEST(Modes, PolicyIsReprogrammable) {
  adaptive::AffectVideoPolicy policy;
  policy.set_mode(affect::Emotion::kRelaxed, adaptive::DecoderMode::kCombined);
  EXPECT_EQ(policy.mode_for(affect::Emotion::kRelaxed),
            adaptive::DecoderMode::kCombined);
}

TEST(ContinuousPolicy, ArousalQuartilesMapToModes) {
  using adaptive::DecoderMode;
  EXPECT_EQ(adaptive::mode_for_circumplex({0.0, 0.9, 0.0}),
            DecoderMode::kStandard);
  EXPECT_EQ(adaptive::mode_for_circumplex({0.0, 0.3, 0.0}),
            DecoderMode::kDeletion);
  EXPECT_EQ(adaptive::mode_for_circumplex({0.0, -0.3, 0.0}),
            DecoderMode::kDeblockOff);
  EXPECT_EQ(adaptive::mode_for_circumplex({0.0, -0.9, 0.0}),
            DecoderMode::kCombined);
}

TEST(ContinuousPolicy, ConsistentWithDiscretePolicyAtExtremes) {
  // The discrete policy's attention-critical states carry high arousal,
  // so the continuous mapping agrees at the extremes of the circumplex.
  EXPECT_EQ(adaptive::mode_for_circumplex(
                affect::circumplex(affect::Emotion::kExcited)),
            adaptive::DecoderMode::kStandard);
  EXPECT_EQ(adaptive::mode_for_circumplex(
                affect::circumplex(affect::Emotion::kSleepy)),
            adaptive::DecoderMode::kCombined);
}

// ------------------------------------------------------------------ playback

class PlaybackFixture : public ::testing::Test {
 protected:
  static adaptive::AdaptiveDecoderSystem& system() {
    // The prototype clip profile is expensive; share it across tests.
    static adaptive::AdaptiveDecoderSystem sys{[] {
      adaptive::PlaybackConfig cfg;
      cfg.video.frames = 24;  // smaller clip for tests
      return cfg;
    }()};
    return sys;
  }
};

TEST_F(PlaybackFixture, ModePowerOrderingMatchesFig6) {
  auto& sys = system();
  const double p_std =
      sys.profile(adaptive::DecoderMode::kStandard).norm_power;
  const double p_del =
      sys.profile(adaptive::DecoderMode::kDeletion).norm_power;
  const double p_df =
      sys.profile(adaptive::DecoderMode::kDeblockOff).norm_power;
  const double p_comb =
      sys.profile(adaptive::DecoderMode::kCombined).norm_power;
  EXPECT_EQ(p_std, 1.0);
  // Fig 6: Standard > Deletion > DF-off > Combined.
  EXPECT_GT(p_std, p_del);
  EXPECT_GT(p_del, p_df);
  EXPECT_GT(p_df, p_comb);
  // DF deactivation saves the calibrated ~31.4%.
  EXPECT_NEAR(p_df, 1.0 - 0.314, 0.02);
}

TEST_F(PlaybackFixture, QualityOrderingMatchesFig6) {
  auto& sys = system();
  const double q_std = sys.profile(adaptive::DecoderMode::kStandard).psnr_db;
  const double q_del = sys.profile(adaptive::DecoderMode::kDeletion).psnr_db;
  const double q_df = sys.profile(adaptive::DecoderMode::kDeblockOff).psnr_db;
  const double q_comb = sys.profile(adaptive::DecoderMode::kCombined).psnr_db;
  EXPECT_GT(q_std, q_del);
  // Paper: deletion mode "enjoys a slightly better video quality than that
  // of the deactivation mode".
  EXPECT_GT(q_del, q_df - 0.2);
  EXPECT_GE(q_df, q_comb - 1e-9);
}

TEST_F(PlaybackFixture, PlaybackSavingInPaperBallpark) {
  auto& sys = system();
  const adaptive::AffectVideoPolicy policy;
  const auto report = adaptive::simulate_playback(
      sys, affect::uulmmac_session_timeline(), policy);
  ASSERT_EQ(report.segments.size(), 4u);
  // Paper: 23.1% playback energy saving.  Accept the band around it that
  // our calibrated substrate produces.
  EXPECT_GT(report.energy_saving(), 0.15);
  EXPECT_LT(report.energy_saving(), 0.35);
  // Segment modes follow the case-study policy.
  EXPECT_EQ(report.segments[0].mode, adaptive::DecoderMode::kCombined);
  EXPECT_EQ(report.segments[1].mode, adaptive::DecoderMode::kDeletion);
  EXPECT_EQ(report.segments[2].mode, adaptive::DecoderMode::kStandard);
  EXPECT_EQ(report.segments[3].mode, adaptive::DecoderMode::kDeblockOff);
}

TEST_F(PlaybackFixture, AllStandardPolicySavesNothing) {
  auto& sys = system();
  adaptive::AffectVideoPolicy policy;
  for (std::size_t i = 0; i < affect::kNumEmotions; ++i) {
    policy.set_mode(static_cast<affect::Emotion>(i),
                    adaptive::DecoderMode::kStandard);
  }
  const auto report = adaptive::simulate_playback(
      sys, affect::uulmmac_session_timeline(), policy);
  EXPECT_NEAR(report.energy_saving(), 0.0, 1e-9);
}

TEST_F(PlaybackFixture, SclDrivenPlaybackSavesEnergy) {
  auto& sys = system();
  affect::SclConfig scfg;
  affect::SclGenerator gen(scfg);
  const auto tl = affect::uulmmac_session_timeline();
  const auto trace = gen.generate(tl);
  affect::SclEmotionEstimator est;
  est.calibrate(trace, scfg.sample_rate_hz, tl);
  const adaptive::AffectVideoPolicy policy;
  const auto report = adaptive::simulate_playback_from_scl(
      sys, trace, scfg.sample_rate_hz, est, policy);
  EXPECT_GT(report.energy_saving(), 0.05);
  EXPECT_LT(report.energy_saving(), 0.45);
  EXPECT_FALSE(report.segments.empty());
}

// ----------------------------------------- InputSelector periodicity / reset

namespace {

/// Minimal synthetic P-slice NAL: header bits ue(0) ue(0) decode as
/// first_mb_in_slice = 0, slice_type = P; the rest is opaque padding that
/// only contributes to byte_size().  `tag` marks the unit so deletion
/// patterns can be recovered from the kept sequence.
h264::NalUnit make_p_nal(std::size_t byte_size, std::uint8_t tag = 0) {
  h264::NalUnit nal;
  nal.type = h264::NalType::kSliceNonIdr;
  nal.ref_idc = 0;
  nal.payload.assign(byte_size - 1, 0x55);
  nal.payload[0] = 0xC0;  // "11" + padding
  if (nal.payload.size() > 1) nal.payload[1] = tag;
  return nal;
}

/// Synthetic IDR (I-slice) NAL: ue(0) then ue(2) ("1" + "011") = 0xB0.
h264::NalUnit make_i_nal(std::size_t byte_size) {
  h264::NalUnit nal;
  nal.type = h264::NalType::kSliceIdr;
  nal.ref_idc = 3;
  nal.payload.assign(byte_size - 1, 0x55);
  nal.payload[0] = 0xB0;
  return nal;
}

}  // namespace

TEST(InputSelector, DeletionPatternIsPeriodicInF) {
  constexpr std::size_t kCandidates = 12;
  for (unsigned f : {1u, 2u, 4u}) {
    std::vector<h264::NalUnit> units;
    for (std::size_t i = 0; i < kCandidates; ++i) {
      units.push_back(make_p_nal(20, static_cast<std::uint8_t>(i)));
    }
    adaptive::InputSelector sel({100, f});
    const auto kept = sel.filter(units);
    // The first candidate of each group of f is deleted: candidate i
    // survives iff i % f != 0.
    std::vector<std::uint8_t> expect_tags;
    for (std::size_t i = 0; i < kCandidates; ++i) {
      if (i % f != 0) expect_tags.push_back(static_cast<std::uint8_t>(i));
    }
    ASSERT_EQ(kept.size(), expect_tags.size()) << "f=" << f;
    for (std::size_t k = 0; k < kept.size(); ++k) {
      EXPECT_EQ(kept[k].payload[1], expect_tags[k]) << "f=" << f << " k=" << k;
    }
    EXPECT_EQ(sel.stats().candidates, kCandidates);
    EXPECT_EQ(sel.stats().deleted, (kCandidates + f - 1) / f);
  }
}

TEST(InputSelector, ResetClearsCandidatePhaseAndStats) {
  adaptive::InputSelector sel({100, 4});
  // Three candidates advance the phase counter to 3 (one deleted).
  sel.filter({make_p_nal(20, 0), make_p_nal(20, 1), make_p_nal(20, 2)});
  ASSERT_EQ(sel.stats().deleted, 1u);

  sel.reset();
  EXPECT_EQ(sel.stats().units_in, 0u);
  EXPECT_EQ(sel.stats().candidates, 0u);
  EXPECT_EQ(sel.stats().deleted, 0u);
  EXPECT_EQ(sel.stats().bytes_in, 0u);

  // After reset the very next candidate starts a fresh group of f and is
  // deleted again; without the phase reset it would have survived (the
  // pre-reset counter stood at 3 of 4).
  const auto kept = sel.filter({make_p_nal(20, 7), make_p_nal(20, 8)});
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].payload[1], 8);
  EXPECT_EQ(sel.stats().deleted, 1u);
}

TEST(InputSelector, SyntheticStreamStatsInvariants) {
  // Mixed stream: I slices (never candidates), P slices above and below
  // S_th, across several filter() calls on the same selector.
  adaptive::InputSelector sel({64, 2});
  std::vector<h264::NalUnit> batch1{make_i_nal(40), make_p_nal(20, 0),
                                    make_p_nal(200, 1), make_p_nal(30, 2)};
  std::vector<h264::NalUnit> batch2{make_p_nal(64, 3), make_p_nal(65, 4),
                                    make_i_nal(300)};
  std::size_t bytes_total = 0, units_total = 0;
  for (const auto* batch : {&batch1, &batch2}) {
    for (const auto& u : *batch) {
      bytes_total += u.byte_size();
      ++units_total;
    }
  }
  std::size_t bytes_kept = 0;
  std::size_t units_kept = 0;
  for (const auto& nal : sel.filter(batch1)) {
    bytes_kept += nal.byte_size();
    ++units_kept;
  }
  for (const auto& nal : sel.filter(batch2)) {
    bytes_kept += nal.byte_size();
    ++units_kept;
  }
  const auto& st = sel.stats();
  EXPECT_EQ(st.units_in, units_total);
  EXPECT_EQ(st.bytes_in, bytes_total);
  EXPECT_EQ(st.units_out, units_kept);
  EXPECT_EQ(st.bytes_out, bytes_kept);
  // Conservation: everything in is either out or deleted.
  EXPECT_EQ(st.units_in, st.units_out + st.deleted);
  EXPECT_EQ(st.bytes_in - st.bytes_out,
            bytes_total - bytes_kept);
  // Candidates: sizes <= 64 among P slices -> tags 0, 2, 3 (size 64
  // inclusive); with f=2 the first of each pair is deleted.
  EXPECT_EQ(st.candidates, 3u);
  EXPECT_EQ(st.deleted, 2u);
}

// --------------------------------------------------- norm_power regression

TEST(Playback, NormPowerConsistentRegardlessOfProfilingOrder) {
  adaptive::PlaybackConfig cfg;
  cfg.video.frames = 8;  // tiny clip: this test profiles two systems

  // Standard profiled FIRST.
  adaptive::AdaptiveDecoderSystem first(cfg);
  const double std_first =
      first.profile(adaptive::DecoderMode::kStandard).norm_power;
  const double comb_first =
      first.profile(adaptive::DecoderMode::kCombined).norm_power;

  // Standard profiled LAST (other modes trigger the lazy reference).
  adaptive::AdaptiveDecoderSystem last(cfg);
  const double comb_last =
      last.profile(adaptive::DecoderMode::kCombined).norm_power;
  const double df_last =
      last.profile(adaptive::DecoderMode::kDeblockOff).norm_power;
  const double std_last =
      last.profile(adaptive::DecoderMode::kStandard).norm_power;

  // Standard is the reference: exactly 1.0, assigned explicitly in both
  // orders (not inherited from the ModeProfile default, which is 0).
  EXPECT_EQ(std_first, 1.0);
  EXPECT_EQ(std_last, 1.0);
  // Every profiled mode carries an assigned (nonzero) normalization, and
  // the same mode agrees across profiling orders.
  EXPECT_GT(comb_first, 0.0);
  EXPECT_GT(df_last, 0.0);
  EXPECT_DOUBLE_EQ(comb_first, comb_last);
  // Consistency with the underlying energies.
  EXPECT_NEAR(comb_last,
              last.profile(adaptive::DecoderMode::kCombined).energy.total_nj() /
                  last.profile(adaptive::DecoderMode::kStandard)
                      .energy.total_nj(),
              1e-12);
}
