// Seeded structured-fuzz harness for the fault-injection layer
// (src/fault) and the recovery policies it exercises: decoder resync,
// realtime gap tolerance, and the session server's quarantine ladder.
//
// The suites sweep >= 500 FaultPlans (340 bitstream + 154 audio + 10
// serve) and assert, for every plan:
//   * no crash / no sanitizer report (the same binary runs under
//     ASan+UBSan and TSan via `ctest -L fault` in those build trees),
//   * replay identity: running the identical ScenarioConfig twice gives
//     bit-identical digests — every SCOPED_TRACE prints the
//     `affectsys_cli fault-replay` line that reproduces a failure,
//   * rate 0 is byte-identical to the un-instrumented clean path,
//   * in the multi-tenant scenario, sessions without injected faults
//     stay byte-identical to the fault-free baseline run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/audio_faults.hpp"
#include "fault/bitstream_faults.hpp"
#include "fault/plan.hpp"
#include "fault/scenario.hpp"
#include "h264/decoder.hpp"
#include "h264/encoder.hpp"
#include "h264/nal.hpp"
#include "h264/testvideo.hpp"
#include "serve/server.hpp"

namespace fault = affectsys::fault;
namespace h264 = affectsys::h264;
namespace serve = affectsys::serve;

namespace {

// Suite shapes.  The driver requirement is >= 500 plans total across
// the three suites: 170*2 + 77*2 + 5*2 = 504.
constexpr std::uint64_t kBitstreamSeeds = 170;
constexpr double kBitstreamRates[] = {0.02, 0.1};
constexpr std::uint64_t kAudioSeeds = 77;
constexpr double kAudioRates[] = {0.05, 0.2};
constexpr std::uint64_t kServeSeeds = 5;
constexpr double kServeRates[] = {0.05, 0.25};

/// The one-line repro for a failing plan (DESIGN.md "Fault injection &
/// recovery" documents the workflow).
std::string repro(const char* suite, std::uint64_t seed, double rate) {
  return "repro: affectsys_cli fault-replay " + std::string(suite) + " " +
         std::to_string(seed) + " " + std::to_string(rate);
}

}  // namespace

// ---------------------------------------------------------------------
// FaultPlan: the schedule itself.

TEST(FaultPlan, DisabledPlanNeverFiresOrAdvances) {
  fault::FaultPlan plan(fault::FaultConfig{123, 0.0, fault::kAllKinds});
  EXPECT_FALSE(plan.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(plan.next(fault::kAllKinds), std::nullopt);
  }
  EXPECT_EQ(plan.decisions(), 0u);
  EXPECT_EQ(plan.faults(), 0u);
}

TEST(FaultPlan, DisjointSiteMaskConsumesNoState) {
  // Consulting a site whose mask misses the plan's kinds must not
  // advance the RNG: the subsequent schedule matches a plan that never
  // saw those sites.
  fault::FaultPlan probed(fault::FaultConfig{9, 1.0, fault::kAudioKinds});
  fault::FaultPlan fresh(fault::FaultConfig{9, 1.0, fault::kAudioKinds});
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(probed.next(fault::kBitstreamKinds), std::nullopt);
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(probed.next(fault::kAudioKinds), fresh.next(fault::kAudioKinds));
  }
}

TEST(FaultPlan, SameSeedSameSchedule) {
  const fault::FaultConfig cfg{42, 0.3, fault::kAllKinds};
  fault::FaultPlan a(cfg), b(cfg);
  const std::uint32_t masks[] = {fault::kBitstreamKinds, fault::kAudioKinds,
                                 fault::kServeKinds, fault::kAllKinds};
  for (int i = 0; i < 1000; ++i) {
    const auto fa = a.next(masks[i % 4]);
    const auto fb = b.next(masks[i % 4]);
    ASSERT_EQ(fa, fb) << "decision " << i;
    if (fa) {
      ASSERT_EQ(a.draw(17), b.draw(17)) << "draw " << i;
    }
  }
  EXPECT_EQ(a.decisions(), b.decisions());
  EXPECT_EQ(a.faults(), b.faults());
  EXPECT_GT(a.faults(), 0u);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  fault::FaultPlan a(fault::FaultConfig{1, 0.5, fault::kAllKinds});
  fault::FaultPlan b(fault::FaultConfig{2, 0.5, fault::kAllKinds});
  bool diverged = false;
  for (int i = 0; i < 1000 && !diverged; ++i) {
    diverged = a.next(fault::kAllKinds) != b.next(fault::kAllKinds);
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultPlan, RateOneFiresEverySiteWithinMask) {
  fault::FaultPlan plan(fault::FaultConfig{5, 1.0, fault::kAudioKinds});
  for (int i = 0; i < 200; ++i) {
    const auto k = plan.next(fault::kAudioKinds);
    ASSERT_TRUE(k.has_value());
    EXPECT_NE(fault::kAudioKinds & fault::kind_bit(*k), 0u);
  }
  EXPECT_EQ(plan.faults(), 200u);
  EXPECT_EQ(plan.decisions(), 200u);
}

TEST(FaultPlan, DrawStaysInRange) {
  fault::FaultPlan plan(fault::FaultConfig{77, 1.0, fault::kAllKinds});
  for (std::uint64_t n : {1ull, 2ull, 3ull, 7ull, 255ull, 1000000ull}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_LT(plan.draw(n), n);
    }
  }
  EXPECT_THROW(plan.draw(0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Bitstream suite: 340 plans of NAL corruption against the resilient
// decoder.

TEST(BitstreamFuzz, ReplayIdentityAcross340Plans) {
  std::uint64_t plans = 0, total_faults = 0, total_errors = 0,
                total_resyncs = 0;
  for (double rate : kBitstreamRates) {
    for (std::uint64_t seed = 1; seed <= kBitstreamSeeds; ++seed) {
      SCOPED_TRACE(repro("bitstream", seed, rate));
      const fault::ScenarioConfig cfg{seed, rate, fault::kAllKinds};
      const fault::BitstreamScenarioResult first =
          fault::run_bitstream_scenario(cfg);
      const fault::BitstreamScenarioResult second =
          fault::run_bitstream_scenario(cfg);
      ASSERT_EQ(first, second);
      ++plans;
      total_faults += first.faults;
      total_errors += first.nal_errors;
      total_resyncs += first.resyncs;
    }
  }
  EXPECT_EQ(plans, 340u);
  // The fuzz must actually bite: faults fired, the decoder saw
  // malformed units, and at least some runs recovered at a keyframe.
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(total_errors, 0u);
  EXPECT_GT(total_resyncs, 0u);
}

TEST(BitstreamFuzz, RateZeroIsByteIdenticalToCleanStrictDecode) {
  // The un-instrumented reference: strict decode of the pristine clip.
  h264::Decoder strict;
  const auto clean_pics = strict.decode_annexb(
      fault::scenario_reference_stream());
  const std::uint64_t clean_stream_digest =
      fault::fnv1a_bytes(fault::scenario_reference_stream());
  const std::uint64_t clean_pixel_digest = fault::digest_pictures(clean_pics);

  // Rate 0 disables the plan, so the seed must be irrelevant too.
  for (std::uint64_t seed : {1ull, 99ull, 0xdeadbeefull}) {
    SCOPED_TRACE(repro("bitstream", seed, 0.0));
    const fault::BitstreamScenarioResult r =
        fault::run_bitstream_scenario({seed, 0.0, fault::kAllKinds});
    EXPECT_EQ(r.stream_digest, clean_stream_digest);
    EXPECT_EQ(r.pixel_digest, clean_pixel_digest);
    EXPECT_EQ(r.pictures, clean_pics.size());
    EXPECT_EQ(r.faults, 0u);
    EXPECT_EQ(r.nal_errors, 0u);
  }
}

// ---------------------------------------------------------------------
// Audio suite: 154 plans of chunk damage through the realtime pipeline.

TEST(AudioFuzz, ReplayIdentityAcross154Plans) {
  std::uint64_t plans = 0, total_faults = 0, total_dropped = 0,
                total_windows = 0;
  for (double rate : kAudioRates) {
    for (std::uint64_t seed = 1; seed <= kAudioSeeds; ++seed) {
      SCOPED_TRACE(repro("audio", seed, rate));
      const fault::ScenarioConfig cfg{seed, rate, fault::kAllKinds};
      const fault::AudioScenarioResult first = fault::run_audio_scenario(cfg);
      const fault::AudioScenarioResult second = fault::run_audio_scenario(cfg);
      ASSERT_EQ(first, second);
      ++plans;
      total_faults += first.faults;
      total_dropped += first.chunks_dropped;
      total_windows += first.windows_classified;
    }
  }
  EXPECT_EQ(plans, 154u);
  EXPECT_GT(total_faults, 0u);
  EXPECT_GT(total_dropped, 0u);
  // Damaged audio still classifies: the pipeline keeps producing
  // windows rather than wedging on faults.
  EXPECT_GT(total_windows, 0u);
}

TEST(AudioFuzz, RateZeroMatchesCleanPipelineRun) {
  const fault::AudioScenarioResult clean =
      fault::run_audio_scenario({1, 0.0, fault::kAllKinds});
  EXPECT_EQ(clean.faults, 0u);
  EXPECT_EQ(clean.chunks_dropped, 0u);
  EXPECT_EQ(clean.gap_resyncs, 0u);
  EXPECT_GT(clean.windows_classified, 0u);
  // Seed-independent at rate 0: the plan never consults its RNG.
  const fault::AudioScenarioResult other =
      fault::run_audio_scenario({424242, 0.0, fault::kAllKinds});
  EXPECT_EQ(clean, other);
}

TEST(AudioFuzz, SustainedDropsTripTheGapResync) {
  // Drop-only faults at a high rate open capture gaps beyond the
  // pipeline's 0.25 s tolerance; the scheduler must resync (clear and
  // restart its window clock) instead of spinning through the gap.
  const fault::AudioScenarioResult r = fault::run_audio_scenario(
      {11, 0.6, fault::kind_bit(fault::FaultKind::kAudioDrop)});
  EXPECT_GT(r.chunks_dropped, 0u);
  EXPECT_GT(r.gap_resyncs, 0u);
}

// ---------------------------------------------------------------------
// Serve suite: multi-tenant runs where only the odd-index sessions are
// faulted; the even-index tenants must come out byte-identical to the
// fault-free baseline.

TEST(ServeFuzz, ReplayIdentityAndNeighborIsolationAcross10Plans) {
  const fault::ServeScenarioResult baseline =
      fault::run_serve_scenario({1, 0.0, fault::kAllKinds});
  ASSERT_EQ(baseline.decode_digests.size(), fault::kServeScenarioSessions);
  EXPECT_EQ(baseline.sessions_quarantined, 0u);
  for (std::uint64_t f : baseline.session_faults) EXPECT_EQ(f, 0u);

  std::uint64_t plans = 0, total_faults = 0;
  for (double rate : kServeRates) {
    for (std::uint64_t seed = 1; seed <= kServeSeeds; ++seed) {
      SCOPED_TRACE(repro("serve", seed, rate));
      const fault::ScenarioConfig cfg{seed, rate, fault::kAllKinds};
      const fault::ServeScenarioResult first = fault::run_serve_scenario(cfg);
      const fault::ServeScenarioResult second = fault::run_serve_scenario(cfg);
      ASSERT_EQ(first, second);
      ++plans;

      // Quarantine isolation: the clean (even-index) tenants must be
      // byte-identical to their fault-free selves — faulted neighbors,
      // quarantines and forced batcher fallbacks may not leak in.
      for (std::size_t i = 0; i < fault::kServeScenarioSessions; i += 2) {
        EXPECT_EQ(first.decode_digests[i], baseline.decode_digests[i])
            << "clean session " << i << " decode digest drifted";
        EXPECT_EQ(first.window_digests[i], baseline.window_digests[i])
            << "clean session " << i << " window digest drifted";
        EXPECT_EQ(first.session_faults[i], 0u);
      }
      for (std::size_t i = 1; i < fault::kServeScenarioSessions; i += 2) {
        total_faults += first.session_faults[i];
      }
    }
  }
  EXPECT_EQ(plans, 10u);
  EXPECT_GT(total_faults, 0u);
}

// ---------------------------------------------------------------------
// Quarantine ladder lifecycle, in isolation.

TEST(Quarantine, FaultStormQuarantinesRestartsAndShieldsNeighbor) {
  const serve::SessionEnv env = fault::scenario_env();

  serve::ServerConfig sc;
  sc.max_sessions = 2;
  sc.backlog_hi = 1000;  // ladder out of the picture
  sc.backlog_lo = 10;
  sc.batcher.max_batch = 16;
  sc.error_budget = 2;
  sc.error_window_ticks = 20;
  sc.quarantine_ticks = 5;

  serve::SessionConfig clean_cfg;
  clean_cfg.seed = 100;
  serve::SessionConfig storm_cfg;
  storm_cfg.seed = 101;
  // Every chunk dropped: one error per tick, so the budget (2 per 20
  // ticks) trips on tick 3.
  storm_cfg.fault = fault::FaultConfig{
      7, 1.0, fault::kind_bit(fault::FaultKind::kAudioDrop)};

  // Reference: the clean tenant running alone.
  serve::SessionManager solo(sc, env);
  const serve::SessionId solo_id = solo.create_session(clean_cfg);
  for (int t = 0; t < 40; ++t) solo.tick();
  solo.drain();
  const serve::SessionReport solo_rep = solo.report(solo_id);

  serve::SessionManager server(sc, env);
  const serve::SessionId clean_id = server.create_session(clean_cfg);
  const serve::SessionId storm_id = server.create_session(storm_cfg);
  bool saw_quarantine = false;
  for (int t = 0; t < 40; ++t) {
    server.tick();
    saw_quarantine = saw_quarantine || server.is_quarantined(storm_id);
  }
  server.drain();

  EXPECT_TRUE(saw_quarantine);
  EXPECT_GE(server.stats().sessions_quarantined, 1u);
  // quarantine_ticks = 5 inside a 40-tick run: at least one restart
  // must have happened, and the restarted session faults again, so the
  // ladder cycles more than once.
  EXPECT_GE(server.stats().sessions_restarted, 1u);
  EXPECT_GT(server.stats().sessions_quarantined,
            server.stats().sessions_restarted - 1);

  // The storm session never produced audio, so it classified nothing.
  EXPECT_EQ(server.report(storm_id).windows.size(), 0u);
  EXPECT_GT(server.session(storm_id).stats().chunks_dropped +
                server.stats().sessions_restarted,
            0u);

  // The clean neighbor is byte-identical to its solo run: same decoded
  // pixels, same classified windows.
  const serve::SessionReport rep = server.report(clean_id);
  EXPECT_EQ(rep.decode_digest, solo_rep.decode_digest);
  ASSERT_EQ(rep.windows.size(), solo_rep.windows.size());
  for (std::size_t i = 0; i < rep.windows.size(); ++i) {
    EXPECT_EQ(rep.windows[i].seq, solo_rep.windows[i].seq);
    EXPECT_EQ(rep.windows[i].t_end, solo_rep.windows[i].t_end);
    EXPECT_EQ(rep.windows[i].emotion, solo_rep.windows[i].emotion);
    EXPECT_EQ(rep.windows[i].confidence, solo_rep.windows[i].confidence);
    EXPECT_EQ(rep.windows[i].probabilities, solo_rep.windows[i].probabilities);
  }
}

// ---------------------------------------------------------------------
// Decoder recovery policy, in isolation.

namespace {

/// Short clip with several IDR periods so mid-stream damage has a
/// keyframe to resync at: gop 4, no B frames.
std::vector<std::uint8_t> multi_gop_stream() {
  h264::VideoConfig vc;
  vc.width = 48;
  vc.height = 48;
  vc.frames = 12;
  h264::EncoderConfig ec;
  ec.width = vc.width;
  ec.height = vc.height;
  ec.qp = 28;
  ec.gop_size = 4;
  ec.b_frames = 0;
  h264::Encoder enc(ec);
  return enc.encode_annexb(h264::generate_test_video(vc));
}

/// Index (into unpack order) of the first non-IDR slice.
std::size_t first_p_slice(const std::vector<h264::NalUnit>& units) {
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].type == h264::NalType::kSliceNonIdr) return i;
  }
  ADD_FAILURE() << "stream has no non-IDR slice";
  return 0;
}

}  // namespace

TEST(DecoderRecovery, StrictModeThrowsTypedDecodeError) {
  const auto stream = multi_gop_stream();
  auto units = h264::unpack_annexb(stream);
  const std::size_t victim = first_p_slice(units);
  units[victim].payload.resize(2);  // truncated mid-NAL

  h264::Decoder strict;  // resilient defaults off
  bool threw = false;
  try {
    strict.decode_annexb(h264::pack_annexb(units));
  } catch (const h264::DecodeError& e) {
    threw = true;
    EXPECT_EQ(e.nal_type(), h264::NalType::kSliceNonIdr);
    // DecodeError derives from BitstreamError, so pre-existing catch
    // sites keep working.
    EXPECT_NE(dynamic_cast<const h264::BitstreamError*>(&e), nullptr);
  }
  EXPECT_TRUE(threw);
}

TEST(DecoderRecovery, ResilientModeResyncsAtNextKeyframe) {
  const auto stream = multi_gop_stream();

  h264::Decoder clean_dec;
  const auto clean = clean_dec.decode_annexb(stream);
  ASSERT_EQ(clean.size(), 12u);

  auto units = h264::unpack_annexb(stream);
  const std::size_t victim = first_p_slice(units);
  units[victim].payload.resize(2);

  h264::Decoder dec(h264::DecoderConfig{true, /*resilient=*/true});
  std::vector<h264::DecodedPicture> pics;
  ASSERT_NO_THROW(pics = dec.decode_annexb(h264::pack_annexb(units)));

  // One malformed slice, every following non-IDR skipped until the next
  // keyframe, then normal decode resumes.
  EXPECT_EQ(dec.activity().nal_errors, 1u);
  EXPECT_GE(dec.activity().resync_skips, 1u);
  EXPECT_EQ(dec.activity().resyncs, 1u);
  EXPECT_FALSE(dec.awaiting_keyframe());
  ASSERT_GT(pics.size(), 0u);
  ASSERT_LT(pics.size(), clean.size());

  // Everything the resilient decoder did emit is bit-identical to the
  // clean decode of the same pictures (matched by poc): recovery never
  // fabricates pixels.
  for (const h264::DecodedPicture& pic : pics) {
    const auto match = std::find_if(
        clean.begin(), clean.end(),
        [&](const h264::DecodedPicture& c) { return c.poc == pic.poc; });
    ASSERT_NE(match, clean.end()) << "poc " << pic.poc;
    EXPECT_EQ(pic.frame.y.data, match->frame.y.data) << "poc " << pic.poc;
    EXPECT_EQ(pic.frame.cb.data, match->frame.cb.data) << "poc " << pic.poc;
    EXPECT_EQ(pic.frame.cr.data, match->frame.cr.data) << "poc " << pic.poc;
  }
}

TEST(DecoderRecovery, ResilientCleanDecodeIsByteIdenticalToStrict) {
  const auto stream = multi_gop_stream();
  h264::Decoder strict;
  h264::Decoder resilient(h264::DecoderConfig{true, /*resilient=*/true});
  const auto a = strict.decode_annexb(stream);
  const auto b = resilient.decode_annexb(stream);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].poc, b[i].poc);
    EXPECT_EQ(a[i].frame.y.data, b[i].frame.y.data);
    EXPECT_EQ(a[i].frame.cb.data, b[i].frame.cb.data);
    EXPECT_EQ(a[i].frame.cr.data, b[i].frame.cr.data);
  }
  EXPECT_EQ(resilient.activity().nal_errors, 0u);
  EXPECT_EQ(resilient.activity().resyncs, 0u);
}
