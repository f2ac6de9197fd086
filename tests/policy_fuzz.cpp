#include "policy_fuzz.hpp"

#include "h264/decoder.hpp"
#include "net/transport.hpp"
#include "simulcast/selector.hpp"

namespace affectsys::conf {

namespace {

/// splitmix64 — the same generator FaultPlan uses, but its own stream:
/// context storms must not perturb the fault schedule.
std::uint64_t splitmix64(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t draw(std::uint64_t& s, std::uint64_t n) {
  return n == 0 ? 0 : splitmix64(s) % n;
}

}  // namespace

simulcast::SwitchPolicy random_switch_policy(std::uint64_t seed,
                                             std::size_t layers) {
  std::uint64_t s = seed ^ 0xc0fefe11d00dull;
  simulcast::SwitchPolicy p;
  // Quantization thresholds drawn too: a 0-ish lossy threshold makes
  // "lossy" fire on almost any loss, 0.2 makes it nearly dead — both
  // shapes must keep the invariants.
  const double lossy_choices[] = {0.0, 0.01, 0.05, 0.2};
  const double power_choices[] = {0.0, 0.25, 0.9};
  p.thresholds.lossy = lossy_choices[draw(s, 4)];
  p.thresholds.battery_low = power_choices[draw(s, 3)];
  p.thresholds.thermal_low = power_choices[draw(s, 3)];
  // 0 = degenerate default-target-only table, 1 = single row; both are
  // a third of the space so the edge shapes stay well covered.
  const std::uint64_t shape = draw(s, 3);
  const std::size_t n_rules =
      shape == 0 ? 0 : shape == 1 ? 1 : 2 + draw(s, 5);
  p.rules.reserve(n_rules);
  for (std::size_t i = 0; i < n_rules; ++i) {
    simulcast::SwitchRule r;
    r.mode = draw(s, 2) ? -1 : static_cast<int>(draw(s, 4));
    r.min_pressure = static_cast<int>(draw(s, 4));
    r.lossy = static_cast<int>(draw(s, 3)) - 1;
    r.low_power = static_cast<int>(draw(s, 3)) - 1;
    r.speaker_role = static_cast<int>(draw(s, 4)) - 1;
    // target may overshoot the ladder by up to 2: target_layer clamps,
    // and the no-rung-outside-the-ladder invariant is asserted from the
    // trace, not trusted from the table.
    r.target = draw(s, layers + 2);
    p.rules.push_back(r);
  }
  p.default_target = draw(s, layers + 2);
  return p;
}

PolicyFuzzResult run_policy_fuzz(const simulcast::SimulcastClip& clip,
                                 const simulcast::SwitchPolicy& policy,
                                 const PolicyFuzzConfig& cfg) {
  PolicyFuzzResult res;
  const std::size_t n = clip.layer_count();
  if (n == 0 || clip.pictures() == 0) return res;

  fault::FaultPlan plan(
      fault::FaultConfig{cfg.fault.seed, cfg.fault.rate,
                         cfg.fault.kinds & fault::kNetKinds});
  fault::FaultCounts counts;
  net::TransportConfig tc;
  tc.enabled = true;
  tc.layers = static_cast<std::uint8_t>(n);
  tc.packetizer.mtu = 96;
  tc.jitter.depth_ticks = 2;
  tc.channel.max_delay_ticks = 3;
  tc.fec.enabled = true;
  tc.fec.group = 4;
  net::TransportLink link(tc, &plan, &counts);

  h264::Decoder dec(h264::DecoderConfig{/*enable_deblock=*/true,
                                        /*resilient=*/true});
  simulcast::LayerSelector sel(n, n - 1);
  std::uint64_t ctx_rng = cfg.seed ^ 0x5eed5eed5eed5eedull;

  std::uint32_t send_gen = 0;
  std::uint32_t send_au = 0;
  std::size_t cur_layer = 0;
  bool layer_valid = false;
  std::uint8_t rx_layer = 0;
  std::uint32_t rx_gen = 0;
  bool rx_valid = false;
  std::uint64_t storm_in = 0;  ///< pictures until the next context draw

  std::vector<h264::NalUnit> au;

  const auto decode_one = [&](const h264::NalUnit& u) {
    if (auto pic = dec.decode_nal(u)) {
      res.decode_digest = h264::frame_digest(res.decode_digest, pic->frame);
      dec.recycle(std::move(pic->frame));
      ++res.frames_decoded;
    }
  };

  const auto receive_at = [&](std::uint64_t now) {
    for (const net::DepacketizerEvent& ev : link.receive(now)) {
      if (ev.loss) {
        // Same lane discipline as the serve receiver: losses on a lane
        // we are not tuned to are not resync cues.
        if (!rx_valid || ev.nal.layer != rx_layer) continue;
        dec.notify_loss();
        ++res.nals_lost;
        continue;
      }
      const h264::NalUnit& nal = ev.nal.nal;
      if (!rx_valid || ev.nal.layer != rx_layer) {
        const bool entry = nal.type == h264::NalType::kSps ||
                           nal.type == h264::NalType::kSliceIdr;
        if (!entry) continue;
        rx_layer = ev.nal.layer;
        rx_gen = ev.nal.generation;
        rx_valid = true;
        dec.reset(h264::DecoderConfig{true, /*resilient=*/true});
      } else if (ev.nal.generation != rx_gen) {
        rx_gen = ev.nal.generation;
        dec.reset(h264::DecoderConfig{true, /*resilient=*/true});
      }
      decode_one(nal);
    }
  };

  for (std::uint64_t pic = 0; pic < cfg.pictures; ++pic) {
    // Context storm: every 1-4 pictures a fresh random context — mode,
    // pressure, loss quantile, power, speaker role — hits the table and
    // retargets the selector mid-GOP, which is exactly the request
    // cadence a degrade storm plus rapid dominance flips produces.
    if (storm_in == 0) {
      simulcast::ContextVector ctx;
      ctx.pressure = static_cast<int>(draw(ctx_rng, 4));
      ctx.loss_rate = static_cast<double>(draw(ctx_rng, 100)) / 400.0;
      ctx.battery = static_cast<double>(draw(ctx_rng, 100)) / 99.0;
      ctx.thermal_headroom = static_cast<double>(draw(ctx_rng, 100)) / 99.0;
      ctx.speaker_role = static_cast<int>(draw(ctx_rng, 3));
      const auto mode = static_cast<adaptive::DecoderMode>(draw(ctx_rng, 4));
      sel.request(policy.target_layer(mode, ctx, n));
      storm_in = 1 + draw(ctx_rng, 4);
    }
    --storm_in;

    const std::size_t pic_in_clip = pic % clip.pictures();
    if (pic != 0 && pic_in_clip == 0) {
      ++send_gen;
      send_au = 0;
      layer_valid = false;  // clip wrap rejoins, like the serve path
    }
    const bool idr = clip.idr_at(pic_in_clip);
    const std::size_t layer = sel.on_picture(idr);
    au.clear();
    if (!layer_valid || layer != cur_layer) {
      cur_layer = layer;
      layer_valid = true;
      res.layer_trace.emplace_back(pic, static_cast<std::uint8_t>(layer));
      for (const h264::NalUnit& p : clip.layer(layer).params) {
        au.push_back(p);
      }
    }
    au.push_back(clip.layer(layer).slices[pic_in_clip]);
    link.send(au, send_au, send_gen, pic, static_cast<std::uint8_t>(layer));
    ++send_au;
    ++res.pictures_walked;
    receive_at(pic);
  }
  // Drain: jitter depth + channel delay bound how long anything can
  // stay in flight; a fixed margin keeps the drain deterministic.
  for (std::uint64_t t = cfg.pictures; t < cfg.pictures + 16; ++t) {
    receive_at(t);
  }

  const simulcast::LayerSelectorStats& st = sel.stats();
  res.switches_completed = st.switches_completed;
  res.max_wait_pictures = st.max_wait_pictures;
  res.packets_lost = link.stats().packets_lost;
  res.faults_injected = counts.total;
  return res;
}

}  // namespace affectsys::conf
