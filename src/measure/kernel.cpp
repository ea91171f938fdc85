#include "measure/kernel.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#endif

#include "util/rng.h"

namespace clockmark::measure {

namespace {
/// Block sizing target: a block of ~4096 samples keeps the five scratch
/// walks (synthesize, noise, filter, quantise, average) inside L1/L2.
constexpr std::size_t kBlockSamplesTarget = 4096;

/// Filter lanes per replayed block: two AVX2 registers of four doubles.
/// Eight independent recurrences cover the FMA latency of the serial
/// PDN/probe chain. Default blocks are whole multiples of kLanes cycles,
/// so a block's samples split into kLanes equal segments for any spc.
constexpr std::size_t kLanes = AcquisitionKernel::kReplayLanes;

/// The per-sample constants of the fused PDN -> shunt -> probe cascade.
struct FilterTaps {
  double pdn_alpha;
  double probe_alpha;
  double r_shunt;
  double gain;
};

/// Running min/max of the post-probe voltage (range pass only).
struct VoltRange {
  double mn;
  double mx;
};

/// True when a block of `samples` samples splits into kLanes segments
/// long enough to replay as lanes.
constexpr bool laneable(std::size_t samples) noexcept {
  return samples % kLanes == 0 && samples >= 4 * kLanes;
}

#if defined(__AVX2__) && defined(__FMA__)
/// In-register 4x4 transpose: rows a..d become columns a..d.
inline void transpose4(__m256d& a, __m256d& b, __m256d& c,
                       __m256d& d) noexcept {
  const __m256d t0 = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
  const __m256d t1 = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
  const __m256d t2 = _mm256_unpacklo_pd(c, d);  // c0 d0 c2 d2
  const __m256d t3 = _mm256_unpackhi_pd(c, d);  // c1 d1 c3 d3
  a = _mm256_permute2f128_pd(t0, t2, 0x20);
  b = _mm256_permute2f128_pd(t1, t3, 0x20);
  c = _mm256_permute2f128_pd(t0, t2, 0x31);
  d = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// kLanes lanes in two registers: lanes 0-3 in [0], lanes 4-7 in [1].
/// Each op is the per-element IEEE twin of the scalar step (vfmadd for
/// std::fma, split vmul/vadd for the unfused gain + noise).
template <bool kPdn>
void filter_lanes_avx2(const FilterTaps f, double* pdn_y, double* probe_y,
                       double* wave, const double* noise,
                       std::size_t seg) noexcept {
  const __m256d va = _mm256_set1_pd(f.pdn_alpha);
  const __m256d vb = _mm256_set1_pd(f.probe_alpha);
  const __m256d vr = _mm256_set1_pd(f.r_shunt);
  const __m256d vg = _mm256_set1_pd(f.gain);
  __m256d py[2] = {_mm256_loadu_pd(pdn_y), _mm256_loadu_pd(pdn_y + 4)};
  __m256d qy[2] = {_mm256_loadu_pd(probe_y), _mm256_loadu_pd(probe_y + 4)};
  const auto step = [&](int h, __m256d x, __m256d nz) noexcept {
    if constexpr (kPdn) {
      py[h] = _mm256_fmadd_pd(va, _mm256_sub_pd(x, py[h]), py[h]);
      x = py[h];
    }
    const __m256d v = _mm256_mul_pd(x, vr);
    qy[h] = _mm256_fmadd_pd(vb, _mm256_sub_pd(v, qy[h]), qy[h]);
    return _mm256_add_pd(_mm256_mul_pd(qy[h], vg), nz);
  };
  std::size_t j = 0;
  for (; j + 4 <= seg; j += 4) {
    for (int h = 0; h < 2; ++h) {
      // Four steps of four lanes: load a 4x4 tile per operand (row =
      // lane), transpose to one register per step, transpose back.
      double* w = wave + 4 * h * seg + j;
      const double* n = noise + 4 * h * seg + j;
      __m256d x0 = _mm256_loadu_pd(w), x1 = _mm256_loadu_pd(w + seg),
              x2 = _mm256_loadu_pd(w + 2 * seg),
              x3 = _mm256_loadu_pd(w + 3 * seg);
      __m256d n0 = _mm256_loadu_pd(n), n1 = _mm256_loadu_pd(n + seg),
              n2 = _mm256_loadu_pd(n + 2 * seg),
              n3 = _mm256_loadu_pd(n + 3 * seg);
      transpose4(x0, x1, x2, x3);
      transpose4(n0, n1, n2, n3);
      x0 = step(h, x0, n0);
      x1 = step(h, x1, n1);
      x2 = step(h, x2, n2);
      x3 = step(h, x3, n3);
      transpose4(x0, x1, x2, x3);
      _mm256_storeu_pd(w, x0);
      _mm256_storeu_pd(w + seg, x1);
      _mm256_storeu_pd(w + 2 * seg, x2);
      _mm256_storeu_pd(w + 3 * seg, x3);
    }
  }
  for (; j < seg; ++j) {  // seg % 4 leftover steps, one column at a time
    for (int h = 0; h < 2; ++h) {
      double* w = wave + 4 * h * seg + j;
      const double* n = noise + 4 * h * seg + j;
      alignas(32) double out[4];
      _mm256_store_pd(
          out, step(h, _mm256_setr_pd(w[0], w[seg], w[2 * seg], w[3 * seg]),
                    _mm256_setr_pd(n[0], n[seg], n[2 * seg], n[3 * seg])));
      for (std::size_t k = 0; k < 4; ++k) w[k * seg] = out[k];
    }
  }
  _mm256_storeu_pd(pdn_y, py[0]);
  _mm256_storeu_pd(pdn_y + 4, py[1]);
  _mm256_storeu_pd(probe_y, qy[0]);
  _mm256_storeu_pd(probe_y + 4, qy[1]);
}
#endif

/// The PDN -> shunt -> probe cascade over kN independent stretches of
/// one block, stepped in lockstep. Lane k owns samples [k*seg, (k+1)*seg)
/// of `wave`, starts from pdn_y[k]/probe_y[k] and ends holding its last
/// sample's states; every sample is replaced by probe_y * gain + noise.
/// With one lane this is the serial chain. Each lane performs the serial
/// chain's exact per-sample op sequence, so a lane started from the
/// serial state at its first sample reproduces the serial trajectory bit
/// for bit. kRange (one lane) folds each output into the auto-range
/// min/max as it is produced.
template <bool kPdn, std::size_t kN, bool kRange>
void filter_lanes(const FilterTaps f, double* pdn_y, double* probe_y,
                  double* wave, const double* noise, std::size_t seg,
                  VoltRange& range) noexcept {
#if defined(__AVX2__) && defined(__FMA__)
  if constexpr (kN == kLanes && !kRange) {
    filter_lanes_avx2<kPdn>(f, pdn_y, probe_y, wave, noise, seg);
    return;
  }
#endif
  // States in locals: through the pointers gcc must assume the wave
  // stores alias them and would reload them every sample. (Element-wise
  // copies: std::copy_n lowers to a memcpy whose integer-typed scalars
  // park the states in general registers, adding two moves per step.)
  double py[kN];
  double qy[kN];
  for (std::size_t k = 0; k < kN; ++k) {
    py[k] = pdn_y[k];
    qy[k] = probe_y[k];
  }
  double mn = range.mn;
  double mx = range.mx;
  for (std::size_t j = 0; j < seg; ++j) {
    for (std::size_t k = 0; k < kN; ++k) {
      const std::size_t i = k * seg + j;
      double x = wave[i];
      if constexpr (kPdn) {
        py[k] = std::fma(f.pdn_alpha, x - py[k], py[k]);
        x = py[k];
      }
      const double v = x * f.r_shunt;
      qy[k] = std::fma(f.probe_alpha, v - qy[k], qy[k]);
      const double w = qy[k] * f.gain + noise[i];
      wave[i] = w;
      if constexpr (kRange) {
        mn = std::min(mn, w);
        mx = std::max(mx, w);
      }
    }
  }
  for (std::size_t k = 0; k < kN; ++k) {
    pdn_y[k] = py[k];
    probe_y[k] = qy[k];
  }
  range = {mn, mx};
}

/// filter_lanes with the PDN switch resolved at run time.
template <std::size_t kN, bool kRange>
void run_filter(bool use_pdn, const FilterTaps f, double* pdn_y,
                double* probe_y, double* wave, const double* noise,
                std::size_t seg, VoltRange& range) noexcept {
  if (use_pdn) {
    filter_lanes<true, kN, kRange>(f, pdn_y, probe_y, wave, noise, seg,
                                   range);
  } else {
    filter_lanes<false, kN, kRange>(f, pdn_y, probe_y, wave, noise, seg,
                                    range);
  }
}
}  // namespace

// One pass's analog chain state. The waveform expansion is per-cycle
// pure, but the PDN low-pass, the probe filter and the two noise streams
// all carry state from sample to sample — exactly the state the
// reference path threads implicitly by processing the whole waveform in
// one call. Both noise streams fork from the same base stream (and with
// the same salts) as the reference path, so the draw sequences are
// identical. Trigger-offset streams also carry the sample cursor, the
// previous digitised sample (edge fold) and the partial averaging
// window across feeds.
struct AcquisitionKernel::Pass {
  Pass(const AcquisitionConfig& config, double fs)
      : probe_filter(config.probe.bandwidth_hz, config.probe.sample_rate_hz),
        probe_rng(0, 0),
        scope_rng(0, 0) {
    if (config.enable_pdn_filter) pdn.emplace(config.pdn_cutoff_hz, fs);
    util::Pcg32 base(config.noise_seed, 0x0b5e7fa11ULL);
    probe_rng = base.fork(1);
    scope_rng = base.fork(2);
  }

  std::optional<dsp::OnePoleLowPass> pdn;
  dsp::OnePoleLowPass probe_filter;
  util::Pcg32 probe_rng;
  util::Pcg32 scope_rng;
  bool primed = false;
  std::size_t prime_samples = 0;  ///< samples the DC priming averaged

  std::size_t stream_pos = 0;  ///< samples of the (offset) stream done
  std::size_t checkpoint_cursor = 0;  ///< first checkpoint not yet passed
  std::size_t cycles_in = 0;   ///< input cycles consumed by past feeds
  double prev_sample = 0.0;    ///< last digitised sample (edge fold)
  double win_sum = 0.0;        ///< partial averaging window (align pass)
  std::size_t win_count = 0;
};

AcquisitionKernel::AcquisitionKernel(const AcquisitionConfig& config,
                                     double clock_hz)
    : config_(config), clock_hz_(clock_hz) {
  if (config_.probe.sample_rate_hz != config_.scope.sample_rate_hz) {
    throw std::invalid_argument(
        "AcquisitionKernel: probe/scope sample rates must match");
  }
  if (clock_hz_ <= 0.0) {
    throw std::invalid_argument("AcquisitionKernel: clock_hz must be > 0");
  }
  // Same front-door validation the reference path's Oscilloscope
  // constructor performs before any range decision.
  if (config_.scope.resolution_bits < 2 || config_.scope.resolution_bits > 16) {
    throw std::invalid_argument(
        "AcquisitionKernel: resolution must be 2..16 bit");
  }
  if (config_.scope.full_scale_v <= 0.0) {
    throw std::invalid_argument("AcquisitionKernel: full scale must be > 0");
  }
  template_ = power::cycle_pulse_template(config_.waveform);  // throws on spc=0

  const std::size_t spc = config_.waveform.samples_per_cycle;
  // Default blocks are whole multiples of kLanes cycles, so every full
  // block can be replayed as lanes (block size never changes a bit).
  block_cycles_ =
      config_.block_cycles > 0
          ? config_.block_cycles
          : std::max(kLanes, kBlockSamplesTarget / spc / kLanes * kLanes);
  wave_.resize(block_cycles_ * spc);
  noise_.resize(block_cycles_ * spc);

  if (config_.trigger_sim != TriggerSim::kAligned) {
    if (spc > 1) {
      if (config_.trigger_sim == TriggerSim::kRandomOffset) {
        // The same derivation the reference path uses, so both paths
        // simulate the identical capture start for a given noise seed.
        util::Pcg32 offset_rng(config_.noise_seed ^ 0x7219a9ULL, 0x0ff5e7u);
        offset_ = offset_rng.bounded(static_cast<std::uint32_t>(spc));
      } else {
        offset_ = config_.trigger_offset_samples % spc;
      }
    }
    edge_fold_.assign(spc, 0.0);
  }
}

AcquisitionKernel::~AcquisitionKernel() = default;

bool AcquisitionKernel::needs_range_pass() const noexcept {
  return config_.range_policy == RangePolicy::kAutoRange;
}

bool AcquisitionKernel::needs_trigger_pass() const noexcept {
  return config_.trigger_sim != TriggerSim::kAligned;
}

void AcquisitionKernel::prime_pdn(Pass& pass,
                                  std::span<const double> cycle_power_w) {
  const std::size_t spc = config_.waveform.samples_per_cycle;
  if (!pass.pdn || cycle_power_w.empty()) return;
  if (pass.primed) {
    if (pass.prime_samples < spc * 8) {
      throw std::invalid_argument(
          "AcquisitionKernel: first chunk must span at least 8 cycles "
          "(9 with a trigger offset) — the PDN priming window");
    }
    return;
  }
  // The reference path primes the filter with the DC level of the first
  // min(stream, 8 cycles) samples of the (possibly offset) sample
  // stream. Accumulate the synthesized samples in the exact order the
  // reference sums them — no buffer needed, the expansion is recomputed
  // per sample.
  const std::size_t chunk_samples = cycle_power_w.size() * spc - offset_;
  const std::size_t settle = std::min(chunk_samples, spc * 8);
  double dc = 0.0;
  std::size_t tpl_i = offset_;
  std::size_t cyc = 0;
  double scale = cycle_power_w[0] / config_.vdd_v * static_cast<double>(spc);
  for (std::size_t i = 0; i < settle; ++i) {
    dc += scale * template_[tpl_i];
    if (++tpl_i == spc) {
      tpl_i = 0;
      ++cyc;
      if (i + 1 < settle) {
        scale = cycle_power_w[cyc] / config_.vdd_v *
                static_cast<double>(spc);
      }
    }
  }
  pass.pdn->reset(dc / static_cast<double>(settle));
  pass.primed = true;
  pass.prime_samples = settle;
}

void AcquisitionKernel::run_pass(Pass& pass,
                                 std::span<const double> cycle_power_w,
                                 PassKind kind, std::vector<double>* y_out) {
  const std::size_t spc = config_.waveform.samples_per_cycle;
  const double spc_d = static_cast<double>(spc);
  const double vdd = config_.vdd_v;
  const double r_shunt = config_.shunt.resistance_ohm();
  const double gain = config_.probe.gain;
  const double probe_noise = config_.probe.noise_v_rms;

  // ADC grid (acquire/trigger passes; config_.scope holds the range).
  const double lsb =
      config_.scope.full_scale_v /
      static_cast<double>(1u << config_.scope.resolution_bits);
  const double half_scale = config_.scope.full_scale_v / 2.0;
  const double offset_v = config_.scope.offset_v;
  const double scope_noise = config_.scope.noise_v_rms;
  const double max_code =
      static_cast<double>((1u << config_.scope.resolution_bits) - 1u);

  prime_pdn(pass, cycle_power_w);

  // Offset streams (simulated trigger offset): the sample stream is the
  // aligned waveform minus its first `offset_` samples, so blocks are no
  // longer cycle-aligned — synthesis walks a (cycle, template) cursor
  // and the acquire pass averages phase-aligned windows instead of
  // per-input-cycle blocks.
  const bool offset_stream = needs_trigger_pass();

  const double* tpl = template_.data();
  double* wave = wave_.data();
  double* noise = noise_.data();

  // The two one-pole recurrences are the serial backbone of the pipeline
  // (everything else is an independent-per-sample array pass). Their
  // states live in locals for the block loop and PDN -> shunt -> probe
  // is fused into one loop so the two dependency chains overlap (see
  // filter_lanes). Lane 0 carries the pass's running state; lanes 1..7
  // are loaded from range-pass checkpoints when a block is replayed.
  const bool use_pdn = pass.pdn.has_value();
  const FilterTaps taps{use_pdn ? pass.pdn->alpha() : 0.0,
                        pass.probe_filter.alpha(), r_shunt, gain};
  double pdn_y[kLanes] = {use_pdn ? pass.pdn->state() : 0.0};
  double probe_y[kLanes] = {pass.probe_filter.state()};

  for (std::size_t start = 0; start < cycle_power_w.size();
       start += block_cycles_) {
    const std::size_t bc =
        std::min(block_cycles_, cycle_power_w.size() - start);
    std::size_t sc;

    // 1. Chip current at sample rate (same ops as
    //    power::expand_to_current_waveform, block-resident).
    if (!offset_stream) {
      sc = bc * spc;
      for (std::size_t c = 0; c < bc; ++c) {
        const double avg_current = cycle_power_w[start + c] / vdd;
        const double scale = avg_current * spc_d;
        double* w = wave + c * spc;
        for (std::size_t i = 0; i < spc; ++i) w[i] = scale * tpl[i];
      }
    } else {
      const std::size_t g0 = pass.cycles_in + start;  // global first cycle
      sc = (g0 + bc) * spc - offset_ - pass.stream_pos;
      const std::size_t gp = pass.stream_pos + offset_;
      std::size_t cyc = gp / spc;  // global cycle of the next sample
      std::size_t tpl_i = gp % spc;
      double scale = cycle_power_w[start + (cyc - g0)] / vdd * spc_d;
      for (std::size_t j = 0; j < sc; ++j) {
        wave[j] = scale * tpl[tpl_i];
        if (++tpl_i == spc) {
          tpl_i = 0;
          ++cyc;
          if (j + 1 < sc) {
            scale = cycle_power_w[start + (cyc - g0)] / vdd * spc_d;
          }
        }
      }
    }

    // 2.-4. PDN low-pass -> shunt voltage -> probe bandwidth + gain +
    //    batched noise, fused. The noise block is drawn up front — same
    //    stream, same order as the per-sample reference — so the serial
    //    loop carries only the filter states.
    pass.probe_rng.fill_gaussian(std::span<double>(noise, sc), 0.0,
                                 probe_noise);

    if (kind == PassKind::kRange) {
      // Range pass: accumulate the exact min/max the reference scope's
      // auto_range would see over the full waveform, folding each volts
      // value in as the filter produces it. Seeding with +/-inf is exact:
      // min(inf, w) == w for the first finite sample, so the result
      // equals the reference's first-element initialisation.
      VoltRange range{
          volts_seen_ ? volts_min_ : std::numeric_limits<double>::infinity(),
          volts_seen_ ? volts_max_
                      : -std::numeric_limits<double>::infinity()};
      if (sc > 0) volts_seen_ = true;
      // The filter trajectory does not depend on the noise (added after
      // the probe), so every later pass walks the same states. Record
      // them at the kLanes segment starts of the block, keyed by stream
      // position, for those passes to replay.
      const std::size_t lanes = laneable(sc) ? kLanes : 1;
      const std::size_t seg = sc / lanes;
      BlockCheckpoint* cp = nullptr;
      if (lanes == kLanes) {
        cp = &checkpoints_.emplace_back();
        cp->stream_pos = pass.stream_pos;
        cp->samples = sc;
      }
      for (std::size_t k = 0; k < lanes; ++k) {
        if (cp) {
          cp->pdn_y[k] = pdn_y[0];
          cp->probe_y[k] = probe_y[0];
        }
        run_filter<1, true>(use_pdn, taps, pdn_y, probe_y, wave + k * seg,
                            noise + k * seg, seg, range);
      }
      volts_min_ = range.mn;
      volts_max_ = range.mx;
      pass.stream_pos += sc;
      continue;
    }

    VoltRange unused{0.0, 0.0};
    const BlockCheckpoint* cp = find_checkpoint(pass, sc);
    // A record whose first state is not this pass's running state lies
    // on another trajectory; such a block walks serially.
    if (cp && cp->pdn_y[0] == pdn_y[0] && cp->probe_y[0] == probe_y[0]) {
      std::copy_n(cp->pdn_y, kLanes, pdn_y);
      std::copy_n(cp->probe_y, kLanes, probe_y);
      run_filter<kLanes, false>(use_pdn, taps, pdn_y, probe_y, wave, noise,
                                sc / kLanes, unused);
      // The last lane ends where the serial chain would: at the block end.
      pdn_y[0] = pdn_y[kLanes - 1];
      probe_y[0] = probe_y[kLanes - 1];
      ++replayed_blocks_;
    } else {
      run_filter<1, false>(use_pdn, taps, pdn_y, probe_y, wave, noise, sc,
                           unused);
    }

    // 5. Oscilloscope: batched front-end noise, clip, quantise,
    //    reconstruct. All in the double domain so the loop vectorizes:
    //    the code values are small integers, for which floor/clamp on
    //    doubles is bit-identical to the reference's long round-trip.
    pass.scope_rng.fill_gaussian(std::span<double>(noise, sc), 0.0,
                                 scope_noise);
    for (std::size_t j = 0; j < sc; ++j) {
      const double noisy = wave[j] + noise[j] - offset_v;
      const double clipped =
          std::clamp(noisy, -half_scale, half_scale - lsb);
      double code = std::floor((clipped + half_scale) / lsb);
      code = std::clamp(code, 0.0, max_code);
      wave[j] = (code + 0.5) * lsb - half_scale + offset_v;
    }

    if (kind == PassKind::kTrigger) {
      // Fold the positive first-differences of the digitised stream
      // modulo spc — the exact estimate_trigger_phase accumulation, in
      // the same sample order (the fold bins are written in increasing
      // stream index, so the FP sums match the batch fold bit for bit).
      for (std::size_t j = 0; j < sc; ++j) {
        const std::size_t i = pass.stream_pos + j;
        const double v = wave[j];
        if (i > 0) {
          const double d = v - pass.prev_sample;
          if (d > 0.0) edge_fold_[i % spc] += d;
        }
        pass.prev_sample = v;
      }
    } else if (!offset_stream) {
      // 6. Back to chip power, averaged per clock cycle (Y vector). The
      //    running sum crosses block boundaries in cycle order, so the
      //    mean matches the reference's single accumulation chain.
      for (std::size_t c = 0; c < bc; ++c) {
        const double* w = wave + c * spc;
        double s = 0.0;
        for (std::size_t i = 0; i < spc; ++i) s += w[i];
        const double averaged = s / spc_d;
        const double current_a = (averaged / gain) / r_shunt;
        const double y = current_a * vdd;
        y_out->push_back(y);
        sum_power_w_ += y;
      }
      cycles_out_ += bc;
    } else {
      // 6'. Trigger-offset acquire: drop the first `phase_` samples
      //    (align_to_trigger) and average consecutive spc-sample
      //    windows (block_average), the partial window carried across
      //    feeds; a trailing partial window is never emitted — exactly
      //    the reference's trailing-drop semantics.
      for (std::size_t j = 0; j < sc; ++j) {
        const std::size_t i = pass.stream_pos + j;
        if (i < phase_) continue;
        pass.win_sum += wave[j];
        if (++pass.win_count == spc) {
          const double averaged = pass.win_sum / spc_d;
          const double current_a = (averaged / gain) / r_shunt;
          const double y = current_a * vdd;
          y_out->push_back(y);
          sum_power_w_ += y;
          ++cycles_out_;
          pass.win_sum = 0.0;
          pass.win_count = 0;
        }
      }
    }
    pass.stream_pos += sc;
  }
  pass.cycles_in += cycle_power_w.size();

  // Hand the register-resident recurrence states back to the pass so the
  // next feed resumes exactly where this one stopped.
  if (use_pdn) pass.pdn->reset(pdn_y[0]);
  pass.probe_filter.reset(probe_y[0]);
}

const AcquisitionKernel::BlockCheckpoint* AcquisitionKernel::find_checkpoint(
    Pass& pass, std::size_t samples) const noexcept {
  // Both the store and every pass walk the stream forwards, so one
  // cursor per pass finds each block's record in amortised O(1).
  std::size_t& c = pass.checkpoint_cursor;
  while (c < checkpoints_.size() &&
         checkpoints_[c].stream_pos < pass.stream_pos) {
    ++c;
  }
  if (c < checkpoints_.size() &&
      checkpoints_[c].stream_pos == pass.stream_pos &&
      checkpoints_[c].samples == samples) {
    return &checkpoints_[c];
  }
  return nullptr;
}

void AcquisitionKernel::range_feed(std::span<const double> cycle_power_w) {
  if (range_fixed_) {
    throw std::logic_error("AcquisitionKernel: range already fixed");
  }
  if (!range_pass_) {
    range_pass_ = std::make_unique<Pass>(
        config_, clock_hz_ * static_cast<double>(
                                 config_.waveform.samples_per_cycle));
  }
  run_pass(*range_pass_, cycle_power_w, PassKind::kRange, nullptr);
}

void AcquisitionKernel::fix_range() {
  if (range_fixed_) return;
  // Same arithmetic as Oscilloscope::auto_range over the full waveform —
  // the chunk-wise min/max is exact, so the chosen range is identical.
  if (volts_seen_) {
    const double span = std::max(volts_max_ - volts_min_, 1e-9);
    config_.scope.offset_v = (volts_max_ + volts_min_) / 2.0;
    config_.scope.full_scale_v = span / 0.8;
  }
  range_fixed_ = true;
  range_pass_.reset();  // the acquire pass re-creates the analog chain
}

void AcquisitionKernel::trigger_feed(std::span<const double> cycle_power_w) {
  if (!needs_trigger_pass()) {
    throw std::logic_error(
        "AcquisitionKernel: no trigger pass configured (trigger_sim is "
        "kAligned)");
  }
  if (trigger_fixed_) {
    throw std::logic_error("AcquisitionKernel: trigger already fixed");
  }
  if (needs_range_pass() && !range_fixed_) {
    throw std::logic_error(
        "AcquisitionKernel: fix the range before the trigger pass (the "
        "edge fold runs on the digitised stream)");
  }
  if (!trigger_pass_) {
    trigger_pass_ = std::make_unique<Pass>(
        config_, clock_hz_ * static_cast<double>(
                                 config_.waveform.samples_per_cycle));
  }
  run_pass(*trigger_pass_, cycle_power_w, PassKind::kTrigger, nullptr);
}

void AcquisitionKernel::fix_trigger() {
  if (trigger_fixed_) return;
  trigger_fixed_ = true;
  if (!needs_trigger_pass()) return;
  // Same decision rule as estimate_trigger_phase: streams shorter than
  // two cycles are assumed aligned; otherwise the phase is the bin with
  // the largest folded rising-edge energy (first maximum wins).
  const std::size_t spc = config_.waveform.samples_per_cycle;
  const std::size_t stream_len =
      trigger_pass_ ? trigger_pass_->stream_pos : 0;
  phase_ = 0;
  if (stream_len >= 2 * spc) {
    for (std::size_t p = 1; p < spc; ++p) {
      if (edge_fold_[p] > edge_fold_[phase_]) phase_ = p;
    }
  }
  trigger_pass_.reset();  // the acquire pass re-creates the analog chain
}

void AcquisitionKernel::acquire_feed(std::span<const double> cycle_power_w,
                                     std::vector<double>& y_out) {
  if (needs_range_pass() && !range_fixed_) {
    throw std::logic_error(
        "AcquisitionKernel: run the range pass (range_feed + fix_range) "
        "before acquiring");
  }
  if (needs_trigger_pass() && !trigger_fixed_) {
    throw std::logic_error(
        "AcquisitionKernel: run the trigger pass (trigger_feed + "
        "fix_trigger) before acquiring");
  }
  if (!acquire_pass_) {
    acquire_pass_ = std::make_unique<Pass>(
        config_, clock_hz_ * static_cast<double>(
                                 config_.waveform.samples_per_cycle));
  }
  y_out.reserve(y_out.size() + cycle_power_w.size());
  run_pass(*acquire_pass_, cycle_power_w, PassKind::kAcquire, &y_out);
}

AcquisitionKernel::Summary AcquisitionKernel::summary() const {
  Summary s;
  s.cycles = cycles_out_;
  s.mean_power_w =
      cycles_out_ > 0 ? sum_power_w_ / static_cast<double>(cycles_out_)
                      : 0.0;
  const double lsb_v =
      config_.scope.full_scale_v /
      static_cast<double>(1u << config_.scope.resolution_bits);
  s.lsb_power_w = lsb_v / config_.shunt.resistance_ohm() /
                  config_.probe.gain * config_.vdd_v;
  return s;
}

}  // namespace clockmark::measure
