// Chunked (bounded-memory) variant of the acquisition pipeline. The
// batch AcquisitionChain expands the whole trace to a sample-rate
// waveform — 50 doubles per cycle, the dominant allocation of a
// repetition — before filtering and digitising it. This chain processes
// one whole-cycle chunk at a time and carries the analog state (PDN and
// probe filter registers, probe/scope RNG streams, ADC range) across
// chunks, so memory stays O(chunk * samples_per_cycle).
//
// Exactness contract: feeding the same per-cycle power trace chunk by
// chunk, in order, produces per-cycle Y values bit-identical to
// AcquisitionChain::measure on the whole trace. Every filter, RNG and
// quantiser consumes its samples in the same order; chunk boundaries
// only decide where the loops pause (asserted in tests).
//
// Two passes, mirroring the operator's workflow: the scope's vertical
// range depends on the full waveform (auto_range takes its min/max), so
// under RangePolicy::kAutoRange the caller streams the trace once through
// the range pass, then again through the acquire pass. Both passes seed
// their analog chains identically, so the acquire pass sees the exact
// waveform the range was chosen from. This trades a second synthesis
// and noise walk for O(N) less memory — the streaming bargain. The
// second pass does not repeat the serial filter walk, though: the
// kernel replays the range pass's filter checkpoints (a few states per
// block, nothing per sample) as SIMD lanes, so only the throughput-bound
// stages are paid twice.
//
// Since the fused-kernel refactor this class is a thin front-end over
// measure::AcquisitionKernel, which implements the chunked multi-pass
// pipeline for both the batch and the streaming entry points (see
// kernel.h for the exactness contract). Trigger-offset captures
// (config.trigger_sim != kAligned) stream a third pass — range, then
// trigger, then acquire — because the edge-trigger phase, like the scope
// range, is a whole-waveform statistic.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "measure/acquisition.h"
#include "measure/kernel.h"

namespace clockmark::measure {

class StreamingAcquisitionChain {
 public:
  /// `clock_hz` is the chip clock of the incoming per-cycle trace (the
  /// batch chain reads it from the PowerTrace).
  StreamingAcquisitionChain(const AcquisitionConfig& config, double clock_hz);

  /// True when the scope range must be learned from a first full pass
  /// (config.range_policy == kAutoRange); otherwise acquire_feed may be
  /// called directly.
  bool needs_range_pass() const noexcept;

  /// Range pass: feed every chunk in order, then fix_range().
  void range_feed(std::span<const double> cycle_power_w);
  void fix_range();

  /// True when a trigger pass must stream the trace between the range
  /// and acquire passes (config.trigger_sim != kAligned).
  bool needs_trigger_pass() const noexcept;

  /// Trigger pass: feed the same chunks in the same order, after
  /// fix_range(), then fix_trigger().
  void trigger_feed(std::span<const double> cycle_power_w);
  void fix_trigger();

  /// Acquire pass: feed the same chunks in the same order. Returns this
  /// chunk's per-cycle Y values (chunk length preserved when aligned;
  /// a simulated trigger offset loses up to one cycle at the front and
  /// one at the back of the whole stream).
  std::vector<double> acquire_feed(std::span<const double> cycle_power_w);

  struct Summary {
    std::size_t cycles = 0;     ///< Y values produced so far
    double mean_power_w = 0.0;  ///< running mean of Y
    double lsb_power_w = 0.0;   ///< one ADC code as chip power
  };
  /// Valid after the last acquire_feed; matches the batch Acquisition
  /// metadata bit for bit.
  Summary summary() const;

  const AcquisitionConfig& config() const noexcept {
    return kernel_.config();
  }

 private:
  AcquisitionKernel kernel_;
};

}  // namespace clockmark::measure
