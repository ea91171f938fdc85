// Fused, block-processed acquisition kernel — the performance core of the
// Fig. 4(b) test-bench model. The original pipeline materialises the full
// sample-rate waveform (50 doubles per cycle, the dominant allocation and
// memory traffic of a repetition) and walks it once per analog stage with
// one scalar Gaussian call per sample. This kernel processes fixed-size
// whole-cycle blocks that stay L1/L2-resident: per block it synthesizes
// the sub-cycle waveform, pulls probe/scope noise from the batched
// generator (util::Pcg32::fill_gaussian), runs the PDN + probe one-pole
// cascade, quantises, and accumulates straight into the per-cycle Y
// averages — the full sample-rate vector is never materialised.
//
// Exactness contract (asserted in tests/test_measure_kernel.cpp):
//  - synthesis, noise generation and quantisation perform the exact
//    per-element op sequence of the reference path
//    (AcquisitionChain::acquire_reference), so those stages — and with
//    the shared inline filter step, the whole pipeline — are
//    bit-identical to the reference;
//  - block boundaries only decide where loops pause, never the FP
//    evaluation order, so results are independent of the block length;
//  - checkpoint replay is exact: the PDN and probe recurrences see only
//    the synthesized waveform (the probe noise is added after the probe
//    filter), so every pass walks the same filter trajectory. The range
//    pass records the (pdn, probe) state at kReplayLanes segment starts
//    per block, keyed by stream position (O(blocks) doubles, nothing
//    per sample). The trigger and acquire passes restart each matching
//    block's segments from those states and step them as independent
//    SIMD lanes, each with the serial chain's per-sample op sequence,
//    so the replayed trajectory is the serial one bit for bit. A block
//    with no matching record (fixed range, a different chunking, a
//    partial tail, a record whose first state is not the pass's own)
//    runs the same routine with one lane: the serial chain;
//  - detection decisions (peak rotation, presence verdict) on the chip
//    I/II presets are identical to the reference path.
//
// Auto-range keeps the streaming chain's two-pass shape: the scope range
// depends on the whole waveform's min/max, so the caller runs a range
// pass (range_feed + fix_range) and then the acquire pass, both seeded
// identically. That mirrors what StreamingAcquisitionChain always did —
// the kernel is now the single implementation behind both the batch and
// the streaming front-ends.
//
// Trigger-offset captures (config.trigger_sim != kAligned) add a third
// pass between range and acquire: the capture starts mid-cycle (the
// synthesis cursor simply skips the first `offset` sub-cycle samples, so
// nothing is materialised-and-erased), and the cycle boundary must be
// recovered from the digitised waveform itself. The trigger pass
// (trigger_feed + fix_trigger) replays the acquire-pass sample stream to
// fold rising-edge energy modulo samples_per_cycle — the exact
// estimate_trigger_phase computation — and the acquire pass then drops
// `phase` leading samples and averages spc-sample windows, reproducing
// auto_align + block_average of the reference path bit for bit.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "measure/acquisition.h"

namespace clockmark::measure {

class AcquisitionKernel {
 public:
  /// `clock_hz` is the chip clock of the incoming per-cycle trace. All
  /// remaining knobs (block length, range policy, trigger simulation)
  /// live in the AcquisitionConfig aggregate.
  AcquisitionKernel(const AcquisitionConfig& config, double clock_hz);
  ~AcquisitionKernel();

  AcquisitionKernel(const AcquisitionKernel&) = delete;
  AcquisitionKernel& operator=(const AcquisitionKernel&) = delete;

  /// True when the scope range must be learned from a first full pass
  /// (config.range_policy == kAutoRange); otherwise acquire_feed may be
  /// called directly.
  bool needs_range_pass() const noexcept;

  /// True when the capture is misaligned (config.trigger_sim !=
  /// kAligned) and the trigger pass must run before acquiring.
  bool needs_trigger_pass() const noexcept;

  /// Range pass: feed every whole-cycle chunk in order, then fix_range().
  void range_feed(std::span<const double> cycle_power_w);
  void fix_range();

  /// Trigger pass (trigger_sim != kAligned only): feed the same chunks
  /// in the same order, after the range is fixed, then fix_trigger().
  void trigger_feed(std::span<const double> cycle_power_w);
  void fix_trigger();

  /// Acquire pass: feed the same chunks in the same order. Appends this
  /// chunk's per-cycle Y values to `y_out` — one per input cycle when
  /// aligned; with a simulated trigger offset the pipeline loses up to
  /// one cycle at the front (alignment) and one at the back (partial
  /// window), so slightly fewer values than input cycles emerge overall.
  void acquire_feed(std::span<const double> cycle_power_w,
                    std::vector<double>& y_out);

  struct Summary {
    std::size_t cycles = 0;     ///< Y values produced so far
    double mean_power_w = 0.0;  ///< running mean of Y
    double lsb_power_w = 0.0;   ///< one ADC code as chip power
  };
  /// Valid after the last acquire_feed; matches the batch Acquisition
  /// metadata bit for bit.
  Summary summary() const;

  const AcquisitionConfig& config() const noexcept { return config_; }
  std::size_t block_cycles() const noexcept { return block_cycles_; }
  /// Simulated capture-start offset in samples (0 when aligned).
  std::size_t trigger_offset() const noexcept { return offset_; }
  /// Recovered edge-trigger phase; valid after fix_trigger().
  std::size_t trigger_phase() const noexcept { return phase_; }

  /// Filter lanes a replayed block splits into. The default block length
  /// is a multiple of this many cycles.
  static constexpr std::size_t kReplayLanes = 8;
  /// Blocks the trigger and acquire passes have replayed as lanes from
  /// range-pass checkpoints (the rest ran the one-lane serial chain).
  std::size_t replayed_blocks() const noexcept { return replayed_blocks_; }
  /// Memory held by the range pass's filter checkpoints.
  std::size_t checkpoint_bytes() const noexcept {
    return checkpoints_.capacity() * sizeof(BlockCheckpoint);
  }

 private:
  struct Pass;  // per-pass analog state (filters + noise streams)
  enum class PassKind { kRange, kTrigger, kAcquire };

  /// Filter states at the kReplayLanes segment starts of one range-pass
  /// block: lane k starts at stream_pos + k * samples / kReplayLanes.
  struct BlockCheckpoint {
    std::size_t stream_pos;
    std::size_t samples;
    double pdn_y[kReplayLanes];
    double probe_y[kReplayLanes];
  };

  void run_pass(Pass& pass, std::span<const double> cycle_power_w,
                PassKind kind, std::vector<double>* y_out);
  void prime_pdn(Pass& pass, std::span<const double> cycle_power_w);
  /// The record of the block starting at pass.stream_pos with `samples`
  /// samples, or nullptr.
  const BlockCheckpoint* find_checkpoint(Pass& pass,
                                         std::size_t samples) const noexcept;

  AcquisitionConfig config_;
  double clock_hz_;
  std::size_t block_cycles_;
  std::vector<double> template_;  ///< per-cycle pulse template (sums to 1)

  std::unique_ptr<Pass> range_pass_;
  std::unique_ptr<Pass> trigger_pass_;
  std::unique_ptr<Pass> acquire_pass_;
  bool range_fixed_ = false;
  bool trigger_fixed_ = false;
  double volts_min_ = 0.0;
  double volts_max_ = 0.0;
  bool volts_seen_ = false;
  std::size_t offset_ = 0;  ///< capture-start offset (samples)
  std::size_t phase_ = 0;   ///< recovered trigger phase (samples)
  std::vector<double> edge_fold_;  ///< edge energy folded modulo spc
  double sum_power_w_ = 0.0;
  std::size_t cycles_out_ = 0;
  std::vector<BlockCheckpoint> checkpoints_;  ///< range pass, by position
  std::size_t replayed_blocks_ = 0;

  // Block-resident scratch, reused across feeds (no per-block allocation).
  std::vector<double> wave_;   ///< synthesized current, one block
  std::vector<double> noise_;  ///< batched Gaussian draws, one block
};

}  // namespace clockmark::measure
