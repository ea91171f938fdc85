// The pattern-bound CPA sweep core: every FFT-form rotation sweep
// against one watermark pattern — batch repetitions, blind-sync
// candidate scores and streamed checkpoints — runs through one
// SpectrumEngine.
//
// Most of an FFT-path sweep does not depend on the trace:
//   * the FFT plan registry lookup (mutex + hash per transform),
//   * the forward FFTs of the pattern and of the squared pattern (the
//     fb sides of the sxy / sxx circular correlations),
//   * the sx / sxx correlations, which depend only on the fold's counts
//     — n/P + (p < n mod P) for a fold built from phase 0, so a
//     function of the trace *length* alone.
// The engine holds the plan and both pattern spectra for its life.
// sx and sxx come from one derivation: one forward FFT of the counts
// multiplied against the two cached spectra, then two inverse FFTs.
// The trace side is one forward + one inverse FFT of the fold sums.
//
// Length memo: lengths recur in batch sweeps (every repetition of a
// study has the same n) and in candidate scoring (a handful of warped
// lengths across ~140 candidates), so sweep() and sweep_into() keep sx
// / sxx per length behind a mutex — 2 transforms per sweep once warm.
// sweep_from_fold() serves streamed checkpoints, which see a new n
// every time (n = chunk·k); it derives sx / sxx afresh (5 transforms)
// and retains nothing, so a stream never grows the memo.
//
// Bit-exactness contract: the cached spectra and per-sweep transforms
// are the very planned-transform arithmetic circular_cross_correlation
// runs inline (deterministic, so computing the pattern side once is
// unobservable), and the assembly is dsp's shared routine. Hence
//   * sweep(y, guard) == compute_spread_spectrum(y, pattern(), kFft,
//     guard), validation errors included;
//   * sweep_from_fold(fold) == dsp::rotation_correlation_fft_from_fold(
//     fold, pattern()), for any fold;
// asserted by tests/test_sim_batch.cpp, tests/test_sweep_core.cpp and
// the sync / stream suites that reach the core through their engines.
// Patterns beyond the plan registry's cap (period >
// dsp::kMaxPlannedFftSize) fall back to the planless
// rotation_correlation_fft_from_fold, again bit-identical.
//
// Thread-safety: every member is const and race-free — the memo sits
// behind a mutex (values are immutable once built; a duplicate build
// under contention produces identical bits), scratch lives in
// thread_local arenas, and the FFT plan is immutable.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "cpa/spread_spectrum.h"
#include "dsp/correlate.h"
#include "dsp/fft.h"

namespace clockmark::dsp {
class FftPlan;
}

namespace clockmark::cpa {

class SpectrumEngine {
 public:
  /// Binds the watermark pattern (one period of the 0/1 model vector)
  /// and precomputes its transform tables. Throws on an empty pattern.
  explicit SpectrumEngine(std::vector<double> pattern);

  const std::vector<double>& pattern() const noexcept { return pattern_; }

  /// One repetition's sweep + summary, bit-identical to
  /// compute_spread_spectrum(y, pattern(), CorrelationMethod::kFft,
  /// guard) including its input validation. Memoises sx / sxx for
  /// y.size().
  SpreadSpectrum sweep(std::span<const double> y, std::size_t guard) const;

  /// Folds `y` from phase 0 and writes rho for every rotation into
  /// `rho` (size pattern().size()), memoising sx / sxx for y.size().
  /// Throws when y is shorter than one period.
  void sweep_into(std::span<const double> y, std::span<double> rho) const;

  /// rho for every rotation from an accumulated fold, bit-identical to
  /// dsp::rotation_correlation_fft_from_fold(fold, pattern()) including
  /// its validation. Nothing is memoised (see header).
  std::vector<double> sweep_from_fold(const dsp::PhaseFold& fold) const;

  /// Number of lengths in the memo (for tests).
  std::size_t memoised_lengths() const;

 private:
  /// The rotation-sweep inputs that depend only on the fold's counts.
  struct LengthStats {
    std::vector<double> sx;
    std::vector<double> sxx;
  };
  /// sx / sxx for `counts` (3 transforms; plan_ must be non-null).
  void derive_length_stats(std::span<const std::size_t> counts,
                           std::vector<double>& sx,
                           std::vector<double>& sxx) const;
  /// The memo entry for fold.n, derived from fold.counts on a miss.
  std::shared_ptr<const LengthStats> memo_length_stats(
      const dsp::PhaseFold& fold) const;
  void from_fold(const dsp::PhaseFold& fold, std::span<double> rho,
                 bool memoize) const;

  std::vector<double> pattern_;
  /// Plan for the period-length transforms; nullptr when the period
  /// exceeds the registry cap (every sweep then runs the planless path).
  std::shared_ptr<const dsp::FftPlan> plan_;
  std::vector<dsp::cplx> fft_pattern_;     ///< forward FFT of the pattern
  std::vector<dsp::cplx> fft_pattern_sq_;  ///< ... and of its square

  mutable std::mutex mu_;
  mutable std::unordered_map<std::size_t,
                             std::shared_ptr<const LengthStats>>
      memo_;
};

}  // namespace clockmark::cpa
