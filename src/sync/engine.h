// Candidate-batched sync scoring: one blind search (sync/search.h)
// scores ~140 candidate warps against the same trace and pattern. A
// CandidateEngine is the warp step in front of the pattern-bound sweep
// core, cpa::SpectrumEngine (cpa/spectrum_engine.h), which holds the
// plan, the pattern spectra and the per-length sx / sxx memo — a
// handful of warped lengths recur across the whole search. The warped
// trace and rho sweep live in per-thread arenas, so the steady-state
// probe allocates nothing.
//
// Bit-exactness contract: score() returns exactly what sync_score
// returns for the same (trace, spec, guard) — asserted by tests. The
// warp replays warp_trace's operation sequence and the core's sweep is
// rotation_correlation_fft's bits.
//
// Thread-safety: score()/score_batch() are const and race-free; the
// core is shared by every detector built on this engine (stream/
// online_detector.h), whose streamed checkpoints never touch the memo.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "cpa/spectrum_engine.h"
#include "sync/types.h"

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::sync {

class CandidateEngine {
 public:
  /// Binds the watermark pattern (one period of the 0/1 model vector)
  /// and builds its sweep core. Throws on an empty pattern.
  explicit CandidateEngine(std::vector<double> pattern);

  const std::vector<double>& pattern() const noexcept {
    return spectrum_->pattern();
  }
  /// The sweep core, shareable with streamed detectors on this pattern.
  const std::shared_ptr<const cpa::SpectrumEngine>& spectrum() const noexcept {
    return spectrum_;
  }

  /// One probe: warps the trace by `spec`, folds, sweeps, and returns
  /// the peak z-score — bit-identical to sync_score(y, pattern(), spec,
  /// guard). Warped traces shorter than one period score 0.0.
  double score(std::span<const double> y, const WarpSpec& spec,
               std::size_t guard) const;

  /// Scores a batch of candidates, optionally fanned out over the
  /// executor. Scores are independent per candidate, so parallel runs
  /// are bit-identical to serial ones.
  std::vector<double> score_batch(std::span<const double> y,
                                  const std::vector<WarpSpec>& specs,
                                  std::size_t guard,
                                  runtime::Executor* executor) const;

 private:
  std::shared_ptr<const cpa::SpectrumEngine> spectrum_;
};

}  // namespace clockmark::sync
