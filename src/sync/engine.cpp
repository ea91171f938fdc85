#include "sync/engine.h"

#include <complex>
#include <stdexcept>
#include <utility>

#include "cpa/spread_spectrum.h"
#include "dsp/correlate.h"
#include "dsp/fft_plan.h"
#include "runtime/executor.h"
#include "sync/warp.h"

namespace clockmark::sync {
namespace {

/// Per-thread scratch for the scoring loop. Buffers grow to the largest
/// trace scored on the thread and are reused across probes (and across
/// engines — every field is re-sized or re-assigned per probe).
struct ScoreArena {
  std::vector<double> warped;
  dsp::PhaseFold fold;
  std::vector<double> sxy;
  std::vector<double> rho;
};

ScoreArena& arena() {
  thread_local ScoreArena a;
  return a;
}

/// Resets a fold for reuse; after this, fold_extend over the warped
/// trace is bit-identical to fold_by_phase on a fresh fold.
void reset_fold(dsp::PhaseFold& fold, std::size_t period) {
  fold.sums.assign(period, 0.0);
  fold.counts.assign(period, 0);
  fold.total = 0.0;
  fold.total_sq = 0.0;
  fold.n = 0;
}

}  // namespace

CandidateEngine::CandidateEngine(std::vector<double> pattern)
    : pattern_(std::move(pattern)) {
  if (pattern_.empty()) {
    throw std::invalid_argument("CandidateEngine: empty pattern");
  }
  const std::size_t period = pattern_.size();
  pattern_sq_.resize(period);
  for (std::size_t p = 0; p < period; ++p) {
    pattern_sq_[p] = pattern_[p] * pattern_[p];
  }
  plan_ = dsp::get_fft_plan(period);
  if (plan_ != nullptr) {
    // The fb side of circular_cross_correlation(fold.sums, pattern):
    // the transform is deterministic, so computing it once here yields
    // the exact bits the per-probe transform would.
    std::vector<dsp::cplx> t(period);
    for (std::size_t p = 0; p < period; ++p) {
      t[p] = dsp::cplx(pattern_[p], 0.0);
    }
    plan_->transform(t, false, dsp::thread_fft_workspace(), fft_pattern_);
  }
}

std::shared_ptr<const CandidateEngine::LengthStats>
CandidateEngine::length_stats(std::size_t n) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = stats_.find(n);
    if (it != stats_.end()) return it->second;
  }
  // Build outside the lock: two threads may build the same length
  // concurrently, but the result is a deterministic function of n, so
  // whichever insert wins holds identical bits.
  const std::size_t period = pattern_.size();
  auto stats = std::make_shared<LengthStats>();
  std::vector<double> counts_d(period);
  const std::size_t full = n / period;
  const std::size_t rem = n % period;
  for (std::size_t p = 0; p < period; ++p) {
    // Exactly the fold's counts for an n-sample trace starting at
    // phase 0 — what fold_by_phase produces for every warped trace.
    counts_d[p] = static_cast<double>(full + (p < rem ? 1 : 0));
  }
  stats->sx = dsp::circular_cross_correlation(counts_d, pattern_);
  stats->sxx = dsp::circular_cross_correlation(counts_d, pattern_sq_);
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.emplace(n, std::move(stats)).first->second;
}

double CandidateEngine::score(std::span<const double> y, const WarpSpec& spec,
                              std::size_t guard) const {
  const std::size_t period = pattern_.size();
  ScoreArena& ar = arena();
  warp_trace_into(y, spec, ar.warped);
  if (ar.warped.size() < period) return 0.0;
  reset_fold(ar.fold, period);
  dsp::fold_extend(ar.fold, ar.warped, period);

  if (plan_ == nullptr) {
    // Period beyond the plan registry's cap: the historical path is
    // already planless, delegate to it unchanged.
    const std::vector<double> rho =
        dsp::rotation_correlation_fft_from_fold(ar.fold, pattern_);
    return cpa::summarize_stats(rho, guard).peak_z;
  }

  // sxy[r] = circular_cross_correlation(fold.sums, pattern)[r], with the
  // pattern's transform read from the cache: the same op sequence as the
  // planned branch of circular_cross_correlation, minus the fb FFT.
  auto& ws = dsp::thread_fft_workspace();
  ws.t0.resize(period);
  for (std::size_t i = 0; i < period; ++i) {
    ws.t0[i] = dsp::cplx(ar.fold.sums[i], 0.0);
  }
  plan_->transform(ws.t0, false, ws, ws.t1);
  dsp::multiply_spectra(ws.t1, fft_pattern_, ws.t0, dsp::Conjugate::kFirst);
  plan_->transform(ws.t0, true, ws, ws.t1);
  const double norm = 1.0 / static_cast<double>(period);
  ar.sxy.resize(period);
  for (std::size_t k = 0; k < period; ++k) {
    ar.sxy[k] = ws.t1[k].real() * norm;
  }

  const std::shared_ptr<const LengthStats> stats = length_stats(ar.fold.n);
  ar.rho.resize(period);
  dsp::assemble_rotation_correlations_into(ar.fold, ar.sxy, stats->sx,
                                           stats->sxx, ar.rho);
  return cpa::summarize_stats(ar.rho, guard).peak_z;
}

std::vector<double> CandidateEngine::score_batch(
    std::span<const double> y, const std::vector<WarpSpec>& specs,
    std::size_t guard, runtime::Executor* executor) const {
  const auto one = [&](std::size_t i) { return score(y, specs[i], guard); };
  if (executor != nullptr && executor->thread_count() > 1 &&
      specs.size() > 1) {
    return executor->parallel_map<double>(specs.size(), one);
  }
  std::vector<double> scores(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) scores[i] = one(i);
  return scores;
}

}  // namespace clockmark::sync
