#include "cpa/spectrum_engine.h"

#include <algorithm>
#include <complex>
#include <stdexcept>
#include <utility>

#include "dsp/fft_plan.h"

namespace clockmark::cpa {
namespace {

/// Per-thread scratch for the sweep loop. The rho vector is not arena'd
/// — callers own it.
struct SweepArena {
  dsp::PhaseFold fold;
  std::vector<double> sxy;
  std::vector<double> sx;
  std::vector<double> sxx;
};

SweepArena& arena() {
  thread_local SweepArena a;
  return a;
}

/// The forward FFT of a real vector, as circular_cross_correlation's
/// planned branch computes each operand.
void forward_real(const dsp::FftPlan& plan, std::span<const double> v,
                  dsp::FftWorkspace& ws, std::vector<dsp::cplx>& out) {
  ws.t0.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) ws.t0[i] = dsp::cplx(v[i], 0.0);
  plan.transform(ws.t0, false, ws, out);
}

/// out[k] = circular_cross_correlation(a, b)[k] given fa = FFT(a) and
/// fb = FFT(b): the conjugate product, the inverse transform and the
/// 1/P normalisation of the planned branch. Clobbers ws.t0 / ws.t2.
void correlate_spectra(const dsp::FftPlan& plan,
                       std::span<const dsp::cplx> fa,
                       std::span<const dsp::cplx> fb, dsp::FftWorkspace& ws,
                       std::vector<double>& out) {
  const std::size_t period = fa.size();
  ws.t0.resize(period);
  dsp::multiply_spectra(fa, fb, ws.t0, dsp::Conjugate::kFirst);
  plan.transform(ws.t0, true, ws, ws.t2);
  const double norm = 1.0 / static_cast<double>(period);
  out.resize(period);
  for (std::size_t k = 0; k < period; ++k) out[k] = ws.t2[k].real() * norm;
}

}  // namespace

SpectrumEngine::SpectrumEngine(std::vector<double> pattern)
    : pattern_(std::move(pattern)) {
  if (pattern_.empty()) {
    throw std::invalid_argument("SpectrumEngine: empty pattern");
  }
  plan_ = dsp::get_fft_plan(pattern_.size());
  if (plan_ != nullptr) {
    std::vector<double> pattern_sq(pattern_.size());
    for (std::size_t p = 0; p < pattern_.size(); ++p) {
      pattern_sq[p] = pattern_[p] * pattern_[p];
    }
    auto& ws = dsp::thread_fft_workspace();
    forward_real(*plan_, pattern_, ws, fft_pattern_);
    forward_real(*plan_, pattern_sq, ws, fft_pattern_sq_);
  }
}

void SpectrumEngine::derive_length_stats(std::span<const std::size_t> counts,
                                         std::vector<double>& sx,
                                         std::vector<double>& sxx) const {
  auto& ws = dsp::thread_fft_workspace();
  ws.t0.resize(counts.size());
  for (std::size_t p = 0; p < counts.size(); ++p) {
    ws.t0[p] = dsp::cplx(static_cast<double>(counts[p]), 0.0);
  }
  plan_->transform(ws.t0, false, ws, ws.t1);  // FFT of the counts
  correlate_spectra(*plan_, ws.t1, fft_pattern_, ws, sx);
  correlate_spectra(*plan_, ws.t1, fft_pattern_sq_, ws, sxx);
}

std::shared_ptr<const SpectrumEngine::LengthStats>
SpectrumEngine::memo_length_stats(const dsp::PhaseFold& fold) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = memo_.find(fold.n);
    if (it != memo_.end()) return it->second;
  }
  // Build outside the lock: two threads may build the same length
  // concurrently, but a phase-0 fold's counts are a function of n, so
  // whichever insert wins holds identical bits.
  auto stats = std::make_shared<LengthStats>();
  derive_length_stats(fold.counts, stats->sx, stats->sxx);
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.emplace(fold.n, std::move(stats)).first->second;
}

void SpectrumEngine::from_fold(const dsp::PhaseFold& fold,
                               std::span<double> rho, bool memoize) const {
  if (plan_ == nullptr) {
    // Period beyond the plan registry's cap: the historical path is
    // already planless, delegate to it unchanged.
    const std::vector<double> r =
        dsp::rotation_correlation_fft_from_fold(fold, pattern_);
    std::copy(r.begin(), r.end(), rho.begin());
    return;
  }
  SweepArena& ar = arena();
  auto& ws = dsp::thread_fft_workspace();
  // sxy = circular_cross_correlation(fold.sums, pattern), the pattern's
  // transform read from the cache.
  forward_real(*plan_, fold.sums, ws, ws.t1);
  correlate_spectra(*plan_, ws.t1, fft_pattern_, ws, ar.sxy);
  if (memoize) {
    const std::shared_ptr<const LengthStats> stats = memo_length_stats(fold);
    dsp::assemble_rotation_correlations_into(fold, ar.sxy, stats->sx,
                                             stats->sxx, rho);
    return;
  }
  derive_length_stats(fold.counts, ar.sx, ar.sxx);
  dsp::assemble_rotation_correlations_into(fold, ar.sxy, ar.sx, ar.sxx, rho);
}

void SpectrumEngine::sweep_into(std::span<const double> y,
                                std::span<double> rho) const {
  const std::size_t period = pattern_.size();
  // Same validation as rotation_correlation_fft's check_inputs (the
  // empty-pattern arm is unreachable: the constructor rejects it).
  if (y.size() < period) {
    throw std::invalid_argument(
        "rotation_correlation: trace shorter than one pattern period");
  }
  dsp::PhaseFold& fold = arena().fold;
  // Reset for reuse; fold_extend over y is then bit-identical to
  // fold_by_phase on a fresh fold.
  fold.sums.assign(period, 0.0);
  fold.counts.assign(period, 0);
  fold.total = 0.0;
  fold.total_sq = 0.0;
  fold.n = 0;
  dsp::fold_extend(fold, y, period);
  from_fold(fold, rho, /*memoize=*/true);
}

SpreadSpectrum SpectrumEngine::sweep(std::span<const double> y,
                                     std::size_t guard) const {
  std::vector<double> rho(pattern_.size());
  sweep_into(y, rho);
  return summarize_sweep(std::move(rho), guard);
}

std::vector<double> SpectrumEngine::sweep_from_fold(
    const dsp::PhaseFold& fold) const {
  const std::size_t period = pattern_.size();
  // rotation_correlation_fft_from_fold's check_fold, same messages.
  if (fold.sums.size() != period) {
    throw std::invalid_argument(
        "rotation_correlation: fold period does not match pattern");
  }
  if (fold.n < period) {
    throw std::invalid_argument(
        "rotation_correlation: trace shorter than one pattern period");
  }
  std::vector<double> rho(period);
  from_fold(fold, rho, /*memoize=*/false);
  return rho;
}

std::size_t SpectrumEngine::memoised_lengths() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memo_.size();
}

}  // namespace clockmark::cpa
