// The pattern-bound sweep core (cpa/spectrum_engine.h) on its own: the
// from-fold entry the streamed detector uses must equal the batch
// rotation_correlation_fft_from_fold bit for bit at every trace length,
// the memoised batch sweep must not be disturbed by it, and patterns
// beyond the plan registry's cap must take the planless path with the
// same bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpa/spectrum_engine.h"
#include "cpa/spread_spectrum.h"
#include "dsp/correlate.h"
#include "dsp/fft_plan.h"
#include "util/rng.h"

namespace clockmark::cpa {
namespace {

std::vector<double> random_pattern(std::size_t period, std::uint64_t seed) {
  util::Pcg32 rng(seed, 11);
  std::vector<double> pattern(period);
  for (double& v : pattern) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
  return pattern;
}

/// A noisy trace carrying the pattern at rotation `shift`.
std::vector<double> trace_with(const std::vector<double>& pattern,
                               std::size_t n, std::size_t shift,
                               std::uint64_t seed) {
  util::Pcg32 rng(seed, 12);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 0.2 * pattern[(i + shift) % pattern.size()] + rng.gaussian();
  }
  return y;
}

void expect_same_spectrum(const SpreadSpectrum& a, const SpreadSpectrum& b) {
  EXPECT_EQ(a.rho, b.rho);
  EXPECT_EQ(a.peak_rotation, b.peak_rotation);
  EXPECT_EQ(a.peak_value, b.peak_value);
  EXPECT_EQ(a.second_peak, b.second_peak);
  EXPECT_EQ(a.noise_mean, b.noise_mean);
  EXPECT_EQ(a.noise_std, b.noise_std);
  EXPECT_EQ(a.peak_z, b.peak_z);
}

TEST(BatchAcquireSpectrumEngine, SweepFromFoldMatchesRotationCorrelation) {
  constexpr std::size_t kPeriod = 4095;
  const std::vector<double> pattern = random_pattern(kPeriod, 1);
  const SpectrumEngine engine(pattern);
  std::size_t lengths = 0;
  // n = P, n = k·P and n not a multiple of P (uneven fold counts).
  for (const std::size_t n : {kPeriod, 3 * kPeriod, 3 * kPeriod + 1234}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> y = trace_with(pattern, n, 77, n);
    // A streamed fold: chunks of an odd size, as the accumulator sees.
    dsp::PhaseFold fold;
    for (std::size_t i = 0; i < n; i += 1000) {
      const std::size_t len = std::min<std::size_t>(1000, n - i);
      dsp::fold_extend(fold, std::span<const double>(y).subspan(i, len),
                       kPeriod);
    }
    EXPECT_EQ(engine.sweep_from_fold(fold),
              dsp::rotation_correlation_fft_from_fold(fold, pattern));
    // Streamed sweeps retain nothing; the batch sweep memoises n ...
    EXPECT_EQ(engine.memoised_lengths(), lengths);
    expect_same_spectrum(engine.sweep(y, 8),
                         compute_spread_spectrum(y, pattern,
                                                 CorrelationMethod::kFft, 8));
    EXPECT_EQ(engine.memoised_lengths(), ++lengths);
    // ... and a later streamed sweep at that length is unaffected by it.
    EXPECT_EQ(engine.sweep_from_fold(fold),
              dsp::rotation_correlation_fft_from_fold(fold, pattern));
  }
}

TEST(BatchAcquireSpectrumEngine, SweepFromFoldValidatesLikeTheReference) {
  const std::vector<double> pattern = random_pattern(63, 2);
  const SpectrumEngine engine(pattern);
  const std::vector<double> y = trace_with(pattern, 62, 0, 3);
  const dsp::PhaseFold short_fold = dsp::fold_by_phase(y, pattern.size());
  EXPECT_THROW(engine.sweep_from_fold(short_fold), std::invalid_argument);
  const dsp::PhaseFold other_period = dsp::fold_by_phase(y, 31);
  EXPECT_THROW(engine.sweep_from_fold(other_period), std::invalid_argument);
  EXPECT_THROW(engine.sweep(y, 8), std::invalid_argument);
  EXPECT_THROW(SpectrumEngine(std::vector<double>{}), std::invalid_argument);
}

TEST(BatchAcquireSpectrumEngine, PlanlessFallbackBeyondRegistryCap) {
  // No plan exists for this period, so every entry point delegates to
  // the planless from-fold path; the bits must still be the reference's.
  const std::size_t period = dsp::kMaxPlannedFftSize + 1;
  ASSERT_EQ(dsp::get_fft_plan(period), nullptr);
  const std::vector<double> pattern = random_pattern(period, 4);
  const SpectrumEngine engine(pattern);
  const std::vector<double> y = trace_with(pattern, period + 999, 5, 6);
  const SpreadSpectrum reference =
      compute_spread_spectrum(y, pattern, CorrelationMethod::kFft, 8);
  expect_same_spectrum(engine.sweep(y, 8), reference);
  EXPECT_EQ(engine.sweep_from_fold(dsp::fold_by_phase(y, period)),
            reference.rho);
}

}  // namespace
}  // namespace clockmark::cpa
