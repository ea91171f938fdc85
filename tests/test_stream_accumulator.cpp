// RotationAccumulator on a shared sweep core: an accumulator built on a
// cached engine's cpa::SpectrumEngine must produce, at every chunk,
// exactly what a private-core accumulator and the batch sweep over the
// same prefix produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "cpa/accumulator.h"
#include "cpa/correlation.h"
#include "cpa/spectrum_engine.h"
#include "util/rng.h"

namespace clockmark::cpa {
namespace {

TEST(RotationAccumulator, SharedCoreMatchesPrivateCoreAndBatchChunkwise) {
  constexpr std::size_t kPeriod = 1023;
  constexpr std::size_t kChunk = 777;
  util::Pcg32 rng(21, 22);
  std::vector<double> pattern(kPeriod);
  for (double& v : pattern) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
  std::vector<double> y(6 * kPeriod + 100);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 0.3 * pattern[(i + 400) % kPeriod] + rng.gaussian();
  }

  const auto core = std::make_shared<const SpectrumEngine>(pattern);
  RotationAccumulator shared(core);
  RotationAccumulator owned(pattern);
  EXPECT_EQ(shared.pattern(), owned.pattern());
  std::size_t checked = 0;
  for (std::size_t start = 0; start < y.size(); start += kChunk) {
    const std::span<const double> chunk = std::span<const double>(y).subspan(
        start, std::min(kChunk, y.size() - start));
    shared.add(chunk);
    owned.add(chunk);
    if (!shared.ready()) continue;
    const std::vector<double> expected = correlate_rotations(
        std::span<const double>(y).first(shared.cycles()), pattern,
        CorrelationMethod::kFft);
    EXPECT_EQ(shared.correlations(CorrelationMethod::kFft), expected)
        << "after " << shared.cycles() << " cycles";
    EXPECT_EQ(owned.correlations(CorrelationMethod::kFft), expected)
        << "after " << owned.cycles() << " cycles";
    ++checked;
  }
  EXPECT_GE(checked, 7u);
  // The core's memoised batch sweep still serves the full length.
  EXPECT_EQ(core->sweep(y, 8).rho,
            correlate_rotations(y, pattern, CorrelationMethod::kFft));
  EXPECT_THROW(RotationAccumulator(std::shared_ptr<const SpectrumEngine>{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace clockmark::cpa
