// One sync::CandidateEngine shared by blind-sync scoring and streamed
// checkpoints (the service's steady state: a cached engine serves every
// job on its pattern). Scores hit the core's per-length memo while
// streamed sweeps bypass it; from several threads at once both must
// reproduce the serial bits — the data-race half is what the TSan lane
// checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <thread>
#include <vector>

#include "cpa/accumulator.h"
#include "cpa/correlation.h"
#include "sync/engine.h"
#include "sync/types.h"
#include "util/rng.h"

namespace clockmark::sync {
namespace {

struct Outcome {
  std::vector<double> scores;
  std::vector<std::vector<double>> checkpoints;
};

/// Interleaves candidate scores with streamed checkpoint sweeps.
Outcome run_on(const CandidateEngine& engine, std::span<const double> y,
               const std::vector<WarpSpec>& specs) {
  Outcome out;
  cpa::RotationAccumulator acc(engine.spectrum());
  constexpr std::size_t kChunk = 2048;
  std::size_t next_spec = 0;
  for (std::size_t start = 0; start < y.size(); start += kChunk) {
    acc.add(y.subspan(start, std::min(kChunk, y.size() - start)));
    if (acc.ready()) {
      out.checkpoints.push_back(
          acc.correlations(cpa::CorrelationMethod::kFft));
    }
    if (next_spec < specs.size()) {
      out.scores.push_back(engine.score(y, specs[next_spec++], 8));
    }
  }
  while (next_spec < specs.size()) {
    out.scores.push_back(engine.score(y, specs[next_spec++], 8));
  }
  return out;
}

TEST(SyncEngine, ConcurrentStreamedSweepsAndScoresMatchSerial) {
  constexpr std::size_t kPeriod = 1023;
  util::Pcg32 rng(31, 32);
  std::vector<double> pattern(kPeriod);
  for (double& v : pattern) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
  std::vector<double> y(12 * kPeriod);
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = 0.3 * pattern[(i + 100) % kPeriod] + rng.gaussian();
  }
  std::vector<WarpSpec> specs(6);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].offset_cycles = 0.25 * static_cast<double>(i);
    specs[i].ratio = 1.0 + 20e-6 * static_cast<double>(i % 3);
  }

  const Outcome serial = run_on(CandidateEngine(pattern), y, specs);
  ASSERT_EQ(serial.scores.size(), specs.size());
  ASSERT_FALSE(serial.checkpoints.empty());

  const CandidateEngine shared(pattern);
  constexpr int kThreads = 4;
  std::vector<Outcome> outcomes(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        outcomes[static_cast<std::size_t>(t)] = run_on(shared, y, specs);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (const Outcome& o : outcomes) {
    EXPECT_EQ(o.scores, serial.scores);
    EXPECT_EQ(o.checkpoints, serial.checkpoints);
  }
}

}  // namespace
}  // namespace clockmark::sync
