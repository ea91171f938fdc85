#include "sync/engine.h"

#include <utility>

#include "cpa/spread_spectrum.h"
#include "runtime/executor.h"
#include "sync/warp.h"

namespace clockmark::sync {
namespace {

/// Per-thread scratch for the scoring loop. Buffers grow to the largest
/// trace scored on the thread and are reused across probes (and across
/// engines — every field is re-sized per probe).
struct ScoreArena {
  std::vector<double> warped;
  std::vector<double> rho;
};

ScoreArena& arena() {
  thread_local ScoreArena a;
  return a;
}

}  // namespace

CandidateEngine::CandidateEngine(std::vector<double> pattern)
    : spectrum_(std::make_shared<const cpa::SpectrumEngine>(
          std::move(pattern))) {}

double CandidateEngine::score(std::span<const double> y, const WarpSpec& spec,
                              std::size_t guard) const {
  const std::size_t period = pattern().size();
  ScoreArena& ar = arena();
  warp_trace_into(y, spec, ar.warped);
  if (ar.warped.size() < period) return 0.0;
  ar.rho.resize(period);
  spectrum_->sweep_into(ar.warped, ar.rho);
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
