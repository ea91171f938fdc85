#include "plan.h"

#include <array>
#include <numeric>
#include <sstream>

#include "util/rng.h"

namespace perfbench {

namespace {

/// SplitMix64 over (seed, salt): independent streams for the plan's
/// different choices.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  clockmark::util::splitmix64(state);
  return clockmark::util::splitmix64(state);
}

constexpr std::array<JobKind, 8> kBlock = {{{1, true},
                                            {1, true},
                                            {1, true},
                                            {1, false},
                                            {2, true},
                                            {2, true},
                                            {2, true},
                                            {2, false}}};

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kServedTriggered, Workload::kServedBlind,
                     Workload::kStreamEarlyStop}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kServedTriggered:
      return "served_triggered";
    case Workload::kServedBlind:
      return "served_blind";
    case Workload::kStreamEarlyStop:
      return "stream_early_stop";
  }
  return "?";
}

std::size_t exact_jobs(Workload w) {
  switch (w) {
    case Workload::kServedTriggered:
      return 48;
    case Workload::kServedBlind:
      return kBlindPool;
    case Workload::kStreamEarlyStop:
      return 32;
  }
  return 0;
}

std::size_t traced_jobs(Workload w) {
  return w == Workload::kServedTriggered ? 32 : w == Workload::kServedBlind ? 8 : 12;
}

JobKind job_kind(std::uint64_t seed, std::size_t k) {
  const std::size_t block = k / kBlock.size();
  std::array<std::size_t, kBlock.size()> order{};
  std::iota(order.begin(), order.end(), std::size_t{0});
  clockmark::util::Pcg32 rng(mix(seed, 1), block);
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    const std::size_t j = rng.bounded(static_cast<std::uint32_t>(i + 1));
    std::swap(order[i], order[j]);
  }
  return kBlock[order[k % kBlock.size()]];
}

std::uint64_t scenario_seed(std::uint64_t seed, const JobKind& kind) {
  return 1 + mix(seed, 10 + static_cast<std::uint64_t>(kind.chip) * 2 +
                           (kind.present ? 1 : 0)) %
                 1000000;
}

std::size_t repetition(std::uint64_t seed, std::size_t k) {
  return static_cast<std::size_t>(mix(seed, 2) % 1000000) * 1000 + k;
}

std::size_t capture_index(Workload w, std::size_t k) {
  return w == Workload::kServedBlind ? k % kBlindPool : k;
}

std::string tenant(std::size_t k) {
  return "tenant-" + std::to_string(k % kTenants);
}

std::size_t attack_index(std::uint64_t seed, std::size_t k) {
  return static_cast<std::size_t>((mix(seed, 3) + k) % 4);
}

std::uint64_t attack_seed(std::uint64_t seed) { return 1 + mix(seed, 4); }

std::uint64_t client_seed(std::uint64_t seed, std::size_t client) {
  return mix(seed, 100 + client);
}

clockmark::serve::ScenarioRef scenario_ref(Workload w, std::uint64_t seed,
                                           const JobKind& kind) {
  clockmark::serve::ScenarioRef ref;
  ref.chip = kind.chip;
  ref.watermark_active = kind.present;
  ref.seed = scenario_seed(seed, kind);
  switch (w) {
    case Workload::kServedTriggered:
      ref.trace_cycles = kTriggeredCycles;
      break;
    case Workload::kServedBlind:
      ref.trace_cycles = kBlindCycles;
      break;
    case Workload::kStreamEarlyStop:
      ref.trace_cycles = kStreamCycles;
      break;
  }
  if (w != Workload::kStreamEarlyStop) {
    ref.scope_noise_v_rms = kScopeNoiseV;
    ref.probe_noise_v_rms = kProbeNoiseV;
  }
  return ref;
}

std::vector<std::string> describe_jobs(Workload w, std::uint64_t seed,
                                       std::size_t n) {
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t source = capture_index(w, k);
    const JobKind kind = job_kind(seed, source);
    const clockmark::serve::ScenarioRef ref = scenario_ref(w, seed, kind);
    std::ostringstream line;
    line << k << " chip=" << kind.chip << " present=" << kind.present
         << " scenario_seed=" << ref.seed << " cycles=" << ref.trace_cycles
         << " repetition=" << repetition(seed, source)
         << " tenant=" << tenant(k);
    if (w == Workload::kServedBlind) {
      line << " capture=" << source
           << " attack=" << attack_index(seed, source);
    }
    lines.push_back(line.str());
  }
  return lines;
}

}  // namespace perfbench
