// The benchmark's workloads and the seeded job plan behind them.
//
// Everything a run feeds the program is a pure function of the --seed
// argument: which chip and watermark state job k uses, its repetition
// (noise realisation), its tenant, and for blind captures the
// desynchronisation attack. The program only ever sees the generated
// JobSpecs / Scenarios, never the seed itself.
//
// The mix is balanced per block of eight jobs — chip I and chip II 1:1,
// watermark present:absent 3:1 — and shuffled within each block by the
// seed, so every run sees the same composition however many jobs its
// time window completes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/job.h"

namespace perfbench {

enum class Workload { kServedTriggered, kServedBlind, kStreamEarlyStop };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);

// --- fixed sizes (the same on every seed) ---------------------------
inline constexpr std::size_t kTriggeredCycles = 65536;
inline constexpr std::size_t kBlindCycles = 32768;
inline constexpr std::size_t kStreamCycles = 131072;
inline constexpr std::size_t kChunkCycles = 4096;
/// abl_service_load's noise overrides (served workloads).
inline constexpr double kScopeNoiseV = 2e-3;
inline constexpr double kProbeNoiseV = 0.5e-3;
inline constexpr std::size_t kWorkers = 2;
inline constexpr std::size_t kClients = 3;
inline constexpr std::size_t kTenants = 3;
/// A served client pauses for U[0, kThinkFraction) times its previous
/// job's run time before it submits the next one. Without the pause the
/// two workers phase-lock: queue waits turn bimodal and the median
/// latency jumps between runs of equal throughput.
inline constexpr double kThinkFraction = 0.5;
/// Pre-built desynchronised captures the blind jobs cycle through.
inline constexpr std::size_t kBlindPool = 16;

/// Jobs every run must complete, whatever --seconds says: the fixed
/// set the exact metrics (capture cycles, peak z medians) are taken
/// over, so they repeat bit for bit for a seed.
std::size_t exact_jobs(Workload w);
/// Jobs the traced pass replays (a prefix of the exact set).
std::size_t traced_jobs(Workload w);

struct JobKind {
  int chip = 1;          ///< 1 = chip I, 2 = chip II
  bool present = true;   ///< watermark active in the capture
};

/// Chip and watermark state of job (or blind capture) k.
JobKind job_kind(std::uint64_t seed, std::size_t k);
/// Scenario seed of the (chip, present) memo — one Scenario per kind.
std::uint64_t scenario_seed(std::uint64_t seed, const JobKind& kind);
/// Repetition of job k: distinct per job, offset by the seed.
std::size_t repetition(std::uint64_t seed, std::size_t k);
/// The capture job k decides on: blind jobs cycle the pre-built pool,
/// every other job synthesises its own (index k).
std::size_t capture_index(Workload w, std::size_t k);
std::string tenant(std::size_t k);
/// Index into attack::default_desync_suite for blind capture k.
std::size_t attack_index(std::uint64_t seed, std::size_t k);
/// Seed of the jitter attack's noise stream.
std::uint64_t attack_seed(std::uint64_t seed);
/// Seed of served client c's think-time stream.
std::uint64_t client_seed(std::uint64_t seed, std::size_t client);

/// The ScenarioRef of a (chip, present) kind for workload w (the
/// repetition is left 0; callers set it per job).
clockmark::serve::ScenarioRef scenario_ref(Workload w, std::uint64_t seed,
                                           const JobKind& kind);

/// One line per job of the first n jobs: what the plan generates for
/// this seed (the determinism check in the benchmark's tests).
std::vector<std::string> describe_jobs(Workload w, std::uint64_t seed,
                                       std::size_t n);

}  // namespace perfbench
