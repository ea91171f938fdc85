// Micro-benchmark: the CPA rotation-correlation implementations.
// Demonstrates why the folded/FFT forms matter: the paper's sweep is
// P = 4095 rotations over N = 300,000 cycles — O(N*P) naive costs ~1.2e9
// multiply-adds per spread spectrum, the folded form O(N + P^2), and the
// FFT form O(N + P log P). The register-blocked kernel
// (cpa::correlate_rotations_blocked) is benched both raw (BM_Blocked)
// and through the kNaive dispatch it now backs (BM_Naive); the
// reference one-rotation-per-pass sweep it replaced stays measurable as
// BM_NaiveRef. BM_PlannedFft times the planned transform alone.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cpa/correlation.h"
#include "dsp/correlate.h"
#include "dsp/fft_plan.h"
#include "runtime/executor.h"
#include "sequence/lfsr.h"
#include "sequence/polynomials.h"
#include "util/rng.h"

namespace {

using clockmark::cpa::CorrelationMethod;

std::vector<double> make_pattern(unsigned width) {
  clockmark::sequence::Lfsr lfsr(
      width, clockmark::sequence::maximal_taps(width), 1);
  std::vector<double> p((1u << width) - 1u);
  for (auto& v : p) v = lfsr.step() ? 1.0 : 0.0;
  return p;
}

std::vector<double> make_trace(std::size_t n) {
  clockmark::util::Pcg32 rng(42);
  std::vector<double> y(n);
  for (auto& v : y) v = rng.gaussian(2e-3, 1e-4);
  return y;
}

void run(benchmark::State& state, CorrelationMethod method) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto cycles = static_cast<std::size_t>(state.range(1));
  const auto pattern = make_pattern(width);
  const auto trace = make_trace(cycles);
  for (auto _ : state) {
    auto rho = clockmark::cpa::correlate_rotations(trace, pattern, method);
    benchmark::DoNotOptimize(rho.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(cycles));
}

void BM_Naive(benchmark::State& state) {
  run(state, CorrelationMethod::kNaive);
}
void BM_Folded(benchmark::State& state) {
  run(state, CorrelationMethod::kFolded);
}
void BM_Fft(benchmark::State& state) { run(state, CorrelationMethod::kFft); }

// The pre-blocking naive sweep: one materialised model vector and one
// Pearson pass per rotation (dsp::rotation_correlation_naive). The
// baseline the blocked kernel is measured against.
void BM_NaiveRef(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto cycles = static_cast<std::size_t>(state.range(1));
  const auto pattern = make_pattern(width);
  const auto trace = make_trace(cycles);
  for (auto _ : state) {
    auto rho = clockmark::dsp::rotation_correlation_naive(trace, pattern);
    benchmark::DoNotOptimize(rho.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(cycles));
}

// The raw register-blocked kernel, swept over all rotations in blocks
// of kRotationBlockLanes — the same block partition the kNaive dispatch
// runs, minus the dispatch itself and the rho allocation.
void BM_Blocked(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto cycles = static_cast<std::size_t>(state.range(1));
  const auto pattern = make_pattern(width);
  const auto trace = make_trace(cycles);
  const std::size_t period = pattern.size();
  std::vector<double> rho(period, 0.0);
  for (auto _ : state) {
    for (std::size_t r0 = 0; r0 < period;
         r0 += clockmark::cpa::kRotationBlockLanes) {
      const std::size_t count =
          std::min(clockmark::cpa::kRotationBlockLanes, period - r0);
      clockmark::cpa::correlate_rotations_blocked(
          trace, pattern, r0, std::span<double>(rho).subspan(r0, count));
    }
    benchmark::DoNotOptimize(rho.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(cycles));
}

// The naive sweep again, chunked over a thread pool (rotations are
// independent). Thread count = range(2).
void BM_NaiveParallel(benchmark::State& state) {
  const auto width = static_cast<unsigned>(state.range(0));
  const auto cycles = static_cast<std::size_t>(state.range(1));
  const auto threads = static_cast<std::size_t>(state.range(2));
  const auto pattern = make_pattern(width);
  const auto trace = make_trace(cycles);
  clockmark::runtime::Executor executor(threads);
  for (auto _ : state) {
    auto rho = clockmark::cpa::correlate_rotations(
        trace, pattern, CorrelationMethod::kNaive, &executor);
    benchmark::DoNotOptimize(rho.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(cycles));
}

// One planned transform, the primitive every FFT-form sweep is built
// from: n = 4095 is the paper's period (a Bluestein transform over two
// 8192-point radix-2 passes), n = 8192 one bare radix-2 pass.
void BM_PlannedFft(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto plan = clockmark::dsp::get_fft_plan(n);
  clockmark::util::Pcg32 rng(7);
  std::vector<clockmark::dsp::cplx> x(n);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  clockmark::dsp::FftWorkspace ws;
  std::vector<clockmark::dsp::cplx> out;
  for (auto _ : state) {
    plan->transform(x, false, ws, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Captures per-benchmark results alongside the normal console output so
// --json=PATH can record them (cpu time per iteration, items/sec).
class JsonCapture : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double cpu_s_per_iter = 0.0;
    double items_per_sec = 0.0;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Entry e;
      e.name = run.benchmark_name();
      e.cpu_s_per_iter =
          run.iterations > 0
              ? run.cpu_accumulated_time / static_cast<double>(run.iterations)
              : 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        e.items_per_sec = static_cast<double>(it->second);
      }
      entries_.push_back(std::move(e));
    }
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace

// Naive only at reduced scale (the full paper-size naive sweep takes
// seconds per iteration). The {5, 120000} shape is the chip-I bench
// configuration (LFSR width 5 → P = 31 over 120k cycles) where the
// naive-vs-blocked comparison is tracked by perf_gate.
BENCHMARK(BM_Naive)->Args({10, 30000})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NaiveRef)->Args({5, 120000})->Unit(benchmark::kMillisecond);
// {10, 30000} is the rotation-sweep record tracked by perf_gate: a full
// P = 1023 sweep at study scale through the raw blocked kernel, the
// shape the presence-scan and blind-sync paths hit hardest.
BENCHMARK(BM_Blocked)
    ->Args({5, 120000})
    ->Args({10, 30000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NaiveParallel)
    ->Args({10, 30000, 2})
    ->Args({10, 30000, 4})
    ->Args({10, 30000, 8})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Folded)
    ->Args({10, 30000})
    ->Args({5, 120000})
    ->Args({12, 300000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fft)
    ->Args({10, 30000})
    ->Args({12, 300000})
    ->Args({16, 300000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PlannedFft)->Arg(4095)->Arg(8192)->Unit(
    benchmark::kMicrosecond);

// Custom main instead of BENCHMARK_MAIN(): strips our --json=PATH flag
// before google-benchmark parses the remaining arguments, then writes
// the captured results as a BenchJson perf record.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  JsonCapture reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty()) {
    clockmark::bench::BenchJson json("abl_cpa_speed", /*threads=*/1);
    for (const auto& e : reporter.entries()) {
      auto& rec = json.add_record(e.name);
      clockmark::bench::BenchJson::add_metric(rec, "cpu_s_per_iter",
                                              e.cpu_s_per_iter);
      clockmark::bench::BenchJson::add_metric(rec, "items_per_sec",
                                              e.items_per_sec);
    }
    json.write(json_path);
  }
  benchmark::Shutdown();
  return 0;
}
