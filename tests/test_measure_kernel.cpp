// The fused acquisition kernel's exactness contract (measure/kernel.h):
// block processing is a scheduling change, not a numerical one, so the
// kernel must reproduce the per-sample reference chain bit for bit —
// per-cycle Y, summary metadata, at any block size, through the batched
// noise generator, and all the way to the CPA verdict on both chips.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "cpa/detector.h"
#include "cpa/spread_spectrum.h"
#include "measure/acquisition.h"
#include "measure/kernel.h"
#include "measure/streaming.h"
#include "power/trace.h"
#include "runtime/seed.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace clockmark::measure {
namespace {

/// A deterministic ~50 mW trace with cycle-to-cycle variation, enough
/// cycles to span many kernel blocks (default block = 4096/50 cycles).
power::PowerTrace make_trace(std::size_t cycles, std::uint64_t seed) {
  util::Pcg32 rng(seed, 7);
  std::vector<double> p(cycles);
  for (auto& v : p) v = 0.05 + 0.005 * rng.gaussian();
  return power::PowerTrace(p, 10.0e6, "kernel-test");
}

void expect_bit_identical(const Acquisition& a, const Acquisition& b) {
  ASSERT_EQ(a.per_cycle_power_w.size(), b.per_cycle_power_w.size());
  for (std::size_t i = 0; i < a.per_cycle_power_w.size(); ++i) {
    ASSERT_EQ(a.per_cycle_power_w[i], b.per_cycle_power_w[i])
        << "cycle " << i;
  }
  EXPECT_EQ(a.mean_power_w, b.mean_power_w);
  EXPECT_EQ(a.lsb_power_w, b.lsb_power_w);
}

TEST(AcquisitionKernel, MatchesReferenceBitExact) {
  AcquisitionConfig cfg;  // chip-I-style defaults, auto-range on
  cfg.noise_seed = 1234;
  AcquisitionChain chain(cfg);
  const auto trace = make_trace(20000, 0xC51);
  expect_bit_identical(chain.acquire_reference(trace), chain.measure(trace));
}

TEST(AcquisitionKernel, MatchesReferenceWithoutPdnAndFixedRange) {
  // The no-PDN fused loop and the fixed-range path (no range pass).
  AcquisitionConfig cfg;
  cfg.enable_pdn_filter = false;
  cfg.range_policy = RangePolicy::kFixedRange;
  cfg.scope.full_scale_v = 0.2;
  cfg.noise_seed = 99;
  AcquisitionChain chain(cfg);
  const auto trace = make_trace(8000, 0xBEEF);
  expect_bit_identical(chain.acquire_reference(trace), chain.measure(trace));
}

TEST(AcquisitionKernel, MatchesReferenceOnChipConfigs) {
  for (const bool chip2 : {false, true}) {
    const auto scfg = chip2 ? sim::chip2_default() : sim::chip1_default();
    AcquisitionChain chain(scfg.acquisition);
    const auto trace = make_trace(12000, chip2 ? 2u : 1u);
    expect_bit_identical(chain.acquire_reference(trace),
                         chain.measure(trace));
  }
}

TEST(AcquisitionKernel, BlockSizeInvariance) {
  // The block size is a scheduling knob: any value gives the same bits.
  AcquisitionConfig cfg;
  cfg.noise_seed = 42;
  const auto trace = make_trace(4000, 0xAB);
  std::vector<double> baseline;
  for (const std::size_t block : {0, 1, 13, 257, 100000}) {
    cfg.block_cycles = block;
    AcquisitionKernel kernel(cfg, trace.clock_hz());
    std::vector<double> y;
    kernel.range_feed(trace.span());
    kernel.fix_range();
    kernel.acquire_feed(trace.span(), y);
    if (baseline.empty()) {
      baseline = y;
      continue;
    }
    ASSERT_EQ(y.size(), baseline.size()) << "block " << block;
    for (std::size_t i = 0; i < y.size(); ++i) {
      ASSERT_EQ(y[i], baseline[i]) << "block " << block << " cycle " << i;
    }
  }
}

TEST(AcquisitionKernel, ChunkedFeedsMatchWholeTraceFeed) {
  // Feeding the trace in ragged whole-cycle chunks (the streaming-chain
  // usage) must match one whole-trace feed.
  AcquisitionConfig cfg;
  cfg.noise_seed = 7;
  const auto trace = make_trace(5000, 0x5eed);

  AcquisitionChain chain(cfg);
  const auto whole = chain.measure(trace);

  AcquisitionKernel kernel(cfg, trace.clock_hz());
  const auto span = trace.span();
  // First chunk must cover the 8-cycle PDN priming window (the same
  // contract the streaming chain always had); the rest can be ragged.
  const std::size_t chunks[] = {64, 999, 1, 1500, 17, 2419};
  std::size_t pos = 0;
  for (const std::size_t c : chunks) {
    kernel.range_feed(span.subspan(pos, c));
    pos += c;
  }
  ASSERT_EQ(pos, span.size());
  kernel.fix_range();
  std::vector<double> y;
  pos = 0;
  for (const std::size_t c : chunks) {
    kernel.acquire_feed(span.subspan(pos, c), y);
    pos += c;
  }
  ASSERT_EQ(y.size(), whole.per_cycle_power_w.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y[i], whole.per_cycle_power_w[i]) << "cycle " << i;
  }
  EXPECT_EQ(kernel.summary().mean_power_w, whole.mean_power_w);
  EXPECT_EQ(kernel.summary().lsb_power_w, whole.lsb_power_w);
}

TEST(AcquisitionKernel, StreamingChainDelegatesToKernel) {
  AcquisitionConfig cfg;
  cfg.noise_seed = 21;
  const auto trace = make_trace(3000, 0x777);
  AcquisitionChain chain(cfg);
  const auto whole = chain.measure(trace);

  StreamingAcquisitionChain stream(cfg, trace.clock_hz());
  const auto span = trace.span();
  if (stream.needs_range_pass()) {
    for (std::size_t pos = 0; pos < span.size(); pos += 750) {
      stream.range_feed(span.subspan(pos, 750));
    }
    stream.fix_range();
  }
  std::vector<double> y;
  for (std::size_t pos = 0; pos < span.size(); pos += 750) {
    const auto chunk = stream.acquire_feed(span.subspan(pos, 750));
    y.insert(y.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(y.size(), whole.per_cycle_power_w.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y[i], whole.per_cycle_power_w[i]) << "cycle " << i;
  }
}

TEST(AcquisitionKernel, RandomTriggerOffsetMatchesReferenceBitExact) {
  // A random capture-start offset drops a sub-cycle sample prefix and
  // recovers alignment with the software edge trigger. The kernel's
  // three-pass path (range -> trigger -> acquire) must reproduce the
  // reference oracle bit for bit, including the recovered offset.
  AcquisitionConfig cfg;
  cfg.trigger_sim = TriggerSim::kRandomOffset;
  cfg.noise_seed = 5;
  AcquisitionChain chain(cfg);
  const auto trace = make_trace(2000, 0x11);
  const auto got = chain.measure(trace);
  expect_bit_identical(chain.acquire_reference(trace), got);
  EXPECT_LE(got.per_cycle_power_w.size(), trace.cycles());
}

TEST(AcquisitionKernel, FixedTriggerOffsetsMatchReferenceBitExact) {
  // Every fixed sub-cycle offset (including 0, where the prefix is
  // empty but the edge-trigger recovery still runs) must match the
  // reference oracle.
  const auto trace = make_trace(1500, 0x22);
  for (const std::size_t offset : {0, 1, 17, 25, 49}) {
    AcquisitionConfig cfg;
    cfg.trigger_sim = TriggerSim::kFixedOffset;
    cfg.trigger_offset_samples = offset;
    cfg.noise_seed = 31;
    AcquisitionChain chain(cfg);
    const auto got = chain.measure(trace);
    expect_bit_identical(chain.acquire_reference(trace), got);
  }
}

TEST(AcquisitionKernel, ChunkedTriggerOffsetFeedsMatchBatch) {
  // The three-pass trigger pipeline is chunk-invariant like everything
  // else: ragged whole-cycle feeds reproduce the whole-trace result.
  AcquisitionConfig cfg;
  cfg.trigger_sim = TriggerSim::kRandomOffset;
  cfg.noise_seed = 77;
  const auto trace = make_trace(5000, 0x33);
  AcquisitionChain chain(cfg);
  const auto whole = chain.measure(trace);

  AcquisitionKernel kernel(cfg, trace.clock_hz());
  EXPECT_TRUE(kernel.needs_trigger_pass());
  const auto span = trace.span();
  const std::size_t chunks[] = {64, 999, 1, 1500, 17, 2419};
  const auto feed_all = [&](auto&& feed) {
    std::size_t pos = 0;
    for (const std::size_t c : chunks) {
      feed(span.subspan(pos, c));
      pos += c;
    }
    ASSERT_EQ(pos, span.size());
  };
  feed_all([&](auto s) { kernel.range_feed(s); });
  kernel.fix_range();
  feed_all([&](auto s) { kernel.trigger_feed(s); });
  kernel.fix_trigger();
  std::vector<double> y;
  feed_all([&](auto s) { kernel.acquire_feed(s, y); });
  ASSERT_EQ(y.size(), whole.per_cycle_power_w.size());
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y[i], whole.per_cycle_power_w[i]) << "cycle " << i;
  }
  EXPECT_EQ(kernel.summary().mean_power_w, whole.mean_power_w);
}

TEST(AcquisitionKernel, TriggerPassOrderingEnforced) {
  AcquisitionConfig cfg;
  cfg.trigger_sim = TriggerSim::kRandomOffset;
  const auto trace = make_trace(1000, 3);
  AcquisitionKernel kernel(cfg, trace.clock_hz());
  std::vector<double> y;
  // Trigger pass requires the fixed range; acquire requires the fixed
  // trigger.
  EXPECT_THROW(kernel.trigger_feed(trace.span()), std::logic_error);
  kernel.range_feed(trace.span());
  kernel.fix_range();
  EXPECT_THROW(kernel.acquire_feed(trace.span(), y), std::logic_error);
  kernel.trigger_feed(trace.span());
  kernel.fix_trigger();
  kernel.acquire_feed(trace.span(), y);
  EXPECT_LE(y.size(), trace.cycles());
}

// End-to-end: the scenario pipeline (which routes acquisition through
// the kernel) must produce exactly the reference chain's Y and the same
// CPA verdict on both chip models.
TEST(AcquisitionKernel, EndToEndDetectionUnchangedOnBothChips) {
  for (const bool chip2 : {false, true}) {
    auto cfg = chip2 ? sim::chip2_default() : sim::chip1_default();
    cfg.trace_cycles = 20000;
    cfg.acquisition.scope.noise_v_rms = 2e-3;
    cfg.acquisition.probe.noise_v_rms = 0.5e-3;
    const sim::Scenario scenario(cfg);
    const auto run = scenario.run(0);

    // Replay the acquisition of the same repetition on the per-sample
    // reference chain (same derived noise seed, same device trace).
    auto acq = scenario.config().acquisition;
    acq.noise_seed = runtime::derive_acquisition_seed(cfg.seed, 0);
    AcquisitionChain chain(acq);
    const auto ref = chain.acquire_reference(run.total_power);
    expect_bit_identical(ref, run.acquisition);

    const cpa::DetectorPolicy policy;
    const cpa::Detector detector(policy);
    const auto verdict_kernel = detector.decide(cpa::compute_spread_spectrum(
        run.acquisition.per_cycle_power_w, run.pattern,
        cpa::CorrelationMethod::kFft, policy.guard));
    const auto verdict_ref = detector.decide(cpa::compute_spread_spectrum(
        ref.per_cycle_power_w, run.pattern, cpa::CorrelationMethod::kFft,
        policy.guard));
    EXPECT_TRUE(verdict_kernel.detected)
        << (chip2 ? "chip II" : "chip I") << ": " << verdict_kernel.reason;
    EXPECT_EQ(verdict_kernel.detected, verdict_ref.detected);
    EXPECT_EQ(verdict_kernel.spectrum.peak_rotation,
              verdict_ref.spectrum.peak_rotation);
    EXPECT_EQ(verdict_kernel.spectrum.peak_value,
              verdict_ref.spectrum.peak_value);
  }
}

/// Feeds `trace` through a kernel pass by pass, the range pass in
/// `range_chunks` and the trigger/acquire passes in `acquire_chunks`
/// (whole-cycle chunk lengths; the last one repeats until the trace
/// ends).
struct KernelRun {
  Acquisition acq;
  std::size_t replayed_blocks = 0;
  std::size_t checkpoint_bytes = 0;
};
KernelRun run_kernel(const AcquisitionConfig& cfg,
                     const power::PowerTrace& trace,
                     std::vector<std::size_t> range_chunks,
                     std::vector<std::size_t> acquire_chunks) {
  AcquisitionKernel kernel(cfg, trace.clock_hz());
  const auto span = trace.span();
  const auto feed_all = [&](const std::vector<std::size_t>& chunks,
                            auto&& feed) {
    std::size_t pos = 0;
    for (std::size_t i = 0; pos < span.size(); ++i) {
      const std::size_t n =
          std::min(chunks[std::min(i, chunks.size() - 1)], span.size() - pos);
      feed(span.subspan(pos, n));
      pos += n;
    }
  };
  if (kernel.needs_range_pass()) {
    feed_all(range_chunks, [&](auto c) { kernel.range_feed(c); });
    kernel.fix_range();
  }
  if (kernel.needs_trigger_pass()) {
    feed_all(acquire_chunks, [&](auto c) { kernel.trigger_feed(c); });
    kernel.fix_trigger();
  }
  KernelRun run;
  feed_all(acquire_chunks, [&](auto c) {
    kernel.acquire_feed(c, run.acq.per_cycle_power_w);
  });
  run.acq.mean_power_w = kernel.summary().mean_power_w;
  run.acq.lsb_power_w = kernel.summary().lsb_power_w;
  run.replayed_blocks = kernel.replayed_blocks();
  run.checkpoint_bytes = kernel.checkpoint_bytes();
  return run;
}

TEST(AcquisitionKernel, DefaultBlockSplitsIntoReplayLanes) {
  for (const std::size_t spc : {7, 25, 50, 64, 100}) {
    AcquisitionConfig cfg;
    cfg.waveform.samples_per_cycle = spc;
    const AcquisitionKernel kernel(cfg, 10.0e6);
    EXPECT_EQ(kernel.block_cycles() % AcquisitionKernel::kReplayLanes, 0u)
        << "spc " << spc;
  }
  AcquisitionConfig cfg;  // spc = 50
  EXPECT_EQ(AcquisitionKernel(cfg, 10.0e6).block_cycles(), 80u);
}

TEST(AcquisitionKernel, CheckpointReplayMatchesReferenceAtAnyBlockSize) {
  // Blocks of 20 cycles split into eight lanes; 13 and 81 cycles do not
  // (650 and 4050 samples), so those run the one-lane chain throughout.
  AcquisitionConfig cfg;
  cfg.noise_seed = 404;
  const auto trace = make_trace(6000, 0xB10C);
  const auto ref = AcquisitionChain(cfg).acquire_reference(trace);
  for (const std::size_t block : {13, 20, 81}) {
    cfg.block_cycles = block;
    const KernelRun run = run_kernel(cfg, trace, {trace.cycles()},
                                     {trace.cycles()});
    SCOPED_TRACE(block);
    expect_bit_identical(ref, run.acq);
    EXPECT_EQ(run.replayed_blocks > 0, block == 20);
  }
}

TEST(AcquisitionKernel, CheckpointReplayMatchesReferenceAtChunkSizes) {
  // Both passes fed in the same chunks. 8-cycle chunks are one 400-sample
  // block each; 37-cycle chunks (1850 samples) never split into eight
  // equal lanes; 4096-cycle chunks end in a partial 16-cycle block.
  AcquisitionConfig cfg;
  cfg.noise_seed = 8037;
  const auto trace = make_trace(9000, 0xC4C);
  const auto ref = AcquisitionChain(cfg).acquire_reference(trace);
  for (const std::size_t chunk : {8, 37, 4096}) {
    const KernelRun run = run_kernel(cfg, trace, {chunk}, {chunk});
    SCOPED_TRACE(chunk);
    expect_bit_identical(ref, run.acq);
    EXPECT_EQ(run.replayed_blocks > 0, chunk != 37);
  }
}

TEST(AcquisitionKernel, CheckpointReplayMatchesReferenceWithoutPdn) {
  AcquisitionConfig cfg;
  cfg.enable_pdn_filter = false;
  cfg.noise_seed = 55;
  const auto trace = make_trace(5000, 0x9D);
  const KernelRun run =
      run_kernel(cfg, trace, {trace.cycles()}, {trace.cycles()});
  expect_bit_identical(AcquisitionChain(cfg).acquire_reference(trace),
                       run.acq);
  EXPECT_GT(run.replayed_blocks, 0u);
}

TEST(AcquisitionKernel, FixedRangeRunsOneLaneWithoutCheckpoints) {
  AcquisitionConfig cfg;
  cfg.range_policy = RangePolicy::kFixedRange;
  cfg.scope.full_scale_v = 0.2;
  cfg.noise_seed = 66;
  const auto trace = make_trace(5000, 0xF1);
  const KernelRun run = run_kernel(cfg, trace, {}, {trace.cycles()});
  expect_bit_identical(AcquisitionChain(cfg).acquire_reference(trace),
                       run.acq);
  EXPECT_EQ(run.replayed_blocks, 0u);
  EXPECT_EQ(run.checkpoint_bytes, 0u);
}

TEST(AcquisitionKernel, DifferentChunkingsTakeTheOneLanePath) {
  // The range pass records blocks at multiples of 80 cycles; the acquire
  // pass, offset by a 37-cycle first chunk, starts every block elsewhere,
  // so no record matches and every block runs the serial chain.
  AcquisitionConfig cfg;
  cfg.noise_seed = 3737;
  const auto trace = make_trace(6000, 0xD1F);
  const KernelRun run =
      run_kernel(cfg, trace, {trace.cycles()}, {37, 800});
  expect_bit_identical(AcquisitionChain(cfg).acquire_reference(trace),
                       run.acq);
  EXPECT_EQ(run.replayed_blocks, 0u);
  EXPECT_GT(run.checkpoint_bytes, 0u);
}

TEST(AcquisitionKernel, CheckpointsOfAnotherTraceAreNotReplayed) {
  // The range pass over trace A records A's filter trajectory; an
  // acquire pass fed trace B must not replay it. With an 80-cycle first
  // range chunk the records sit at the acquire pass's block starts, with
  // a 37-cycle one they never do: both kernels must produce the same Y.
  AcquisitionConfig cfg;
  cfg.noise_seed = 77;
  const auto a = make_trace(4000, 0xA);
  const auto b = make_trace(4000, 0xB);
  const auto acquire_b = [&](std::size_t range_first_chunk) {
    AcquisitionKernel kernel(cfg, a.clock_hz());
    kernel.range_feed(a.span().first(range_first_chunk));
    kernel.range_feed(a.span().subspan(range_first_chunk));
    kernel.fix_range();
    std::vector<double> y;
    kernel.acquire_feed(b.span(), y);
    EXPECT_EQ(kernel.replayed_blocks(), 0u);
    return y;
  };
  EXPECT_EQ(acquire_b(37), acquire_b(80));
}

TEST(AcquisitionKernel, TriggerOffsetPassesReplayCheckpoints) {
  AcquisitionConfig cfg;
  cfg.trigger_sim = TriggerSim::kFixedOffset;
  cfg.trigger_offset_samples = 21;
  cfg.noise_seed = 2121;
  const auto trace = make_trace(5000, 0x0FF);
  const KernelRun run = run_kernel(cfg, trace, {1000}, {1000});
  expect_bit_identical(AcquisitionChain(cfg).acquire_reference(trace),
                       run.acq);
  EXPECT_GT(run.replayed_blocks, 0u);
}

TEST(AcquisitionKernel, CheckpointStoreIsPerBlockNotPerSample) {
  // A 65,536-cycle capture is 3.3 M samples; the store holds a few
  // states per block, never anything per sample (26 MB).
  AcquisitionConfig cfg;
  const auto trace = make_trace(65536, 0x10000);
  for (const std::size_t chunk : {std::size_t{4096}, trace.cycles()}) {
    AcquisitionKernel kernel(cfg, trace.clock_hz());
    const auto span = trace.span();
    for (std::size_t pos = 0; pos < span.size(); pos += chunk) {
      kernel.range_feed(span.subspan(pos, std::min(chunk, span.size() - pos)));
    }
    kernel.fix_range();
    EXPECT_GT(kernel.checkpoint_bytes(), 0u);
    EXPECT_LT(kernel.checkpoint_bytes(), 256u * 1024u) << "chunk " << chunk;
  }
}

TEST(AcquisitionKernel, RejectsLateRangeFeedAndMissingRangeFix) {
  AcquisitionConfig cfg;
  const auto trace = make_trace(1000, 3);
  AcquisitionKernel kernel(cfg, trace.clock_hz());
  ASSERT_TRUE(kernel.needs_range_pass());
  std::vector<double> y;
  EXPECT_THROW(kernel.acquire_feed(trace.span(), y), std::logic_error);
}

}  // namespace
}  // namespace clockmark::measure
