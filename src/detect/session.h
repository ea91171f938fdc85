// The unified detection facade: one Request → Session → Report flow in
// front of every way this repo can decide "watermark present?".
//
//   detect::Request   what to decide and how — detector policy, sweep
//                     method, and the SyncPolicy (triggered / known
//                     offset / blind) with its warp or search config.
//   detect::Session   the bound entry point. One Session runs any number
//                     of inputs: a materialised Y vector, a Scenario
//                     repetition, a live TraceSource, or a trace file.
//   detect::Report    the decision plus everything that produced it —
//                     the full cpa::DetectionResult, the blind-lock
//                     SyncEstimate when one ran, the StreamReport for
//                     streamed inputs, and the ScenarioResult for
//                     simulated ones.
//
// Path equivalences (asserted in tests/test_detect.cpp):
//   * run(span) under kTriggered is bit-identical to the deprecated
//     sim::run_detection / cpa::Detector::detect pair.
//   * run(TraceSource&) with early_stop off is bit-identical to
//     run(span) over the concatenated chunks, for every SyncPolicy
//     (the streaming blind lock with lock_cycles >= the stream length
//     sees the exact full trace — see stream/online_detector.h).
//   * run_file replays write_trace_* output bit-exactly, and uses the
//     CMTRACE2 / "# meta" capture metadata to pick the sync handling
//     when the request allows it (use_file_meta).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cpa/detector.h"
#include "detect/engine_cache.h"
#include "sim/experiment.h"
#include "sim/scenario.h"
#include "stream/pipeline.h"
#include "sync/types.h"

namespace clockmark::measure {
struct TraceMeta;
}

namespace clockmark::runtime {
class Executor;
}

namespace clockmark::sync {
class CandidateEngine;
}

namespace clockmark::detect {

/// What to decide and how. Default-constructed = the paper's triggered
/// batch detection with the repo-default thresholds.
struct Request {
  cpa::DetectorPolicy policy;  ///< decision thresholds (z, isolation, guard)
  cpa::CorrelationMethod method = cpa::CorrelationMethod::kFft;

  /// Alignment handling (sync/types.h). kTriggered trusts the input,
  /// kKnownOffset applies `known_warp` before CPA, kBlind runs the
  /// coarse-to-fine search (sync/search.h) configured by `blind`.
  sync::SyncPolicy sync = sync::SyncPolicy::kTriggered;
  sync::WarpSpec known_warp;
  sync::BlindSyncConfig blind;
  /// kBlind, streamed inputs only: raw cycles buffered before the lock
  /// runs mid-stream; 0 = four pattern periods (see OnlineDetectorConfig).
  std::size_t lock_cycles = 0;

  /// Knobs that only apply to streamed inputs (run(TraceSource&) and
  /// run_file).
  struct Streaming {
    std::size_t chunk_cycles = 4096;
    std::size_t queue_capacity = 8;
    bool early_stop = true;
    double confidence_threshold = 0.999;
    std::size_t consecutive_evaluations = 3;
    std::size_t evaluate_every_chunks = 1;
    std::size_t min_cycles = 0;  ///< 0 = one pattern period
  };
  Streaming streaming;

  /// run_file: when the file's capture metadata records a trigger
  /// offset and the request is kTriggered, upgrade to kKnownOffset with
  /// that offset instead of trusting the alignment. An explicit
  /// kKnownOffset / kBlind request always wins over the metadata.
  bool use_file_meta = true;
};

/// The decision and everything behind it. Optional members are set by
/// the paths that produce them and left empty otherwise.
struct Report {
  bool detected = false;
  double confidence = 0.0;          ///< cpa::detection_confidence
  cpa::DetectionResult detection;   ///< full spectrum + reason
  std::size_t cycles = 0;           ///< raw input cycles the decision used
  /// Sync outcome when a correction was applied (kKnownOffset echoes the
  /// requested warp; kBlind reports the recovered estimate).
  std::optional<sync::SyncEstimate> sync;
  std::optional<stream::StreamReport> stream;   ///< streamed inputs
  std::optional<sim::ScenarioResult> scenario;  ///< simulated inputs
};

/// The OnlineDetector configuration a Request maps to — the single
/// translation both Session's streaming path and external drivers (the
/// cm_serve service runs detectors directly for cancellability) use, so
/// their verdicts stay bit-identical to Session::run.
stream::OnlineDetectorConfig stream_detector_config(const Request& request);

/// Folds a finished OnlineDecision into a Report under `request` —
/// verdict, confidence, cycles, and the sync echo for kKnownOffset
/// (Report.stream / .scenario are left for the caller to attach).
Report report_from_decision(const stream::OnlineDecision& decision,
                            const Request& request);

class Session {
 public:
  /// Binds a request and the expected watermark pattern (one period of
  /// WMARK). The pattern may be empty only if every run goes through the
  /// Scenario overload, which carries its own pattern. A non-null
  /// `engines` cache is shared (e.g. across a service's sessions);
  /// otherwise the Session owns a private one.
  explicit Session(Request request = {}, std::vector<double> pattern = {},
                   std::shared_ptr<EngineCache> engines = nullptr);

  /// Batch detection over a materialised per-cycle power trace. The
  /// executor, when non-null, parallelises the blind search (the sweep
  /// itself is single-shot); output is bit-identical at any thread
  /// count.
  Report run(std::span<const double> y,
             runtime::Executor* executor = nullptr) const;

  /// Simulates one scenario repetition (Scenario::run) and decides on
  /// its Y vector with the scenario's own pattern. Report.scenario holds
  /// the full ScenarioResult. Bit-identical to the deprecated
  /// sim::run_detection under the default (kTriggered) request.
  Report run(const sim::Scenario& scenario, std::size_t repetition = 0,
             runtime::Executor* executor = nullptr) const;

  /// Streams the source through a StreamPipeline / OnlineDetector with
  /// the request's sync policy and streaming knobs.
  Report run(stream::TraceSource& source,
             runtime::Executor* executor = nullptr) const;

  /// Replays a trace file (CSV / CMTRACE binary) through the streaming
  /// path. With use_file_meta, a recorded trigger offset upgrades a
  /// kTriggered request to kKnownOffset (see Request).
  Report run_file(const std::string& path,
                  runtime::Executor* executor = nullptr) const;

  /// The metadata upgrade run_file applies, exposed for callers that
  /// stream file-shaped payloads themselves (the service receives
  /// CMTRACE2 frames over the wire): when `request` is kTriggered, the
  /// metadata upgrade is allowed (use_file_meta) and the capture
  /// records a trigger offset, returns the request upgraded to
  /// kKnownOffset with the compensating warp; otherwise returns the
  /// request unchanged.
  static Request with_file_meta(Request request,
                                const measure::TraceMeta& meta);

  const Request& request() const noexcept { return request_; }
  const std::vector<double>& pattern() const noexcept { return pattern_; }
  /// The shared engine cache (never null). Its stats answer "how often
  /// did runs reuse a pattern engine?".
  const std::shared_ptr<EngineCache>& engines() const noexcept {
    return engine_cache_;
  }

 private:
  stream::StreamPipelineConfig pipeline_config(const Request& request) const;
  Report run_stream(stream::TraceSource& source, const Request& request,
                    runtime::Executor* executor) const;
  /// kBlind requests only: the sync::CandidateEngine for `pattern` from
  /// the shared cache. nullptr for non-blind requests.
  std::shared_ptr<const sync::CandidateEngine> engine_for(
      std::span<const double> pattern) const;

  Request request_;
  std::vector<double> pattern_;
  std::shared_ptr<EngineCache> engine_cache_;
};

}  // namespace clockmark::detect
