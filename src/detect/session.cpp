#include "detect/session.h"

#include <stdexcept>
#include <utility>

#include "cpa/confidence.h"
#include "measure/trace_io.h"
#include "sync/engine.h"
#include "sync/search.h"
#include "sync/warp.h"

namespace clockmark::detect {

namespace {

// Batch decision with the request's sync handling applied up front.
// `engine` is non-null exactly when the request is kBlind (and the
// pattern non-empty); it carries the same pattern as `pattern`.
Report run_batch(const Request& request, std::span<const double> y,
                 std::span<const double> pattern,
                 const sync::CandidateEngine* engine,
                 runtime::Executor* executor) {
  Report report;
  report.cycles = y.size();
  std::vector<double> warped;
  std::span<const double> input = y;
  switch (request.sync) {
    case sync::SyncPolicy::kTriggered:
      break;
    case sync::SyncPolicy::kKnownOffset:
      if (!request.known_warp.is_identity()) {
        warped = sync::warp_trace(y, request.known_warp);
        input = warped;
        sync::SyncEstimate applied;
        applied.correction = request.known_warp;
        applied.locked = true;
        report.sync = applied;
      }
      break;
    case sync::SyncPolicy::kBlind: {
      const sync::SyncEstimate est =
          engine != nullptr
              ? sync::find_sync(*engine, y, request.blind, executor)
              : sync::find_sync(y, pattern, request.blind, executor);
      report.sync = est;
      if (!est.correction.is_identity()) {
        warped = sync::warp_trace(y, est.correction);
        input = warped;
      }
      break;
    }
  }
  const cpa::Detector detector(request.policy);
  report.detection = detector.detect(input, pattern, request.method);
  report.detected = report.detection.detected;
  report.confidence = cpa::detection_confidence(report.detection.spectrum);
  return report;
}

}  // namespace

Session::Session(Request request, std::vector<double> pattern,
                 std::shared_ptr<EngineCache> engines)
    : request_(std::move(request)),
      pattern_(std::move(pattern)),
      engine_cache_(engines != nullptr ? std::move(engines)
                                       : std::make_shared<EngineCache>()) {}

std::shared_ptr<const sync::CandidateEngine> Session::engine_for(
    std::span<const double> pattern) const {
  if (request_.sync != sync::SyncPolicy::kBlind || pattern.empty()) {
    return nullptr;
  }
  return engine_cache_->acquire(pattern);
}

Report Session::run(std::span<const double> y,
                    runtime::Executor* executor) const {
  if (pattern_.empty()) {
    throw std::logic_error(
        "detect::Session: no pattern bound; construct the Session with the "
        "expected watermark pattern (or use the Scenario overload)");
  }
  return run_batch(request_, y, pattern_, engine_for(pattern_).get(),
                   executor);
}

Report Session::run(const sim::Scenario& scenario, std::size_t repetition,
                    runtime::Executor* executor) const {
  sim::ScenarioResult result = scenario.run(repetition);
  Report report = run_batch(request_, result.acquisition.per_cycle_power_w,
                            result.pattern, engine_for(result.pattern).get(),
                            executor);
  report.scenario = std::move(result);
  return report;
}

stream::OnlineDetectorConfig stream_detector_config(const Request& request) {
  stream::OnlineDetectorConfig d;
  d.policy = request.policy;
  d.method = request.method;
  d.early_stop = request.streaming.early_stop;
  d.confidence_threshold = request.streaming.confidence_threshold;
  d.consecutive_evaluations = request.streaming.consecutive_evaluations;
  d.evaluate_every_chunks = request.streaming.evaluate_every_chunks;
  d.min_cycles = request.streaming.min_cycles;
  d.sync_policy = request.sync;
  d.known_warp = request.known_warp;
  d.blind = request.blind;
  d.lock_cycles = request.lock_cycles;
  return d;
}

Report report_from_decision(const stream::OnlineDecision& decision,
                            const Request& request) {
  Report report;
  report.detection = decision.result;
  report.detected = decision.detected;
  report.confidence = decision.confidence;
  report.cycles =
      decision.decided ? decision.decision_cycles : decision.cycles;
  report.sync = decision.sync;
  if (!report.sync && request.sync == sync::SyncPolicy::kKnownOffset &&
      !request.known_warp.is_identity()) {
    sync::SyncEstimate applied;
    applied.correction = request.known_warp;
    applied.locked = true;
    report.sync = applied;
  }
  return report;
}

stream::StreamPipelineConfig Session::pipeline_config(
    const Request& request) const {
  stream::StreamPipelineConfig cfg;
  cfg.queue_capacity = request.streaming.queue_capacity;
  cfg.detector = stream_detector_config(request);
  // Every stream reuses the session's cached engine: its sweep core
  // serves the checkpoints, and kBlind locks score on it. Bit-identical
  // either way (same pattern, same arithmetic).
  cfg.detector.engine = engine_cache_->acquire(pattern_);
  return cfg;
}

Report Session::run_stream(stream::TraceSource& source,
                           const Request& request,
                           runtime::Executor* executor) const {
  if (pattern_.empty()) {
    throw std::logic_error(
        "detect::Session: no pattern bound; construct the Session with the "
        "expected watermark pattern");
  }
  const stream::StreamPipeline pipeline(pipeline_config(request));
  stream::StreamReport sr = pipeline.run(source, pattern_, executor);
  Report report = report_from_decision(sr.decision, request);
  report.stream = std::move(sr);
  return report;
}

Report Session::run(stream::TraceSource& source,
                    runtime::Executor* executor) const {
  return run_stream(source, request_, executor);
}

Request Session::with_file_meta(Request request,
                                const measure::TraceMeta& meta) {
  if (request.use_file_meta && request.sync == sync::SyncPolicy::kTriggered &&
      meta.trigger_offset_cycles != 0.0) {
    request.sync = sync::SyncPolicy::kKnownOffset;
    request.known_warp = sync::WarpSpec{};
    // The metadata records the misalignment (a capture that started m
    // cycles late reads y[m + k]); the warp is the correction applied on
    // top, so it must shift the other way — the same convention as
    // SyncEstimate, whose offset_cycles is -correction.offset_cycles.
    request.known_warp.offset_cycles = -meta.trigger_offset_cycles;
  }
  return request;
}

Report Session::run_file(const std::string& path,
                         runtime::Executor* executor) const {
  stream::ReplaySource source(path, request_.streaming.chunk_cycles);
  return run_stream(source, with_file_meta(request_, source.meta()),
                    executor);
}

}  // namespace clockmark::detect
