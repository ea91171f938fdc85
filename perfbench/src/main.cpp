// The end-to-end benchmark program: sets up one workload, runs it as a
// closed loop for the requested time through ClockMark's real front
// doors, replays its first jobs one at a time with spans around every
// layer call (the traced pass, also the verdict reference), and writes
// everything it measured as one JSON run record. perfbench/run.py builds this program, runs it
// and turns the record into metrics; see perfbench/README.md.
//
//   clockmark_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --out RECORD.json
//   clockmark_perfbench --list-jobs N --workload NAME --seed N
//
// Workloads (plan.h):
//   served_triggered   3 TcpClients -> ServiceHost -> DetectionService
//                      (2 workers), kBatch ScenarioRef jobs;
//   served_blind       the same service, kBatch kBlind jobs carrying an
//                      inline CMTRACE2 capture built in set-up;
//   stream_early_stop  one caller: ScenarioSource + Session::run with
//                      the default early stop.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <latch>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attack/desync.h"
#include "cpa/accumulator.h"
#include "cpa/spread_spectrum.h"
#include "detect/session.h"
#include "json_out.h"
#include "plan.h"
#include "runtime/seed.h"
#include "serve/client.h"
#include "serve/host.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "sim/scenario.h"
#include "spans.h"
#include "stream/online_detector.h"
#include "stream/trace_source.h"
#include "sync/search.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace clockmark;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kCalibrationRepeats = 5;

double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

struct Options {
  Workload workload = Workload::kServedTriggered;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::size_t list_jobs = 0;
};

/// The verdict bits the traced pass must reproduce.
struct Verdict {
  bool detected = false;
  std::uint64_t peak_rotation = 0;
  double peak_z = 0.0;
  std::uint64_t cycles = 0;
};

/// One job of the measured (untraced) closed loop.
struct JobRecord {
  std::size_t index = 0;
  std::size_t capture = 0;  ///< capture_index(): equal captures, equal verdicts
  JobKind kind;
  std::string status = "done";  ///< done|rejected|failed|cancelled|error
  std::string error;
  Verdict verdict;
  std::uint64_t true_rotation = 0;
  std::uint64_t period = 0;
  double latency_s = 0.0;
  double queue_s = 0.0;      ///< served: WireResult::queue_s
  double run_s = 0.0;        ///< served: WireResult::run_s
  double session_s = 0.0;    ///< stream: Session::run alone
  bool scenario_hit = false;
  bool engine_hit = false;
  std::uint64_t chunks_produced = 0;
  std::uint64_t chunks_consumed = 0;
};

/// One job of the traced pass.
struct TracedRecord {
  std::size_t index = 0;
  Verdict verdict;
  std::uint64_t submit_bytes = 0;
  std::uint64_t cycles_synthesised = 0;
  std::uint64_t total_cycles = 0;
  std::uint64_t decision_cycles = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t sync_evaluations = 0;
  bool sync_locked = false;
};

struct SetupTimes {
  double total_s = 0.0;
  double scenario_build_s = 0.0;  ///< summed over the workload's memos
  double engine_build_s = 0.0;
};

struct RunRecord {
  std::vector<double> calibration_s;
  std::vector<SetupTimes> setups;
  double window_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::uint64_t queue_high_water = 0;
  std::vector<JobRecord> jobs;
  std::vector<TracedRecord> traced;
  SpanRecorder spans;
};

/// One Scenario per (chip, watermark) kind serves every job of a run.
std::vector<JobKind> all_kinds() {
  return {{1, true}, {1, false}, {2, true}, {2, false}};
}

std::string kind_key(const JobKind& kind) {
  return std::to_string(kind.chip) + (kind.present ? "p" : "a");
}

std::uint64_t true_rotation(const sim::Scenario& scenario,
                            std::size_t rep) {
  const std::size_t period = scenario.model_pattern().size();
  return scenario.config().phase_offset.value_or(static_cast<std::size_t>(
      runtime::derive_phase_seed(scenario.config().seed, rep) % period));
}

Verdict verdict_of(const serve::WireResult& r) {
  return {r.detected, r.peak_rotation, r.peak_z, r.cycles};
}

Verdict verdict_of(const detect::Report& r) {
  return {r.detected, r.detection.spectrum.peak_rotation,
          r.detection.spectrum.peak_z, r.cycles};
}

const char* status_name(serve::JobStatus s) {
  switch (s) {
    case serve::JobStatus::kDone:
      return "done";
    case serve::JobStatus::kCancelled:
      return "cancelled";
    case serve::JobStatus::kFailed:
      return "failed";
    case serve::JobStatus::kRejected:
      return "rejected";
    default:
      return "error";
  }
}

/// The fixed calibration kernel: one spread-spectrum sweep of a
/// 65,536-cycle constant-seeded trace against a 4,095-long pattern.
std::vector<double> calibrate() {
  util::Pcg32 rng(12345, 6789);
  std::vector<double> y(65536);
  for (double& v : y) v = rng.gaussian();
  std::vector<double> pattern(4095);
  for (double& v : pattern) v = rng.bernoulli(0.5) ? 1.0 : 0.0;
  std::vector<double> times;
  for (std::size_t i = 0; i < kCalibrationRepeats; ++i) {
    const auto t0 = Clock::now();
    const cpa::SpreadSpectrum ss = cpa::compute_spread_spectrum(y, pattern);
    times.push_back(elapsed_s(t0, Clock::now()));
    if (ss.rho.empty()) throw std::runtime_error("calibration: empty sweep");
  }
  return times;
}

/// Times the fold and the sweep on their own, over a traced job's
/// chunks, under a `probe` root outside the job span: the detector runs
/// both inside ingest and finalize, where the outside cannot separate
/// them.
void probe_cpa(SpanRecorder& rec, std::size_t k,
               const std::vector<double>& pattern,
               const std::vector<stream::Chunk>& chunks, std::size_t guard) {
  const std::uint32_t probe = rec.open("probe", k, 0);
  cpa::RotationAccumulator acc(pattern);
  rec.time("cpa.fold", k, probe, [&] {
    for (const stream::Chunk& c : chunks) acc.add(c.values);
  });
  rec.time("cpa.sweep", k, probe, [&] {
    return acc.spread_spectrum(cpa::CorrelationMethod::kFft, guard);
  });
  rec.close(probe);
}

// --- served workloads ----------------------------------------------

struct Capture {
  JobKind kind;
  std::vector<double> y;
  std::vector<double> pattern;
  std::uint64_t true_rotation = 0;
};

class ServedBench {
 public:
  ServedBench(Workload w, std::uint64_t seed) : w_(w), seed_(seed) {}

  ~ServedBench() {
    if (host_) host_->stop();
    if (service_) service_->shutdown(/*drain_queued=*/false);
  }

  ServedBench(const ServedBench&) = delete;
  ServedBench& operator=(const ServedBench&) = delete;

  SetupTimes setup() {
    SetupTimes times;
    // A repeated set-up replaces the previous service: stop its host
    // first, the host serves the old service.
    host_.reset();
    service_.reset();
    const auto t0 = Clock::now();
    serve::ServiceConfig config;
    config.workers = kWorkers;
    config.chunk_cycles = kChunkCycles;
    service_ = std::make_unique<serve::DetectionService>(config);
    host_ = std::make_unique<serve::ServiceHost>(*service_);

    std::vector<serve::JobSpec> warmups;
    if (w_ == Workload::kServedTriggered) {
      // Memos straight from the service's broker: the same Scenario
      // objects the workers use, so the measured jobs all hit.
      for (const JobKind& kind : all_kinds()) {
        const serve::ScenarioRef ref = scenario_ref(w_, seed_, kind);
        const auto b0 = Clock::now();
        scenarios_[kind_key(kind)] =
            service_->broker()->scenario(tenant(0), ref);
        times.scenario_build_s += elapsed_s(b0, Clock::now());
        serve::JobSpec spec = base_spec(0);
        spec.scenario = ref;
        spec.scenario->repetition = repetition(seed_, 1000000);
        warmups.push_back(std::move(spec));
      }
    } else {
      build_captures(&times);
      for (const Capture& c : captures_) {
        const auto e0 = Clock::now();
        service_->broker()->engine(tenant(0), c.pattern);
        times.engine_build_s += elapsed_s(e0, Clock::now());
      }
      // One blind job per chip warms the engine's per-length tables.
      for (int chip : {1, 2}) {
        for (std::size_t i = 0; i < captures_.size(); ++i) {
          if (captures_[i].kind.chip == chip) {
            warmups.push_back(make_spec(i));
            break;
          }
        }
      }
    }
    serve::TcpClient client("127.0.0.1", host_->port());
    std::vector<std::uint64_t> ids;
    for (const serve::JobSpec& spec : warmups) {
      const serve::SubmitOutcome out = client.submit(spec);
      if (!out.accepted()) throw std::runtime_error("warm-up job rejected");
      ids.push_back(out.id);
    }
    for (std::uint64_t id : ids) {
      const serve::WireResult r = client.wait(id);
      if (r.status != serve::JobStatus::kDone) {
        throw std::runtime_error("warm-up job failed: " + r.error);
      }
    }
    times.total_s = elapsed_s(t0, Clock::now());
    return times;
  }

  void measure(double seconds, RunRecord* record) {
    const std::size_t min_jobs = exact_jobs(w_);
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<JobRecord>> per_client(kClients);
    std::vector<std::string> errors(kClients);
    // Connect first, so a refused connection throws here, before any
    // thread waits on the start latch.
    std::vector<std::unique_ptr<serve::TcpClient>> connections;
    for (std::size_t c = 0; c < kClients; ++c) {
      connections.push_back(
          std::make_unique<serve::TcpClient>("127.0.0.1", host_->port()));
    }
    std::latch ready(static_cast<std::ptrdiff_t>(kClients + 1));
    Clock::time_point deadline;
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        util::Pcg32 think(client_seed(seed_, c));
        ready.arrive_and_wait();
        try {
          while (true) {
            const std::size_t k = next.fetch_add(1);
            if (k >= min_jobs && Clock::now() >= deadline) break;
            per_client[c].push_back(run_one(*connections[c], k));
            std::this_thread::sleep_for(std::chrono::duration<double>(
                think.uniform() * kThinkFraction *
                per_client[c].back().run_s));
          }
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    ready.arrive_and_wait();
    for (std::thread& t : clients) t.join();
    record->window_s = elapsed_s(start, Clock::now());
    record->cpu_s = process_cpu_s() - cpu0;
    for (const std::string& e : errors) {
      if (!e.empty()) throw std::runtime_error("client: " + e);
    }
    for (auto& jobs : per_client) {
      for (JobRecord& j : jobs) record->jobs.push_back(std::move(j));
    }
    std::sort(record->jobs.begin(), record->jobs.end(),
              [](const JobRecord& a, const JobRecord& b) {
                return a.index < b.index;
              });
    record->queue_high_water = service_->stats().queue.high_water;
  }

  /// Replays jobs [0, n) one at a time through the public functions the
  /// service's worker calls, with a span around each layer call.
  void trace(std::size_t n, RunRecord* record) {
    SpanRecorder& rec = record->spans;
    for (std::size_t k = 0; k < n; ++k) {
      TracedRecord traced;
      traced.index = k;
      serve::JobSpec spec = make_spec(k);
      const std::uint32_t job = rec.open("job", k, 0);

      const serve::JobSpec decoded = rec.time("serve.codec", k, job, [&] {
        const std::vector<std::uint8_t> bytes =
            serve::pack_frame(serve::encode_submit(spec));
        traced.submit_bytes = bytes.size();
        return serve::decode_submit(serve::unpack_frame(bytes));
      });

      detect::Request eff = decoded.request;
      std::vector<double> pattern = decoded.pattern;
      std::shared_ptr<const sim::Scenario> scenario;
      std::shared_ptr<const sync::CandidateEngine> engine;
      std::unique_ptr<stream::ScenarioSource> source;
      std::vector<stream::Chunk> chunks;
      if (decoded.scenario.has_value()) {
        scenario = rec.time("serve.broker", k, job, [&] {
          return service_->broker()->scenario(decoded.tenant,
                                              *decoded.scenario);
        });
        source = rec.time("sim.open_stream", k, job, [&] {
          return std::make_unique<stream::ScenarioSource>(
              *scenario, decoded.scenario->repetition, kChunkCycles);
        });
        pattern = source->pattern();
        traced.total_cycles = source->total_cycles();
      } else {
        // Inline payloads are the blind jobs.
        eff = detect::Session::with_file_meta(eff, decoded.trace_meta);
        engine = rec.time("serve.broker", k, job, [&] {
          return service_->broker()->engine(decoded.tenant, pattern);
        });
        chunks = rec.time("stream.chop", k, job, [&] {
          return stream::chop(*decoded.trace, kChunkCycles);
        });
        traced.total_cycles = decoded.trace->size();
      }
      // kBatch: decide over the whole input (DetectionService::run_job).
      eff.streaming.early_stop = false;
      eff.lock_cycles = std::numeric_limits<std::size_t>::max();
      stream::OnlineDetectorConfig cfg = detect::stream_detector_config(eff);
      if (eff.sync == sync::SyncPolicy::kBlind) {
        // The lock the detector runs at finalize() on the full buffer,
        // called directly so it gets its own span; its correction is
        // then streamed exactly as the detector's post-lock warper does.
        const sync::SyncEstimate est = rec.time("sync.find_sync", k, job, [&] {
          return sync::find_sync(*engine, *decoded.trace, cfg.blind);
        });
        traced.sync_evaluations = est.evaluations;
        traced.sync_locked = est.locked;
        cfg.sync_policy = sync::SyncPolicy::kKnownOffset;
        cfg.known_warp = est.correction;
      }
      auto detector = rec.time("stream.init", k, job, [&] {
        return std::make_unique<stream::OnlineDetector>(pattern, cfg);
      });
      if (source) {
        while (true) {
          std::optional<stream::Chunk> chunk =
              rec.time("sim.chunk", k, job, [&] { return source->next(); });
          if (!chunk) break;
          traced.cycles_synthesised += chunk->values.size();
          rec.time("stream.ingest", k, job,
                   [&] { return detector->ingest(*chunk); });
          chunks.push_back(std::move(*chunk));
        }
      } else {
        for (const stream::Chunk& chunk : chunks) {
          rec.time("stream.ingest", k, job,
                   [&] { return detector->ingest(chunk); });
        }
      }
      const stream::OnlineDecision& decision = rec.time(
          "stream.finalize", k, job,
          [&]() -> const stream::OnlineDecision& {
            return detector->finalize();
          });
      traced.evaluations = decision.evaluations;
      traced.decision_cycles = decision.decided ? decision.decision_cycles
                                                : decision.cycles;
      serve::JobResult result;
      result.id = k;
      result.tenant = decoded.tenant;
      result.status = serve::JobStatus::kDone;
      result.report = rec.time("detect.report", k, job, [&] {
        return detect::report_from_decision(decision, eff);
      });
      const serve::WireResult wire = rec.time("serve.codec", k, job, [&] {
        return serve::decode_result(serve::unpack_frame(
            serve::pack_frame(serve::encode_result(serve::to_wire(result)))));
      });
      traced.verdict = verdict_of(wire);
      rec.close(job);

      probe_cpa(rec, k, pattern, chunks, eff.policy.guard);
      record->traced.push_back(traced);
    }
  }

 private:
  serve::JobSpec base_spec(std::size_t k) const {
    serve::JobSpec spec;
    spec.tenant = tenant(k);
    spec.mode = serve::JobMode::kBatch;
    return spec;
  }

  void build_captures(SetupTimes* times) {
    std::map<std::string, std::unique_ptr<sim::Scenario>> scenarios;
    for (const JobKind& kind : all_kinds()) {
      const auto b0 = Clock::now();
      scenarios[kind_key(kind)] = std::make_unique<sim::Scenario>(
          serve::to_scenario_config(scenario_ref(w_, seed_, kind)));
      times->scenario_build_s += elapsed_s(b0, Clock::now());
    }
    const std::vector<attack::DesyncAttack> suite =
        attack::default_desync_suite(attack_seed(seed_));
    captures_.clear();
    for (std::size_t i = 0; i < kBlindPool; ++i) {
      Capture c;
      c.kind = job_kind(seed_, i);
      const sim::Scenario& sc = *scenarios[kind_key(c.kind)];
      const std::size_t rep = repetition(seed_, i);
      const sim::ScenarioResult run = sc.run(rep);
      c.y = attack::apply_desync(run.acquisition.per_cycle_power_w,
                                 suite[attack_index(seed_, i)]);
      c.pattern = sc.model_pattern();
      c.true_rotation = true_rotation(sc, rep);
      captures_.push_back(std::move(c));
    }
  }

  serve::JobSpec make_spec(std::size_t k) const {
    serve::JobSpec spec = base_spec(k);
    if (w_ == Workload::kServedTriggered) {
      spec.scenario = scenario_ref(w_, seed_, job_kind(seed_, k));
      spec.scenario->repetition = repetition(seed_, k);
    } else {
      const Capture& c = captures_[capture_index(w_, k)];
      spec.request.sync = sync::SyncPolicy::kBlind;
      spec.pattern = c.pattern;
      spec.trace = c.y;
    }
    return spec;
  }

  JobRecord run_one(serve::TcpClient& client, std::size_t k) const {
    JobRecord job;
    job.index = k;
    job.capture = capture_index(w_, k);
    job.kind = job_kind(seed_, job.capture);
    if (w_ == Workload::kServedTriggered) {
      const sim::Scenario& sc = *scenarios_.at(kind_key(job.kind));
      job.true_rotation = true_rotation(sc, repetition(seed_, k));
      job.period = sc.model_pattern().size();
    } else {
      const Capture& c = captures_[capture_index(w_, k)];
      job.true_rotation = c.true_rotation;
      job.period = c.pattern.size();
    }
    const serve::JobSpec spec = make_spec(k);
    const auto t0 = Clock::now();
    const serve::SubmitOutcome out = client.submit(spec);
    const serve::WireResult r = out.accepted() ? client.wait(out.id)
                                               : *out.rejected;
    job.latency_s = elapsed_s(t0, Clock::now());
    job.status = status_name(r.status);
    job.error = r.error;
    job.verdict = verdict_of(r);
    job.queue_s = r.queue_s;
    job.run_s = r.run_s;
    job.scenario_hit = r.scenario_hit;
    job.engine_hit = r.engine_hit;
    return job;
  }

  Workload w_;
  std::uint64_t seed_;
  std::unique_ptr<serve::DetectionService> service_;
  std::unique_ptr<serve::ServiceHost> host_;  ///< after service_: dies first
  std::map<std::string, std::shared_ptr<const sim::Scenario>> scenarios_;
  std::vector<Capture> captures_;
};

// --- streamed workload ---------------------------------------------

class StreamBench {
 public:
  explicit StreamBench(std::uint64_t seed) : seed_(seed) {}

  SetupTimes setup() {
    SetupTimes times;
    const auto t0 = Clock::now();
    sessions_.clear();
    scenarios_.clear();
    for (const JobKind& kind : all_kinds()) {
      const auto b0 = Clock::now();
      auto sc = std::make_unique<sim::Scenario>(serve::to_scenario_config(
          scenario_ref(Workload::kStreamEarlyStop, seed_, kind)));
      times.scenario_build_s += elapsed_s(b0, Clock::now());
      // Opening a stream fills the Scenario's lazy trace caches.
      stream::ScenarioSource warm(*sc, repetition(seed_, 1000000),
                                  kChunkCycles);
      warm.next();
      sessions_[kind_key(kind)] = std::make_unique<detect::Session>(
          detect::Request{}, sc->model_pattern());
      scenarios_[kind_key(kind)] = std::move(sc);
    }
    // One untimed detection warms the FFT plans and the pipeline.
    const std::string warm_key = kind_key({1, true});
    stream::ScenarioSource warm(*scenarios_.at(warm_key),
                                repetition(seed_, 1000001), kChunkCycles);
    sessions_.at(warm_key)->run(warm);
    times.total_s = elapsed_s(t0, Clock::now());
    return times;
  }

  void measure(double seconds, RunRecord* record) {
    const std::size_t min_jobs = exact_jobs(Workload::kStreamEarlyStop);
    const double cpu0 = process_cpu_s();
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    for (std::size_t k = 0; k >= min_jobs ? Clock::now() < deadline : true;
         ++k) {
      JobRecord job;
      job.index = k;
      job.capture = capture_index(Workload::kStreamEarlyStop, k);
      job.kind = job_kind(seed_, job.capture);
      const sim::Scenario& sc = *scenarios_.at(kind_key(job.kind));
      const detect::Session& session = *sessions_.at(kind_key(job.kind));
      const std::size_t rep = repetition(seed_, k);
      job.true_rotation = true_rotation(sc, rep);
      job.period = sc.model_pattern().size();
      const auto t0 = Clock::now();
      stream::ScenarioSource source(sc, rep, kChunkCycles);
      const auto t1 = Clock::now();
      const detect::Report report = session.run(source);
      const auto t2 = Clock::now();
      job.latency_s = elapsed_s(t0, t2);
      job.session_s = elapsed_s(t1, t2);
      job.verdict = verdict_of(report);
      if (report.stream) {
        job.chunks_produced = report.stream->chunks_produced;
        job.chunks_consumed = report.stream->chunks_consumed;
        if (report.stream->source_failed) {
          job.status = "failed";
          job.error = report.stream->error;
        }
      }
      record->jobs.push_back(std::move(job));
    }
    record->window_s = elapsed_s(start, Clock::now());
    record->cpu_s = process_cpu_s() - cpu0;
  }

  /// Replays jobs [0, n) on the calling thread: the detector the
  /// Session's pipeline drives, fed chunk by chunk with a span around
  /// every source and detector call.
  void trace(std::size_t n, RunRecord* record) {
    SpanRecorder& rec = record->spans;
    const detect::Request request;
    for (std::size_t k = 0; k < n; ++k) {
      TracedRecord traced;
      traced.index = k;
      const sim::Scenario& sc = *scenarios_.at(kind_key(job_kind(seed_, k)));
      const std::uint32_t job = rec.open("job", k, 0);
      auto source = rec.time("sim.open_stream", k, job, [&] {
        return std::make_unique<stream::ScenarioSource>(
            sc, repetition(seed_, k), kChunkCycles);
      });
      traced.total_cycles = source->total_cycles();
      const stream::OnlineDetectorConfig cfg =
          detect::stream_detector_config(request);
      auto detector = rec.time("stream.init", k, job, [&] {
        return std::make_unique<stream::OnlineDetector>(source->pattern(),
                                                        cfg);
      });
      std::vector<stream::Chunk> chunks;
      while (true) {
        std::optional<stream::Chunk> chunk =
            rec.time("sim.chunk", k, job, [&] { return source->next(); });
        if (!chunk) break;
        traced.cycles_synthesised += chunk->values.size();
        const bool decided = rec.time("stream.ingest", k, job, [&] {
          return detector->ingest(*chunk);
        });
        chunks.push_back(std::move(*chunk));
        if (decided) break;
      }
      const stream::OnlineDecision& decision = rec.time(
          "stream.finalize", k, job,
          [&]() -> const stream::OnlineDecision& {
            return detector->finalize();
          });
      traced.evaluations = decision.evaluations;
      traced.decision_cycles =
          decision.decided ? decision.decision_cycles : decision.cycles;
      const detect::Report report = rec.time("detect.report", k, job, [&] {
        return detect::report_from_decision(decision, request);
      });
      traced.verdict = verdict_of(report);
      rec.close(job);

      probe_cpa(rec, k, source->pattern(), chunks, request.policy.guard);
      record->traced.push_back(traced);
    }
  }

 private:
  std::uint64_t seed_;
  std::map<std::string, std::unique_ptr<sim::Scenario>> scenarios_;
  std::map<std::string, std::unique_ptr<detect::Session>> sessions_;
};

// --- the run --------------------------------------------------------

/// Sets up, measures, then replays the first jobs one at a time. The
/// replay runs on every run, untimed: it is the reference the measured
/// verdicts are checked against, and with --trace 1 its spans give the
/// per-layer metrics.
template <typename Bench>
void run_workload(Bench& bench, Workload w, const Options& opt,
                  RunRecord* record) {
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    record->setups.push_back(bench.setup());
  }
  bench.measure(opt.seconds, record);
  record->peak_rss_mb = peak_rss_mb();
  bench.trace(traced_jobs(w), record);
}

void write_verdict(JsonOut& j, const Verdict& v) {
  j.field("detected", v.detected)
      .field("peak_rotation", v.peak_rotation)
      .field("peak_z", v.peak_z)
      .field("cycles", v.cycles);
}

std::string to_json(const Options& opt, const RunRecord& r) {
  JsonOut j;
  j.begin_object();
  j.field("workload", workload_name(opt.workload))
      .field("seed", opt.seed)
      .field("seconds", opt.seconds)
      .field("trace", opt.trace)
      .field("exact_jobs", static_cast<std::uint64_t>(exact_jobs(opt.workload)))
      .field("window_s", r.window_s)
      .field("cpu_s", r.cpu_s)
      .field("peak_rss_mb", r.peak_rss_mb)
      .field("queue_high_water", r.queue_high_water);
  j.key("calibration_s").begin_array();
  for (double t : r.calibration_s) j.value(t);
  j.end_array();
  j.key("setups").begin_array();
  for (const SetupTimes& s : r.setups) {
    j.begin_object()
        .field("total_s", s.total_s)
        .field("scenario_build_s", s.scenario_build_s)
        .field("engine_build_s", s.engine_build_s)
        .end_object();
  }
  j.end_array();
  j.key("jobs").begin_array();
  for (const JobRecord& job : r.jobs) {
    j.begin_object()
        .field("index", static_cast<std::uint64_t>(job.index))
        .field("capture", static_cast<std::uint64_t>(job.capture))
        .field("chip", job.kind.chip)
        .field("present", job.kind.present)
        .field("status", job.status)
        .field("error", job.error);
    write_verdict(j, job.verdict);
    j.field("true_rotation", job.true_rotation)
        .field("period", job.period)
        .field("latency_s", job.latency_s)
        .field("queue_s", job.queue_s)
        .field("run_s", job.run_s)
        .field("session_s", job.session_s)
        .field("scenario_hit", job.scenario_hit)
        .field("engine_hit", job.engine_hit)
        .field("chunks_produced", job.chunks_produced)
        .field("chunks_consumed", job.chunks_consumed)
        .end_object();
  }
  j.end_array();
  j.key("traced").begin_array();
  for (const TracedRecord& t : r.traced) {
    j.begin_object().field("index", static_cast<std::uint64_t>(t.index));
    write_verdict(j, t.verdict);
    j.field("submit_bytes", t.submit_bytes)
        .field("cycles_synthesised", t.cycles_synthesised)
        .field("total_cycles", t.total_cycles)
        .field("decision_cycles", t.decision_cycles)
        .field("evaluations", t.evaluations)
        .field("sync_evaluations", t.sync_evaluations)
        .field("sync_locked", t.sync_locked)
        .end_object();
  }
  j.end_array();
  j.key("spans").begin_array();
  for (const Span& s : r.spans.spans()) {
    j.begin_object()
        .field("name", s.name)
        .field("job", s.job)
        .field("id", static_cast<std::uint64_t>(s.id))
        .field("parent", static_cast<std::uint64_t>(s.parent))
        .field("start", s.start_s)
        .field("end", s.end_s)
        .end_object();
  }
  j.end_array();
  j.end_object();
  return j.str();
}

bool parse_options(int argc, char** argv, Options* opt) {
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else if (flag == "--out") {
      opt->out = value;
    } else if (flag == "--list-jobs") {
      opt->list_jobs = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::cerr << "flags take one value each\n";
    return false;
  }
  if (!parse_workload(workload, &opt->workload)) {
    std::cerr << "unknown workload '" << workload << "'\n";
    return false;
  }
  if (opt->list_jobs == 0 && (opt->out.empty() || opt->seconds <= 0.0)) {
    std::cerr << "need --out and a positive --seconds\n";
    return false;
  }
  return true;
}

int run(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) return 2;
  if (opt.list_jobs != 0) {
    for (const std::string& line :
         describe_jobs(opt.workload, opt.seed, opt.list_jobs)) {
      std::cout << line << "\n";
    }
    return 0;
  }
  RunRecord record;
  record.calibration_s = calibrate();
  if (opt.workload == Workload::kStreamEarlyStop) {
    StreamBench bench(opt.seed);
    run_workload(bench, opt.workload, opt, &record);
  } else {
    ServedBench bench(opt.workload, opt.seed);
    run_workload(bench, opt.workload, opt, &record);
  }
  std::ofstream out(opt.out);
  out << to_json(opt, record) << "\n";
  if (!out) {
    std::cerr << "cannot write " << opt.out << "\n";
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "clockmark_perfbench: " << e.what() << "\n";
    return 2;
  }
}
