// In-memory span recording for the traced pass. A span is one call
// into a layer, timed from outside the program: name, start, end, the
// span that caused it and the job it belongs to. Spans stay in memory
// until the run ends and are written out with the run record; the
// layer self times are computed from them afterwards (metrics.py).
//
// The traced pass is single-threaded, so the recorder takes no lock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t job = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span
  double start_s = 0.0;      ///< seconds since the recorder was made
  double end_s = 0.0;
};

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span and returns its id (ids start at 1).
  std::uint32_t open(std::string name, std::uint64_t job,
                     std::uint32_t parent) {
    Span span;
    span.name = std::move(name);
    span.job = job;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.start_s = now();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void close(std::uint32_t id) { spans_[id - 1].end_s = now(); }

  /// Runs fn() inside a span and returns its result.
  template <typename F>
  decltype(auto) time(std::string name, std::uint64_t job,
                      std::uint32_t parent, F&& fn) {
    const std::uint32_t id = open(std::move(name), job, parent);
    struct Closer {
      SpanRecorder& recorder;
      std::uint32_t id;
      ~Closer() { recorder.close(id); }
    } closer{*this, id};
    return fn();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
