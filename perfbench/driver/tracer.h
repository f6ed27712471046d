#ifndef PERFBENCH_DRIVER_TRACER_H_
#define PERFBENCH_DRIVER_TRACER_H_

/// \file
/// In-memory span recorder for the benchmark driver.
///
/// A span covers one call the driver makes into a library module: name,
/// start, end, parent span and request id, plus numeric attributes
/// (work counts read off the call's result). Spans are kept in memory
/// and written out once, when the run ends; perfbench/analysis.py turns
/// them into the per-layer metrics.
///
/// Every Span measures its own duration whether or not tracing is on, so
/// the untraced run times exactly the same calls; only the recording
/// (parent bookkeeping, the vector push, attributes) is skipped. The
/// tracer is used from the driver's own thread only.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root span
  int64_t request = -1;  ///< -1 = set-up, probes and verification
  std::string name;
  int64_t start_ns = 0;  ///< relative to the tracer's epoch
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  int64_t ToNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Records a span whose bounds the caller measured itself (requests
  /// whose calls interleave, as in the open-loop submitter). Returns its
  /// id, or 0 when tracing is off.
  uint64_t Record(std::string_view name, int64_t request, uint64_t parent,
                  Clock::time_point start, Clock::time_point end,
                  std::vector<std::pair<std::string, double>> attrs = {}) {
    if (!enabled_) return 0;
    SpanRecord record;
    record.id = ++last_id_;
    record.parent = parent;
    record.request = request;
    record.name = std::string(name);
    record.start_ns = ToNs(start);
    record.end_ns = ToNs(end);
    record.attrs = std::move(attrs);
    spans_.push_back(std::move(record));
    return last_id_;
  }

  /// Scoped span: starts on construction, ends on End() or destruction.
  /// Spans opened while another is open on this tracer become its
  /// children.
  class Span {
   public:
    Span(Tracer& tracer, std::string_view name, int64_t request)
        : tracer_(tracer), start_(Clock::now()) {
      if (!tracer_.enabled_) return;
      record_.id = ++tracer_.last_id_;
      record_.parent = tracer_.open_;
      record_.request = request;
      record_.name = std::string(name);
      tracer_.open_ = record_.id;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { End(); }

    void Attr(std::string_view key, double value) {
      if (tracer_.enabled_) record_.attrs.emplace_back(key, value);
    }

    /// Ends the span (idempotent) and returns its duration in seconds.
    double End() {
      if (ended_) return seconds_;
      const Clock::time_point end = Clock::now();
      ended_ = true;
      seconds_ = std::chrono::duration<double>(end - start_).count();
      if (tracer_.enabled_) {
        record_.start_ns = tracer_.ToNs(start_);
        record_.end_ns = tracer_.ToNs(end);
        tracer_.open_ = record_.parent;
        tracer_.spans_.push_back(std::move(record_));
      }
      return seconds_;
    }

   private:
    Tracer& tracer_;
    Clock::time_point start_;
    SpanRecord record_;
    bool ended_ = false;
    double seconds_ = 0.0;
  };

  /// Writes the spans as a JSON array.
  void WriteJson(std::FILE* out) const {
    std::fputs("[", out);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"id\": %llu, \"parent\": %llu, \"request\": %lld, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"attrs\": {",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.request), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      for (size_t a = 0; a < s.attrs.size(); ++a) {
        std::fprintf(out, "%s\"%s\": %.17g", a == 0 ? "" : ", ",
                     s.attrs[a].first.c_str(), s.attrs[a].second);
      }
      std::fputs("}}", out);
    }
    std::fputs("]", out);
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  uint64_t last_id_ = 0;
  uint64_t open_ = 0;  ///< innermost open scoped span, 0 when none
  std::vector<SpanRecord> spans_;
};

/// Cost of one recorded span in nanoseconds: the same empty scoped span
/// timed with tracing on minus with tracing off.
inline double SpanCostNs() {
  constexpr int kSpans = 200000;
  auto time_spans = [](bool enabled) {
    Tracer tracer(enabled);
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSpans; ++i) {
      Tracer::Span span(tracer, "calibration", -1);
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
  };
  const double untraced = time_spans(false);
  const double traced = time_spans(true);
  return (traced - untraced) / kSpans;
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACER_H_
