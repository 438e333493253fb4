#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own code, around its calls into each layer, and
// written out once at exit as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Span {
  const char* name = "";
  /// Seconds on the round's clock.
  double start_s = 0.0;
  double end_s = 0.0;
  /// Index of the enclosing span, or -1 for a root.
  int64_t parent = -1;
  /// The request the span serves, or -1.
  int64_t request = -1;
};

class Tracer {
 public:
  /// A disabled tracer records nothing; every call is a branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span whose end is not yet known; returns its index (or -1
  /// when disabled). Close it with End.
  int64_t Begin(const char* name, double start_s, int64_t parent,
                int64_t request = -1);
  void End(int64_t span, double end_s);
  /// Records a span whose bounds are both known.
  int64_t Add(const char* name, double start_s, double end_s,
              int64_t parent, int64_t request = -1);

  const std::vector<Span>& spans() const { return spans_; }
  /// Drops every span recorded after the first `n`.
  void Truncate(size_t n) {
    if (n < spans_.size()) spans_.resize(n);
  }

  /// Self time per span name, seconds: each span's duration minus the
  /// time its children cover (children never overlap on one thread).
  std::map<std::string, double> SelfSeconds() const;

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microseconds). Each event's args carry its id, parent and request.
  ptrider::util::Status WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
