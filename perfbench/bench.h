#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// One benchmark run: a cold set-up, then whole rounds of one workload
// until the measured time is used up, each round's outputs checked
// after its timed section.

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "util/status.h"
#include "util/timer.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  /// Measured seconds: a run measures the whole number of rounds
  /// nearest to this, and at least one.
  double seconds = 10.0;
  /// false: end-to-end metrics. true: untraced rounds for half the
  /// time, then traced rounds; per-layer metrics and a trace file.
  bool trace = false;
  /// The workload's reduced size (the benchmark's own tests).
  bool reduced = false;
  /// Where the trace and result files go; empty writes no files.
  std::string out_dir;
};

struct RunSummary {
  /// Every run-level check held (conservation, identical rounds).
  /// Failed operations are counted in `failed`, not here.
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  int rounds = 0;
  /// Measured seconds of each round, in order.
  std::vector<double> round_wall_s;
  std::vector<Metric> metrics;
  /// The first round's outcome.
  Outcome outcome;
  /// The first few faults and run-level violations, for stderr.
  std::vector<std::string> problems;
  std::string trace_path;
};

/// `process_clock` started with the process: set-up is timed from it.
ptrider::util::Result<RunSummary> RunBenchmark(
    const RunOptions& options, const ptrider::util::WallTimer& process_clock);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
