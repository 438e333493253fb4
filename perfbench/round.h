#ifndef PERFBENCH_ROUND_H_
#define PERFBENCH_ROUND_H_

// One round: a whole simulated day of one workload, driven tick by tick
// through the simulator's stepping API on a fresh system. Each call into
// the program is timed on its own; bookkeeping between calls is not.

#include <cstdint>
#include <vector>

#include "checks.h"
#include "core/ptrider.h"
#include "trace.h"
#include "util/status.h"
#include "util/timer.h"
#include "vehicle/kinetic_tree.h"
#include "workload.h"

namespace perfbench {

/// Per-sample timings of one round, milliseconds.
struct RoundSamples {
  /// Until a rider's options exist: a booking's window start to its match
  /// observer call, or a browse quote's QuoteRequest call.
  std::vector<double> quote_ms;
  /// Assigned bookings: window start to DispatchBatch's return.
  std::vector<double> assign_ms;
  /// A booking's own match (MatchResult::match_seconds).
  std::vector<double> match_ms;
  /// Commit and rider choice: a booking's observer call to the start of
  /// the next booking's match (or the batch's return).
  std::vector<double> commit_ms;
  /// Browse quotes' QuoteRequest calls.
  std::vector<double> browse_ms;
  /// Non-empty DispatchBatch calls.
  std::vector<double> batch_ms;
  /// AdvanceTick calls.
  std::vector<double> tick_ms;
};

/// Work counters of one round, differenced around the benchmark's calls.
struct RoundCounters {
  /// Oracle traffic of the match path (DispatchBatch and QuoteRequest).
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t searches = 0;
  uint64_t heap_pops = 0;
  /// Oracle queries made while advancing ticks.
  uint64_t move_queries = 0;
  /// Sums of MatchResult diagnostics over every quote.
  uint64_t vehicles_examined = 0;
  uint64_t vehicles_pruned = 0;
  uint64_t cells_visited = 0;
  uint64_t distance_computations = 0;
  uint64_t options = 0;
  ptrider::vehicle::InsertionStats insertion;
  /// Booking matches plus browse quotes.
  uint64_t quotes = 0;
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
  uint64_t vehicle_ticks = 0;
  /// SimulationReport phase fields.
  double advance_s = 0.0;
  double move_commit_s = 0.0;
  double reindex_s = 0.0;
};

struct RoundResult {
  /// Sum of the program calls' wall time (the simulated run without the
  /// benchmark's own bookkeeping).
  double wall_s = 0.0;
  int64_t bookings = 0;
  RoundSamples samples;
  RoundCounters counters;
  Outcome outcome;
  int64_t counted_assigned = 0;
  int64_t counted_unserved = 0;
  /// Every operation's output: bookings in dispatch order, then browse
  /// quotes in arrival order.
  std::vector<QuoteRecord> records;
};

/// Runs one round of `sc` on `system` (fresh, fleet placed). `clock`
/// stamps samples and spans; `tracer` records spans when enabled.
ptrider::util::Result<RoundResult> RunRound(
    const Scenario& sc, ptrider::core::PTRider& system,
    const ptrider::util::WallTimer& clock, Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_ROUND_H_
