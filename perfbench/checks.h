#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Independent output checks. They run after a round's timed section and
// recompute everything they compare from the road network with a plain
// DijkstraEngine and from the configuration, never from the program's
// own oracle, pricing policy or dominance test.

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/matcher.h"
#include "roadnet/graph.h"
#include "vehicle/request.h"

namespace perfbench {

/// One operation's output: the options a booking's match or a browse
/// quote returned, with what the checks need to recompute them.
struct QuoteRecord {
  ptrider::vehicle::Request request;
  /// The match instant (the window's dispatch time, or the quote's tick).
  double now_s = 0.0;
  bool browse = false;
  /// The call returned an error, or a booking never reached the match
  /// observer: the operation failed before there was output to check.
  bool call_failed = false;
  ptrider::core::MatchResult match;
  /// Per option: the vehicle's location (kinetic-tree root) at match time.
  std::vector<ptrider::roadnet::VertexId> vehicle_roots;
};

/// Per-record verdicts of OutputChecker::Check: empty = passed, else the
/// first fault found.
using Verdicts = std::vector<std::string>;

class OutputChecker {
 public:
  /// `graph` must outlive the checker.
  OutputChecker(const ptrider::roadnet::RoadNetwork& graph,
                const ptrider::core::Config& config);

  /// Checks every option of every record:
  ///  - distances: the schedule re-summed leg by leg from the vehicle's
  ///    root equals new_total_distance, the prefix up to the new pick-up
  ///    equals pickup_distance, and the new rider's pick-up to drop-off
  ///    span is within (1 + sigma) * dist(s, d) (plus the 1e-6 m slack
  ///    the kinetic tree validates with);
  ///  - pick-up: pickup_distance <= the pick-up radius and pickup_time_s
  ///    == now + pickup_distance / speed;
  ///  - price: the fare is at least the paper floor f_n * dist(s, d),
  ///    less the same 1e-6 m slack on the distance;
  ///  - skyline: no option is dominated by another in
  ///    (pickup_distance, price), compared exactly.
  /// dist(s, d) itself must equal the match's direct_distance_m.
  Verdicts Check(const std::vector<QuoteRecord>& records) const;

 private:
  const ptrider::roadnet::RoadNetwork* graph_;
  ptrider::core::Config config_;
};

/// Run-level outcome of one round, for the conservation checks.
struct Outcome {
  int64_t submitted = 0;
  int64_t assigned = 0;
  int64_t unserved = 0;
  int64_t declined = 0;
  int64_t completed = 0;
  int64_t shared = 0;
  /// Assigned bookings the system still holds (IsAssigned) at the end.
  int64_t still_assigned = 0;
  double revenue = 0.0;
  double fleet_total_m = 0.0;
  double fleet_occupied_m = 0.0;
  double fleet_shared_m = 0.0;

  /// Bit-exact equality of every field: rounds of one run, and a
  /// quote_browse run against the same-seed city_day, must agree.
  bool SameAs(const Outcome& other) const;
  std::string DebugString() const;
};

/// Conservation: submitted = assigned + unserved + declined; every
/// assigned booking is completed or still assigned; fleet total >=
/// occupied >= shared. `bookings` is the number of bookings dispatched
/// and `counted_*` the benchmark's own tallies of the returned items.
/// Returns an empty string or the first violation.
std::string CheckConservation(const Outcome& outcome, int64_t bookings,
                              int64_t counted_assigned,
                              int64_t counted_unserved);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
