#include "checks.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "roadnet/dijkstra.h"

namespace perfbench {

namespace roadnet = ptrider::roadnet;
namespace vehicle = ptrider::vehicle;

namespace {

/// The kinetic tree's absolute validation slack (meters). The service
/// constraint check honours it the same way, and the fare floor check
/// allows a detour of -kSlackM: the program prices the detour as
/// new_total - current_total, two sums of different legs, which can come
/// out a few ulps below zero for a rider on the vehicle's way.
constexpr double kSlackM = 1e-6;

uint64_t PairKey(roadnet::VertexId u, roadnet::VertexId v) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
         static_cast<uint32_t>(v);
}

/// Exact shortest-path distances for a set of pairs, one Dijkstra run per
/// distinct source that stops once all of that source's targets settle.
///
/// The generated networks are symmetric, and the program's oracle
/// (DistanceOracleOptions::symmetric) answers dist(u, v) and dist(v, u)
/// with one search from the smaller vertex id. Summing the same path in
/// the other direction can differ in the last bit, so the pairs here are
/// searched in that same orientation; the comparison stays exact.
class PairDistances {
 public:
  explicit PairDistances(const roadnet::RoadNetwork& graph)
      : engine_(graph) {}

  void Want(roadnet::VertexId u, roadnet::VertexId v) {
    wanted_.emplace_back(std::min(u, v), std::max(u, v));
  }

  void Resolve() {
    std::sort(wanted_.begin(), wanted_.end());
    wanted_.erase(std::unique(wanted_.begin(), wanted_.end()), wanted_.end());
    std::vector<roadnet::VertexId> targets;
    for (size_t i = 0; i < wanted_.size();) {
      const roadnet::VertexId u = wanted_[i].first;
      targets.clear();
      size_t j = i;
      for (; j < wanted_.size() && wanted_[j].first == u; ++j) {
        targets.push_back(wanted_[j].second);
      }
      roadnet::DijkstraEngine::RunOptions opts;
      opts.targets = targets;
      engine_.RunFrom(u, opts);
      for (const roadnet::VertexId v : targets) {
        dist_[PairKey(u, v)] = engine_.DistanceTo(v);
      }
      i = j;
    }
    wanted_.clear();
  }

  roadnet::Weight Get(roadnet::VertexId u, roadnet::VertexId v) const {
    const auto it = dist_.find(PairKey(std::min(u, v), std::max(u, v)));
    return it == dist_.end() ? roadnet::kInfWeight : it->second;
  }

 private:
  roadnet::DijkstraEngine engine_;
  std::vector<std::pair<roadnet::VertexId, roadnet::VertexId>> wanted_;
  std::unordered_map<uint64_t, roadnet::Weight> dist_;
};

std::string Fault(const QuoteRecord& r, size_t option, const char* what,
                  double got, double want) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "request %" PRId64 " option %zu (vehicle %d): %s: %.17g vs "
                "%.17g",
                static_cast<int64_t>(r.request.id), option,
                static_cast<int>(r.match.options[option].vehicle), what, got,
                want);
  return buf;
}

/// `a` dominates `b`: no later and no dearer, strictly better in one.
bool Dominates(const ptrider::core::Option& a,
               const ptrider::core::Option& b) {
  return (a.pickup_distance <= b.pickup_distance && a.price < b.price) ||
         (a.pickup_distance < b.pickup_distance && a.price <= b.price);
}

}  // namespace

OutputChecker::OutputChecker(const roadnet::RoadNetwork& graph,
                             const ptrider::core::Config& config)
    : graph_(&graph), config_(config) {}

Verdicts OutputChecker::Check(const std::vector<QuoteRecord>& records) const {
  PairDistances dist(*graph_);
  for (const QuoteRecord& r : records) {
    if (r.call_failed) continue;
    dist.Want(r.request.start, r.request.destination);
    const auto& options = r.match.options;
    for (size_t i = 0; i < options.size() && i < r.vehicle_roots.size(); ++i) {
      roadnet::VertexId cur = r.vehicle_roots[i];
      for (const vehicle::Stop& stop : options[i].schedule) {
        dist.Want(cur, stop.location);
        cur = stop.location;
      }
    }
  }
  dist.Resolve();

  const double radius_m = config_.max_planned_pickup_s * config_.speed_mps;
  Verdicts verdicts(records.size());
  for (size_t k = 0; k < records.size(); ++k) {
    const QuoteRecord& r = records[k];
    std::string& verdict = verdicts[k];
    if (r.call_failed) {
      verdict = "the call failed or its match was never observed";
      continue;
    }
    const auto& options = r.match.options;
    if (r.vehicle_roots.size() != options.size()) {
      verdict = "vehicle roots were not recorded for every option";
      continue;
    }
    const roadnet::Weight direct =
        dist.Get(r.request.start, r.request.destination);
    if (r.match.direct_distance_m != direct) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "request %" PRId64 ": direct distance %.17g vs %.17g",
                    static_cast<int64_t>(r.request.id),
                    r.match.direct_distance_m, direct);
      verdict = buf;
      continue;
    }
    const double fare_floor =
        (config_.price_base_ratio +
         (r.request.num_riders - 1) * config_.price_per_extra_rider) *
        (direct - kSlackM) / config_.price_distance_unit_m;
    const double allowance = (1.0 + r.request.service_sigma) * direct;

    for (size_t i = 0; i < options.size() && verdict.empty(); ++i) {
      const ptrider::core::Option& o = options[i];
      roadnet::VertexId cur = r.vehicle_roots[i];
      roadnet::Weight cum = 0.0;
      roadnet::Weight pickup_cum = roadnet::kInfWeight;
      roadnet::Weight dropoff_cum = roadnet::kInfWeight;
      for (const vehicle::Stop& stop : o.schedule) {
        cum += dist.Get(cur, stop.location);
        cur = stop.location;
        if (stop.request != r.request.id) continue;
        if (stop.type == vehicle::StopType::kPickup) {
          if (pickup_cum != roadnet::kInfWeight) pickup_cum = -1.0;
          else pickup_cum = cum;
        } else if (pickup_cum != roadnet::kInfWeight &&
                   dropoff_cum == roadnet::kInfWeight) {
          dropoff_cum = cum;
        } else {
          dropoff_cum = -1.0;
        }
      }
      if (pickup_cum == roadnet::kInfWeight || pickup_cum < 0.0 ||
          dropoff_cum == roadnet::kInfWeight || dropoff_cum < 0.0) {
        verdict = Fault(r, i, "schedule does not serve the request once, "
                              "pick-up before drop-off",
                        pickup_cum, dropoff_cum);
      } else if (cum != o.new_total_distance) {
        verdict = Fault(r, i, "re-summed schedule vs new_total_distance", cum,
                        o.new_total_distance);
      } else if (pickup_cum != o.pickup_distance) {
        verdict = Fault(r, i, "re-summed pick-up prefix vs pickup_distance",
                        pickup_cum, o.pickup_distance);
      } else if (!(dropoff_cum - pickup_cum <= allowance + kSlackM)) {
        verdict = Fault(r, i, "in-vehicle span vs (1+sigma)*dist(s,d)",
                        dropoff_cum - pickup_cum, allowance);
      } else if (!(o.pickup_distance <= radius_m)) {
        verdict = Fault(r, i, "pickup_distance vs pick-up radius",
                        o.pickup_distance, radius_m);
      } else if (o.pickup_time_s !=
                 r.now_s + o.pickup_distance / config_.speed_mps) {
        verdict = Fault(r, i, "pickup_time_s vs now + pickup_distance/speed",
                        o.pickup_time_s,
                        r.now_s + o.pickup_distance / config_.speed_mps);
      } else if (!(o.price >= fare_floor)) {
        verdict = Fault(r, i, "price vs fare floor", o.price, fare_floor);
      }
      for (size_t j = 0; j < options.size() && verdict.empty(); ++j) {
        if (j != i && Dominates(options[j], o)) {
          verdict = Fault(r, i, "dominated by another option's price",
                          o.price, options[j].price);
        }
      }
    }
  }
  return verdicts;
}

bool Outcome::SameAs(const Outcome& o) const {
  const auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
  return submitted == o.submitted && assigned == o.assigned &&
         unserved == o.unserved && declined == o.declined &&
         completed == o.completed && shared == o.shared &&
         still_assigned == o.still_assigned &&
         bits(revenue) == bits(o.revenue) &&
         bits(fleet_total_m) == bits(o.fleet_total_m) &&
         bits(fleet_occupied_m) == bits(o.fleet_occupied_m) &&
         bits(fleet_shared_m) == bits(o.fleet_shared_m);
}

std::string Outcome::DebugString() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "submitted=%" PRId64 " assigned=%" PRId64 " unserved=%" PRId64
                " declined=%" PRId64 " completed=%" PRId64 " shared=%" PRId64
                " still_assigned=%" PRId64
                " revenue=%.17g fleet_m=%.17g/%.17g/%.17g",
                submitted, assigned, unserved, declined, completed, shared,
                still_assigned, revenue, fleet_total_m, fleet_occupied_m,
                fleet_shared_m);
  return buf;
}

std::string CheckConservation(const Outcome& o, int64_t bookings,
                              int64_t counted_assigned,
                              int64_t counted_unserved) {
  if (o.submitted != bookings) {
    return "report counts " + std::to_string(o.submitted) +
           " submitted bookings, dispatched " + std::to_string(bookings);
  }
  if (o.submitted != o.assigned + o.unserved + o.declined) {
    return "submitted != assigned + unserved + declined: " + o.DebugString();
  }
  if (o.assigned != counted_assigned || o.unserved != counted_unserved) {
    return "report assigned/unserved " + std::to_string(o.assigned) + "/" +
           std::to_string(o.unserved) + " vs returned items " +
           std::to_string(counted_assigned) + "/" +
           std::to_string(counted_unserved);
  }
  if (o.completed + o.still_assigned != o.assigned) {
    return "assigned bookings neither completed nor still assigned: " +
           o.DebugString();
  }
  if (!(o.fleet_total_m >= o.fleet_occupied_m &&
        o.fleet_occupied_m >= o.fleet_shared_m)) {
    return "fleet distance total >= occupied >= shared violated: " +
           o.DebugString();
  }
  return "";
}

}  // namespace perfbench
