#include "round.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/simulator.h"

namespace perfbench {

namespace core = ptrider::core;
namespace sim = ptrider::sim;
namespace vehicle = ptrider::vehicle;
using ptrider::util::Result;

namespace {

/// Browse requests take ids far above any booking's, so they can never
/// collide with the simulator's own request ids.
constexpr vehicle::RequestId kFirstBrowseId = vehicle::RequestId{1} << 40;

struct Observation {
  vehicle::RequestId id = vehicle::kInvalidRequest;
  double at_s = 0.0;
  double match_s = 0.0;
};

struct OracleSnapshot {
  uint64_t queries, cache_hits, searches, heap_pops;
};

OracleSnapshot ReadOracle(const core::PTRider& system) {
  const auto& o = system.oracle();
  return {o.queries(), o.cache_hits(), o.computed(), o.heap_pops()};
}

void AddMatchPath(const OracleSnapshot& before, const OracleSnapshot& after,
                  RoundCounters& c) {
  c.queries += after.queries - before.queries;
  c.cache_hits += after.cache_hits - before.cache_hits;
  c.searches += after.searches - before.searches;
  c.heap_pops += after.heap_pops - before.heap_pops;
}

void AddDiagnostics(const core::MatchResult& m, RoundCounters& c) {
  ++c.quotes;
  c.vehicles_examined += m.vehicles_examined;
  c.vehicles_pruned += m.vehicles_pruned;
  c.cells_visited += m.cells_visited;
  c.distance_computations += m.distance_computations;
  c.options += m.options.size();
  c.insertion.Merge(m.insertion);
}

std::vector<ptrider::roadnet::VertexId> Roots(const core::PTRider& system,
                                              const core::MatchResult& m) {
  std::vector<ptrider::roadnet::VertexId> roots;
  roots.reserve(m.options.size());
  for (const core::Option& o : m.options) {
    roots.push_back(system.fleet().IsValid(o.vehicle)
                        ? system.fleet().at(o.vehicle).location()
                        : ptrider::roadnet::kInvalidVertex);
  }
  return roots;
}

}  // namespace

Result<RoundResult> RunRound(const Scenario& sc, core::PTRider& system,
                             const ptrider::util::WallTimer& clock,
                             Tracer& tracer) {
  const auto now_s = [&clock] { return clock.ElapsedSeconds(); };
  RoundResult out;
  RoundSamples& samples = out.samples;
  RoundCounters& counters = out.counters;
  std::vector<QuoteRecord> browse_records;

  sim::Simulator simulator(system, sc.sim_options);
  sim::SimulationReport report;
  double t0 = now_s();
  PTRIDER_RETURN_IF_ERROR(simulator.BeginStepping());
  out.wall_s += now_s() - t0;

  std::vector<Observation> observed;
  simulator.dispatcher()->SetMatchObserver(
      [&observed, &clock](size_t, const vehicle::Request& r,
                          const core::MatchResult& m) {
        observed.push_back({r.id, clock.ElapsedSeconds(), m.match_seconds});
      });

  const std::vector<sim::Trip>& trips = sc.bookings;
  const std::vector<sim::Trip>& browse = sc.browse;
  const double tick_s = sc.sim_options.tick_s;
  const double window_s = sc.sim_options.batch_window_s;
  const double end_time =
      (trips.empty() ? 0.0 : trips.back().time_s) + sc.sim_options.drain_s;
  const auto total_ticks =
      static_cast<int64_t>(std::ceil(end_time / tick_s));
  size_t next_trip = 0;
  size_t next_browse = 0;
  int64_t next_window = 1;
  double now = 0.0;
  std::vector<vehicle::Request> pending;

  const int64_t run_span = tracer.Begin("run", now_s(), -1);
  int64_t window_span = -1;

  // Dispatches `pending` at `now` through DispatchBatch and records every
  // request's latencies, spans, counters and output.
  const auto dispatch = [&]() -> ptrider::util::Status {
    if (pending.empty()) return ptrider::util::Status::Ok();
    std::vector<vehicle::Request> batch_requests = pending;
    observed.clear();
    const OracleSnapshot before = ReadOracle(system);
    const double a = now_s();
    // The window's commit point is the quantity being measured, so the
    // benchmark calls the dispatch stage itself; at pipeline depth 1 this
    // followed by AdvanceTick is exactly the simulator's StepWindow.
    auto items = simulator.DispatchBatch(  // lint: allow(stage-order)
        std::move(pending), now, report);
    const double b = now_s();
    pending.clear();
    out.wall_s += b - a;
    AddMatchPath(before, ReadOracle(system), counters);
    ++counters.batches;
    counters.batched_requests += batch_requests.size();
    samples.batch_ms.push_back((b - a) * 1e3);
    const int64_t batch_span =
        tracer.Add("dispatch.batch", a, b, window_span);
    out.bookings += static_cast<int64_t>(batch_requests.size());
    if (!items.ok()) {
      for (const vehicle::Request& r : batch_requests) {
        QuoteRecord rec;
        rec.request = r;
        rec.now_s = now;
        rec.call_failed = true;
        out.records.push_back(std::move(rec));
      }
      return ptrider::util::Status::Ok();
    }
    size_t next_obs = 0;
    for (size_t i = 0; i < items->size(); ++i) {
      core::BatchItem& item = (*items)[i];
      QuoteRecord rec;
      rec.request = item.request;
      rec.now_s = now;
      const bool seen = next_obs < observed.size() &&
                        observed[next_obs].id == item.request.id;
      rec.call_failed = !seen;
      if (item.assigned) {
        ++out.counted_assigned;
        samples.assign_ms.push_back((b - a) * 1e3);
      } else if (item.match.options.empty()) {
        ++out.counted_unserved;
      }
      if (seen) {
        const Observation& obs = observed[next_obs++];
        const double match_start = obs.at_s - obs.match_s;
        const double commit_end =
            next_obs < observed.size()
                ? std::max(obs.at_s,
                           observed[next_obs].at_s - observed[next_obs].match_s)
                : b;
        samples.quote_ms.push_back((obs.at_s - a) * 1e3);
        samples.match_ms.push_back(obs.match_s * 1e3);
        samples.commit_ms.push_back((commit_end - obs.at_s) * 1e3);
        tracer.Add("core.quote", std::max(a, match_start), obs.at_s,
                   batch_span, item.request.id);
        tracer.Add("core.commit", obs.at_s, commit_end, batch_span,
                   item.request.id);
        AddDiagnostics(item.match, counters);
        rec.vehicle_roots = Roots(system, item.match);
      }
      rec.match = std::move(item.match);
      out.records.push_back(std::move(rec));
    }
    return ptrider::util::Status::Ok();
  };

  vehicle::RequestId browse_id = kFirstBrowseId;
  for (int64_t tick = 1; tick <= total_ticks; ++tick) {
    const double prev = now;
    now = std::min(static_cast<double>(tick) * tick_s, end_time);
    if (window_span < 0 && tracer.enabled()) {
      window_span = tracer.Begin("window", now_s(), run_span);
    }

    // Browse quotes arriving by this tick, served between commits.
    while (next_browse < browse.size() && browse[next_browse].time_s <= now) {
      const sim::Trip& t = browse[next_browse++];
      QuoteRecord rec;
      rec.request.id = browse_id++;
      rec.request.start = t.origin;
      rec.request.destination = t.destination;
      rec.request.num_riders = t.num_riders;
      rec.request.max_wait_s = sc.config.default_max_wait_s;
      rec.request.service_sigma = sc.config.default_service_sigma;
      rec.request.submit_time_s = t.time_s;
      rec.now_s = now;
      rec.browse = true;
      const OracleSnapshot before = ReadOracle(system);
      const double a = now_s();
      auto quote = system.QuoteRequest(rec.request, now);
      const double b = now_s();
      out.wall_s += b - a;
      AddMatchPath(before, ReadOracle(system), counters);
      samples.quote_ms.push_back((b - a) * 1e3);
      samples.browse_ms.push_back((b - a) * 1e3);
      tracer.Add("core.browse_quote", a, b, window_span, rec.request.id);
      if (quote.ok()) {
        AddDiagnostics(*quote, counters);
        rec.vehicle_roots = Roots(system, *quote);
        rec.match = std::move(quote).value();
      } else {
        rec.call_failed = true;
      }
      browse_records.push_back(std::move(rec));
    }

    while (next_trip < trips.size() && trips[next_trip].time_s <= now) {
      pending.push_back(simulator.MakeRequest(trips[next_trip++]));
    }
    const bool boundary =
        now + 1e-9 >= static_cast<double>(next_window) * window_s;
    if (boundary) PTRIDER_RETURN_IF_ERROR(dispatch());

    const uint64_t move_queries_before = system.oracle().queries();
    const double a = now_s();
    PTRIDER_RETURN_IF_ERROR(simulator.AdvanceTick(prev, now, report));
    const double b = now_s();
    out.wall_s += b - a;
    counters.move_queries += system.oracle().queries() - move_queries_before;
    counters.vehicle_ticks += system.fleet().size();
    samples.tick_ms.push_back((b - a) * 1e3);
    tracer.Add("sim.tick", a, b, window_span);

    if (boundary) {
      while (static_cast<double>(next_window) * window_s <= now + 1e-9) {
        ++next_window;
      }
      tracer.End(window_span, now_s());
      window_span = -1;
    }
  }
  // Trips due in a final partial window are still dispatched once, as
  // Simulator::Run does.
  while (next_trip < trips.size()) {
    pending.push_back(simulator.MakeRequest(trips[next_trip++]));
  }
  if (!pending.empty() && window_span < 0) {
    window_span = tracer.Begin("window", now_s(), run_span);
  }
  PTRIDER_RETURN_IF_ERROR(dispatch());
  tracer.End(window_span, now_s());
  t0 = now_s();
  PTRIDER_RETURN_IF_ERROR(simulator.FinishStepping(report));
  out.wall_s += now_s() - t0;
  tracer.End(run_span, now_s());

  counters.advance_s = report.move_advance_seconds;
  counters.move_commit_s = report.move_commit_seconds;
  counters.reindex_s = report.index_update_seconds;

  Outcome& o = out.outcome;
  o.submitted = report.requests_submitted;
  o.assigned = report.requests_assigned;
  o.unserved = report.requests_unserved;
  o.declined = report.requests_declined;
  o.completed = report.requests_completed;
  o.shared = report.requests_shared;
  o.revenue = report.revenue_total;
  for (const QuoteRecord& rec : out.records) {
    if (!rec.browse && system.IsAssigned(rec.request.id)) ++o.still_assigned;
  }
  for (const vehicle::Vehicle& v : system.fleet().vehicles()) {
    o.fleet_total_m += v.total_distance_m();
    o.fleet_occupied_m += v.occupied_distance_m();
    o.fleet_shared_m += v.shared_distance_m();
  }
  for (QuoteRecord& rec : browse_records) out.records.push_back(std::move(rec));
  return out;
}

}  // namespace perfbench
