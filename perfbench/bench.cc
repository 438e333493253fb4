#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "round.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace core = ptrider::core;
using ptrider::util::Result;

namespace {

constexpr size_t kMaxProblems = 8;

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void Append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

/// Lays the cold set-up steps out as spans, end to end from `start_s`.
void AddSetupSpans(Tracer& tracer, double start_s, const SetupTimes& t) {
  const std::pair<const char*, double> steps[] = {
      {"setup.graph", t.graph_s},   {"setup.grid", t.grid_s},
      {"setup.ch", t.ch_s},         {"setup.create", t.create_s},
      {"setup.fleet", t.fleet_s}};
  double total = 0.0;
  for (const auto& step : steps) total += step.second;
  const int64_t setup = tracer.Add("setup", start_s, start_s + total, -1);
  double at = start_s;
  for (const auto& [name, seconds] : steps) {
    tracer.Add(name, at, at + seconds, setup);
    at += seconds;
  }
}

/// Times every booking's (s, d) query through a cache-less clone of the
/// round's oracle: the CH query cost alone, microseconds.
std::vector<double> ReplayQueries(core::PTRider& system,
                                  const std::vector<QuoteRecord>& records) {
  ptrider::roadnet::DistanceOracleOptions opts;
  opts.algorithm = system.config().sp_algorithm;
  opts.cache_capacity = 0;
  ptrider::roadnet::DistanceOracle oracle = system.oracle().CloneWith(opts);
  std::vector<double> us;
  ptrider::util::WallTimer timer;
  for (const QuoteRecord& r : records) {
    if (r.browse) continue;
    timer.Restart();
    oracle.Distance(r.request.start, r.request.destination);
    us.push_back(timer.ElapsedMicros());
  }
  return us;
}

/// Exact quantile of `samples` (linear interpolation between closest
/// ranks), `q` in [0, 1]; 0 for no samples.
double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (pos - static_cast<double>(lo)) *
                           (samples[hi] - samples[lo]);
}

}  // namespace

Result<RunSummary> RunBenchmark(const RunOptions& opts,
                                const ptrider::util::WallTimer& clock) {
  PTRIDER_ASSIGN_OR_RETURN(WorkloadSpec spec,
                           MakeSpec(opts.workload, opts.seed, opts.reduced));
  Tracer tracer(opts.trace);
  Tracer untraced(false);

  // Cold set-up, timed from the process's start.
  const double setup_start = clock.ElapsedSeconds();
  PTRIDER_ASSIGN_OR_RETURN(Scenario sc, BuildScenario(spec));
  PTRIDER_ASSIGN_OR_RETURN(std::unique_ptr<core::PTRider> system,
                           CreateSystem(sc, &sc.setup));
  const double setup_s = clock.ElapsedSeconds();
  AddSetupSpans(tracer, setup_start, sc.setup);
  const size_t setup_spans = tracer.spans().size();
  PTRIDER_RETURN_IF_ERROR(DrawStreams(sc));

  const OutputChecker checker(*sc.graph, sc.config);
  RunSummary summary;
  const auto problem = [&summary](std::string what) {
    if (summary.problems.size() < kMaxProblems) {
      summary.problems.push_back(std::move(what));
    }
  };

  // Untraced pools feed the end-to-end metrics, traced pools the
  // per-layer ones.
  RoundSamples plain;
  RoundSamples traced;
  double plain_wall = 0.0;
  int64_t plain_bookings = 0;
  std::vector<double> plain_round_wall;
  std::vector<double> traced_round_wall;
  RoundCounters last_counters;
  std::vector<double> query_us;
  double peak_rss_mib = 0.0;
  double measured = 0.0;

  // Whole rounds only: a run measures the whole number of rounds nearest
  // to `seconds` (at least one), judged by the mean round so far.
  const auto reached = [&](double target) {
    const double mean_round = measured / static_cast<double>(summary.rounds);
    return measured + mean_round / 2.0 >= target;
  };
  for (int round = 0;; ++round) {
    const bool trace_round = opts.trace && !plain_round_wall.empty() &&
                             reached(opts.seconds / 2.0);
    if (round > 0) {
      system.reset();
      PTRIDER_ASSIGN_OR_RETURN(system, CreateSystem(sc, nullptr));
    }
    if (trace_round) tracer.Truncate(setup_spans);
    PTRIDER_ASSIGN_OR_RETURN(
        RoundResult r,
        RunRound(sc, *system, clock, trace_round ? tracer : untraced));
    measured += r.wall_s;
    summary.round_wall_s.push_back(r.wall_s);
    ++summary.rounds;
    const bool last = reached(opts.seconds) && (!opts.trace || trace_round);
    if (last) peak_rss_mib = PeakRssMib();

    // Checks, after the timed section.
    summary.attempted += static_cast<int64_t>(r.records.size());
    const Verdicts verdicts = checker.Check(r.records);
    for (const std::string& v : verdicts) {
      if (v.empty()) continue;
      ++summary.failed;
      problem("round " + std::to_string(round) + ": " + v);
    }
    const std::string conservation = CheckConservation(
        r.outcome, r.bookings, r.counted_assigned, r.counted_unserved);
    if (!conservation.empty()) {
      summary.correct = false;
      problem("round " + std::to_string(round) + ": " + conservation);
    }
    if (round == 0) {
      summary.outcome = r.outcome;
    } else if (!r.outcome.SameAs(summary.outcome)) {
      summary.correct = false;
      problem("round " + std::to_string(round) + " ended as " +
              r.outcome.DebugString() + ", round 0 as " +
              summary.outcome.DebugString());
    }

    if (trace_round) {
      traced_round_wall.push_back(r.wall_s);
      Append(traced.quote_ms, r.samples.quote_ms);
      Append(traced.assign_ms, r.samples.assign_ms);
      Append(traced.match_ms, r.samples.match_ms);
      Append(traced.commit_ms, r.samples.commit_ms);
      Append(traced.browse_ms, r.samples.browse_ms);
      Append(traced.batch_ms, r.samples.batch_ms);
      Append(traced.tick_ms, r.samples.tick_ms);
      last_counters = r.counters;
      if (last) query_us = ReplayQueries(*system, r.records);
    } else {
      plain_round_wall.push_back(r.wall_s);
      plain_wall += r.wall_s;
      plain_bookings += r.bookings;
      Append(plain.quote_ms, r.samples.quote_ms);
      Append(plain.assign_ms, r.samples.assign_ms);
    }
    if (last) break;
  }

  auto& m = summary.metrics;
  if (!opts.trace) {
    m.push_back({"setup_s", setup_s, "s"});
    m.push_back({"trips_per_s", Ratio(static_cast<double>(plain_bookings),
                                      plain_wall),
                 "1/s"});
    m.push_back({"quote_ms_p50", Quantile(plain.quote_ms, 0.50), "ms"});
    m.push_back({"assign_ms_p50", Quantile(plain.assign_ms, 0.50), "ms"});
    m.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
    m.push_back({"trips_served", static_cast<double>(summary.outcome.assigned),
                 "count"});
  } else {
    const RoundCounters& c = last_counters;
    const auto n = [](uint64_t v) { return static_cast<double>(v); };
    m.push_back({"setup.graph_s", sc.setup.graph_s, "s"});
    m.push_back({"setup.grid_s", sc.setup.grid_s, "s"});
    m.push_back({"setup.ch_s", sc.setup.ch_s, "s"});
    m.push_back({"setup.create_s", sc.setup.create_s, "s"});
    m.push_back({"setup.fleet_s", sc.setup.fleet_s, "s"});
    m.push_back({"roadnet.queries", n(c.queries), "count"});
    m.push_back({"roadnet.cache_hit_ratio",
                 Ratio(n(c.cache_hits), n(c.queries)), "ratio"});
    m.push_back({"roadnet.searches", n(c.searches), "count"});
    m.push_back({"roadnet.heap_pops", n(c.heap_pops), "count"});
    m.push_back({"roadnet.queries_per_quote", Ratio(n(c.queries), n(c.quotes)),
                 "count"});
    m.push_back({"roadnet.query_us_p50", Quantile(query_us, 0.50), "us"});
    m.push_back({"roadnet.move_queries", n(c.move_queries), "count"});
    m.push_back({"tail.quote_ms_p99", Quantile(traced.quote_ms, 0.99), "ms"});
    m.push_back({"tail.assign_ms_p99", Quantile(traced.assign_ms, 0.99),
                 "ms"});
    m.push_back({"core.match_ms_p50", Quantile(traced.match_ms, 0.50), "ms"});
    m.push_back({"core.match_ms_p99", Quantile(traced.match_ms, 0.99), "ms"});
    m.push_back({"core.commit_ms_p50", Quantile(traced.commit_ms, 0.50),
                 "ms"});
    m.push_back({"core.browse_ms_p50", Quantile(traced.browse_ms, 0.50),
                 "ms"});
    m.push_back({"core.vehicles_examined", n(c.vehicles_examined), "count"});
    m.push_back({"core.vehicles_pruned", n(c.vehicles_pruned), "count"});
    m.push_back({"core.prune_ratio",
                 Ratio(n(c.vehicles_pruned),
                       n(c.vehicles_pruned + c.vehicles_examined)),
                 "ratio"});
    m.push_back({"core.cells_visited", n(c.cells_visited), "count"});
    m.push_back({"core.distance_computations", n(c.distance_computations),
                 "count"});
    m.push_back({"core.options_per_quote", Ratio(n(c.options), n(c.quotes)),
                 "count"});
    m.push_back({"vehicle.trial_sequences",
                 n(c.insertion.sequences_generated), "count"});
    m.push_back({"vehicle.bound_pruned", n(c.insertion.bound_pruned),
                 "count"});
    m.push_back({"vehicle.exact_validated", n(c.insertion.exact_validated),
                 "count"});
    m.push_back({"vehicle.accept_ratio",
                 Ratio(n(c.insertion.accepted),
                       n(c.insertion.sequences_generated)),
                 "ratio"});
    m.push_back({"dispatch.batches", n(c.batches), "count"});
    m.push_back({"dispatch.batch_size_mean",
                 Ratio(n(c.batched_requests), n(c.batches)), "count"});
    m.push_back({"dispatch.batch_ms_p50", Quantile(traced.batch_ms, 0.50),
                 "ms"});
    m.push_back({"dispatch.batch_ms_p99", Quantile(traced.batch_ms, 0.99),
                 "ms"});
    m.push_back({"sim.tick_ms_p50", Quantile(traced.tick_ms, 0.50), "ms"});
    m.push_back({"sim.tick_ms_p99", Quantile(traced.tick_ms, 0.99), "ms"});
    m.push_back({"sim.advance_s", c.advance_s, "s"});
    m.push_back({"sim.move_commit_s", c.move_commit_s, "s"});
    m.push_back({"sim.reindex_s", c.reindex_s, "s"});
    m.push_back({"sim.vehicle_ticks", n(c.vehicle_ticks), "count"});
    m.push_back({"trace.overhead_s", Quantile(traced_round_wall, 0.5) -
                                         Quantile(plain_round_wall, 0.5),
                 "s"});
    m.push_back({"trace.spans", static_cast<double>(tracer.spans().size()),
                 "count"});
    const std::map<std::string, double> self = tracer.SelfSeconds();
    for (const char* name : {"run", "window", "dispatch.batch", "core.quote",
                             "core.commit", "core.browse_quote", "sim.tick"}) {
      const auto it = self.find(name);
      m.push_back({std::string("self.") + name + "_s",
                   it == self.end() ? 0.0 : it->second, "s"});
    }
    if (!opts.out_dir.empty()) {
      summary.trace_path = opts.out_dir + "/trace-" + opts.workload +
                           "-seed" + std::to_string(opts.seed) + ".json";
      PTRIDER_RETURN_IF_ERROR(tracer.WriteChromeJson(summary.trace_path));
    }
  }
  return summary;
}

}  // namespace perfbench
