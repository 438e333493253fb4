// The benchmark's own tests: the output checks can fail, the workloads
// run clean at reduced size, and the benchmark drives the engine the way
// Simulator::Run does.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "round.h"
#include "sim/simulator.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Reduced {
  Scenario sc;
  std::unique_ptr<ptrider::core::PTRider> system;
};

Reduced MakeReduced(const std::string& workload, uint64_t seed) {
  auto spec = MakeSpec(workload, seed, /*reduced=*/true);
  EXPECT_TRUE(spec.ok());
  auto sc = BuildScenario(*spec);
  EXPECT_TRUE(sc.ok());
  Reduced r{std::move(sc).value(), nullptr};
  auto system = CreateSystem(r.sc, nullptr);
  EXPECT_TRUE(system.ok());
  r.system = std::move(system).value();
  EXPECT_TRUE(DrawStreams(r.sc).ok());
  return r;
}

RunSummary RunReduced(const std::string& workload, uint64_t seed,
                      bool trace = false) {
  RunOptions opts;
  opts.workload = workload;
  opts.seed = seed;
  opts.seconds = 0.0;  // one round (two when traced)
  opts.trace = trace;
  opts.reduced = true;
  const ptrider::util::WallTimer clock;
  auto summary = RunBenchmark(opts, clock);
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  return summary.ok() ? std::move(summary).value() : RunSummary{};
}

/// A round's records whose first option has a schedule of >= 2 stops.
class CheckerFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    reduced_ = MakeReduced("city_day", 0);
    Tracer off(false);
    const ptrider::util::WallTimer clock;
    auto round = RunRound(reduced_.sc, *reduced_.system, clock, off);
    ASSERT_TRUE(round.ok());
    records_ = std::move(round->records);
    for (size_t i = 0; i < records_.size(); ++i) {
      const auto& options = records_[i].match.options;
      if (!options.empty() && options[0].schedule.size() >= 2) {
        if (options.size() >= 2 && multi_ == SIZE_MAX) multi_ = i;
        if (any_ == SIZE_MAX) any_ = i;
      }
    }
    ASSERT_NE(any_, SIZE_MAX);
    ASSERT_NE(multi_, SIZE_MAX);
  }

  std::string CheckOne(const QuoteRecord& r) const {
    return OutputChecker(*reduced_.sc.graph, reduced_.sc.config)
        .Check({r})
        .front();
  }

  Reduced reduced_;
  std::vector<QuoteRecord> records_;
  size_t any_ = SIZE_MAX;
  size_t multi_ = SIZE_MAX;
};

TEST_F(CheckerFaults, CleanOutputsPass) {
  const Verdicts verdicts =
      OutputChecker(*reduced_.sc.graph, reduced_.sc.config).Check(records_);
  for (const std::string& v : verdicts) EXPECT_EQ(v, "");
}

TEST_F(CheckerFaults, RejectsCorruptedLeg) {
  QuoteRecord r = records_[any_];
  auto& schedule = r.match.options[0].schedule;
  // Re-route the last leg to a different vertex: the re-summed schedule
  // no longer matches new_total_distance.
  auto& last = schedule.back().location;
  last = last == 0 ? 1 : last - 1;
  EXPECT_NE(CheckOne(r).find("re-summed schedule"), std::string::npos)
      << CheckOne(r);
}

TEST_F(CheckerFaults, RejectsDominatedOption) {
  QuoteRecord r = records_[multi_];
  ptrider::core::Option worse = r.match.options[0];
  worse.price = std::nextafter(worse.price, 1e300);
  r.match.options.push_back(worse);
  r.vehicle_roots.push_back(r.vehicle_roots[0]);
  EXPECT_NE(CheckOne(r).find("dominated"), std::string::npos) << CheckOne(r);
}

TEST_F(CheckerFaults, RejectsFareUnderFloor) {
  QuoteRecord r = records_[any_];
  const auto& cfg = reduced_.sc.config;
  const double floor =
      (cfg.price_base_ratio +
       (r.request.num_riders - 1) * cfg.price_per_extra_rider) *
      r.match.direct_distance_m / cfg.price_distance_unit_m;
  r.match.options[0].price = floor * (1.0 - 1e-9);
  EXPECT_NE(CheckOne(r).find("fare floor"), std::string::npos) << CheckOne(r);
}

TEST_F(CheckerFaults, RejectsShiftedPickupTime) {
  QuoteRecord r = records_[any_];
  r.match.options[0].pickup_time_s += 1.0;
  EXPECT_NE(CheckOne(r).find("pickup_time_s"), std::string::npos)
      << CheckOne(r);
}

TEST(Conservation, RejectsLostBooking) {
  Outcome o;
  o.submitted = 10;
  o.assigned = 8;
  o.unserved = 2;
  o.completed = 7;
  o.still_assigned = 0;
  o.fleet_total_m = 3.0;
  o.fleet_occupied_m = 2.0;
  o.fleet_shared_m = 1.0;
  EXPECT_NE(CheckConservation(o, 10, 8, 2), "");
  o.still_assigned = 1;
  EXPECT_EQ(CheckConservation(o, 10, 8, 2), "");
  EXPECT_NE(CheckConservation(o, 11, 8, 2), "");
  o.fleet_shared_m = 2.5;
  EXPECT_NE(CheckConservation(o, 10, 8, 2), "");
}

TEST(Workloads, ReducedRunsHaveNoFailures) {
  for (const std::string& name : WorkloadNames()) {
    const RunSummary s = RunReduced(name, 3);
    EXPECT_TRUE(s.correct) << name;
    EXPECT_EQ(s.failed, 0) << name;
    EXPECT_GT(s.attempted, 0) << name;
    EXPECT_GT(s.outcome.assigned, 0) << name;
    for (const std::string& p : s.problems) ADD_FAILURE() << name << ": " << p;
  }
}

TEST(Workloads, BrowseQuotesCommitNothing) {
  const RunSummary city = RunReduced("city_day", 11);
  const RunSummary browse = RunReduced("quote_browse", 11);
  EXPECT_TRUE(browse.outcome.SameAs(city.outcome))
      << "quote_browse: " << browse.outcome.DebugString()
      << "\ncity_day:     " << city.outcome.DebugString();
  EXPECT_EQ(browse.attempted, city.attempted * 5);
}

TEST(Workloads, RoundMatchesSimulatorRun) {
  Reduced bench = MakeReduced("city_day", 2);
  Tracer off(false);
  const ptrider::util::WallTimer clock;
  auto round = RunRound(bench.sc, *bench.system, clock, off);
  ASSERT_TRUE(round.ok());

  auto system = CreateSystem(bench.sc, nullptr);
  ASSERT_TRUE(system.ok());
  ptrider::sim::Simulator simulator(**system, bench.sc.sim_options);
  auto report = simulator.Run(bench.sc.bookings);
  ASSERT_TRUE(report.ok());
  const Outcome& o = round->outcome;
  EXPECT_EQ(o.submitted, report->requests_submitted);
  EXPECT_EQ(o.assigned, report->requests_assigned);
  EXPECT_EQ(o.completed, report->requests_completed);
  EXPECT_EQ(o.shared, report->requests_shared);
  EXPECT_EQ(std::bit_cast<uint64_t>(o.revenue),
            std::bit_cast<uint64_t>(report->revenue_total));
  EXPECT_EQ(std::bit_cast<uint64_t>(o.fleet_total_m),
            std::bit_cast<uint64_t>(report->fleet_total_distance_m));
}

TEST(Trace, SelfTimeSubtractsChildren) {
  Tracer t(true);
  const int64_t root = t.Add("run", 0.0, 10.0, -1);
  const int64_t batch = t.Add("dispatch.batch", 1.0, 5.0, root);
  t.Add("core.quote", 1.0, 2.0, batch, 7);
  t.Add("core.commit", 2.0, 2.5, batch, 7);
  t.Add("sim.tick", 6.0, 9.0, root);
  const auto self = t.SelfSeconds();
  EXPECT_DOUBLE_EQ(self.at("run"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("dispatch.batch"), 2.5);
  EXPECT_DOUBLE_EQ(self.at("sim.tick"), 3.0);
  Tracer off(false);
  EXPECT_EQ(off.Add("run", 0.0, 1.0, -1), -1);
  EXPECT_TRUE(off.spans().empty());
}

TEST(Trace, TracedRunReportsEveryLayerAndWritesTrace) {
  RunOptions opts;
  opts.workload = "city_day";
  opts.seed = 1;
  opts.seconds = 0.0;
  opts.trace = true;
  opts.reduced = true;
  opts.out_dir = ".";
  const ptrider::util::WallTimer clock;
  auto s = RunBenchmark(opts, clock);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_EQ(s->rounds, 2);
  EXPECT_EQ(s->failed, 0);
  std::vector<std::string> names;
  for (const Metric& m : s->metrics) names.push_back(m.name);
  for (const char* want :
       {"setup.ch_s", "roadnet.query_us_p50", "tail.assign_ms_p99",
        "core.match_ms_p99", "vehicle.accept_ratio", "dispatch.batch_ms_p99",
        "sim.vehicle_ticks", "trace.overhead_s", "self.core.quote_s"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
  std::FILE* f = std::fopen(s->trace_path.c_str(), "r");
  ASSERT_NE(f, nullptr) << s->trace_path;
  std::fclose(f);
}

}  // namespace
}  // namespace perfbench
