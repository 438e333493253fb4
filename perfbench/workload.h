#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The benchmark's workloads: what each one generates and the paper-level
// configuration every one of them runs under. The program receives only
// the generated inputs; the seeds live here.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/ptrider.h"
#include "roadnet/ch.h"
#include "roadnet/graph.h"
#include "roadnet/grid_index.h"
#include "sim/simulator.h"
#include "sim/trip.h"
#include "util/status.h"

namespace perfbench {

/// The streams a workload draws from. `--seed 0` is the reference set
/// the repository's earlier benches used (city 7, fleet 3, trips 2009,
/// sim 7) plus the browse stream's own seed. Any other seed re-draws the
/// fleet, trips, browse and sim streams from it; the city stays city 7,
/// because the road network is the workload's map, not a draw, and a
/// fixed map keeps set-up time and per-query cost comparable across
/// seeds.
struct Seeds {
  uint64_t city = 7;
  uint64_t fleet = 3;
  uint64_t trips = 2009;
  uint64_t browse = 4099;
  uint64_t sim = 7;

  static Seeds From(uint64_t seed);
};

/// Sizes of one workload. `Reduced` specs keep a workload's shape at a
/// size the benchmark's own tests can run in a second.
struct WorkloadSpec {
  std::string name;
  int city_rows = 0;
  int city_cols = 0;
  size_t taxis = 0;
  size_t trips = 0;
  double trip_hours = 1.0;
  double drain_s = 1800.0;
  /// Browse quotes per booking, drawn from an independent hotspot stream
  /// over the same period (0 = bookings only).
  size_t browse_per_booking = 0;
  Seeds seeds;
};

/// The workload names in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

ptrider::util::Result<WorkloadSpec> MakeSpec(const std::string& name,
                                             uint64_t seed,
                                             bool reduced = false);

/// Paper-level configuration shared by every workload: dual-side
/// matcher, CH oracle, paper pricing, pick-up horizon = max wait. The
/// parallel knobs (dispatch_threads, index_shards, move_jobs,
/// pipeline_depth) keep their defaults, so every run is one thread.
ptrider::core::Config PaperConfig();
/// 1 s ticks, 2 s batch windows, weighted-utility riders.
ptrider::sim::SimulatorOptions PaperSimOptions(const WorkloadSpec& spec);

/// Wall seconds of each cold set-up step.
struct SetupTimes {
  double graph_s = 0.0;
  double grid_s = 0.0;
  double ch_s = 0.0;
  double create_s = 0.0;
  double fleet_s = 0.0;
};

/// The generated inputs and prebuilt indexes of one workload, shared by
/// every round of a run. Rounds build a fresh system over them.
struct Scenario {
  WorkloadSpec spec;
  ptrider::core::Config config;
  ptrider::sim::SimulatorOptions sim_options;
  std::unique_ptr<ptrider::roadnet::RoadNetwork> graph;
  std::optional<ptrider::roadnet::GridIndex> grid;
  std::shared_ptr<const ptrider::roadnet::CHIndex> ch;
  std::vector<ptrider::sim::Trip> bookings;
  std::vector<ptrider::sim::Trip> browse;
  SetupTimes setup;
};

/// Generates the city and builds the grid and CH indexes, each timed on
/// its own. The streams are drawn later (DrawStreams), so that a cold
/// set-up ends when the first system's fleet is placed.
ptrider::util::Result<Scenario> BuildScenario(const WorkloadSpec& spec);

/// A fresh system over the scenario's prebuilt indexes with its fleet
/// placed; fills `times->create_s` and `times->fleet_s` when non-null.
ptrider::util::Result<std::unique_ptr<ptrider::core::PTRider>>
CreateSystem(const Scenario& sc, SetupTimes* times);

/// Draws the booking stream and, for browse workloads, the browse stream.
ptrider::util::Status DrawStreams(Scenario& sc);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
