#include "workload.h"

#include <utility>

#include "roadnet/graph_generator.h"
#include "sim/workload.h"
#include "util/random.h"
#include "util/timer.h"

namespace perfbench {

using ptrider::util::Result;
using ptrider::util::Status;

Seeds Seeds::From(uint64_t seed) {
  Seeds s;
  if (seed == 0) return s;
  uint64_t state = seed;
  s.fleet = ptrider::util::SplitMix64(state);
  s.trips = ptrider::util::SplitMix64(state);
  s.browse = ptrider::util::SplitMix64(state);
  s.sim = ptrider::util::SplitMix64(state);
  return s;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"city_day", "quote_browse",
                                                  "fleet_cruise"};
  return kNames;
}

Result<WorkloadSpec> MakeSpec(const std::string& name, uint64_t seed,
                              bool reduced) {
  WorkloadSpec spec;
  spec.name = name;
  spec.seeds = Seeds::From(seed);
  if (name == "city_day" || name == "quote_browse") {
    // The e22 flagship: matching is most of the run.
    spec.city_rows = spec.city_cols = reduced ? 14 : 36;
    spec.taxis = reduced ? 60 : 600;
    spec.trips = reduced ? 240 : 4000;
    spec.trip_hours = reduced ? 0.25 : 1.0;
    spec.drain_s = reduced ? 600.0 : 1800.0;
    spec.browse_per_booking = name == "quote_browse" ? 4 : 0;
  } else if (name == "fleet_cruise") {
    // A large, mostly idle fleet over a long day: movement and
    // re-indexing dominate, and CH preprocessing dominates set-up.
    spec.city_rows = spec.city_cols = reduced ? 20 : 60;
    spec.taxis = reduced ? 300 : 4000;
    spec.trips = reduced ? 120 : 1800;
    spec.trip_hours = reduced ? 0.5 : 3.0;
    spec.drain_s = reduced ? 600.0 : 1800.0;
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (city_day, quote_browse, fleet_cruise)");
  }
  return spec;
}

ptrider::core::Config PaperConfig() {
  ptrider::core::Config cfg;
  cfg.matcher = ptrider::core::MatcherAlgorithm::kDualSide;
  cfg.sp_algorithm = ptrider::roadnet::SpAlgorithm::kContractionHierarchy;
  cfg.pricing_policy = ptrider::core::PricingPolicyKind::kPaper;
  cfg.max_planned_pickup_s = cfg.default_max_wait_s;
  return cfg;
}

ptrider::sim::SimulatorOptions PaperSimOptions(const WorkloadSpec& spec) {
  ptrider::sim::SimulatorOptions opts;
  opts.tick_s = 1.0;
  opts.batch_window_s = 2.0;
  opts.drain_s = spec.drain_s;
  opts.seed = spec.seeds.sim;
  opts.choice.model = ptrider::sim::RiderChoiceModel::kWeightedUtility;
  return opts;
}

Result<Scenario> BuildScenario(const WorkloadSpec& spec) {
  namespace roadnet = ptrider::roadnet;
  Scenario sc;
  sc.spec = spec;
  sc.config = PaperConfig();
  sc.sim_options = PaperSimOptions(spec);

  ptrider::util::WallTimer timer;
  roadnet::CityGridOptions city;
  city.rows = spec.city_rows;
  city.cols = spec.city_cols;
  city.spacing_m = 250.0;
  city.seed = spec.seeds.city;
  PTRIDER_ASSIGN_OR_RETURN(roadnet::RoadNetwork graph,
                           roadnet::MakeCityGrid(city));
  sc.graph = std::make_unique<roadnet::RoadNetwork>(std::move(graph));
  sc.setup.graph_s = timer.ElapsedSeconds();

  timer.Restart();
  PTRIDER_ASSIGN_OR_RETURN(roadnet::GridIndex grid,
                           roadnet::GridIndex::Build(*sc.graph));
  sc.grid.emplace(std::move(grid));
  sc.setup.grid_s = timer.ElapsedSeconds();

  timer.Restart();
  sc.ch = std::make_shared<const roadnet::CHIndex>(
      roadnet::CHIndex::Build(*sc.graph));
  sc.setup.ch_s = timer.ElapsedSeconds();

  return sc;
}

Result<std::unique_ptr<ptrider::core::PTRider>> CreateSystem(
    const Scenario& sc, SetupTimes* times) {
  ptrider::util::WallTimer timer;
  PTRIDER_ASSIGN_OR_RETURN(
      std::unique_ptr<ptrider::core::PTRider> system,
      ptrider::core::PTRider::Create(*sc.graph, sc.config, *sc.grid, sc.ch));
  const double create_s = timer.ElapsedSeconds();
  timer.Restart();
  PTRIDER_RETURN_IF_ERROR(
      system->InitFleetUniform(sc.spec.taxis, sc.spec.seeds.fleet));
  if (times != nullptr) {
    times->create_s = create_s;
    times->fleet_s = timer.ElapsedSeconds();
  }
  return system;
}

Status DrawStreams(Scenario& sc) {
  ptrider::sim::HotspotWorkloadOptions trips;
  trips.num_trips = sc.spec.trips;
  trips.duration_s = sc.spec.trip_hours * 3600.0;
  trips.seed = sc.spec.seeds.trips;
  PTRIDER_ASSIGN_OR_RETURN(
      sc.bookings, ptrider::sim::GenerateHotspotTrips(*sc.graph, trips));
  sc.browse.clear();
  if (sc.spec.browse_per_booking > 0) {
    ptrider::sim::HotspotWorkloadOptions browse = trips;
    browse.num_trips = sc.spec.trips * sc.spec.browse_per_booking;
    browse.seed = sc.spec.seeds.browse;
    PTRIDER_ASSIGN_OR_RETURN(
        sc.browse, ptrider::sim::GenerateHotspotTrips(*sc.graph, browse));
  }
  return Status::Ok();
}

}  // namespace perfbench
