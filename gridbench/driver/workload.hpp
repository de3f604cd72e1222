// The benchmark's workloads and the arrival plan generated for each.
//
// A workload is a testbed::ScaleSpec (the grid-at-scale vocabulary: pool
// size, background and transaction rates, diurnal shape, broker fan-out,
// shards) plus the broker path its transactions take.  Every input the run
// feeds the grid - the resource pool's shape and every background and
// transaction arrival - is generated here with sim::Rng, before set-up, so
// the program under test receives only generated inputs.  The arrivals
// come from the run's seed; the pool always comes from the default seed.
// The draws follow testbed::ScaleScenario stream for stream, so grid_day
// on ScaleSpec's default seed is the repository's reference day.
//
// Arrivals are open loop in simulated time: the plan fixes every arrival
// up front, whatever the backlog, so the generator can never run late.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "testbed/grid.hpp"
#include "testbed/scale.hpp"

namespace gridbench {

enum class BrokerPath {
  kSummary,    // ResourceBroker::select_by_summary
  kFull,       // ResourceBroker::select (full queue snapshots)
  kFederated,  // ResourceBroker::select_federated, one GIS per shard
};

struct Workload {
  std::string name;
  grid::testbed::ScaleSpec spec;  // spec.duration is the measured horizon
  BrokerPath broker = BrokerPath::kSummary;
  /// Host seconds one run phase is budgeted at.  A measured run makes
  /// round(--seconds / repeat_s) repeats, at least one, so the repeat
  /// count depends on --seconds alone, never on the machine's speed.
  double repeat_s = 1.0;
  /// Horizon of the default-seed replay every run makes to check its
  /// digest against the recorded one.
  grid::sim::Time canary = grid::sim::kHour;
};

/// ScaleSpec's default seed: grid_day on it is the reference day.
inline constexpr std::uint64_t kDefaultSeed = 0x5ca1eULL;

/// Seed of repeat `r` of a run on `seed`: repeat 0 runs the seed itself,
/// later repeats independent seeds derived from it (splitmix64).
std::uint64_t repeat_seed(std::uint64_t seed, int r);

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

struct BackgroundArrival {
  grid::sim::Time at = 0;
  std::uint32_t host = 0;  // index into the shard's host list
  std::int32_t count = 0;
  grid::sim::Time runtime = 0;
  grid::sim::Time estimate = 0;
};

struct TxnArrival {
  grid::sim::Time at = 0;
  std::int32_t subjobs = 0;
  std::int32_t count = 0;
  bool atomic = false;
  std::uint32_t first_candidate = 0;  // into ArrivalPlan::candidates
};

struct ArrivalPlan {
  std::vector<grid::testbed::HostSpec> hosts;          // creation order
  std::vector<std::vector<std::uint32_t>> shard_hosts;  // indices into hosts
  std::vector<std::vector<BackgroundArrival>> background;  // per shard
  std::vector<TxnArrival> txns;
  std::vector<std::uint32_t> candidates;  // broker_candidates per txn
};

/// Generates the whole plan for `spec`: arrivals from spec.seed up to
/// spec.duration, the pool from kDefaultSeed.
ArrivalPlan generate(const grid::testbed::ScaleSpec& spec);

}  // namespace gridbench
