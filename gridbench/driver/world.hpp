// One set-up grid and the run phase the driver feeds through it.
//
// Construction is the benchmark's set-up: the grid and its hosts, one
// information service and GIS directory per shard, the application, and
// the co-allocation agents, all through public testbed/sched/info/core
// calls.  run() is the run phase: the driver's own timers and arrival
// events call into the layers directly - sched submits, info publishes
// and broker selections, rsl parses, core request submits and destroys -
// each inside a span when tracing is on.  Nothing here reads a wall clock
// except to time those calls from outside.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "info/broker.hpp"
#include "net/network.hpp"
#include "sched/predict.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace gridbench {

/// The network's deterministic counters, summed over shards.  Payloads
/// count as one sum: the pool's fresh/recycled split depends on what
/// earlier runs in the process left in the thread-local buffer pools.
struct NetCounts {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_down = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_random = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t payloads = 0;  // fresh + recycled
  std::uint64_t rpc_retries = 0;
  std::uint64_t rpc_retry_successes = 0;
  std::uint64_t rpc_retry_exhausted = 0;
  std::uint64_t remote_sent = 0;
  std::uint64_t remote_delivered = 0;

  void add(const grid::net::NetworkStats& n);
  bool operator==(const NetCounts&) const = default;
};

/// Deterministic outcome of a run: equal for equal inputs whatever the
/// tracing or the number of worker threads.
struct Counts {
  std::uint64_t bg_offered = 0;
  std::uint64_t bg_submitted = 0;
  std::uint64_t bg_rejected = 0;
  std::uint64_t bg_completed = 0;
  std::uint64_t txn_attempted = 0;
  std::uint64_t txn_placed = 0;
  std::uint64_t txn_select_failed = 0;
  std::uint64_t txn_released = 0;
  std::uint64_t txn_done = 0;
  std::uint64_t txn_aborted = 0;
  std::uint64_t subjobs = 0;
  std::uint64_t events = 0;
  std::uint64_t publish_rounds = 0;
  std::uint64_t snapshots_refreshed = 0;
  std::uint64_t snapshots_skipped = 0;
  std::uint64_t gis_cache_hits = 0;
  std::uint64_t gis_cache_misses = 0;
  std::uint64_t windows = 0;
  std::uint64_t posted = 0;
  NetCounts net;
  /// Order-sensitive digest of completions and terminal outcomes, mixed
  /// exactly as testbed::ScaleScenario mixes its fingerprint.
  std::uint64_t digest = 0;

  bool operator==(const Counts&) const = default;
};

struct RunResult {
  Counts counts;
  double run_s = 0;    // host seconds inside run_until
  double run_cpu_s = 0;  // process CPU seconds inside run_until
  double phase_s = 0;  // host seconds of the whole run phase
  std::uint64_t main_thread_allocs = 0;
  std::uint64_t payloads_recycled = 0;  // of Counts::net.payloads
  std::vector<double> release_sim_s;           // arrival -> barrier release
  std::vector<double> start_to_release_sim_s;  // core start() -> release
  std::vector<double> select_sim_s;            // broker call -> callback
  std::vector<double> queue_depths;            // traced runs only
  /// Conservation failures; empty for a correct run.
  std::vector<std::string> violations;
};

/// CPU seconds the process has used so far, all threads.  On a shared
/// host it leaves out the time the process waited for a CPU, which wall
/// time does not.
double process_cpu_s();

class World {
 public:
  /// Sets the grid up.  `threads` drives a sharded grid's worker threads
  /// (ignored for one shard); a traced world always runs on one thread, so
  /// its spans go to one tracer.
  World(const Workload& workload, const grid::testbed::ScaleSpec& spec,
        const ArrivalPlan& plan, unsigned threads, bool trace);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Runs the plan to spec.duration.  Call once.  With a `slice`, the
  /// run stops after every `slice` of simulated time and calls `between`,
  /// whose host time and allocations count in no RunResult field.  The
  /// simulation is the same with or without slices, except that a sharded
  /// grid cuts a lookahead window that straddles a slice boundary in two,
  /// so Counts::windows may grow by up to one per slice.
  RunResult run(grid::sim::Time slice = 0,
                const std::function<void()>& between = {});

  const Tracer& tracer() const { return tracer_; }

 private:
  struct Agent;
  struct Shard;
  struct Txn;

  void schedule_background(std::size_t shard);
  void background_arrival(std::size_t shard);
  void schedule_publish(std::size_t shard);
  void schedule_transaction();
  void transaction_arrival();
  void on_selected(std::uint32_t seq,
                   grid::util::Result<std::vector<
                       grid::info::ResourceBroker::Placement>> result);
  void check(RunResult& result) const;

  const Workload* workload_;
  grid::testbed::ScaleSpec spec_;
  const ArrivalPlan* plan_;
  Tracer tracer_;
  grid::testbed::Grid grid_;
  std::vector<grid::testbed::Host*> hosts_;
  std::vector<Shard> shards_;
  grid::sched::AggregateWorkPredictor predictor_;
  std::vector<Agent> agents_;
  std::vector<Txn> txns_;
  std::uint32_t next_txn_ = 0;
  RunResult result_;
  bool ran_ = false;
};

}  // namespace gridbench
