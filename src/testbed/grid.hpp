// Testbed assembly: builds a complete simulated grid in one call.
//
// A Grid owns the simulation engine, the network, the security
// infrastructure (CA, gridmap), the shared NIS server, the executable
// registry, and a set of hosts (local scheduler + GRAM gatekeeper each).
// Benches, tests, and examples construct a Grid, install application
// executables, create a co-allocator, and run the event loop.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/coallocator.hpp"
#include "gram/gatekeeper.hpp"
#include "gram/nis.hpp"
#include "gsi/credential.hpp"
#include "net/fabric.hpp"
#include "net/network.hpp"
#include "sched/batch.hpp"
#include "sched/fork.hpp"
#include "sched/reservation.hpp"
#include "simkit/engine.hpp"
#include "simkit/sharded.hpp"
#include "testbed/costmodel.hpp"

namespace grid::testbed {

/// Which local scheduler a host runs.
enum class SchedulerKind {
  kFork,         // queue-less fork starts (the §4.2 benchmark setup)
  kFcfs,         // space-shared FCFS batch queue
  kBackfill,     // FCFS + EASY backfill
  kReservation,  // FCFS + advance reservations
};

struct HostSpec {
  std::string name;
  std::int32_t processors = 64;
  SchedulerKind scheduler = SchedulerKind::kFork;
  /// Multiplies this host's service costs (GSI, gatekeeper, fork) relative
  /// to the grid cost model — heterogeneous testbeds give each resource a
  /// different speed.  1.0 uses the grid model untouched.
  double cost_scale = 1.0;
  /// Which shard (resource-manager group) the host lives on.  Only
  /// meaningful for grids built with shards > 1; everything on shard 0
  /// behaves exactly as an unsharded grid.
  int shard = 0;
};

/// One resource: a local scheduler plus its GRAM gatekeeper.
class Host {
 public:
  Host(class Grid& grid, const HostSpec& spec);

  const std::string& name() const { return spec_.name; }
  const HostSpec& spec() const { return spec_; }
  net::NodeId contact() const { return gatekeeper_->contact(); }
  gram::Gatekeeper& gatekeeper() { return *gatekeeper_; }
  sched::LocalScheduler& scheduler() { return *scheduler_; }

  /// The concrete scheduler, when the experiment needs policy-specific
  /// operations (reservations, wait history); nullptr on kind mismatch.
  sched::BatchScheduler* batch_scheduler();
  sched::ReservationScheduler* reservation_scheduler();

  /// Crashes / restores this host (gatekeeper and all its jobs).
  void crash();
  void restore();
  bool is_up() const;

 private:
  class Grid* grid_;
  HostSpec spec_;
  std::unique_ptr<sched::LocalScheduler> scheduler_;
  std::unique_ptr<gram::Gatekeeper> gatekeeper_;
};

class Grid {
 public:
  /// `shards` > 1 builds a sharded grid: one engine + network per shard
  /// joined by a net::ShardFabric, advanced conservatively by the
  /// sim::ShardedEngine (serial by default; set_shard_threads picks the
  /// threaded substrate).  shards == 1 is byte-identical to the historical
  /// single-engine grid.
  explicit Grid(CostModel costs = CostModel::paper(),
                std::uint64_t seed = 0x9e3779b9, int shards = 1);
  ~Grid();

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  sim::Engine& engine() { return engines_.shard(0); }
  sim::Engine& shard_engine(int shard) {
    return engines_.shard(static_cast<std::size_t>(shard));
  }
  sim::ShardedEngine& engines() { return engines_; }
  int shards() const { return static_cast<int>(engines_.shards()); }
  /// Worker threads for the sharded run (0/1 = serial substrate).
  void set_shard_threads(unsigned n) { engines_.set_threads(n); }
  net::Network& network() { return *networks_[0]; }
  net::Network& network(int shard) {
    return *networks_[static_cast<std::size_t>(shard)];
  }
  net::ShardFabric* fabric() { return fabric_.get(); }
  const CostModel& costs() const { return costs_; }
  gsi::CertificateAuthority& ca() { return ca_; }
  gsi::GridMap& gridmap() { return gridmap_; }
  gram::ExecutableRegistry& executables() { return *executables_[0]; }
  gram::ExecutableRegistry& executables(int shard) {
    return *executables_[static_cast<std::size_t>(shard)];
  }
  gram::NisServer& nis() { return *nis_; }

  /// Adds a host; names must be unique (they are the RSL contact strings).
  Host& add_host(const HostSpec& spec);
  Host& add_host(const std::string& name, std::int32_t processors = 64,
                 SchedulerKind scheduler = SchedulerKind::kFork);
  Host* host(const std::string& name);
  std::size_t host_count() const { return hosts_.size(); }

  /// resourceManagerContact -> gatekeeper address, for co-allocators.
  core::ContactResolver resolver();

  /// Issues a user credential valid for the whole simulation and maps the
  /// subject in the gridmap.
  gsi::Credential make_user(const std::string& subject,
                            const std::string& local_user);

  /// Builds a ready-to-use co-allocator for `subject` (resolver installed).
  std::unique_ptr<core::Coallocator> make_coallocator(
      const std::string& name, const std::string& subject,
      core::RequestConfig defaults = {});

  /// Runs the event loop to completion / until a deadline.
  void run() { engines_.run(); }
  void run_until(sim::Time deadline) { engines_.run_until(deadline); }

 private:
  friend class Host;

  CostModel costs_;
  sim::ShardedEngine engines_;
  std::vector<std::unique_ptr<net::Network>> networks_;
  std::unique_ptr<net::ShardFabric> fabric_;
  gsi::CertificateAuthority ca_;
  gsi::GridMap gridmap_;
  std::vector<std::unique_ptr<gram::ExecutableRegistry>> executables_;
  std::unique_ptr<gram::NisServer> nis_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unordered_map<std::string, Host*> by_name_;
};

/// RSL text helpers used across benches / tests / examples.
std::string rsl_subjob(const std::string& contact, std::int32_t count,
                       const std::string& executable,
                       const std::string& start_type = "required",
                       const std::string& label = "");
std::string rsl_multi(const std::vector<std::string>& subjobs);

}  // namespace grid::testbed
