// The §2 application scenario, end to end — on a two-shard grid.
//
// "A large distributed simulation requires 400 processors ... Five
// computers are identified that can collectively provide the required 400
// processors ... one of the computers turns out to be unavailable due to a
// system crash.  This failure is handled by dropping that computer from
// the ensemble and adding another, located dynamically. ... after five
// minutes the fifth system has not joined ... The solution adopted ... is
// to drop the 'faulty' system from the ensemble, and proceed with just
// four systems, at a decreased level of simulation fidelity, but with the
// same completion time."
//
// The five systems span two administrative domains, so the grid is built
// with two shards (one engine + network per resource-manager group, joined
// by a net::ShardFabric) and advanced on the threaded substrate.  The
// co-allocation agent lives on shard 0; every RPC to the east-campus sites
// crosses the shard boundary through per-pair mailboxes, and the run is
// byte-identical to the same grid advanced serially (shard_threads = 0) —
// that is the sharded engine's contract, not a property of this workload.
//
//   $ ./distributed_simulation
#include <cstdio>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "testbed/grid.hpp"

using namespace grid;

namespace {

void log_line(const testbed::Grid& grid, const std::string& msg) {
  std::printf("[%7.2fs] %s\n",
              sim::to_seconds(const_cast<testbed::Grid&>(grid).engine().now()),
              msg.c_str());
}

}  // namespace

int main() {
  // Two shards: west campus (shard 0) and east campus (shard 1).  Two
  // worker threads run the shards concurrently inside conservative
  // lookahead windows; set_shard_threads(0) would run the same windows on
  // the serial coordinator and produce the exact same event order.
  testbed::Grid grid(testbed::CostModel::paper(), 0x9e3779b9, /*shards=*/2);
  grid.set_shard_threads(2);

  // BarrierStats are written from the shard that runs the job, so each
  // shard gets its own accumulator (summed after the run).
  app::BarrierStats stats[2];
  for (int i = 1; i <= 6; ++i) {
    testbed::HostSpec spec;
    spec.name = "site" + std::to_string(i);
    spec.processors = 128;
    spec.shard = i <= 3 ? 0 : 1;  // site1..3 west, site4..6 east
    grid.add_host(spec);
  }

  for (int shard = 0; shard < grid.shards(); ++shard) {
    app::install_app(grid.executables(shard), "sim",
                     {.init_delay = 45 * sim::kSecond,
                      .init_jitter = 15 * sim::kSecond},
                     &stats[shard]);
    // site5 is overloaded with other work: its processes initialize far
    // too slowly to make the startup deadline.
    app::install_app(grid.executables(shard), "sim-overloaded",
                     {.init_delay = 40 * sim::kMinute}, &stats[shard]);
  }
  // site3 has crashed before the request is issued.
  grid.host("site3")->crash();

  // Pre-run (no window active, coordinator thread) each shard stamps a
  // probe so the output shows both clocks advancing; once run() starts,
  // events may only enter a foreign shard through ShardedEngine::post.
  for (int shard = 0; shard < grid.shards(); ++shard) {
    grid.shard_engine(shard).schedule_at(
        2 * sim::kMinute, [shard] {
          std::printf("          .. shard %d passed the 2-minute mark\n",
                      shard);
        });
  }

  auto mechanisms = grid.make_coallocator("agent", "/O=Grid/CN=dis");
  core::RequestConfig config;
  config.rpc_timeout = 10 * sim::kSecond;
  // The application's startup deadline: five minutes.
  config.startup_timeout = 5 * sim::kMinute;

  core::CoallocationRequest* req = nullptr;
  bool substituted = false;
  bool released = false;
  req = mechanisms->create_request(
      {
          .on_subjob =
              [&](core::SubjobHandle h, core::SubjobState s,
                  const util::Status& why) {
                auto view = req->subjob(h);
                const std::string where =
                    view.is_ok() ? view.value().contact : "?";
                log_line(grid, "subjob " + std::to_string(h) + " (" + where +
                                   ") -> " + core::to_string(s) +
                                   (why.is_ok() ? "" : "  [" +
                                                           why.to_string() +
                                                           "]"));
                if (s != core::SubjobState::kFailed ||
                    req->state() != core::RequestState::kEditing) {
                  return;
                }
                if (where == "site3" && !substituted) {
                  substituted = true;
                  log_line(grid,
                           ">> site3 is down; adding site6, located "
                           "dynamically on the east campus");
                  auto original = req->subjob_request(h);
                  rsl::JobRequest r = original.take();
                  r.resource_manager_contact = "site6";
                  req->substitute_subjob(h, std::move(r));
                } else if (where == "site5") {
                  log_line(grid,
                           ">> site5 missed the startup deadline; dropping "
                           "it and proceeding with four systems at reduced "
                           "fidelity");
                  req->commit();
                }
              },
          .on_released =
              [&](const core::RuntimeConfig& cfg) {
                released = true;
                log_line(grid, "barrier released: " +
                                   std::to_string(cfg.total_processes) +
                                   " processors on " +
                                   std::to_string(cfg.subjobs.size()) +
                                   " systems");
              },
          .on_terminal =
              [&](const util::Status& status) {
                log_line(grid, "terminal: " + status.to_string());
              },
      },
      config);

  std::printf("co-allocating a 400-processor distributed simulation on five "
              "systems\n(80 processors each) across two shards; site3 is "
              "crashed, site5 is overloaded\n\n");
  std::vector<std::string> sites = {"site1", "site2", "site3", "site4",
                                    "site5"};
  for (const std::string& site : sites) {
    rsl::JobRequest j;
    j.resource_manager_contact = site;
    j.executable = site == "site5" ? "sim-overloaded" : "sim";
    j.count = 80;
    j.start_type = rsl::SubjobStartType::kInteractive;
    req->add_subjob(std::move(j));
  }
  req->start();
  grid.run();

  const net::NetworkStats& west = grid.network(0).stats();
  std::printf("\ncross-shard fabric: %llu messages west->east, "
              "%llu delivered back\n",
              static_cast<unsigned long long>(west.remote_sent),
              static_cast<unsigned long long>(west.remote_delivered));
  std::printf("final: %d processors released across %zu systems "
              "(%s fidelity)\n",
              req->runtime_config().total_processes,
              req->runtime_config().subjobs.size(),
              req->runtime_config().total_processes == 400 ? "full"
                                                           : "reduced");
  return released ? 0 : 1;
}
