// Fork scheduler: queue-less, timeshared process creation.
//
// Reproduces the configuration of the paper's microbenchmarks (§4.2):
// "GRAM was configured to respond to allocation requests by immediately
// 'forking' the requested number of processes."  Start delay is the
// per-process fork cost times the process count (Figure 3: ~1 ms for one
// process); there is no capacity limit because the host timeshares.
#pragma once

#include <variant>

#include "sched/lifecycle.hpp"

namespace grid::sched {

class ForkScheduler final : public JobLifecycle<std::monostate> {
 public:
  /// `nominal_processors` is the advertised machine size (information
  /// service / broker view); the timeshared scheduler does not enforce it.
  ForkScheduler(sim::Engine& engine, sim::Time fork_cost_per_process,
                std::int32_t nominal_processors = 0);

  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override;

  std::int32_t total_processors() const override {
    return nominal_ > 0 ? nominal_ : busy_processors();
  }
  std::string policy() const override { return "fork"; }

 private:
  sim::Time fork_cost_;
  std::int32_t nominal_;
};

}  // namespace grid::sched
