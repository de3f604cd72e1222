#include "sched/fork.hpp"

#include <limits>

namespace grid::sched {

// Fork starts any count: the descriptor check gets no capacity bound.
ForkScheduler::ForkScheduler(sim::Engine& engine,
                             sim::Time fork_cost_per_process,
                             std::int32_t nominal_processors)
    : JobLifecycle(engine, std::numeric_limits<std::int32_t>::max()),
      fork_cost_(fork_cost_per_process),
      nominal_(nominal_processors) {}

util::Status ForkScheduler::submit(const JobDescriptor& job, StartFn on_start,
                                   EndFn on_end) {
  if (auto st = check(job); !st.is_ok()) return st;
  start_after(fork_cost_ * job.count, job, std::move(on_start),
              std::move(on_end));
  return util::Status::ok();
}

}  // namespace grid::sched
