// Space-shared batch scheduler: FCFS, optionally with EASY backfill.
//
// Stands in for the production schedulers (LoadLeveler, PBS, NQE) whose
// queue waits dominate real co-allocation startup (paper §4.2's closing
// remark) and whose unpredictability motivates the forecast and
// reservation studies (§2.2, §5).
//
// Decisions are made against a time-indexed free-slot profile
// (sched::Profile) instead of rescans of the queue and the running set,
// so a submit into a 100k-deep queue costs O(log n) amortized rather than
// O(n).  The decision *semantics* are the EASY contract spelled out in
// DESIGN.md §5.4 and executable as sched::ReferenceBackfill
// (reference.hpp); tests/sched_diff_test.cpp holds the two equal on
// randomized workloads forever.
#pragma once

#include "sched/lifecycle.hpp"
#include "sched/profile.hpp"

namespace grid::sched {

enum class Backfill {
  kNone,  // pure FCFS
  kEasy,  // EASY: backfill only if the head job's start is not delayed
};

/// The queue a batch job saw at submit, kept for its wait observation.
struct SubmitLoad {
  std::int32_t queue_length = 0;
  std::int64_t queued_work = 0;  // processor-ns ahead of the job
};

class BatchScheduler final : public JobLifecycle<SubmitLoad> {
 public:
  BatchScheduler(sim::Engine& engine, std::int32_t processors,
                 Backfill backfill = Backfill::kNone);

  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override;

  std::string policy() const override {
    return backfill_ == Backfill::kEasy ? "easy-backfill" : "fcfs";
  }

  /// Caps the wait-history vector (`wait_history()`): recording stops once
  /// it holds `cap` observations.  Default is unlimited; sustained-load
  /// scenarios set a cap (or 0) so a million-job day does not accrete an
  /// unbounded observation log.
  void set_history_capacity(std::size_t cap) { history_capacity_ = cap; }

  /// Virtual-time wait statistics of started jobs, for predictor training.
  struct WaitObservation {
    sim::Time submitted_at = 0;
    sim::Time started_at = 0;
    std::int32_t count = 0;
    std::int32_t queue_length_at_submit = 0;
    std::int64_t queued_work_at_submit = 0;  // processor-ns ahead of the job
  };
  const std::vector<WaitObservation>& wait_history() const {
    return history_;
  }

  /// The free-slot profile the backfill decisions read (tests/benches).
  const Profile& profile() const { return profile_; }

 private:
  /// Full scheduling pass: FCFS holds, then one EASY scan of the queue.
  void schedule() override;
  void occupy(const QueueKey& k, Running& r) override;
  void vacate(const Running& r) override;
  /// The EASY scan under a frozen (shadow, extra): starts admissible
  /// candidates, returns the remaining extra.  Restarts from the front
  /// when a start callback ends a job re-entrantly (the seed scan shape).
  std::int32_t backfill_scan(sim::Time now, sim::Time shadow,
                             std::int32_t extra);
  /// O(log n) fast path for a submit into an already-blocked queue; falls
  /// back to schedule() when the cached shadow state is stale.
  void submit_fast_path();
  std::int32_t free_processors() const {
    return total_processors() - busy_processors();
  }
  /// Estimated completion if started at `started` (kTimeNever when
  /// unknown); saturates instead of overflowing.
  sim::Time estimated_end(const JobDescriptor& d, sim::Time started) const;
  /// Admission estimate for backfill: estimate else runtime (no wall
  /// fallback — mirrors the seed scan and the reference oracle).
  sim::Time backfill_estimate(const QueueKey& k) const {
    return k.estimated_runtime > 0 ? k.estimated_runtime : runtime_of(k);
  }

  Backfill backfill_;
  Profile profile_;        // future free processors from running jobs
  std::int32_t unknown_busy_ = 0;  // running procs occupying to kTimeNever
  std::vector<WaitObservation> history_;
  std::size_t history_capacity_ = static_cast<std::size_t>(-1);
  bool scheduling_ = false;  // re-entrancy guard for schedule()
  // Shadow state cached by the last full EASY pass that left the head
  // blocked; lets a submit decide its own fate without rescanning.  Any
  // end or queued cancel since (departures_ moved) makes it stale.
  bool cache_valid_ = false;
  std::uint64_t cached_departures_ = 0;
  sim::Time cached_shadow_ = 0;
  std::int32_t cached_extra_ = 0;
};

}  // namespace grid::sched
