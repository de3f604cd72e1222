// Differential test: BatchScheduler (profile-based EASY backfill) against
// ReferenceBackfill (the scan-based oracle transcribed from the seed).
//
// Each trial builds the same randomized workload twice — one world per
// implementation — runs both event loops to completion, and the main
// thread asserts that every observable is identical: submit verdicts,
// start order and start times, end order/times/reasons, cancel results,
// the wait-observation history (queue lengths and queued work at submit,
// which checks the O(1) bookkeeping against the oracle's O(n) rescans),
// and the final queue.  Workloads mix widths, estimate error (over, under,
// absent), zero runtimes, wall-time kills, cancels of queued and running
// jobs, and duplicate submissions.
//
// In the re-entrant mode the start callbacks call back into the scheduler
// mid-pass: they submit bursts of new jobs (deep enough to grow the queue
// storage while a pass walks it), cancel queued and running jobs, and
// complete running jobs, the starting job included.
//
// Trials fan out over sim::TrialPool; per the pool contract the trial
// bodies only build transcripts — all EXPECTs happen on the main thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/batch.hpp"
#include "sched/reference.hpp"
#include "simkit/engine.hpp"
#include "simkit/rng.hpp"
#include "simkit/trialpool.hpp"

namespace grid::sched {
namespace {

struct JobSpec {
  JobDescriptor desc;
  sim::Time submit_at = 0;
  sim::Time cancel_at = 0;  // 0 = never cancelled
};

struct Workload {
  std::int32_t processors = 0;
  std::vector<JobSpec> jobs;
  std::uint64_t reentry_seed = 0;  // drives the re-entrant mode's callbacks
};

Workload make_workload(std::uint64_t seed, std::size_t job_count) {
  sim::Rng rng(0x5eedfeedULL ^ seed * 0x9e3779b97f4a7c15ULL);
  Workload w;
  w.reentry_seed = seed ^ 0x7e3e47e5ULL;
  w.processors = static_cast<std::int32_t>(32 << rng.uniform_int(0, 3));
  w.jobs.reserve(job_count);
  sim::Time clock = 0;
  for (std::size_t i = 0; i < job_count; ++i) {
    JobSpec j;
    // Arrivals outpace service for long stretches so the queue gets deep.
    clock += rng.uniform_time(0, 60);
    j.submit_at = clock;
    j.desc.id = static_cast<JobId>(i + 1);
    if (i > 0 && i % 97 == 0) {
      j.desc.id = static_cast<JobId>(rng.uniform_int(
          1, static_cast<std::int64_t>(i)));  // duplicate: both must reject
    }
    // Width skewed small, with occasional near-machine-wide jobs that
    // block the head and open backfill windows.
    const std::int64_t width_class = rng.uniform_int(0, 9);
    if (width_class == 0) {
      j.desc.count = static_cast<std::int32_t>(
          rng.uniform_int(w.processors / 2, w.processors));
    } else {
      j.desc.count = static_cast<std::int32_t>(
          rng.uniform_int(1, std::max(2, w.processors / 8)));
    }
    // Runtime: mostly finite, sometimes zero (runs until cancelled).
    j.desc.runtime = rng.chance(0.05) ? 0 : rng.uniform_time(50, 4000);
    // Estimate error: absent, exact, optimistic (job runs past it), or
    // pessimistic.
    switch (rng.uniform_int(0, 3)) {
      case 0:
        j.desc.estimated_runtime = 0;
        break;
      case 1:
        j.desc.estimated_runtime = j.desc.runtime;
        break;
      case 2:
        j.desc.estimated_runtime =
            static_cast<sim::Time>(static_cast<double>(j.desc.runtime) *
                                   rng.uniform(0.3, 0.95));
        break;
      default:
        j.desc.estimated_runtime =
            static_cast<sim::Time>(static_cast<double>(j.desc.runtime) *
                                   rng.uniform(1.05, 3.0));
        break;
    }
    if (rng.chance(0.08)) {
      j.desc.max_wall_time = rng.uniform_time(50, 5000);  // sometimes kills
    }
    if (rng.chance(0.10)) {
      j.cancel_at = j.submit_at + rng.uniform_time(1, 6000);
    }
    w.jobs.push_back(std::move(j));
  }
  return w;
}

struct StartRec {
  JobId id = 0;
  sim::Time at = 0;

  bool operator==(const StartRec&) const = default;
};

struct EndRec {
  JobId id = 0;
  sim::Time at = 0;
  int reason = 0;

  bool operator==(const EndRec&) const = default;
};

struct Transcript {
  std::vector<bool> accepted;
  std::vector<StartRec> starts;
  std::vector<EndRec> ends;
  std::vector<bool> cancel_results;
  std::vector<BatchScheduler::WaitObservation> waits;
  std::vector<JobId> final_queue;
  std::int32_t final_busy = 0;
  bool profile_ok = true;  // BatchScheduler worlds audit their profile
  /// Re-entrant bursts that lifted the queue past a new power-of-two
  /// high-water mark, growing the queue storage mid-pass.
  std::size_t growth_bursts = 0;
};

bool operator==(const BatchScheduler::WaitObservation& a,
                const BatchScheduler::WaitObservation& b) {
  return a.submitted_at == b.submitted_at && a.started_at == b.started_at &&
         a.count == b.count &&
         a.queue_length_at_submit == b.queue_length_at_submit &&
         a.queued_work_at_submit == b.queued_work_at_submit;
}

enum class Callbacks {
  kRecordOnly,  // start and end callbacks only append to the transcript
  kReentrant,   // start callbacks also submit, cancel and complete
};

/// Jobs submitted from start callbacks take ids from here up, clear of
/// the workload's.
constexpr JobId kNestedIdBase = 1'000'000;

template <typename Sched>
class World {
 public:
  World(const Workload& w, Backfill mode, Callbacks callbacks)
      : w_(w), sched_(eng_, w.processors, mode), callbacks_(callbacks),
        rng_(w.reentry_seed) {}

  Transcript run() {
    for (std::size_t i = 0; i < w_.jobs.size(); ++i) {
      const JobSpec& j = w_.jobs[i];
      eng_.schedule_at(j.submit_at, [this, &j] { submit(j.desc); });
      if (j.cancel_at > 0) {
        eng_.schedule_at(j.cancel_at, [this, &j] { cancel(j.desc.id); });
      }
    }
    eng_.run();
    t_.waits = sched_.wait_history();
    const QueueSnapshot s = sched_.snapshot();
    for (const QueuedJobInfo& q : s.queued) t_.final_queue.push_back(q.id);
    t_.final_busy = sched_.busy_processors();
    if constexpr (std::is_same_v<Sched, BatchScheduler>) {
      t_.profile_ok = sched_.profile().invariants_ok();
    }
    return std::move(t_);
  }

 private:
  void submit(const JobDescriptor& desc) {
    const util::Status st = sched_.submit(
        desc, [this](JobId id) { started(id); },
        [this](JobId id, EndReason r) {
          t_.ends.push_back(EndRec{id, eng_.now(), static_cast<int>(r)});
        });
    t_.accepted.push_back(st.is_ok());
    high_water_ = std::max(high_water_, sched_.queue_length());
  }

  void cancel(JobId id) { t_.cancel_results.push_back(sched_.cancel(id)); }

  void started(JobId id) {
    t_.starts.push_back(StartRec{id, eng_.now()});
    if (callbacks_ != Callbacks::kReentrant) return;
    // Every draw happens in start order, so both worlds draw the same
    // stream for as long as they agree.
    switch (rng_.uniform_int(0, 9)) {
      case 0:
        if (id < kNestedIdBase) burst();  // nested jobs do not burst again
        break;
      case 1:
        cancel(id + 5);  // queued, running or unknown: all must agree
        break;
      case 2:
        if (next_nested_ > kNestedIdBase) cancel(next_nested_ - 1);
        break;
      case 3:
        sched_.complete(id > 3 ? id - 3 : id);
        break;
      case 4:
        sched_.complete(id);  // ends inside its own start callback
        break;
      default:
        break;
    }
  }

  /// Submits a burst of fresh jobs from inside a start callback.
  void burst() {
    // A queue grown by appends holds power-of-two capacity, so passing the
    // next power of two above the deepest queue so far reallocates it.
    const std::size_t capacity = std::bit_ceil(high_water_);
    for (int n = 0; n < 48; ++n) {
      JobDescriptor d;
      d.id = next_nested_++;
      d.count = static_cast<std::int32_t>(
          rng_.uniform_int(1, std::max(2, w_.processors / 8)));
      d.runtime = rng_.uniform_time(50, 2000);
      if (rng_.chance(0.5)) {
        d.estimated_runtime = d.runtime + rng_.uniform_time(0, 500);
      }
      submit(d);
    }
    if (high_water_ > capacity) ++t_.growth_bursts;
  }

  const Workload& w_;
  sim::Engine eng_;
  Sched sched_;
  Callbacks callbacks_;
  sim::Rng rng_;
  JobId next_nested_ = kNestedIdBase;
  std::size_t high_water_ = 0;  // deepest queue after any submit
  Transcript t_;
};

template <typename Sched>
Transcript run_world(const Workload& w, Backfill mode, Callbacks callbacks) {
  return World<Sched>(w, mode, callbacks).run();
}

struct TrialResult {
  Transcript fast;
  Transcript oracle;
};

void expect_equal(const Transcript& fast, const Transcript& oracle,
                  std::size_t seed, const char* mode) {
  SCOPED_TRACE(std::string("seed ") + std::to_string(seed) + " mode " + mode);
  EXPECT_TRUE(fast.profile_ok);
  EXPECT_EQ(fast.accepted, oracle.accepted);
  ASSERT_EQ(fast.starts.size(), oracle.starts.size());
  for (std::size_t i = 0; i < fast.starts.size(); ++i) {
    ASSERT_EQ(fast.starts[i], oracle.starts[i]) << "start #" << i;
  }
  ASSERT_EQ(fast.ends.size(), oracle.ends.size());
  for (std::size_t i = 0; i < fast.ends.size(); ++i) {
    ASSERT_EQ(fast.ends[i], oracle.ends[i]) << "end #" << i;
  }
  EXPECT_EQ(fast.cancel_results, oracle.cancel_results);
  ASSERT_EQ(fast.waits.size(), oracle.waits.size());
  for (std::size_t i = 0; i < fast.waits.size(); ++i) {
    ASSERT_TRUE(fast.waits[i] == oracle.waits[i])
        << "wait observation #" << i << " diverged: queued_work "
        << fast.waits[i].queued_work_at_submit << " vs "
        << oracle.waits[i].queued_work_at_submit << ", queue_length "
        << fast.waits[i].queue_length_at_submit << " vs "
        << oracle.waits[i].queue_length_at_submit;
  }
  EXPECT_EQ(fast.final_queue, oracle.final_queue);
  EXPECT_EQ(fast.final_busy, oracle.final_busy);
}

void run_differential(Backfill mode, const char* label, std::size_t seeds,
                      std::size_t job_count,
                      Callbacks callbacks = Callbacks::kRecordOnly) {
  sim::TrialPool pool;
  const std::vector<TrialResult> results =
      pool.map<TrialResult>(seeds, [&](std::size_t seed) {
        const Workload w = make_workload(seed, job_count);
        TrialResult r;
        r.fast = run_world<BatchScheduler>(w, mode, callbacks);
        r.oracle = run_world<ReferenceBackfill>(w, mode, callbacks);
        return r;
      });
  std::size_t growth_bursts = 0;
  for (std::size_t seed = 0; seed < results.size(); ++seed) {
    expect_equal(results[seed].fast, results[seed].oracle, seed, label);
    growth_bursts += results[seed].fast.growth_bursts;
  }
  if (callbacks == Callbacks::kReentrant) {
    // The mode exists to grow the queue storage under a running pass.
    EXPECT_GT(growth_bursts, 0u) << label;
  }
}

TEST(SchedDiff, EasyBackfillMatchesOracleAcrossSeeds) {
  run_differential(Backfill::kEasy, "easy", 16, 1000);
}

TEST(SchedDiff, FcfsMatchesOracleAcrossSeeds) {
  run_differential(Backfill::kNone, "fcfs", 16, 1000);
}

TEST(SchedDiff, EasyBackfillMatchesOracleWithReentrantCallbacks) {
  run_differential(Backfill::kEasy, "easy-reentrant", 16, 1000,
                   Callbacks::kReentrant);
}

TEST(SchedDiff, FcfsMatchesOracleWithReentrantCallbacks) {
  run_differential(Backfill::kNone, "fcfs-reentrant", 16, 1000,
                   Callbacks::kReentrant);
}

TEST(SchedDiff, EasyBackfillMatchesOracleOnDeepQueue) {
  // One deeper world: arrivals pile thousands of jobs behind a blocked
  // head, the regime the profile rewrite exists for.
  run_differential(Backfill::kEasy, "easy-deep", 2, 4000);
}

}  // namespace
}  // namespace grid::sched
