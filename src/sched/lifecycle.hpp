// The job lifecycle every production local scheduler shares.
//
// Fork, FCFS/EASY batch and reservation scheduling differ only in *when* a
// job starts (paper §2.1: fork vs. LoadLeveler/PBS/NQE-style queues).  The
// rest is written once here: the descriptor check over one queued+running
// id index, the queued and running records, the runtime and wall-time
// timers, the end/cancel/complete paths, the busy and queued-work
// accounting, version(), summary() and snapshot().
//
// A policy derives from JobLifecycle<Tag>, where `Tag` is the per-job data
// it fixes at submit, and supplies its start decision (schedule(), rerun
// after every end and queued cancel) and its profile updates (occupy() at
// start, vacate() at end).  Event order is part of the contract: a start
// arms the runtime timer, then the wall timer, then runs on_start; an end
// cancels its timers, runs vacate() and on_end, then reruns schedule().
#pragma once

#include <algorithm>
#include <deque>

#include "sched/scheduler.hpp"
#include "simkit/check.hpp"
#include "simkit/idmap.hpp"

namespace grid::sched {

template <typename Tag>
class JobLifecycle : public LocalScheduler {
 public:
  /// Queues the job, then runs the start decision.
  util::Status submit(const JobDescriptor& job, StartFn on_start,
                      EndFn on_end) override {
    if (auto st = check(job); !st.is_ok()) return st;
    enqueue(job, std::move(on_start), std::move(on_end), Tag{});
    schedule();
    return util::Status::ok();
  }

  void complete(JobId id) override { end(id, EndReason::kCompleted); }

  bool cancel(JobId id) override {
    if (ids_.find(id) == sim::IdMap::kNotFound) return false;
    if (running_.find(id) != nullptr) {
      end(id, EndReason::kCancelled);
      return true;
    }
    const auto it = std::find_if(queue_.begin(), queue_.end(),
                                 [id](const Queued& q) { return q.desc.id == id; });
    GRID_CHECK(it != queue_.end(), "job id index out of sync with the queue");
    drop(it);
    schedule();  // removing a stuck head job may unblock others
    return true;
  }

  std::int32_t total_processors() const override { return total_; }
  std::int32_t busy_processors() const override { return busy_; }
  std::size_t queue_length() const override { return queue_.size(); }

  QueueSnapshot snapshot() const override {
    QueueSnapshot s;
    s.taken_at = engine_->now();
    s.total_processors = total_processors();
    s.busy_processors = busy_;
    s.queued.reserve(queue_.size());
    for (const Queued& q : queue_) {
      s.queued.push_back(QueuedJobInfo{q.desc.id, q.desc.count,
                                       q.desc.estimated_runtime,
                                       q.submitted_at});
    }
    return s;
  }

  QueueSummary summary() const override {
    QueueSummary s;
    s.taken_at = engine_->now();
    s.total_processors = total_processors();
    s.busy_processors = busy_;
    s.queue_length = static_cast<std::uint32_t>(queue_.size());
    s.queued_work = queued_work_;  // maintained at every queue edit
    return s;
  }

  std::uint64_t version() const override { return version_; }

 protected:
  struct Queued {
    JobDescriptor desc;
    StartFn on_start;
    EndFn on_end;
    sim::Time submitted_at = 0;
    Tag tag;
  };
  struct Running {
    JobDescriptor desc;
    EndFn on_end;
    Tag tag{};
    sim::Time est_end = 0;       // profile occupancy end, set by occupy()
    bool started = false;        // false while a deferred start is pending
    sim::EventId start_event{};  // the deferred start (start_after)
    sim::EventId runtime_event{};
    sim::EventId wall_event{};
  };
  using QueueIt = typename std::deque<Queued>::iterator;

  /// `total` bounds the descriptor check's processor count.
  JobLifecycle(sim::Engine& engine, std::int32_t total)
      : engine_(&engine), total_(total) {}

  /// The start decision.  Runs after every end and queued cancel; may be
  /// re-entered from the start and end callbacks it triggers.
  virtual void schedule() {}
  /// Profile updates when queued job `q` starts as `r` (set r.est_end
  /// here) and when a started job ends.
  virtual void occupy(const Queued& /*q*/, Running& /*r*/) {}
  virtual void vacate(const Running& /*r*/) {}

  util::Status check(const JobDescriptor& job) const {
    return check_descriptor(job, total_,
                            ids_.find(job.id) != sim::IdMap::kNotFound);
  }

  /// Appends a checked job to the queue; the caller runs its decision.
  void enqueue(const JobDescriptor& job, StartFn on_start, EndFn on_end,
               Tag tag) {
    queue_.push_back(Queued{job, std::move(on_start), std::move(on_end),
                            engine_->now(), tag});
    ids_.insert(job.id, 1);
    queued_work_ += static_cast<std::int64_t>(job.count) * job.estimated_runtime;
    ++version_;
  }

  /// Starts the queued job at `it` now.
  void start(QueueIt it) {
    Queued q = std::move(*it);
    queue_.erase(it);
    queued_work_ -=
        static_cast<std::int64_t>(q.desc.count) * q.desc.estimated_runtime;
    Running r{.desc = q.desc, .on_end = std::move(q.on_end), .tag = q.tag};
    occupy(q, r);
    const JobId id = q.desc.id;
    begin(id, running_.emplace(id, std::move(r)), q.on_start);
  }

  /// Starts a checked job `delay` from now without queueing it (fork's
  /// process creation).  Until then it holds its id but no processors.
  void start_after(sim::Time delay, const JobDescriptor& job, StartFn on_start,
                   EndFn on_end) {
    ids_.insert(job.id, 1);
    Running& r =
        running_.emplace(job.id, Running{.desc = job, .on_end = std::move(on_end)});
    r.start_event = engine_->schedule_after(
        delay, [this, id = job.id, on_start = std::move(on_start)] {
          if (Running* found = running_.find(id)) begin(id, *found, on_start);
        });
  }

  /// Removes the queued job at `it`, reporting it cancelled; the caller
  /// reruns its decision.
  void drop(QueueIt it) {
    Queued q = std::move(*it);
    queue_.erase(it);
    ids_.erase(q.desc.id);
    queued_work_ -=
        static_cast<std::int64_t>(q.desc.count) * q.desc.estimated_runtime;
    ++departures_;
    ++version_;
    if (q.on_end) q.on_end(q.desc.id, EndReason::kCancelled);
  }

  /// Ends a started or deferred job, then reruns the start decision.
  void end(JobId id, EndReason reason) {
    Running* found = running_.find(id);
    if (found == nullptr) return;
    Running r = std::move(*found);
    running_.erase(id);
    ids_.erase(id);
    engine_->cancel(r.start_event);
    engine_->cancel(r.runtime_event);
    engine_->cancel(r.wall_event);
    if (r.started) busy_ -= r.desc.count;
    ++departures_;
    ++version_;
    if (r.started) vacate(r);
    if (r.on_end) r.on_end(id, reason);
    schedule();
  }

  sim::Engine* engine_;
  std::deque<Queued> queue_;
  sim::IdSlab<Running> running_;
  /// Bumped by every end and queued cancel, so a decision pass can tell
  /// that a start callback removed jobs re-entrantly.
  std::uint64_t departures_ = 0;

 private:
  void begin(JobId id, Running& r, const StartFn& on_start) {
    r.started = true;
    busy_ += r.desc.count;
    ++version_;
    if (r.desc.runtime > 0) {
      r.runtime_event = engine_->schedule_after(
          r.desc.runtime, [this, id] { end(id, EndReason::kCompleted); });
    }
    if (r.desc.max_wall_time > 0) {
      r.wall_event = engine_->schedule_after(r.desc.max_wall_time, [this, id] {
        end(id, EndReason::kWallTimeExceeded);
      });
    }
    if (on_start) on_start(id);
  }

  std::int32_t total_;
  sim::IdMap ids_;  // every queued and running job
  std::int32_t busy_ = 0;
  std::int64_t queued_work_ = 0;  // sum of count*estimate over the queue
  std::uint64_t version_ = 1;     // dirty-flag counter (0 = untracked)
};

}  // namespace grid::sched
