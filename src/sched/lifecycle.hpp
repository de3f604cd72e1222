// The job lifecycle every production local scheduler shares.
//
// Fork, FCFS/EASY batch and reservation scheduling differ only in *when* a
// job starts (paper §2.1: fork vs. LoadLeveler/PBS/NQE-style queues).  The
// rest is written once here: the descriptor check over one queued+running
// id index, the queued and running records, the runtime and wall-time
// timers, the end/cancel/complete paths, the busy and queued-work
// accounting, version(), summary() and snapshot(), and the publication
// mark behind marked_snapshot().
//
// A policy derives from JobLifecycle<Tag>, where `Tag` is the per-job data
// it fixes at submit, and supplies its start decision (schedule(), rerun
// after every end and queued cancel) and its profile updates (occupy() at
// start, vacate() at end).  Event order is part of the contract: a start
// arms the runtime timer, then the wall timer, then runs on_start; an end
// cancels its timers, runs vacate() and on_end, then reruns schedule().
//
// Publication is lazy.  The queue is append-at-tail and erase-anywhere, so
// the jobs queued at a mark that are still queued stay its head, in order.
// A mark records the queue length and the processor counts; from then on
// each job that leaves that head is logged with its index in it.  Undoing
// those removals (OriginalPositions) puts each departed job back where the
// mark saw it, so the head merged with the log is exactly the queue at the
// mark, and no round pays for a copy nobody reads.  The log never holds
// more jobs than the mark saw, so a mark left in place stays cheap.
// Positions come from the log rather than a per-job sequence number: one
// more field would grow `Queued` and slow every deep queue's middle
// erases.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sched/scheduler.hpp"
#include "simkit/check.hpp"
#include "simkit/idmap.hpp"

namespace grid::sched {

/// Maps removals from a list of `n` elements back to the positions the
/// elements held in the original list: take(i) removes the element now at
/// index i and returns its original position.  A Fenwick tree over the
/// elements still present: O(n) to build, O(log n) per take.
class OriginalPositions {
 public:
  explicit OriginalPositions(std::size_t n) : tree_(n + 1) {
    for (std::size_t i = 1; i <= n; ++i) {
      tree_[i] = static_cast<std::uint32_t>(i & (~i + 1));  // all present
    }
  }

  std::size_t take(std::size_t index) {
    std::size_t pos = 0;  // finds the (index + 1)-th element still present
    std::size_t rank = index + 1;
    for (std::size_t step = std::bit_floor(tree_.size() - 1); step > 0;
         step >>= 1) {
      if (pos + step < tree_.size() && tree_[pos + step] < rank) {
        pos += step;
        rank -= tree_[pos];
      }
    }
    for (std::size_t i = pos + 1; i < tree_.size(); i += i & (~i + 1)) {
      --tree_[i];
    }
    return pos;
  }

 private:
  std::vector<std::uint32_t> tree_;  // 1-based counts of present elements
};

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
    for (const Queued& q : queue_) s.queued.push_back(info(q));
    return s;
  }

  void mark_published(sim::Time taken_at) const override {
    mark_ = Mark{queue_.size(), taken_at, total_processors(), busy_};
    departed_.clear();
  }

  QueueSnapshot marked_snapshot() const override {
    QueueSnapshot s;
    s.taken_at = mark_.taken_at;
    s.total_processors = mark_.total;
    s.busy_processors = mark_.busy;
    GRID_CHECK(departed_.size() <= mark_.queued &&
                   mark_.queued - departed_.size() <= queue_.size(),
               "departure log out of step with the marked queue");
    s.queued.reserve(mark_.queued);
    // Where each departed job stood at the mark, in queue order.
    std::vector<std::pair<std::size_t, const QueuedJobInfo*>> gone;
    if (!departed_.empty()) {
      gone.reserve(departed_.size());
      OriginalPositions positions(mark_.queued);
      for (const Departed& d : departed_) {
        gone.emplace_back(positions.take(d.index), &d.info);
      }
      std::sort(gone.begin(), gone.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
    }
    std::size_t pos = 0;
    auto q = queue_.begin();
    for (const auto& [at, job] : gone) {
      for (; pos < at; ++pos, ++q) s.queued.push_back(info(*q));
      s.queued.push_back(*job);
      ++pos;
    }
    for (; pos < mark_.queued; ++pos, ++q) s.queued.push_back(info(*q));
    return s;
  }

  void release_mark() const override {
    mark_ = Mark{};
    departed_ = {};
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
    log_departure(it);
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
    log_departure(it);
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
  /// What the mark pinned; queued 0 (no mark) logs nothing.
  struct Mark {
    std::size_t queued = 0;  // queue length at the mark
    sim::Time taken_at = 0;
    std::int32_t total = 0;
    std::int32_t busy = 0;
  };
  struct Departed {
    std::size_t index = 0;  // in the marked head when it left
    QueuedJobInfo info;
  };

  static QueuedJobInfo info(const Queued& q) {
    return QueuedJobInfo{q.desc.id, q.desc.count, q.desc.estimated_runtime,
                         q.submitted_at};
  }

  /// Logs the queued job at `it` if it leaves the head the mark saw.
  void log_departure(QueueIt it) {
    const auto index = static_cast<std::size_t>(it - queue_.begin());
    if (index < mark_.queued - departed_.size()) {
      departed_.push_back(Departed{index, info(*it)});
    }
  }

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
  // Publication bookkeeping, not scheduler state (version() ignores it).
  mutable Mark mark_;
  mutable std::vector<Departed> departed_;  // queued at the mark, since left
};

}  // namespace grid::sched
