// The job lifecycle every production local scheduler shares.
//
// Fork, FCFS/EASY batch and reservation scheduling differ only in *when* a
// job starts (paper §2.1: fork vs. LoadLeveler/PBS/NQE-style queues).  The
// rest is written once here: the descriptor check over one queued+running
// id index, the queue and the running records, the runtime and wall-time
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
// The queue is indexed.  Queue order is a contiguous vector of 32-byte
// keys holding what the decision passes and the snapshots read: the
// QueuedJobInfo fields plus the index of the job's slot.  Everything else
// a queued job carries (runtime, wall limit, callbacks, tag) sits once in
// that slot, in a SlotStore, whose blocks never move a slot, which reuses
// the lowest vacant slot first and which shrinks when its top slot is
// vacated, so its memory tracks the queue's depth rather than its
// high-water mark.  A scan over a deep queue reads eight keys per 256
// bytes and a middle erase moves keys only; a slot is read when its job
// starts and when backfill needs the runtime of a job without an
// estimate.
//
// Publication is lazy.  The queue is append-at-tail and erase-anywhere, so
// the jobs queued at a mark that are still queued stay its head, in order.
// A mark records the queue length and the processor counts; from then on
// each job that leaves that head is logged with its index in it.  Undoing
// those removals (OriginalPositions) puts each departed job back where the
// mark saw it, so the head merged with the log is exactly the queue at the
// mark, and no round pays for a copy nobody reads.  The log never holds
// more jobs than the mark saw, so a mark left in place stays cheap.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
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

/// Records of type T indexed by small integers, stored in blocks of
/// kBlock so that growth never moves a record.  Freed indices are reused
/// lowest first, and a vacancy at the top shrinks the store instead, so it
/// stays about as large as its live count and, empty, holds no memory.
template <typename T>
class SlotStore {
 public:
  /// Takes a vacant index; its record is value-initialized.
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t i = free_.back();
      free_.pop_back();
      return i;
    }
    if (size_ % kBlock == 0) blocks_.push_back(std::make_unique<T[]>(kBlock));
    return size_++;
  }

  T& operator[](std::uint32_t i) { return blocks_[i / kBlock][i % kBlock]; }
  const T& operator[](std::uint32_t i) const {
    return blocks_[i / kBlock][i % kBlock];
  }

  /// Resets the record at `i` and makes `i` vacant.
  void release(std::uint32_t i) {
    (*this)[i] = T{};
    if (i + 1 < size_) {
      free_.insert(std::upper_bound(free_.begin(), free_.end(), i,
                                    std::greater<>()),
                   i);
      return;
    }
    // Drop `i` and the run of vacancies directly below it.
    --size_;
    auto run = free_.begin();
    for (; run != free_.end() && *run + 1 == size_; ++run) --size_;
    free_.erase(free_.begin(), run);
    blocks_.resize((size_ + kBlock - 1) / kBlock);
    if (size_ == 0) {  // hand the empty vectors' buffers back too
      blocks_.shrink_to_fit();
      free_.shrink_to_fit();
    }
  }

  /// Live plus vacant indices: every index below it is one or the other.
  std::uint32_t size() const { return size_; }
  /// The vacant indices below size(), highest first.
  const std::vector<std::uint32_t>& vacant() const { return free_; }

 private:
  static constexpr std::uint32_t kBlock = 4;

  std::vector<std::unique_ptr<T[]>> blocks_;
  std::vector<std::uint32_t> free_;  // descending: back() is the lowest
  std::uint32_t size_ = 0;
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
                                 [id](const QueueKey& k) { return k.id == id; });
    GRID_CHECK(it != queue_.end(), "job id index out of sync with the queue");
    drop(static_cast<std::size_t>(it - queue_.begin()));
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
    for (const QueueKey& k : queue_) s.queued.push_back(info(k));
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
    const QueueKey* k = queue_.data();
    for (const auto& [at, job] : gone) {
      for (; pos < at; ++pos, ++k) s.queued.push_back(info(*k));
      s.queued.push_back(*job);
      ++pos;
    }
    for (; pos < mark_.queued; ++pos, ++k) s.queued.push_back(info(*k));
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
  /// A queued job's place in queue order: its QueuedJobInfo fields, with
  /// the index of the slot holding the rest in what would be padding.
  struct QueueKey {
    JobId id = 0;
    std::int32_t count = 0;
    std::uint32_t slot = 0;
    sim::Time estimated_runtime = 0;
    sim::Time submitted_at = 0;
  };
  static_assert(sizeof(QueueKey) == 32, "queue keys are 32 bytes");
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

  /// `total` bounds the descriptor check's processor count.
  JobLifecycle(sim::Engine& engine, std::int32_t total)
      : engine_(&engine), total_(total) {}

  /// The start decision.  Runs after every end and queued cancel; may be
  /// re-entered from the start and end callbacks it triggers.
  virtual void schedule() {}
  /// Profile updates when the job keyed `k` starts as `r` (set r.est_end
  /// here) and when a started job ends.
  virtual void occupy(const QueueKey& /*k*/, Running& /*r*/) {}
  virtual void vacate(const Running& /*r*/) {}

  util::Status check(const JobDescriptor& job) const {
    return check_descriptor(job, total_,
                            ids_.find(job.id) != sim::IdMap::kNotFound);
  }

  /// The queued job's runtime and tag, read through its slot.
  sim::Time runtime_of(const QueueKey& k) const {
    return slots_[k.slot].runtime;
  }
  const Tag& tag_of(const QueueKey& k) const { return slots_[k.slot].tag; }
  /// The queued job's full descriptor.
  JobDescriptor descriptor(const QueueKey& k) const {
    const Slot& s = slots_[k.slot];
    return JobDescriptor{k.id, k.count, k.estimated_runtime, s.runtime,
                         s.max_wall_time};
  }

  /// Appends a checked job to the queue; the caller runs its decision.
  void enqueue(const JobDescriptor& job, StartFn on_start, EndFn on_end,
               Tag tag) {
    const std::uint32_t slot = slots_.acquire();
    Slot& s = slots_[slot];
    s.runtime = job.runtime;
    s.max_wall_time = job.max_wall_time;
    s.on_start = std::move(on_start);
    s.on_end = std::move(on_end);
    s.tag = tag;
    GRID_CHECKED_ONLY(s.id = job.id;)
    queue_.push_back(
        QueueKey{job.id, job.count, slot, job.estimated_runtime, engine_->now()});
    ids_.insert(job.id, 1);
    queued_work_ += static_cast<std::int64_t>(job.count) * job.estimated_runtime;
    ++version_;
    GRID_CHECK(queue_consistent(), "queue keys out of step with their slots");
  }

  /// Starts the queued job at index `i` now.
  void start(std::size_t i) {
    const QueueKey k = unlink(i);
    const JobDescriptor desc = descriptor(k);
    Slot s = take_slot(k.slot);
    Running r{.desc = desc, .on_end = std::move(s.on_end), .tag = s.tag};
    occupy(k, r);
    begin(k.id, running_.emplace(k.id, std::move(r)), s.on_start);
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

  /// Removes the queued job at index `i`, reporting it cancelled; the
  /// caller reruns its decision.
  void drop(std::size_t i) {
    const QueueKey k = unlink(i);
    const Slot s = take_slot(k.slot);
    ids_.erase(k.id);
    ++departures_;
    ++version_;
    if (s.on_end) s.on_end(k.id, EndReason::kCancelled);
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
  std::vector<QueueKey> queue_;  // queue order
  sim::IdSlab<Running> running_;
  /// Bumped by every end and queued cancel, so a decision pass can tell
  /// that a start callback removed jobs re-entrantly.
  std::uint64_t departures_ = 0;

 private:
  /// What a queued job carries beyond its key.
  struct Slot {
    sim::Time runtime = 0;
    sim::Time max_wall_time = 0;
    StartFn on_start;
    EndFn on_end;
    Tag tag{};
    GRID_CHECKED_ONLY(JobId id = 0;)  // occupant (0 = vacant), for the tripwire
  };
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

  static QueuedJobInfo info(const QueueKey& k) {
    return QueuedJobInfo{k.id, k.count, k.estimated_runtime, k.submitted_at};
  }

  /// Removes the key at index `i` from queue order, logging it if it
  /// leaves the head the mark saw.  Its slot stays occupied.
  QueueKey unlink(std::size_t i) {
    const QueueKey k = queue_[i];
    if (i < mark_.queued - departed_.size()) {
      departed_.push_back(Departed{i, info(k)});
    }
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
    queued_work_ -= static_cast<std::int64_t>(k.count) * k.estimated_runtime;
    return k;
  }

  /// Moves an unlinked job's slot contents out and frees the slot.
  Slot take_slot(std::uint32_t slot) {
    Slot s = std::move(slots_[slot]);
    slots_.release(slot);
    GRID_CHECK(queue_consistent(), "queue keys out of step with their slots");
    return s;
  }

#if defined(GRID_CHECKED)
  /// Each key's slot holds that job, the free list holds exactly the
  /// vacant slots, and queued_work_ is the sum over the keys.  O(queue).
  bool queue_consistent() const {
    std::int64_t work = 0;
    for (const QueueKey& k : queue_) {
      if (k.slot >= slots_.size() || slots_[k.slot].id != k.id) return false;
      work += static_cast<std::int64_t>(k.count) * k.estimated_runtime;
    }
    const std::vector<std::uint32_t>& vacant = slots_.vacant();
    for (std::size_t i = 0; i < vacant.size(); ++i) {
      if (vacant[i] >= slots_.size() || slots_[vacant[i]].id != 0) return false;
      if (i > 0 && vacant[i] >= vacant[i - 1]) return false;  // not descending
    }
    return queue_.size() + vacant.size() == slots_.size() &&
           work == queued_work_;
  }
#endif

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
  SlotStore<Slot> slots_;  // indexed by QueueKey::slot
  std::int32_t busy_ = 0;
  std::int64_t queued_work_ = 0;  // sum of count*estimate over the queue
  std::uint64_t version_ = 1;     // dirty-flag counter (0 = untracked)
  // Publication bookkeeping, not scheduler state (version() ignores it).
  mutable Mark mark_;
  mutable std::vector<Departed> departed_;  // queued at the mark, since left
};

}  // namespace grid::sched
