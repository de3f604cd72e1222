#include "sched/batch.hpp"

#include <string>

namespace grid::sched {

std::int64_t QueueSnapshot::queued_work() const {
  std::int64_t total = 0;
  for (const QueuedJobInfo& j : queued) {
    total += static_cast<std::int64_t>(j.count) * j.estimated_runtime;
  }
  return total;
}

QueueSummary summarize(const QueueSnapshot& snapshot) {
  QueueSummary s;
  s.taken_at = snapshot.taken_at;
  s.total_processors = snapshot.total_processors;
  s.busy_processors = snapshot.busy_processors;
  s.queue_length = static_cast<std::uint32_t>(snapshot.queued.size());
  s.queued_work = snapshot.queued_work();
  return s;
}

util::Status check_descriptor(const JobDescriptor& job, std::int32_t capacity,
                              bool id_in_use) {
  if (job.count < 1) {
    return {util::ErrorCode::kInvalidArgument, "count must be >= 1"};
  }
  if (job.count > capacity) {
    return {util::ErrorCode::kResourceExhausted,
            "job needs " + std::to_string(job.count) + " processors, machine has " +
                std::to_string(capacity)};
  }
  if (job.id == 0) {
    return {util::ErrorCode::kInvalidArgument, "job id 0 is reserved"};
  }
  if (id_in_use) {
    return {util::ErrorCode::kInvalidArgument, "duplicate job id"};
  }
  return util::Status::ok();
}

BatchScheduler::BatchScheduler(sim::Engine& engine, std::int32_t processors,
                               Backfill backfill)
    : JobLifecycle(engine, processors),
      backfill_(backfill),
      profile_(processors) {}

util::Status BatchScheduler::submit(const JobDescriptor& job, StartFn on_start,
                                    EndFn on_end) {
  if (auto st = check(job); !st.is_ok()) return st;
  // Work ahead of the job: the queued work plus the remaining work of
  // running jobs (an integral over the profile, with never-ending
  // occupancies excluded the way the seed scan skipped unknown ends).
  const SubmitLoad load{
      static_cast<std::int32_t>(queue_.size()),
      summary().queued_work +
          profile_.busy_work_after(engine_->now(), unknown_busy_)};
  const bool was_blocked = !queue_.empty();
  enqueue(job, std::move(on_start), std::move(on_end), load);
  if (was_blocked && !scheduling_) {
    // The head was already blocked and nothing freed processors since the
    // last pass, so FCFS cannot start anything and only the new tail job
    // is an undecided backfill candidate.
    if (backfill_ == Backfill::kEasy) submit_fast_path();
    return util::Status::ok();
  }
  schedule();
  return util::Status::ok();
}

void BatchScheduler::submit_fast_path() {
  if (!cache_valid_ || cached_departures_ != departures_) {
    schedule();
    return;
  }
  // Validity check: recompute the shadow state from the profile.  If it
  // matches what the last pass left behind, every previously rejected
  // candidate is still rejected (the admission conditions only tightened),
  // so only the new tail job needs a decision.  Any drift — an estimate
  // expired, a backfilled job returned spare capacity early — falls back
  // to the full pass, which recomputes everything exactly.
  const sim::Time now = engine_->now();
  const std::int32_t head_count = queue_.front().count;
  const Profile::Fit fit = profile_.earliest_fit(now, head_count);
  const std::int32_t extra = fit.free - head_count;
  if (fit.at != cached_shadow_ || extra != cached_extra_) {
    schedule();
    return;
  }
  const QueueKey& cand = queue_.back();
  if (cand.count > free_processors()) return;
  const sim::Time est = backfill_estimate(cand);
  const bool ends_before_shadow = cached_shadow_ != sim::kTimeNever &&
                                  est > 0 && now + est <= cached_shadow_;
  const bool within_extra = cand.count <= cached_extra_;
  if (!ends_before_shadow && !within_extra) return;
  if (!ends_before_shadow) cached_extra_ -= cand.count;
  // The admission continues the pass that cached the shadow state, so the
  // start runs under the same re-entrancy discipline as a full pass: an
  // end inside the start callback must not trigger a nested fresh pass.
  scheduling_ = true;
  const std::uint64_t gen = departures_;
  const std::size_t stable_size = queue_.size() - 1;
  start(stable_size);
  if (departures_ != gen || queue_.size() != stable_size) {
    // The start callback ended, cancelled, or submitted jobs re-entrantly.
    // Finish the pass the way the oracle would: rescan the whole queue
    // under the still-frozen shadow state.
    const std::int32_t final_extra =
        backfill_scan(now, cached_shadow_, cached_extra_);
    // Only submits happened: the cache holds.  After an end or cancel the
    // departure count no longer matches it, so the next submit rescans.
    if (departures_ == gen) cached_extra_ = final_extra;
  }
  scheduling_ = false;
}

sim::Time BatchScheduler::estimated_end(const JobDescriptor& d,
                                        sim::Time started) const {
  sim::Time length = 0;
  if (d.estimated_runtime > 0) {
    length = d.estimated_runtime;
  } else if (d.runtime > 0) {
    length = d.runtime;
  } else if (d.max_wall_time > 0) {
    length = d.max_wall_time;
  } else {
    return sim::kTimeNever;
  }
  if (length >= sim::kTimeNever - started) return sim::kTimeNever;
  return started + length;
}

void BatchScheduler::schedule() {
  if (scheduling_) return;  // start callbacks may complete() synchronously
  scheduling_ = true;
  cache_valid_ = false;
  profile_.advance_to(engine_->now());
  // FCFS: start head jobs while they fit.
  while (!queue_.empty() && queue_.front().count <= free_processors()) {
    start(0);
  }
  if (backfill_ == Backfill::kEasy && !queue_.empty()) {
    // Shadow state: the earliest instant the head job could start assuming
    // running jobs end at their estimated ends, and the processors it
    // would leave spare then.  One profile query instead of sorting the
    // running set.  Frozen for the whole pass (the EASY contract).
    const sim::Time now = engine_->now();
    const std::int32_t head_count = queue_.front().count;
    const Profile::Fit fit = profile_.earliest_fit(now, head_count);
    const sim::Time shadow = fit.at;
    const std::uint64_t pass_gen = departures_;
    const std::int32_t extra = backfill_scan(now, shadow, fit.free - head_count);
    if (departures_ == pass_gen && !queue_.empty()) {
      cache_valid_ = true;
      cached_departures_ = departures_;
      cached_shadow_ = shadow;
      cached_extra_ = extra;
    }
  }
  scheduling_ = false;
}

std::int32_t BatchScheduler::backfill_scan(sim::Time now, sim::Time shadow,
                                           std::int32_t extra) {
  // Backfill jobs behind the head that fit now and either end by the shadow
  // time or use only the head job's spare processors.  Every queued job
  // needs a processor, so with none free the rest of the scan would start
  // nothing.
  for (std::size_t i = 1; i < queue_.size() && free_processors() > 0;) {
    const QueueKey& cand = queue_[i];
    if (cand.count > free_processors()) {
      ++i;
      continue;
    }
    const sim::Time est = backfill_estimate(cand);
    const bool ends_before_shadow =
        shadow != sim::kTimeNever && est > 0 && now + est <= shadow;
    const bool within_extra = cand.count <= extra;
    if (!ends_before_shadow && !within_extra) {
      ++i;
      continue;
    }
    if (!ends_before_shadow) extra -= cand.count;
    const std::uint64_t gen = departures_;
    start(i);
    // Starting a job only tightens the admission conditions, so the scan
    // continues in place — unless the start callback ended or cancelled a
    // job re-entrantly, where the oracle scan's restart-from-the-front
    // behaviour is reproduced exactly.
    if (departures_ != gen) i = 1;
  }
  return extra;
}

void BatchScheduler::occupy(const QueueKey& k, Running& r) {
  const sim::Time now = engine_->now();
  r.est_end = estimated_end(r.desc, now);
  if (history_.size() < history_capacity_) {
    history_.push_back(WaitObservation{k.submitted_at, now, k.count,
                                       r.tag.queue_length,
                                       r.tag.queued_work});
  }
  profile_.reserve(now, r.est_end, r.desc.count);
  if (r.est_end == sim::kTimeNever) unknown_busy_ += r.desc.count;
}

void BatchScheduler::vacate(const Running& r) {
  const sim::Time now = engine_->now();
  if (r.est_end > now) {
    // Return the unused tail of the job's estimated occupancy; a job that
    // ran past its estimate has no tail left to return.
    profile_.release(now, r.est_end, r.desc.count);
  }
  if (r.est_end == sim::kTimeNever) unknown_busy_ -= r.desc.count;
}

}  // namespace grid::sched
