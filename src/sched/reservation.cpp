#include "sched/reservation.hpp"

#include <algorithm>

namespace grid::sched {

ReservationScheduler::ReservationScheduler(sim::Engine& engine,
                                           std::int32_t processors,
                                           sim::Time default_estimate)
    : JobLifecycle(engine, processors),
      default_estimate_(default_estimate), res_(processors),
      commit_(processors) {}

sim::Time ReservationScheduler::job_estimate(const JobDescriptor& d) const {
  if (d.estimated_runtime > 0) return d.estimated_runtime;
  if (d.runtime > 0) return d.runtime;
  if (d.max_wall_time > 0) return d.max_wall_time;
  return default_estimate_;
}

sim::Time ReservationScheduler::horizon(sim::Time now, sim::Time length) const {
  return length >= sim::kTimeNever - now ? sim::kTimeNever : now + length;
}

std::int32_t ReservationScheduler::reserved_at(sim::Time t) const {
  // Public bookkeeping query, exact for any t including the past; the
  // decision paths read the profiles instead.
  std::int32_t sum = 0;
  for (const Reservation& r : reservations_) {
    if (r.start <= t && t < r.end) sum += r.count;
  }
  return sum;
}

util::Result<Reservation> ReservationScheduler::reserve(sim::Time start,
                                                        sim::Time end,
                                                        std::int32_t count) {
  const sim::Time now = engine_->now();
  const std::int32_t total = total_processors();
  if (start < now) start = now;
  if (end <= start) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "reservation window is empty");
  }
  if (count < 1 || count > total) {
    return util::Status(util::ErrorCode::kResourceExhausted,
                        "reservation for " + std::to_string(count) +
                            " processors on a " + std::to_string(total) +
                            "-processor machine");
  }
  // Admission: everywhere in the window, existing reservations plus the
  // estimated tail of running best-effort work plus this reservation must
  // fit the machine.  The committed-load profile answers that as a single
  // range minimum.
  if (count > commit_.min_free_over(start, end)) {
    return util::Status(util::ErrorCode::kResourceExhausted,
                        "reservation window conflicts with existing load");
  }
  Reservation r;
  r.id = next_reservation_++;
  r.start = start;
  r.end = end;
  r.count = count;
  res_.reserve(start, end, count);
  commit_.reserve(start, end, count);
  // Window-start: start any bound jobs; window-end: reclaim and kill.  The
  // profile occupancies simply elapse at window end — nothing to return.
  r.opens = engine_->schedule_at(start, [this] { schedule(); });
  r.closes = engine_->schedule_at(end, [this, rid = r.id] {
    end_bound(rid, EndReason::kWallTimeExceeded);
    std::erase_if(reservations_,
                  [rid](const Reservation& x) { return x.id == rid; });
    schedule();
  });
  reservations_.push_back(r);
  return r;
}

void ReservationScheduler::end_bound(ReservationId rid, EndReason reason) {
  std::vector<JobId> bound;
  running_.for_each([&](JobId jid, const Running& run) {
    if (run.tag == rid) bound.push_back(jid);
  });
  for (JobId jid : bound) end(jid, reason);
}

bool ReservationScheduler::cancel_reservation(ReservationId id) {
  const auto it =
      std::find_if(reservations_.begin(), reservations_.end(),
                   [id](const Reservation& r) { return r.id == id; });
  if (it == reservations_.end()) return false;
  const Reservation r = *it;
  reservations_.erase(it);
  engine_->cancel(r.opens);
  engine_->cancel(r.closes);
  // Jobs still running in the window end before it is handed back: the
  // freed capacity may be reserved again at once.
  end_bound(id, EndReason::kCancelled);
  // Return the un-elapsed remainder of the window to both profiles.
  const sim::Time from = std::max(engine_->now(), r.start);
  if (from < r.end) {
    res_.release(from, r.end, r.count);
    commit_.release(from, r.end, r.count);
  }
  schedule();
  return true;
}

util::Status ReservationScheduler::submit_reserved(const JobDescriptor& job,
                                                   ReservationId rid,
                                                   StartFn on_start,
                                                   EndFn on_end) {
  auto it = std::find_if(reservations_.begin(), reservations_.end(),
                         [rid](const Reservation& r) { return r.id == rid; });
  if (it == reservations_.end()) {
    return {util::ErrorCode::kNotFound, "unknown reservation"};
  }
  if (auto st = check(job); !st.is_ok()) return st;
  // Bound jobs all start when the window opens, so together — queued and
  // running — they must fit the reserved count.
  std::int32_t bound = 0;
  for (const QueueKey& k : queue_) {
    if (tag_of(k) == rid) bound += k.count;
  }
  running_.for_each([&](JobId, const Running& r) {
    if (r.tag == rid) bound += r.desc.count;
  });
  if (job.count > it->count - bound) {
    return {util::ErrorCode::kResourceExhausted,
            "job exceeds reservation capacity"};
  }
  enqueue(job, std::move(on_start), std::move(on_end), rid);
  schedule();
  return util::Status::ok();
}

void ReservationScheduler::schedule() {
  if (scheduling_) return;
  scheduling_ = true;
  const sim::Time now = engine_->now();
  const std::int32_t total = total_processors();
  res_.advance_to(now);
  commit_.advance_to(now);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    // Pass 1: reservation-bound jobs run in capacity that was blocked at
    // admission time, so they start the moment their window opens — they
    // are never gated behind the best-effort FCFS head.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const ReservationId rid = tag_of(queue_[i]);
      if (rid == 0) continue;
      auto it = std::find_if(
          reservations_.begin(), reservations_.end(),
          [rid](const Reservation& r) { return r.id == rid; });
      if (it == reservations_.end()) {
        // Reservation expired or cancelled before the job could start.
        drop(i);
        progressed = true;
        break;
      }
      if (it->start <= now) {
        start(i);
        progressed = true;
        break;
      }
    }
    if (progressed) continue;
    // Pass 2: best-effort FCFS — only the first best-effort job is
    // considered, and only if it cannot collide with any admitted window.
    // The peak reserved count over the job's estimated run is one range
    // query on the windows-only profile.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const QueueKey& k = queue_[i];
      if (tag_of(k) != 0) continue;
      const sim::Time est = job_estimate(descriptor(k));
      const sim::Time until = horizon(now, est);
      const std::int32_t reserved_peak =
          until > now ? total - res_.min_free_over(now, until)
                      : total - res_.free_at(now);
      if (busy_best_ + k.count + reserved_peak <= total) {
        start(i);
        progressed = true;
      }
      break;  // FCFS: never look past the first best-effort job
    }
  }
  scheduling_ = false;
}

void ReservationScheduler::occupy(const QueueKey& /*k*/, Running& r) {
  // A best-effort job commits its estimated tail so reservation admission
  // sees it; reserved jobs are accounted by their window.
  if (r.tag != 0) return;
  const sim::Time now = engine_->now();
  busy_best_ += r.desc.count;
  r.est_end = horizon(now, job_estimate(r.desc));
  commit_.reserve(now, r.est_end, r.desc.count);
}

void ReservationScheduler::vacate(const Running& r) {
  if (r.tag != 0) return;
  busy_best_ -= r.desc.count;
  const sim::Time now = engine_->now();
  if (r.est_end > now) {
    // Return the unused committed tail; a job that ran past its estimate
    // already elapsed out of the profile.
    commit_.release(now, r.est_end, r.desc.count);
  }
}

}  // namespace grid::sched
