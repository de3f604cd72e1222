// Advance-reservation scheduler (paper §2.2 and §5).
//
// Extends space-shared scheduling with admission-controlled capacity
// reservations: an admitted reservation blocks `count` processors for its
// whole window, jobs bound to a reservation start exactly at the window
// start, and best-effort jobs may only start if they cannot collide with
// any admitted window (using runtime estimates).  This is the local-manager
// capability the paper argues co-reservation ultimately requires; the
// `ablate_reservation` bench quantifies the co-allocation benefit.
//
// Decisions read two sched::Profile free-slot structures instead of
// rescanning the reservation list and the running set (the seed shape):
//   - `res_` holds admitted windows only — the best-effort admission check
//     reads the peak reserved count over a job's estimated run as one
//     range query;
//   - `commit_` additionally holds the estimated tails of running
//     best-effort jobs — reservation admission reads the committed peak
//     over the candidate window as one range query.
// Both queries are exact rewrites of the seed scans: reserved-plus-running
// load only steps up at window starts, so the seed's sampling at starts
// and the profile's minimum over all breakpoints agree everywhere.
#pragma once

#include <vector>

#include "sched/lifecycle.hpp"
#include "sched/profile.hpp"

namespace grid::sched {

using ReservationId = std::uint64_t;

struct Reservation {
  ReservationId id = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  std::int32_t count = 0;
  sim::EventId opens;   // window-start scheduling pass
  sim::EventId closes;  // window-end reclaim
};

/// Each job's tag is the reservation it is bound to (0 = best-effort).
class ReservationScheduler final : public JobLifecycle<ReservationId> {
 public:
  /// Jobs without estimates are assumed to run `default_estimate` when
  /// checked against reservation windows.
  ReservationScheduler(sim::Engine& engine, std::int32_t processors,
                       sim::Time default_estimate = sim::kHour);

  // ---- reservations ------------------------------------------------------

  /// Admission control: succeeds iff the window fits alongside all admitted
  /// reservations and the estimated ends of running jobs.
  util::Result<Reservation> reserve(sim::Time start, sim::Time end,
                                    std::int32_t count);

  /// Releases a reservation (or the remainder of one).  Jobs still running
  /// in it end as cancelled first.
  bool cancel_reservation(ReservationId id);

  /// Submits a job bound to a reservation; it starts at the window start
  /// (immediately if the window is open) and is killed at window end if
  /// still running.  The job's count plus those of the jobs already bound
  /// to the reservation must fit it.
  util::Status submit_reserved(const JobDescriptor& job, ReservationId rid,
                               StartFn on_start, EndFn on_end);

  std::size_t reservation_count() const { return reservations_.size(); }

  /// Sum of reserved processors at time t (admitted windows containing t).
  std::int32_t reserved_at(sim::Time t) const;

  // ---- LocalScheduler (best-effort queue) --------------------------------

  std::string policy() const override { return "fcfs+reservations"; }

 private:
  void schedule() override;
  void occupy(const QueueKey& k, Running& r) override;
  void vacate(const Running& r) override;
  /// Ends every running job bound to reservation `rid`.
  void end_bound(ReservationId rid, EndReason reason);
  sim::Time job_estimate(const JobDescriptor& d) const;
  /// `now + length` saturated at the end of time.
  sim::Time horizon(sim::Time now, sim::Time length) const;

  std::int32_t busy_best_ = 0;  // running best-effort jobs only
  sim::Time default_estimate_;
  ReservationId next_reservation_ = 1;
  std::vector<Reservation> reservations_;
  Profile res_;     // admitted windows
  Profile commit_;  // admitted windows + estimated best-effort tails
  bool scheduling_ = false;
};

}  // namespace grid::sched
