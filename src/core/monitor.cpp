#include "core/monitor.hpp"

namespace grid::core {

RequestCallbacks EnsembleMonitor::wrap(RequestCallbacks user) {
  user_ = std::move(user);
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { observe(h, s, why); };
  cbs.on_released = [this](const RuntimeConfig& config) {
    emit(GlobalEvent::kReleased);
    if (user_.on_released) user_.on_released(config);
  };
  cbs.on_terminal = [this](const util::Status& status) {
    emit(status.is_ok() ? GlobalEvent::kDone : GlobalEvent::kAborted);
    if (user_.on_terminal) user_.on_terminal(status);
  };
  return cbs;
}

void EnsembleMonitor::observe(SubjobHandle handle, SubjobState state,
                              const util::Status& why) {
  if (request_ != nullptr) {
    const CoallocationRequest::SubjobAggregate& s = summary();
    // "All X" transitions fire once, when every live subjob has reached at
    // least the given stage.
    if (!saw_all_pending_ && s.live_subjobs > 0 &&
        s.count(SubjobState::kUnsubmitted) == 0 &&
        s.count(SubjobState::kSubmitting) == 0) {
      saw_all_pending_ = true;
      emit(GlobalEvent::kAllPending);
    }
    if (!saw_all_active_ && s.live_subjobs > 0 &&
        s.count(SubjobState::kUnsubmitted) == 0 &&
        s.count(SubjobState::kSubmitting) == 0 &&
        s.count(SubjobState::kPending) == 0) {
      saw_all_active_ = true;
      emit(GlobalEvent::kAllActive);
    }
    if (state == SubjobState::kFailed &&
        request_->state() == RequestState::kReleased) {
      emit(GlobalEvent::kDegraded);
    }
  }
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
}

void EnsembleMonitor::emit(GlobalEvent event) {
  history_.push_back(event);
}

const CoallocationRequest::SubjobAggregate& EnsembleMonitor::summary() const {
  // The request maintains the aggregate incrementally, so the collective
  // view is O(1) — observe() reads it on every subjob event.
  static const CoallocationRequest::SubjobAggregate kUnbound;
  return request_ == nullptr ? kUnbound : request_->aggregate();
}

// ---- heartbeat failure detection -------------------------------------------

HeartbeatDetector::HeartbeatDetector(Coallocator& mechanisms,
                                     RequestId request, HeartbeatConfig config)
    : mech_(&mechanisms),
      request_(request),
      config_(config),
      alive_(std::make_shared<bool>(true)) {}

HeartbeatDetector::~HeartbeatDetector() {
  *alive_ = false;
  mech_->engine().cancel(tick_event_);
}

void HeartbeatDetector::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void HeartbeatDetector::stop() {
  running_ = false;
  mech_->engine().cancel(tick_event_);
}

void HeartbeatDetector::tick() {
  if (!running_) return;
  CoallocationRequest* req = mech_->find_request(request_);
  if (req == nullptr || is_request_terminal(req->state())) {
    stop();
    return;
  }
  for (SubjobHandle h : req->subjob_order()) {
    auto brief = req->subjob_brief(h);
    if (!brief.is_ok()) continue;
    const CoallocationRequest::SubjobBrief& v = brief.value();
    const bool watchable =
        v.gram_job != 0 && v.gatekeeper != net::kInvalidNode &&
        (v.state == SubjobState::kPending || v.state == SubjobState::kActive ||
         v.state == SubjobState::kCheckedIn ||
         (config_.monitor_released && v.state == SubjobState::kReleased));
    if (!watchable) continue;
    Watch& w = watches_[h];
    if (w.job != v.gram_job) w = Watch{v.gram_job};  // substituted: fresh slate
    if (w.health == SubjobHealth::kDead) continue;   // verdict already out
    if (w.in_flight) continue;  // previous beat still pending; let it miss
    beat(h, v.gatekeeper, v.gram_job);
  }
  tick_event_ = mech_->engine().schedule_after(
      config_.interval, [this, alive = alive_] {
        if (*alive) tick();
      });
}

void HeartbeatDetector::beat(SubjobHandle handle, net::NodeId gatekeeper,
                             gram::JobId job) {
  ++beats_sent_;
  watches_[handle].in_flight = true;
  // Raw single-attempt ping: a beat the RPC layer silently retried would
  // hide exactly the misses this detector exists to count.
  mech_->endpoint().call(
      gatekeeper, gram::kMethodPing, {}, config_.beat_timeout,
      [this, alive = alive_, handle, job](const util::Status& status,
                                          util::Reader&) {
        if (!*alive) return;
        Watch* wp = watches_.find(handle);
        if (wp == nullptr || wp->job != job) return;  // stale
        Watch& w = *wp;
        w.in_flight = false;
        if (w.health == SubjobHealth::kDead) return;
        if (status.is_ok()) {
          w.misses = 0;
          if (w.health == SubjobHealth::kSuspect) {
            w.health = SubjobHealth::kHealthy;
          }
          return;
        }
        ++beats_missed_;
        ++w.misses;
        if (w.misses >= config_.misses_to_dead) {
          const util::Status why(
              util::ErrorCode::kUnavailable,
              "heartbeat detector: " + std::to_string(w.misses) +
                  " consecutive beats unanswered");
          w.health = SubjobHealth::kDead;
          ++verdicts_;
          CoallocationRequest* req = mech_->find_request(request_);
          if (req != nullptr && !is_request_terminal(req->state())) {
            req->report_subjob_failure(handle, why);
          }
        } else if (w.misses >= config_.misses_to_suspect &&
                   w.health == SubjobHealth::kHealthy) {
          w.health = SubjobHealth::kSuspect;
        }
      });
}

}  // namespace grid::core
