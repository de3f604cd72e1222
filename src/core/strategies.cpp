#include <memory>

#include "core/strategies.hpp"

namespace grid::core {

// ---- ReplacementAgent -------------------------------------------------------

ReplacementAgent::ReplacementAgent(Coallocator& mechanisms, Options options,
                                   RequestCallbacks user_callbacks)
    : mech_(&mechanisms),
      options_(std::move(options)),
      user_(std::move(user_callbacks)),
      spares_(options_.spare_contacts) {
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { on_subjob(h, s, why); };
  cbs.on_released = user_.on_released;
  cbs.on_terminal = user_.on_terminal;
  request_ = mech_->create_request(std::move(cbs));
}

void ReplacementAgent::on_subjob(SubjobHandle handle, SubjobState state,
                                 const util::Status& why) {
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
  if (state == SubjobState::kFailed &&
      request_->state() == RequestState::kEditing) {
    auto brief = request_->subjob_brief(handle);
    if (brief.is_ok() &&
        brief.value().start_type == rsl::SubjobStartType::kInteractive &&
        !spares_.empty() && substitutions_ < options_.max_substitutions) {
      auto original = request_->subjob_request(handle);
      if (original.is_ok()) {
        rsl::JobRequest replacement = original.take();
        replacement.resource_manager_contact = spares_.front();
        spares_.erase(spares_.begin());
        ++substitutions_;
        request_->substitute_subjob(handle, std::move(replacement));
        return;
      }
    }
  }
  // A check-in may complete the barrier; an unrepairable failure may leave
  // the remaining (checked-in) subjobs as the final ensemble.
  if (state == SubjobState::kCheckedIn || state == SubjobState::kFailed) {
    maybe_commit();
  }
}

void ReplacementAgent::maybe_commit() {
  if (!options_.auto_commit || committed_ ||
      request_->state() != RequestState::kEditing ||
      !request_->barrier_ready()) {
    return;
  }
  committed_ = true;
  request_->commit();
}

// ---- MinimumCountAgent ------------------------------------------------------

MinimumCountAgent::MinimumCountAgent(Coallocator& mechanisms, Options options,
                                     RequestCallbacks user_callbacks)
    : mech_(&mechanisms),
      options_(options),
      user_(std::move(user_callbacks)) {
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { on_subjob(h, s, why); };
  cbs.on_released = user_.on_released;
  cbs.on_terminal = user_.on_terminal;
  request_ = mech_->create_request(std::move(cbs));
  if (options_.decision_deadline > 0) {
    deadline_event_ = mech_->engine().schedule_after(
        options_.decision_deadline, [this] {
          if (committed_ || is_request_terminal(request_->state())) return;
          if (checked_in_processes() >= options_.minimum_processes) {
            evaluate();
            return;
          }
          request_->abort("minimum process count not reached by deadline");
        });
  }
}

MinimumCountAgent::~MinimumCountAgent() {
  mech_->engine().cancel(deadline_event_);
}

std::int32_t MinimumCountAgent::checked_in_processes() const {
  std::int32_t n = 0;
  for (SubjobHandle h : request_->subjob_order()) {
    auto brief = request_->subjob_brief(h);
    if (brief.is_ok() && brief.value().state == SubjobState::kCheckedIn) {
      n += brief.value().count;
    }
  }
  return n;
}

void MinimumCountAgent::on_subjob(SubjobHandle handle, SubjobState state,
                                  const util::Status& why) {
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
  if (state == SubjobState::kCheckedIn) evaluate();
}

void MinimumCountAgent::evaluate() {
  if (committed_ || request_->state() != RequestState::kEditing) return;
  // Required subjobs must all be in before the ensemble can be trimmed:
  // deleting laggards only applies to interactive ones (Fig. 1 semantics).
  std::int32_t ready = 0;
  bool required_pending = false;
  for (SubjobHandle h : request_->subjob_order()) {
    auto brief = request_->subjob_brief(h);
    if (!brief.is_ok()) continue;
    const CoallocationRequest::SubjobBrief& v = brief.value();
    if (v.state == SubjobState::kFailed || v.state == SubjobState::kDeleted) {
      continue;
    }
    if (v.state == SubjobState::kCheckedIn) {
      ready += v.count;
    } else if (v.start_type == rsl::SubjobStartType::kRequired) {
      required_pending = true;
    }
  }
  if (ready < options_.minimum_processes || required_pending) return;
  committed_ = true;
  // Terminate subjobs that have not yet responded, then commit (§4.1).
  for (SubjobHandle h : request_->subjobs()) {
    auto brief = request_->subjob_brief(h);
    if (!brief.is_ok()) continue;
    const CoallocationRequest::SubjobBrief& v = brief.value();
    if (v.state == SubjobState::kFailed || v.state == SubjobState::kDeleted ||
        v.state == SubjobState::kCheckedIn) {
      continue;
    }
    if (v.start_type == rsl::SubjobStartType::kInteractive) {
      request_->remove_subjob(h);
    }
  }
  request_->commit();
}

// ---- AlternativesAgent ------------------------------------------------------

AlternativesAgent::AlternativesAgent(
    Coallocator& mechanisms, std::vector<rsl::SubjobAlternatives> slots,
    RequestCallbacks user_callbacks)
    : mech_(&mechanisms), user_(std::move(user_callbacks)) {
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { on_subjob(h, s, why); };
  cbs.on_released = user_.on_released;
  cbs.on_terminal = user_.on_terminal;
  request_ = mech_->create_request(std::move(cbs));
  for (rsl::SubjobAlternatives& slot : slots) {
    if (slot.options.empty()) continue;
    rsl::JobRequest first = std::move(slot.options.front());
    slot.options.erase(slot.options.begin());
    auto added = request_->add_subjob(std::move(first));
    if (added.is_ok()) {
      remaining_[added.value()] = std::move(slot.options);
    }
  }
  request_->start();
}

util::Result<std::unique_ptr<AlternativesAgent>> AlternativesAgent::from_rsl(
    Coallocator& mechanisms, const std::string& rsl_text,
    RequestCallbacks user_callbacks) {
  auto slots = rsl::parse_with_alternatives(rsl_text);
  if (!slots.is_ok()) return slots.status();
  return std::make_unique<AlternativesAgent>(mechanisms, slots.take(),
                                             std::move(user_callbacks));
}

void AlternativesAgent::on_subjob(SubjobHandle handle, SubjobState state,
                                  const util::Status& why) {
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
  if (state == SubjobState::kFailed &&
      request_->state() == RequestState::kEditing) {
    std::vector<rsl::JobRequest>* options = remaining_.find(handle);
    if (options != nullptr && !options->empty()) {
      rsl::JobRequest next = std::move(options->front());
      options->erase(options->begin());
      ++fallbacks_;
      request_->substitute_subjob(handle, std::move(next));
      return;
    }
  }
  if (state == SubjobState::kCheckedIn || state == SubjobState::kFailed) {
    maybe_commit();
  }
}

void AlternativesAgent::maybe_commit() {
  if (committed_ || request_->state() != RequestState::kEditing ||
      !request_->barrier_ready()) {
    return;
  }
  committed_ = true;
  request_->commit();
}

// ---- FirstAvailableAgent ----------------------------------------------------

FirstAvailableAgent::FirstAvailableAgent(
    Coallocator& mechanisms, std::vector<rsl::JobRequest> alternatives,
    RequestCallbacks user_callbacks)
    : mech_(&mechanisms), user_(std::move(user_callbacks)) {
  RequestCallbacks cbs;
  cbs.on_subjob = [this](SubjobHandle h, SubjobState s,
                         const util::Status& why) { on_subjob(h, s, why); };
  cbs.on_released = user_.on_released;
  cbs.on_terminal = user_.on_terminal;
  request_ = mech_->create_request(std::move(cbs));
  for (rsl::JobRequest& alt : alternatives) {
    alt.start_type = rsl::SubjobStartType::kInteractive;
    request_->add_subjob(std::move(alt));
  }
  alternatives_live_ = alternatives.size();
  request_->start();
}

void FirstAvailableAgent::on_subjob(SubjobHandle handle, SubjobState state,
                                    const util::Status& why) {
  if (user_.on_subjob) user_.on_subjob(handle, state, why);
  if (is_request_terminal(request_->state())) return;
  if (state == SubjobState::kCheckedIn && winner_ == 0) {
    winner_ = handle;
    // Commit to the first responder; release the losers.
    for (SubjobHandle h : request_->subjobs()) {
      if (h == winner_) continue;
      auto brief = request_->subjob_brief(h);
      if (brief.is_ok() && brief.value().state != SubjobState::kFailed &&
          brief.value().state != SubjobState::kDeleted) {
        request_->remove_subjob(h);
      }
    }
    request_->commit();
    return;
  }
  if (state == SubjobState::kFailed && winner_ == 0 &&
      request_->live_subjob_count() == 0) {
    request_->abort("no alternative resource became available");
  }
}

}  // namespace grid::core
