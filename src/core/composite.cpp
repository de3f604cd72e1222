#include "core/composite.hpp"

namespace grid::core {

CoallocationRequest* CompositeAgent::add_child(Coallocator& mechanisms,
                                               RequestCallbacks user,
                                               RequestConfig config) {
  const std::size_t index = children_.size();
  children_.push_back(Child{});
  Child& child = children_.back();
  child.user = std::move(user);
  RequestCallbacks cbs;
  cbs.on_subjob = [this, index](SubjobHandle h, SubjobState s,
                                const util::Status& why) {
    on_child_subjob(index, h, s, why);
  };
  cbs.on_released = [this, index](const RuntimeConfig& config_table) {
    Child& c = children_[index];
    c.config = config_table;
    ++released_count_;
    if (c.user.on_released) c.user.on_released(config_table);
    if (released_count_ == children_.size() && callbacks_.on_released) {
      std::vector<RuntimeConfig> configs;
      configs.reserve(children_.size());
      for (const Child& ch : children_) configs.push_back(ch.config);
      callbacks_.on_released(configs);
    }
  };
  cbs.on_terminal = [this, index](const util::Status& status) {
    Child& c = children_[index];
    if (c.user.on_terminal) c.user.on_terminal(status);
    ++terminal_count_;
    if (!status.is_ok()) {
      any_failed_ = true;
      if (first_failure_.is_ok()) first_failure_ = status;
      // One child collapsing collapses the hierarchy.
      abort("child request aborted: " + status.message());
    }
    if (terminal_count_ == children_.size()) {
      finish(any_failed_ ? first_failure_ : util::Status::ok());
    }
  };
  child.request = mechanisms.create_request(std::move(cbs), config);
  return child.request;
}

void CompositeAgent::start() {
  for (Child& child : children_) child.request->start();
}

void CompositeAgent::on_child_subjob(std::size_t index, SubjobHandle handle,
                                     SubjobState state,
                                     const util::Status& why) {
  Child& child = children_[index];
  if (child.user.on_subjob) child.user.on_subjob(handle, state, why);
  if (committed_ || finished_) return;
  if (state == SubjobState::kCheckedIn || state == SubjobState::kFailed ||
      state == SubjobState::kDeleted) {
    evaluate();
  }
}

void CompositeAgent::evaluate() {
  // Top-level commit point: every child must hold its full resource set at
  // the barrier before any child is committed (two-level two-phase commit).
  for (const Child& child : children_) {
    const CoallocationRequest& r = *child.request;
    if (is_request_terminal(r.state())) return;
    // A child with no live subjob holds nothing at its barrier.
    if (!r.barrier_ready() || r.live_subjob_count() == 0) return;
  }
  committed_ = true;
  for (Child& child : children_) child.request->commit();
}

void CompositeAgent::abort(const std::string& reason) {
  for (Child& child : children_) {
    if (!is_request_terminal(child.request->state())) {
      child.request->abort(reason);
    }
  }
}

void CompositeAgent::finish(const util::Status& status) {
  if (finished_) return;
  finished_ = true;
  if (callbacks_.on_terminal) callbacks_.on_terminal(status);
}

}  // namespace grid::core
