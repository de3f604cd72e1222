#include "core/grab.hpp"

#include "rsl/parser.hpp"

namespace grid::core {

util::Result<RequestId> GrabAllocator::allocate(
    const std::string& rsl_text, RequestCallbacks callbacks,
    std::optional<RequestConfig> config) {
  auto spec = rsl::parse_multi_request(rsl_text);
  if (!spec.is_ok()) return spec.status();
  auto jobs = rsl::parse_job_requests(spec.value());
  if (!jobs.is_ok()) return jobs.status();
  return allocate(jobs.take(), std::move(callbacks), config);
}

util::Result<RequestId> GrabAllocator::allocate(
    std::vector<rsl::JobRequest> subjobs, RequestCallbacks callbacks,
    std::optional<RequestConfig> config) {
  if (subjobs.empty()) {
    return util::Status(util::ErrorCode::kInvalidArgument,
                        "empty co-allocation request");
  }
  CoallocationRequest* request =
      config.has_value() ? mech_->create_request(std::move(callbacks), *config)
                         : mech_->create_request(std::move(callbacks));
  for (rsl::JobRequest& j : subjobs) {
    j.start_type = rsl::SubjobStartType::kRequired;  // atomic semantics
    auto added = request->add_subjob(std::move(j));
    if (!added.is_ok()) {
      const RequestId id = request->id();
      mech_->destroy_request(id);
      return added.status();
    }
  }
  const RequestId id = request->id();
  if (heartbeats_.has_value()) {
    // Armed before start() so the first beat can fire as soon as a subjob
    // is accepted.  The detector resolves the request by id each tick and
    // stops itself once the transaction reaches a terminal state.
    auto detector =
        std::make_unique<HeartbeatDetector>(*mech_, id, *heartbeats_);
    detector->start();
    detectors_[id] = std::move(detector);
  }
  request->start();
  // No editing window: commit immediately; the request releases iff every
  // subjob checks in, and any failure aborts everything.
  if (auto st = request->commit(); !st.is_ok()) return st;
  return id;
}

void GrabAllocator::cancel(RequestId id) {
  if (auto* d = detectors_.find(id)) {
    (*d)->stop();
  }
  if (CoallocationRequest* request = mech_->find_request(id)) {
    request->kill();
  }
}

}  // namespace grid::core
