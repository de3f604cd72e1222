#include "gram/gatekeeper.hpp"

#include "rsl/parser.hpp"
#include "sched/reservation.hpp"

namespace grid::gram {

Gatekeeper::Gatekeeper(net::Network& network, std::string host_name,
                       sched::LocalScheduler& scheduler,
                       const ExecutableRegistry& registry,
                       const gsi::CertificateAuthority& ca,
                       const gsi::GridMap& gridmap,
                       gsi::Credential host_credential, net::NodeId nis_server,
                       gsi::CostModel gsi_costs, GatekeeperCosts costs)
    : endpoint_(network, host_name),
      host_name_(std::move(host_name)),
      scheduler_(&scheduler),
      registry_(&registry),
      gsi_(endpoint_, ca, gridmap, std::move(host_credential), gsi_costs),
      nis_(endpoint_, nis_server),
      costs_(costs) {
  endpoint_.register_method(
      kMethodJobRequest,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_job_request(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodJobCancel,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_job_cancel(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodJobStatus,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_job_status(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodPing,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader&) {
        endpoint_.respond(caller, call_id, {});
      });
  endpoint_.register_method(
      kMethodReserve,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_reserve(caller, call_id, args);
      });
  endpoint_.register_method(
      kMethodReserveCancel,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_reserve_cancel(caller, call_id, args);
      });
  endpoint_.crash_hook = [this] { crash(); };
}

void Gatekeeper::handle_job_request(net::NodeId caller, std::uint64_t call_id,
                                    util::Reader& args) {
  JobRequestArgs request = JobRequestArgs::decode(args);
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed job request");
    return;
  }
  // Authorization: the GSI session must be live.
  auto session = gsi_.validate(request.session_token);
  if (!session.is_ok()) {
    endpoint_.respond_error(caller, call_id, session.status().code(),
                            session.status().message());
    return;
  }
  const std::string local_user = session.value().local_user;
  // initgroups(): the dominant cost (Figure 3).  The gatekeeper must set up
  // the local user's supplementary groups before spawning the job manager.
  nis_.initgroups(
      local_user, costs_.nis_timeout,
      [this, caller, call_id, request = std::move(request), local_user](
          util::Result<std::vector<std::string>> groups) mutable {
        if (!groups.is_ok()) {
          endpoint_.respond_error(
              caller, call_id, util::ErrorCode::kUnavailable,
              "initgroups failed: " + groups.status().message());
          return;
        }
        // Miscellaneous processing (request parsing, job manager setup).
        endpoint_.engine().schedule_after(
            costs_.misc_processing,
            [this, caller, call_id, request = std::move(request),
             local_user]() mutable {
              accept_job(caller, call_id, std::move(request), local_user);
            });
      });
}

void Gatekeeper::accept_job(net::NodeId caller, std::uint64_t call_id,
                            JobRequestArgs request, std::string local_user) {
  auto spec = rsl::parse(request.rsl);
  if (!spec.is_ok()) {
    endpoint_.respond_error(caller, call_id, spec.status().code(),
                            "bad RSL: " + spec.status().message());
    return;
  }
  auto job_request = rsl::JobRequest::from_spec(spec.value());
  if (!job_request.is_ok()) {
    endpoint_.respond_error(caller, call_id, job_request.status().code(),
                            "bad RSL: " + job_request.status().message());
    return;
  }
  // Job ids are globally unique: gatekeeper address in the high bits.
  const JobId id =
      (static_cast<JobId>(endpoint_.id()) << 32) | next_job_++;
  auto manager = std::make_unique<JobManager>(
      endpoint_, *scheduler_, *registry_, id, job_request.take(), local_user,
      request.callback_contact, costs_.exec_startup);
  if (auto st = manager->start(); !st.is_ok()) {
    endpoint_.respond_error(caller, call_id, st.code(), st.message());
    return;
  }
  jobs_.emplace(id, std::move(manager));
  util::Writer w;
  w.u64(id);
  endpoint_.respond(caller, call_id, w.take());
}

void Gatekeeper::handle_job_cancel(net::NodeId caller, std::uint64_t call_id,
                                   util::Reader& args) {
  const JobId id = args.u64();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed cancel");
    return;
  }
  auto* manager = jobs_.find(id);
  if (manager == nullptr) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kNotFound,
                            "unknown job");
    return;
  }
  (*manager)->cancel();
  endpoint_.respond(caller, call_id, {});
}

void Gatekeeper::handle_job_status(net::NodeId caller, std::uint64_t call_id,
                                   util::Reader& args) {
  const JobId id = args.u64();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed status request");
    return;
  }
  auto state = job_state(id);
  if (!state.is_ok()) {
    endpoint_.respond_error(caller, call_id, state.status().code(),
                            state.status().message());
    return;
  }
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(state.value()));
  endpoint_.respond(caller, call_id, w.take());
}

void Gatekeeper::handle_reserve(net::NodeId caller, std::uint64_t call_id,
                                util::Reader& args) {
  ReserveArgs request = ReserveArgs::decode(args);
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed reservation request");
    return;
  }
  auto session = gsi_.validate(request.session_token);
  if (!session.is_ok()) {
    endpoint_.respond_error(caller, call_id, session.status().code(),
                            session.status().message());
    return;
  }
  auto* reserver = dynamic_cast<sched::ReservationScheduler*>(scheduler_);
  if (reserver == nullptr) {
    endpoint_.respond_error(
        caller, call_id, util::ErrorCode::kFailedPrecondition,
        "resource manager does not support advance reservations");
    return;
  }
  // Admission control is cheap relative to a job request (no initgroups,
  // no job manager): just the misc processing cost.
  endpoint_.engine().schedule_after(
      costs_.misc_processing, [this, caller, call_id, request, reserver] {
        auto r = reserver->reserve(request.start, request.end, request.count);
        if (!r.is_ok()) {
          endpoint_.respond_error(caller, call_id, r.status().code(),
                                  r.status().message());
          return;
        }
        util::Writer w;
        w.u64(r.value().id);
        w.i64(r.value().start);
        w.i64(r.value().end);
        endpoint_.respond(caller, call_id, w.take());
      });
}

void Gatekeeper::handle_reserve_cancel(net::NodeId caller,
                                       std::uint64_t call_id,
                                       util::Reader& args) {
  const std::uint64_t rid = args.u64();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed reservation cancel");
    return;
  }
  auto* reserver = dynamic_cast<sched::ReservationScheduler*>(scheduler_);
  if (reserver == nullptr || !reserver->cancel_reservation(rid)) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kNotFound,
                            "unknown reservation");
    return;
  }
  endpoint_.respond(caller, call_id, {});
}

util::Result<JobState> Gatekeeper::job_state(JobId id) const {
  const auto* manager = jobs_.find(id);
  if (manager == nullptr) {
    return util::Status(util::ErrorCode::kNotFound, "unknown job");
  }
  return (*manager)->state();
}

void Gatekeeper::crash() {
  jobs_.for_each(
      [](JobId, std::unique_ptr<JobManager>& manager) { manager->crash(); });
}

}  // namespace grid::gram
