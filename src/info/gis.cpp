#include "info/gis.hpp"

#include <algorithm>
#include <memory>

namespace grid::info {

void encode_snapshot(util::Writer& w, const sched::QueueSnapshot& snap) {
  w.i64(snap.taken_at);
  w.i32(snap.total_processors);
  w.i32(snap.busy_processors);
  w.varint(snap.queued.size());
  for (const sched::QueuedJobInfo& j : snap.queued) {
    w.u64(j.id);
    w.i32(j.count);
    w.i64(j.estimated_runtime);
    w.i64(j.submitted_at);
  }
}

sched::QueueSnapshot decode_snapshot(util::Reader& r) {
  sched::QueueSnapshot snap;
  snap.taken_at = r.i64();
  snap.total_processors = r.i32();
  snap.busy_processors = r.i32();
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    sched::QueuedJobInfo j;
    j.id = r.u64();
    j.count = r.i32();
    j.estimated_runtime = r.i64();
    j.submitted_at = r.i64();
    snap.queued.push_back(j);
  }
  return snap;
}

void encode_summary(util::Writer& w, const sched::QueueSummary& summary) {
  w.i64(summary.taken_at);
  w.i32(summary.total_processors);
  w.i32(summary.busy_processors);
  w.u32(summary.queue_length);
  w.i64(summary.queued_work);
}

sched::QueueSummary decode_summary(util::Reader& r) {
  sched::QueueSummary s;
  s.taken_at = r.i64();
  s.total_processors = r.i32();
  s.busy_processors = r.i32();
  s.queue_length = r.u32();
  s.queued_work = r.i64();
  return s;
}

GisServer::GisServer(net::Network& network,
                     sched::LoadInformationService& service,
                     sim::Time query_cost)
    : endpoint_(network, "gis"), service_(&service), query_cost_(query_cost) {
  endpoint_.register_method(
      kMethodQuery,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_query(caller, call_id, args, &GisServer::serve_snapshot);
      });
  endpoint_.register_method(
      kMethodListContacts,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader&) {
        defer(caller, call_id, 0, &GisServer::serve_list);
      });
  endpoint_.register_method(
      kMethodQuerySummary,
      [this](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        handle_query(caller, call_id, args, &GisServer::serve_summary);
      });
}

void GisServer::set_contacts(std::vector<std::string> contacts) {
  contacts_ = std::move(contacts);
}

void GisServer::handle_query(net::NodeId caller, std::uint64_t call_id,
                             util::Reader& args, ServeFn serve) {
  std::string contact = args.str();
  if (!args.ok()) {
    endpoint_.respond_error(caller, call_id, util::ErrorCode::kInvalidArgument,
                            "malformed query");
    return;
  }
  // Resolve the contact to its interned id at arrival; the deferred service
  // body then runs string-free (registration changes while the query is in
  // flight are re-checked against the id at service time).
  defer(caller, call_id, service_->resolve(contact), serve);
}

void GisServer::defer(net::NodeId caller, std::uint64_t call_id,
                      ContactId id, ServeFn serve) {
  endpoint_.engine().schedule_after(
      query_cost_, [this, caller, call_id, id, serve] {
        ++served_;
        auto reply = (this->*serve)(id);
        if (!reply.is_ok()) {
          endpoint_.respond_error(caller, call_id, reply.status().code(),
                                  reply.status().message());
          return;
        }
        endpoint_.respond(caller, call_id, reply.take());
      });
}

util::Result<sim::Payload> GisServer::serve_snapshot(ContactId id) {
  const std::uint64_t version = service_->published_version(id);
  if (cache_enabled_ && version != 0 && id <= cache_.size() &&
      cache_[id - 1].version == version) {
    ++cache_stats_.hits;
    return cache_[id - 1].frame.share();
  }
  auto snap = service_->snapshot_ref(id);
  if (!snap.is_ok()) return snap.status();
  ++cache_stats_.misses;
  util::Writer w;
  encode_snapshot(w, *snap.value());
  sim::Payload reply = w.take();
  if (cache_enabled_ && version != 0) {
    if (cache_.size() < id) cache_.resize(id);
    cache_[id - 1] = CachedReply{version, reply.share()};
  }
  return reply;
}

util::Result<sim::Payload> GisServer::serve_summary(ContactId id) {
  auto summary = service_->summary(id);
  if (!summary.is_ok()) return summary.status();
  util::Writer w;
  encode_summary(w, summary.value());
  return w.take();
}

util::Result<sim::Payload> GisServer::serve_list(ContactId) {
  util::Writer w;
  w.varint(contacts_.size());
  for (const std::string& c : contacts_) w.str(c);
  return w.take();
}

namespace {

sim::Payload contact_args(const std::string& contact) {
  util::Writer w;
  w.str(contact);
  return w.take();
}

std::vector<std::string> decode_contacts(util::Reader& r) {
  const std::uint64_t n = r.varint();
  std::vector<std::string> contacts;
  // Every string takes at least its length byte, so a hostile count can
  // reserve no more than the reply could hold.
  contacts.reserve(std::min<std::uint64_t>(n, r.remaining()));
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) contacts.push_back(r.str());
  return contacts;
}

/// Issues one directory call.  `on_done` receives the decoded reply, the
/// call's error, or kInternal `malformed` when the reply does not decode.
template <typename T, T (*Decode)(util::Reader&)>
void call_decoded(net::Endpoint& endpoint, net::NodeId server, Method method,
                  sim::Payload args, sim::Time timeout, const char* malformed,
                  std::function<void(util::Result<T>)> on_done) {
  endpoint.call(server, method, std::move(args), timeout,
                [malformed, on_done = std::move(on_done)](
                    const util::Status& status, util::Reader& reply) {
                  if (!status.is_ok()) {
                    on_done(status);
                    return;
                  }
                  T value = Decode(reply);
                  if (!reply.ok()) {
                    on_done(util::Status(util::ErrorCode::kInternal,
                                         malformed));
                    return;
                  }
                  on_done(std::move(value));
                });
}

/// The one fan-out: queries every contact concurrently, then fires `on_done`
/// once with the results in contact order.
template <typename T>
void gather(GisClient& client,
            void (GisClient::*query)(const std::string&, sim::Time,
                                     std::function<void(util::Result<T>)>),
            const std::vector<std::string>& contacts, sim::Time timeout,
            std::function<void(std::vector<util::Result<T>>)> on_done) {
  if (contacts.empty()) {
    on_done({});
    return;
  }
  struct Gather {
    std::vector<util::Result<T>> results;
    std::size_t pending;
    std::function<void(std::vector<util::Result<T>>)> on_done;
  };
  auto gather = std::make_shared<Gather>(Gather{
      std::vector<util::Result<T>>(
          contacts.size(), util::Status(util::ErrorCode::kInternal, "pending")),
      contacts.size(), std::move(on_done)});
  for (std::size_t i = 0; i < contacts.size(); ++i) {
    (client.*query)(contacts[i], timeout, [gather, i](util::Result<T> result) {
      gather->results[i] = std::move(result);
      if (--gather->pending == 0) {
        gather->on_done(std::move(gather->results));
      }
    });
  }
}

}  // namespace

GisClient::GisClient(net::Endpoint& endpoint, net::NodeId server)
    : endpoint_(&endpoint), server_(server) {}

void GisClient::query(const std::string& contact, sim::Time timeout,
                      SnapshotFn on_done) {
  call_decoded<sched::QueueSnapshot, decode_snapshot>(
      *endpoint_, server_, kMethodQuery, contact_args(contact), timeout,
      "malformed snapshot", std::move(on_done));
}

void GisClient::query_summary(const std::string& contact, sim::Time timeout,
                              SummaryFn on_done) {
  call_decoded<sched::QueueSummary, decode_summary>(
      *endpoint_, server_, kMethodQuerySummary, contact_args(contact),
      timeout, "malformed summary", std::move(on_done));
}

void GisClient::list_contacts(sim::Time timeout, ContactsFn on_done) {
  call_decoded<std::vector<std::string>, decode_contacts>(
      *endpoint_, server_, kMethodListContacts, {}, timeout,
      "malformed contact list", std::move(on_done));
}

void GisClient::query_many(std::vector<std::string> contacts,
                           sim::Time timeout, SnapshotsFn on_done) {
  gather(*this, &GisClient::query, contacts, timeout, std::move(on_done));
}

void GisClient::query_many_summaries(std::vector<std::string> contacts,
                                     sim::Time timeout, SummariesFn on_done) {
  gather(*this, &GisClient::query_summary, contacts, timeout,
         std::move(on_done));
}

}  // namespace grid::info
