// Grid information service over the network (the MDS role in the paper's
// resource management architecture [6]).
//
// LoadInformationService (sched/infoservice.hpp) models publication and
// staleness locally; GisServer exports the published state over the
// simulated network so that remote co-allocation agents and brokers pay
// realistic query latency, and GisClient is their access library.
// Queries return the *published* (possibly stale) state, never a live
// view — exactly the §2.2 information model.
//
// One query path, two reply shapes.  Ranking reads the aggregate
// QueueSummary (kMethodQuerySummary, fixed-size reply); the full queued-job
// list (kMethodQuery) is a payload for callers that want per-job detail.
// Both methods share the server's parse/resolve/defer step and the
// client's decode-and-gather fan-out.  Full-snapshot replies are encoded
// once per published version and fanned out as ref-counted payload shares,
// so repeated queries between publish rounds skip re-serializing the queue.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "net/rpc.hpp"
#include "sched/infoservice.hpp"

namespace grid::info {

/// RPC method ids (0x600 block reserved for the information service).
enum Method : std::uint32_t {
  kMethodQuery = 0x601,         // contact -> full snapshot
  kMethodListContacts = 0x602,
  kMethodQuerySummary = 0x603,  // contact -> aggregate summary
};

void encode_snapshot(util::Writer& w, const sched::QueueSnapshot& snap);
sched::QueueSnapshot decode_snapshot(util::Reader& r);
void encode_summary(util::Writer& w, const sched::QueueSummary& summary);
sched::QueueSummary decode_summary(util::Reader& r);

class GisServer {
 public:
  struct CacheStats {
    std::uint64_t hits = 0;    // reply served as a shared pre-encoded frame
    std::uint64_t misses = 0;  // reply encoded from the published snapshot
  };

  /// `service` must outlive the server; `query_cost` models directory
  /// lookup time per request.
  GisServer(net::Network& network, sched::LoadInformationService& service,
            sim::Time query_cost = 5 * sim::kMillisecond);

  net::NodeId contact() const { return endpoint_.id(); }
  std::uint64_t queries_served() const { return served_; }

  /// Contacts the server will answer for (mirrors the service registry).
  void set_contacts(std::vector<std::string> contacts);

  /// Reply-payload cache switch (benchmarks measure both sides of it).
  void set_payload_cache(bool enabled) { cache_enabled_ = enabled; }
  const CacheStats& cache_stats() const { return cache_stats_; }

 private:
  struct CachedReply {
    std::uint64_t version = 0;  // 0 = empty slot
    sim::Payload frame;
  };

  using ContactId = sched::LoadInformationService::ContactId;
  /// Builds the reply for a resolved query, or the error to answer with.
  using ServeFn = util::Result<sim::Payload> (GisServer::*)(ContactId id);

  /// Parses and resolves the queried contact, then defers `serve`.
  void handle_query(net::NodeId caller, std::uint64_t call_id,
                    util::Reader& args, ServeFn serve);
  /// Answers with `serve(id)` after the directory lookup cost.
  void defer(net::NodeId caller, std::uint64_t call_id, ContactId id,
             ServeFn serve);
  util::Result<sim::Payload> serve_snapshot(ContactId id);
  util::Result<sim::Payload> serve_summary(ContactId id);
  util::Result<sim::Payload> serve_list(ContactId);

  net::Endpoint endpoint_;
  sched::LoadInformationService* service_;
  sim::Time query_cost_;
  std::uint64_t served_ = 0;
  std::vector<std::string> contacts_;
  bool cache_enabled_ = true;
  std::vector<CachedReply> cache_;  // indexed by ContactId - 1
  CacheStats cache_stats_;
};

class GisClient {
 public:
  GisClient(net::Endpoint& endpoint, net::NodeId server);

  using SnapshotFn =
      std::function<void(util::Result<sched::QueueSnapshot>)>;
  using SummaryFn = std::function<void(util::Result<sched::QueueSummary>)>;
  using ContactsFn =
      std::function<void(util::Result<std::vector<std::string>>)>;
  using SnapshotsFn =
      std::function<void(std::vector<util::Result<sched::QueueSnapshot>>)>;
  using SummariesFn =
      std::function<void(std::vector<util::Result<sched::QueueSummary>>)>;

  /// Fetches the published full snapshot for one resource (per-job detail).
  void query(const std::string& contact, sim::Time timeout,
             SnapshotFn on_done);

  /// Fetches the aggregate summary for one resource (fixed-size reply) —
  /// the view ranking reads.
  void query_summary(const std::string& contact, sim::Time timeout,
                     SummaryFn on_done);

  /// Lists the contacts the directory knows about.
  void list_contacts(sim::Time timeout, ContactsFn on_done);

  /// Fetches snapshots for several resources; `on_done` fires once with
  /// one result per contact (same order).  Queries run concurrently.
  void query_many(std::vector<std::string> contacts, sim::Time timeout,
                  SnapshotsFn on_done);

  /// Like query_many, but each reply is the O(1) aggregate view.
  void query_many_summaries(std::vector<std::string> contacts,
                            sim::Time timeout, SummariesFn on_done);

 private:
  net::Endpoint* endpoint_;
  net::NodeId server_;
};

}  // namespace grid::info
