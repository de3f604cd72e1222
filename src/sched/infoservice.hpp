// Grid information service: published queue state.
//
// Models the paper §2.2 option of resource managers "publish[ing]
// information about the current queue contents and scheduling policy".
// State is refreshed on a fixed interval, so queries observe stale
// data — the staleness that reference [14]'s simulation study identifies
// as the limit on forecast-guided co-allocation (see bench/ablate_forecast).
//
// One publication, two views of it.  Ranking (predictors, brokers) reads
// the aggregate `QueueSummary`: O(1) data regardless of queue depth.  The
// full `QueueSnapshot` is a payload for per-job detail, shared as an
// immutable `shared_ptr<const QueueSnapshot>`.  Every query goes through
// one lookup.
//
// Scale architecture (O(1k) resources, 100k-deep queues):
//   - contacts are interned to dense ContactIds once at registration, so
//     the per-query path never hashes a string or allocates an error
//     message;
//   - a publish round republishes only resources whose scheduler
//     `version()` moved since the last round (dirty-flag republish);
//   - republishing copies no queue.  The round stores the O(1) summary
//     and sets a mark on the scheduler (LocalScheduler::mark_published),
//     which from then on logs the departures of jobs queued at the mark.
//     The first full-detail read of a published version builds its
//     snapshot from the live queue and that log, and the entry shares the
//     result with every later reader of the version.  Rounds nobody reads
//     in full cost O(1) per resource regardless of depth.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.hpp"
#include "simkit/engine.hpp"

namespace grid::sched {

class LoadInformationService {
 public:
  /// Dense interned contact handle; 0 is invalid.  Ids are stable for the
  /// service's lifetime (unregistering tombstones the slot, re-registering
  /// the same contact revives it).
  using ContactId = std::uint32_t;

  /// Shared immutable published snapshot.  Holders may keep the reference
  /// across later publish rounds; the service never mutates a snapshot it
  /// has handed out, it swaps in a fresh one.
  using SnapshotRef = std::shared_ptr<const QueueSnapshot>;

  struct Stats {
    std::uint64_t publish_rounds = 0;
    std::uint64_t snapshots_refreshed = 0;  // scheduler version moved
    std::uint64_t snapshots_skipped = 0;    // dirty flag said "unchanged"
    std::uint64_t snapshots_built = 0;      // first full read of a version
    std::uint64_t queries = 0;
    std::uint64_t misses = 0;
  };

  /// Snapshots are refreshed every `publish_interval`; 0 publishes on every
  /// query (perfect information).
  LoadInformationService(sim::Engine& engine, sim::Time publish_interval);
  ~LoadInformationService();

  LoadInformationService(const LoadInformationService&) = delete;
  LoadInformationService& operator=(const LoadInformationService&) = delete;

  /// Registers a resource under its manager contact string.  The scheduler
  /// must outlive the service and be registered at most once at a time
  /// (registration owns its publication mark).  Re-registering a known
  /// contact revives its ContactId.
  void register_resource(std::string contact, const LocalScheduler* sched);
  void unregister_resource(const std::string& contact);

  /// Begins periodic publication (idempotent).
  void start();
  void stop();

  /// Refreshes all snapshots immediately.
  void publish_now();

  /// Contact string -> dense id; 0 for contacts never registered.  Resolve
  /// once, then query by id.
  ContactId resolve(const std::string& contact) const;

  /// Aggregate-only published view — what ranking reads.  kNotFound for
  /// invalid / unregistered / never-published ids.
  util::Result<QueueSummary> summary(ContactId id) const;

  /// Most recently published full snapshot, shared (no copy); the first
  /// read of a published version builds it.  Same errors as summary().
  util::Result<SnapshotRef> snapshot_ref(ContactId id) const;

  /// Version of the published content: moves exactly when a publish round
  /// actually refreshed this resource's snapshot, so consumers can cache
  /// derived artifacts (e.g. encoded reply payloads) keyed on it.
  /// 0 means "don't cache" (unknown id, unregistered, or perfect-
  /// information mode where every query sees live state).
  std::uint64_t published_version(ContactId id) const;

  /// Age of the published view: kTimeNever when there is none, 0 in
  /// perfect-information mode.
  sim::Time staleness(ContactId id) const;

  std::size_t resource_count() const { return registered_count_; }
  sim::Time publish_interval() const { return interval_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Entry {
    std::string contact;
    const LocalScheduler* sched = nullptr;
    mutable SnapshotRef snap;  // built on first read, reset by refresh()
    QueueSummary summary;
    std::uint64_t sched_version = 0;      // scheduler version at last refresh
    std::uint64_t published_version = 0;  // bumped on every content refresh
    sim::Time published_at = 0;           // last publish round touching this
    bool published = false;
    bool registered = false;
  };

  void tick();
  void refresh(Entry& e);
  /// The one lookup behind every query: the entry answering for `id`, or
  /// kNotFound.  The entry answers live in perfect-information mode.
  util::Result<const Entry*> lookup(ContactId id) const;
  /// lookup() counted in stats_.queries / stats_.misses.
  util::Result<const Entry*> counted_lookup(ContactId id) const;

  sim::Engine* engine_;
  sim::Time interval_;
  bool running_ = false;
  sim::EventId tick_event_;
  std::vector<Entry> entries_;  // indexed by ContactId - 1
  std::unordered_map<std::string, ContactId> intern_;
  std::size_t registered_count_ = 0;
  std::uint64_t next_published_version_ = 0;
  mutable Stats stats_;
};

}  // namespace grid::sched
