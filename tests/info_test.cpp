// Tests for the networked grid information service and the resource
// broker (src/info).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "info/broker.hpp"
#include "info/gis.hpp"
#include "sched/batch.hpp"
#include "sched/fork.hpp"
#include "sched/reference.hpp"
#include "sched/reservation.hpp"
#include "simkit/rng.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

TEST(GisCodec, SnapshotRoundTrip) {
  sched::QueueSnapshot snap;
  snap.taken_at = 42 * sim::kSecond;
  snap.total_processors = 64;
  snap.busy_processors = 48;
  snap.queued.push_back({7, 16, 5 * sim::kMinute, 10 * sim::kSecond});
  snap.queued.push_back({9, 32, sim::kHour, 20 * sim::kSecond});
  util::Writer w;
  info::encode_snapshot(w, snap);
  util::Reader r(w.bytes());
  const sched::QueueSnapshot back = info::decode_snapshot(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.taken_at, snap.taken_at);
  EXPECT_EQ(back.total_processors, snap.total_processors);
  EXPECT_EQ(back.busy_processors, snap.busy_processors);
  ASSERT_EQ(back.queued.size(), 2u);
  EXPECT_EQ(back.queued[1].id, 9u);
  EXPECT_EQ(back.queued[1].estimated_runtime, sim::kHour);
}

struct GisFixture : ::testing::Test {
  GisFixture() {
    engine = std::make_unique<sim::Engine>();
    network = std::make_unique<net::Network>(*engine);
    busy = std::make_unique<sched::BatchScheduler>(*engine, 64);
    idle = std::make_unique<sched::BatchScheduler>(*engine, 64);
    service = std::make_unique<sched::LoadInformationService>(
        *engine, 10 * sim::kSecond);
    service->register_resource("busy", busy.get());
    service->register_resource("idle", idle.get());
    server = std::make_unique<info::GisServer>(*network, *service);
    server->set_contacts({"busy", "idle"});
    endpoint = std::make_unique<net::Endpoint>(*network, "broker");
    client = std::make_unique<info::GisClient>(*endpoint, server->contact());
    // Load the busy machine.
    sched::JobDescriptor d;
    d.id = 1;
    d.count = 64;
    d.runtime = sim::kHour;
    d.estimated_runtime = sim::kHour;
    busy->submit(d, nullptr, nullptr);
    service->publish_now();
  }

  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<sched::BatchScheduler> busy;
  std::unique_ptr<sched::BatchScheduler> idle;
  std::unique_ptr<sched::LoadInformationService> service;
  std::unique_ptr<info::GisServer> server;
  std::unique_ptr<net::Endpoint> endpoint;
  std::unique_ptr<info::GisClient> client;
};

TEST_F(GisFixture, QueryReturnsPublishedSnapshot) {
  util::Result<sched::QueueSnapshot> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  client->query("busy", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  got = std::move(r);
                });
  engine->run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().busy_processors, 64);
  EXPECT_EQ(server->queries_served(), 1u);
}

TEST_F(GisFixture, QueryCostsNetworkAndLookupTime) {
  sim::Time done_at = -1;
  client->query("idle", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot>) {
                  done_at = engine->now();
                });
  engine->run();
  // 2 one-way 2 ms hops + 5 ms lookup = 9 ms.
  EXPECT_EQ(done_at, 9 * sim::kMillisecond);
}

TEST_F(GisFixture, UnknownContactReturnsNotFound) {
  util::Status status;
  client->query("mystery", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  status = r.status();
                });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST_F(GisFixture, SnapshotsAreStaleNotLive) {
  // New load arrives after the last publish; a query must NOT see it.
  sched::JobDescriptor d;
  d.id = 2;
  d.count = 32;
  d.runtime = sim::kHour;
  idle->submit(d, nullptr, nullptr);
  util::Result<sched::QueueSnapshot> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  client->query("idle", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  got = std::move(r);
                });
  engine->run_until(sim::kSecond);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().busy_processors, 0);  // stale view
}

TEST_F(GisFixture, ListContactsEnumeratesDirectory) {
  std::vector<std::string> contacts;
  client->list_contacts(sim::kSecond,
                        [&](util::Result<std::vector<std::string>> r) {
                          ASSERT_TRUE(r.is_ok());
                          contacts = r.take();
                        });
  engine->run();
  EXPECT_EQ(contacts, (std::vector<std::string>{"busy", "idle"}));
}

TEST_F(GisFixture, CrashedServerTimesOut) {
  network->set_node_up(server->contact(), false);
  util::Status status;
  client->query("busy", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  status = r.status();
                });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kTimeout);
}

TEST_F(GisFixture, QueryManyPreservesOrderAndPartialFailures) {
  std::vector<util::Result<sched::QueueSnapshot>> results;
  bool done = false;
  client->query_many({"idle", "mystery", "busy"}, sim::kSecond,
                     [&](std::vector<util::Result<sched::QueueSnapshot>> r) {
                       results = std::move(r);
                       done = true;
                     });
  engine->run();
  ASSERT_TRUE(done);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].is_ok());
  EXPECT_EQ(results[0].value().busy_processors, 0);
  EXPECT_FALSE(results[1].is_ok());
  EXPECT_TRUE(results[2].is_ok());
  EXPECT_EQ(results[2].value().busy_processors, 64);
}

TEST_F(GisFixture, QueryManyEmptyCompletesImmediately) {
  bool done = false;
  client->query_many({}, sim::kSecond,
                     [&](std::vector<util::Result<sched::QueueSnapshot>> r) {
                       EXPECT_TRUE(r.empty());
                       done = true;
                     });
  EXPECT_TRUE(done);
}

// ---- summary-first, shared snapshots, and the reply-payload cache ---------

TEST_F(GisFixture, SummaryQueryMatchesSnapshotAggregates) {
  // Give the busy machine a queued job so every aggregate field is nonzero.
  sched::JobDescriptor d;
  d.id = 2;
  d.count = 32;
  d.runtime = sim::kHour;
  d.estimated_runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  util::Result<sched::QueueSummary> summary{
      util::Status(util::ErrorCode::kInternal, "unset")};
  util::Result<sched::QueueSnapshot> snap{
      util::Status(util::ErrorCode::kInternal, "unset")};
  client->query_summary("busy", sim::kSecond,
                        [&](util::Result<sched::QueueSummary> r) {
                          summary = std::move(r);
                        });
  client->query("busy", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  snap = std::move(r);
                });
  engine->run();
  ASSERT_TRUE(summary.is_ok()) << summary.status().to_string();
  ASSERT_TRUE(snap.is_ok()) << snap.status().to_string();
  const sched::QueueSummary derived = sched::summarize(snap.value());
  EXPECT_EQ(summary.value().taken_at, derived.taken_at);
  EXPECT_EQ(summary.value().total_processors, derived.total_processors);
  EXPECT_EQ(summary.value().busy_processors, derived.busy_processors);
  EXPECT_EQ(summary.value().queue_length, 1u);
  EXPECT_EQ(summary.value().queued_work, derived.queued_work);
}

TEST_F(GisFixture, PayloadCacheServesSharedFramesUntilRepublish) {
  const auto query_busy = [&] {
    bool done = false;
    client->query("busy", sim::kSecond,
                  [&](util::Result<sched::QueueSnapshot> r) {
                    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
                    done = true;
                  });
    engine->run();
    EXPECT_TRUE(done);
  };
  query_busy();
  query_busy();
  // First query encoded the reply; the second reused the shared frame.
  EXPECT_EQ(server->cache_stats().misses, 1u);
  EXPECT_EQ(server->cache_stats().hits, 1u);
  // New published content invalidates the cached frame exactly once.
  sched::JobDescriptor d;
  d.id = 3;
  d.count = 32;
  d.runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  query_busy();
  EXPECT_EQ(server->cache_stats().misses, 2u);
  EXPECT_EQ(server->cache_stats().hits, 1u);
  query_busy();
  EXPECT_EQ(server->cache_stats().hits, 2u);
}

TEST_F(GisFixture, UnregisterWhileQueryInFlightReturnsNotFound) {
  util::Status status;
  bool done = false;
  client->query("busy", sim::kSecond,
                [&](util::Result<sched::QueueSnapshot> r) {
                  status = r.status();
                  done = true;
                });
  // The query is on the wire; the resource drops out of the directory
  // before the server's deferred lookup runs.
  service->unregister_resource("busy");
  engine->run();
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), util::ErrorCode::kNotFound);
}

TEST_F(GisFixture, SharedSnapshotSurvivesRepublishAndUnregister) {
  const auto id = service->resolve("busy");
  ASSERT_NE(id, 0u);
  auto ref = service->snapshot_ref(id);
  ASSERT_TRUE(ref.is_ok());
  const sched::LoadInformationService::SnapshotRef held = ref.value();
  EXPECT_EQ(held->busy_processors, 64);
  EXPECT_TRUE(held->queued.empty());
  // A republish with new content swaps in a fresh snapshot object; the
  // held reference keeps observing the old one (query_many fan-outs hold
  // refs across publish rounds exactly like this).
  sched::JobDescriptor d;
  d.id = 4;
  d.count = 32;
  d.runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  auto fresh = service->snapshot_ref(id);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_NE(fresh.value().get(), held.get());
  EXPECT_EQ(fresh.value()->queued.size(), 1u);
  EXPECT_TRUE(held->queued.empty());
  // Unregistration tombstones the entry without touching the held ref.
  service->unregister_resource("busy");
  EXPECT_FALSE(service->snapshot_ref(id).is_ok());
  EXPECT_EQ(held->busy_processors, 64);
  EXPECT_EQ(service->resource_count(), 1u);
}

TEST_F(GisFixture, DirtyFlagRepublishSkipsUnchangedQueues) {
  const auto id_busy = service->resolve("busy");
  const auto id_idle = service->resolve("idle");
  const std::uint64_t v_busy = service->published_version(id_busy);
  const std::uint64_t v_idle = service->published_version(id_idle);
  const auto before = service->stats();
  // Nothing moved since the fixture's publish: both entries skip.
  service->publish_now();
  EXPECT_EQ(service->stats().snapshots_skipped,
            before.snapshots_skipped + 2);
  EXPECT_EQ(service->published_version(id_busy), v_busy);
  EXPECT_EQ(service->published_version(id_idle), v_idle);
  // A submit dirties exactly one scheduler; only that entry republishes.
  sched::JobDescriptor d;
  d.id = 5;
  d.count = 8;
  d.runtime = sim::kHour;
  busy->submit(d, nullptr, nullptr);
  service->publish_now();
  EXPECT_EQ(service->stats().snapshots_skipped,
            before.snapshots_skipped + 3);
  EXPECT_EQ(service->stats().snapshots_refreshed,
            before.snapshots_refreshed + 1);
  EXPECT_GT(service->published_version(id_busy), v_busy);
  EXPECT_EQ(service->published_version(id_idle), v_idle);
}

// ---- lazy publication ------------------------------------------------------
//
// A publish round stores a mark, not a copy; the first full read of a
// published version builds the snapshot from the live queue and the
// departure log.  The oracle keeps the eager copy a round used to make and
// requires the lazily built snapshot to equal it field for field, in queue
// order, however the queue moved between the round and the read.

void expect_same_snapshot(const sched::QueueSnapshot& got,
                          const sched::QueueSnapshot& want) {
  EXPECT_EQ(got.taken_at, want.taken_at);
  EXPECT_EQ(got.total_processors, want.total_processors);
  EXPECT_EQ(got.busy_processors, want.busy_processors);
  ASSERT_EQ(got.queued.size(), want.queued.size());
  for (std::size_t i = 0; i < got.queued.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got.queued[i].id, want.queued[i].id);
    EXPECT_EQ(got.queued[i].count, want.queued[i].count);
    EXPECT_EQ(got.queued[i].estimated_runtime,
              want.queued[i].estimated_runtime);
    EXPECT_EQ(got.queued[i].submitted_at, want.queued[i].submitted_at);
  }
}

enum class OracleKind { kFcfs, kEasy, kReservation, kFork, kReference };

class LazyPublicationOracle {
 public:
  LazyPublicationOracle(OracleKind kind, std::uint64_t seed) : rng_(seed) {
    switch (kind) {
      case OracleKind::kFcfs:
        sched_ = std::make_unique<sched::BatchScheduler>(engine_, kProcs);
        break;
      case OracleKind::kEasy:
        sched_ = std::make_unique<sched::BatchScheduler>(
            engine_, kProcs, sched::Backfill::kEasy);
        break;
      case OracleKind::kReservation: {
        auto res = std::make_unique<sched::ReservationScheduler>(
            engine_, kProcs, 20 * sim::kSecond);
        res_ = res.get();
        sched_ = std::move(res);
        break;
      }
      case OracleKind::kFork:
        // Nominal size 0: the advertised total follows busy, so the mark
        // must pin it too.
        sched_ = std::make_unique<sched::ForkScheduler>(
            engine_, 500 * sim::kMillisecond);
        break;
      case OracleKind::kReference:  // LocalScheduler's copy-at-mark default
        sched_ = std::make_unique<sched::ReferenceBackfill>(
            engine_, kProcs, sched::Backfill::kEasy);
        break;
    }
    service_ = std::make_unique<sched::LoadInformationService>(
        engine_, 10 * sim::kSecond);
    service_->register_resource("rm", sched_.get());
    id_ = service_->resolve("rm");
    keep_eager();
  }

  void step() {
    const sim::Time until =
        engine_.now() + rng_.uniform_int(0, 3000) * sim::kMillisecond;
    engine_.schedule_at(until, [] {});
    engine_.run_until(until);
    const std::int64_t op = rng_.uniform_int(0, 99);
    if (op < 35) {
      submit();
    } else if (op < 45) {
      if (!live_.empty()) sched_->cancel(pick_live());
    } else if (op < 53) {
      if (!live_.empty()) sched_->complete(pick_live());
    } else if (op < 62) {
      reservation_op();
    } else if (op < 76) {
      publish();
    } else if (op < 97) {
      read();
    } else {
      reregister();
    }
  }

  std::size_t reads() const { return reads_; }
  std::size_t moved_reads() const { return moved_reads_; }
  std::size_t versions_read() const { return versions_read_.size(); }

 private:
  static constexpr std::int32_t kProcs = 16;

  /// What an eager publication at this round would have held.
  void keep_eager() {
    eager_ = sched_->snapshot();
    eager_.taken_at = engine_.now();
  }

  sched::JobId pick_live() {
    return live_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(live_.size()) - 1))];
  }

  sched::JobDescriptor random_job(std::int32_t max_count) {
    sched::JobDescriptor d;
    d.id = next_id_++;
    d.count = static_cast<std::int32_t>(rng_.uniform_int(1, max_count));
    // Runtime 0 is owner-controlled: it runs until complete() or cancel().
    d.runtime = rng_.uniform_int(0, 2) == 0
                    ? 0
                    : rng_.uniform_int(1, 40) * sim::kSecond;
    d.estimated_runtime = rng_.uniform_int(0, 40) * sim::kSecond;
    return d;
  }

  sched::LocalScheduler::EndFn on_end() {
    return [this](sched::JobId id, sched::EndReason) { forget(id); };
  }

  void forget(sched::JobId id) {
    const auto it = std::find(live_.begin(), live_.end(), id);
    if (it != live_.end()) {
      *it = live_.back();
      live_.pop_back();
    }
  }

  void submit() {
    const sched::JobDescriptor d = random_job(kProcs);
    live_.push_back(d.id);
    if (!sched_->submit(d, nullptr, on_end()).is_ok()) forget(d.id);
  }

  void reservation_op() {
    if (res_ == nullptr) return;
    if (!rids_.empty() && rng_.uniform_int(0, 2) == 0) {
      const std::size_t i = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(rids_.size()) - 1));
      res_->cancel_reservation(rids_[i]);
      rids_[i] = rids_.back();
      rids_.pop_back();
      return;
    }
    const sim::Time start =
        engine_.now() + rng_.uniform_int(0, 20) * sim::kSecond;
    const std::int32_t count =
        static_cast<std::int32_t>(rng_.uniform_int(1, kProcs / 2));
    const sim::Time end = start + rng_.uniform_int(5, 40) * sim::kSecond;
    auto r = res_->reserve(start, end, count);
    if (!r.is_ok()) return;
    rids_.push_back(r.value().id);
    // Bound jobs wait in the queue until the window opens.
    for (std::int64_t n = rng_.uniform_int(1, 3); n > 0; --n) {
      const sched::JobDescriptor d = random_job(count);
      live_.push_back(d.id);
      if (!res_->submit_reserved(d, r.value().id, nullptr, on_end()).is_ok()) {
        forget(d.id);
      }
    }
  }

  void publish() {
    const std::uint64_t before = service_->published_version(id_);
    service_->publish_now();
    // A skipped round (scheduler version unchanged) keeps the old content.
    if (service_->published_version(id_) != before) keep_eager();
  }

  void read() {
    auto ref = service_->snapshot_ref(id_);
    ASSERT_TRUE(ref.is_ok()) << ref.status().to_string();
    ++reads_;
    const sched::QueueSnapshot live = sched_->snapshot();
    if (live.busy_processors != eager_.busy_processors ||
        live.queued.size() != eager_.queued.size()) {
      ++moved_reads_;
    }
    expect_same_snapshot(*ref.value(), eager_);
    versions_read_.insert(service_->published_version(id_));
    // One build per published version read, however many reads.
    EXPECT_EQ(service_->stats().snapshots_built, versions_read_.size());
  }

  void reregister() {
    service_->unregister_resource("rm");
    EXPECT_FALSE(service_->snapshot_ref(id_).is_ok());
    // The scheduler moves on unmarked: nothing may depend on that.
    for (int i = 0; i < 3; ++i) {
      submit();
      if (!live_.empty()) sched_->cancel(pick_live());
    }
    service_->register_resource("rm", sched_.get());
    keep_eager();
  }

  sim::Engine engine_;
  sim::Rng rng_;
  std::unique_ptr<sched::LocalScheduler> sched_;
  sched::ReservationScheduler* res_ = nullptr;
  std::unique_ptr<sched::LoadInformationService> service_;
  sched::LoadInformationService::ContactId id_ = 0;
  sched::QueueSnapshot eager_;
  std::vector<sched::JobId> live_;
  std::vector<sched::ReservationId> rids_;
  std::set<std::uint64_t> versions_read_;
  sched::JobId next_id_ = 1;
  std::size_t reads_ = 0;
  std::size_t moved_reads_ = 0;
};

TEST(LazyPublication, OriginalPositionsUndoRemovals) {
  sim::Rng rng(7);
  for (std::size_t n : {1u, 2u, 7u, 64u, 1000u}) {
    std::vector<std::size_t> list(n);
    for (std::size_t i = 0; i < n; ++i) list[i] = i;
    sched::OriginalPositions positions(n);
    while (!list.empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(list.size()) - 1));
      ASSERT_EQ(positions.take(i), list[i]) << "n " << n;
      list.erase(list.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
}

TEST(LazyPublication, BuiltSnapshotEqualsEagerCopyAtTheRound) {
  const std::pair<OracleKind, const char*> kinds[] = {
      {OracleKind::kFcfs, "fcfs"},
      {OracleKind::kEasy, "easy"},
      {OracleKind::kReservation, "reservation"},
      {OracleKind::kFork, "fork"},
      {OracleKind::kReference, "reference"},
  };
  for (const auto& [kind, name] : kinds) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      LazyPublicationOracle oracle(kind, seed * 0x9e37ULL);
      for (int i = 0; i < 500 && !::testing::Test::HasFatalFailure(); ++i) {
        oracle.step();
      }
      EXPECT_GT(oracle.versions_read(), 10u);
      // Reads after the queue moved are what exercise the departure log.
      EXPECT_GT(oracle.moved_reads(), oracle.reads() / 4);
    }
  }
}

TEST(LazyPublication, BuildsOncePerPublishedVersionReadInFull) {
  sim::Engine engine;
  sched::BatchScheduler s(engine, 4);
  sched::LoadInformationService service(engine, 10 * sim::kSecond);
  service.register_resource("rm", &s);
  const auto id = service.resolve("rm");
  sched::JobDescriptor d;
  d.count = 4;
  for (sched::JobId i = 1; i <= 8; ++i) {  // one running, the rest queued
    d.id = i;
    ASSERT_TRUE(s.submit(d, nullptr, nullptr).is_ok());
  }
  // Rounds that nobody reads in full build nothing; summaries are eager.
  for (sched::JobId i = 9; i <= 11; ++i) {
    d.id = i;
    ASSERT_TRUE(s.submit(d, nullptr, nullptr).is_ok());
    service.publish_now();
    ASSERT_TRUE(service.summary(id).is_ok());
  }
  EXPECT_EQ(service.stats().snapshots_refreshed, 4u);  // + registration
  EXPECT_EQ(service.stats().snapshots_built, 0u);
  // k reads of one published version build it once and share it.
  s.complete(1);  // the queue moves after the round; the reads must not
  auto first = service.snapshot_ref(id);
  ASSERT_TRUE(first.is_ok());
  for (int k = 0; k < 5; ++k) {
    auto again = service.snapshot_ref(id);
    ASSERT_TRUE(again.is_ok());
    EXPECT_EQ(again.value().get(), first.value().get());
  }
  EXPECT_EQ(service.stats().snapshots_built, 1u);
  EXPECT_EQ(first.value()->queued.size(), 10u);
  EXPECT_EQ(first.value()->queued.front().id, 2u);
  // The completion moved the version: that round republishes, and a round
  // with no change after it skips and builds nothing.
  service.publish_now();
  const std::uint64_t v = service.published_version(id);
  const auto before = service.stats();
  service.publish_now();
  EXPECT_EQ(service.stats().snapshots_skipped, before.snapshots_skipped + 1);
  EXPECT_EQ(service.published_version(id), v);
  EXPECT_EQ(service.stats().snapshots_built, 1u);
  auto fresh = service.snapshot_ref(id);
  ASSERT_TRUE(fresh.is_ok());
  EXPECT_EQ(service.stats().snapshots_built, 2u);
  EXPECT_EQ(fresh.value()->queued.size(), 9u);
  // The held snapshot still shows its own round.
  EXPECT_EQ(first.value()->queued.size(), 10u);
}

TEST(LoadInformationServicePerfect, LiveViewsAreNeverCacheable) {
  sim::Engine engine;
  sched::BatchScheduler s(engine, 8);
  sched::LoadInformationService service(engine, 0);
  service.register_resource("rm", &s);
  const auto id = service.resolve("rm");
  ASSERT_NE(id, 0u);
  // Perfect-information mode: consumers must never cache derived replies.
  EXPECT_EQ(service.published_version(id), 0u);
  sched::JobDescriptor d;
  d.id = 1;
  d.count = 4;
  d.runtime = sim::kMinute;
  s.submit(d, nullptr, nullptr);
  // Live view, no publish round needed.
  EXPECT_EQ(service.summary(id).value().busy_processors, 4);
  EXPECT_EQ(service.snapshot_ref(id).value()->busy_processors, 4);
}

TEST(GisServerPerfectInfo, CacheStaysColdOnLiveViews) {
  sim::Engine engine;
  net::Network network(engine);
  sched::BatchScheduler s(engine, 8);
  sched::LoadInformationService service(engine, 0);
  service.register_resource("rm", &s);
  info::GisServer server(network, service);
  server.set_contacts({"rm"});
  net::Endpoint ep(network, "client");
  info::GisClient client(ep, server.contact());
  std::int32_t seen = -1;
  client.query("rm", sim::kSecond, [&](util::Result<sched::QueueSnapshot> r) {
    ASSERT_TRUE(r.is_ok());
    seen = r.value().busy_processors;
  });
  engine.run();
  EXPECT_EQ(seen, 0);
  // The load changes; a cached frame would wrongly replay the old reply.
  sched::JobDescriptor d;
  d.id = 1;
  d.count = 4;
  d.runtime = sim::kHour;
  s.submit(d, nullptr, nullptr);
  client.query("rm", sim::kSecond, [&](util::Result<sched::QueueSnapshot> r) {
    ASSERT_TRUE(r.is_ok());
    seen = r.value().busy_processors;
  });
  engine.run();
  EXPECT_EQ(seen, 4);
  EXPECT_EQ(server.cache_stats().hits, 0u);
  EXPECT_EQ(server.cache_stats().misses, 2u);
}

TEST(GisClientHostile, ContactCountBeyondReplyIsMalformed) {
  // A 10-byte reply claiming 2^62 contacts must fail as malformed, not
  // reserve a vector of that size.
  sim::Engine engine;
  net::Network network(engine);
  net::Endpoint fake(network, "fake-gis");
  fake.register_method(
      info::kMethodListContacts,
      [&fake](net::NodeId caller, std::uint64_t call_id, util::Reader&) {
        util::Writer w;
        w.varint(std::uint64_t{1} << 62);
        w.u8(0);
        fake.respond(caller, call_id, w.take());
      });
  net::Endpoint ep(network, "client");
  info::GisClient client(ep, fake.id());
  util::Status status;
  bool done = false;
  client.list_contacts(sim::kSecond,
                       [&](util::Result<std::vector<std::string>> r) {
                         status = r.status();
                         done = true;
                       });
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(status.code(), util::ErrorCode::kInternal);
  EXPECT_EQ(status.message(), "malformed contact list");
}

// ---- broker ---------------------------------------------------------------------

TEST_F(GisFixture, BrokerPicksLeastLoaded) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Result<std::vector<info::ResourceBroker::Placement>> got{
      util::Status(util::ErrorCode::kInternal, "unset")};
  broker.select({"busy", "idle"}, 1, 16, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { got = std::move(r); });
  engine->run();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  ASSERT_EQ(got.value().size(), 1u);
  EXPECT_EQ(got.value()[0].contact, "idle");
  EXPECT_EQ(got.value()[0].free_processors, 64);
}

TEST_F(GisFixture, BrokerSkipsTooSmallMachines) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Status status;
  // Asking for 128 processors: neither 64-way machine qualifies.
  broker.select({"busy", "idle"}, 1, 128, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { status = r.status(); });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kResourceExhausted);
}

TEST_F(GisFixture, BrokerErrorsWhenTooFewCandidates) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Status status;
  broker.select({"busy", "mystery"}, 2, 16, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { status = r.status(); });
  engine->run();
  EXPECT_EQ(status.code(), util::ErrorCode::kResourceExhausted);
}

TEST_F(GisFixture, BrokerRejectsDegenerateInputs) {
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(*client, predictor);
  util::Status status;
  broker.select({}, 1, 16, sim::kSecond,
                [&](util::Result<std::vector<info::ResourceBroker::Placement>>
                        r) { status = r.status(); });
  EXPECT_EQ(status.code(), util::ErrorCode::kInvalidArgument);
}

using SelectResult =
    util::Result<std::vector<info::ResourceBroker::Placement>>;

void expect_same_selection(const SelectResult& want, const SelectResult& got,
                           const std::string& what) {
  ASSERT_EQ(want.is_ok(), got.is_ok()) << what;
  if (!want.is_ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << what;
    EXPECT_EQ(want.status().message(), got.status().message()) << what;
    return;
  }
  ASSERT_EQ(want.value().size(), got.value().size()) << what;
  for (std::size_t i = 0; i < want.value().size(); ++i) {
    EXPECT_EQ(want.value()[i].contact, got.value()[i].contact) << what;
    EXPECT_EQ(want.value()[i].predicted_wait, got.value()[i].predicted_wait)
        << what;
    EXPECT_EQ(want.value()[i].free_processors,
              got.value()[i].free_processors)
        << what;
  }
}

TEST_F(GisFixture, BrokerSummarySelectionMatchesSnapshotSelection) {
  // The documented contract: every entry point ranks candidates
  // identically — full snapshots, summaries, and federated summaries over
  // one directory or split across two — for both stock predictors, and
  // fails identically.
  sched::BatchScheduler deep(*engine, 32);
  sched::BatchScheduler small(*engine, 8);
  for (sched::JobId id = 10; id < 16; ++id) {
    sched::JobDescriptor d;
    d.id = id;
    d.count = 16;
    d.runtime = sim::kHour;
    d.estimated_runtime = static_cast<sim::Time>(id - 9) * 10 * sim::kMinute;
    deep.submit(d, nullptr, nullptr);
  }
  service->register_resource("deep", &deep);
  service->register_resource("small", &small);
  service->publish_now();
  // A second directory over the same service, for the two-group split.
  info::GisServer server2(*network, *service);
  info::GisClient client2(*endpoint, server2.contact());

  sched::AggregateWorkPredictor aggregate;
  sched::HistoryPredictor history(64, 2);
  for (int i = 0; i < 8; ++i) {
    history.observe(0, 0, 16, 0);
    history.observe(1, 64 * sim::kHour, 16, 20 * sim::kMinute);
    history.observe(4, 40 * sim::kHour, 16, 50 * sim::kMinute);
  }

  // select, select_by_summary, select_federated over one directory, and
  // select_federated with the candidates split across two directories.
  const auto select_everywhere = [&](const std::vector<std::string>& cands,
                                     std::size_t k,
                                     const sched::WaitPredictor& predictor) {
    info::ResourceBroker broker(*client, predictor);
    std::vector<SelectResult> results(
        4, SelectResult(util::Status(util::ErrorCode::kInternal, "unset")));
    const auto into = [&](std::size_t i) {
      return [&results, i](SelectResult r) { results[i] = std::move(r); };
    };
    broker.select(cands, k, 16, sim::kSecond, into(0));
    broker.select_by_summary(cands, k, 16, sim::kSecond, into(1));
    info::ResourceBroker::select_federated({{client.get(), cands}}, k, 16,
                                           sim::kSecond, predictor, into(2));
    const auto half = static_cast<std::ptrdiff_t>(cands.size() / 2);
    info::ResourceBroker::select_federated(
        {{client.get(), {cands.begin(), cands.begin() + half}},
         {&client2, {cands.begin() + half, cands.end()}}},
        k, 16, sim::kSecond, predictor, into(3));
    engine->run();
    return results;
  };
  const auto check = [&](const std::vector<std::string>& cands,
                         std::size_t k, bool expect_ok) {
    for (const sched::WaitPredictor* predictor :
         {static_cast<const sched::WaitPredictor*>(&aggregate),
          static_cast<const sched::WaitPredictor*>(&history)}) {
      const std::vector<SelectResult> r =
          select_everywhere(cands, k, *predictor);
      const std::string what = "k=" + std::to_string(k) + " " +
                               (predictor == &aggregate ? "aggregate"
                                                        : "history");
      ASSERT_EQ(r[0].is_ok(), expect_ok)
          << what << ": " << r[0].status().to_string();
      if (!expect_ok) {
        EXPECT_NE(r[0].status().code(), util::ErrorCode::kInternal) << what;
      }
      for (std::size_t i = 1; i < r.size(); ++i) {
        expect_same_selection(r[0], r[i],
                              what + " entry point " + std::to_string(i));
      }
    }
  };
  const std::vector<std::string> all = {"deep", "busy", "small", "idle"};
  check(all, 2, true);
  check(all, 3, true);
  check(all, 4, false);  // "small" is too small: only 3 usable
  check({"busy", "mystery", "idle"}, 2, true);   // unknown one skipped
  check({"busy", "mystery", "idle"}, 3, false);  // ... and not counted
  check(all, 0, false);                          // k == 0
}

TEST(Broker, BuildRequestsMapsPlacements) {
  std::vector<info::ResourceBroker::Placement> placements = {
      {"hostA", sim::kSecond, 64},
      {"hostB", 2 * sim::kSecond, 32},
  };
  auto jobs = info::ResourceBroker::build_requests(
      placements, 16, "sim", rsl::SubjobStartType::kRequired);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].resource_manager_contact, "hostA");
  EXPECT_EQ(jobs[1].resource_manager_contact, "hostB");
  EXPECT_EQ(jobs[0].count, 16);
  EXPECT_EQ(jobs[0].start_type, rsl::SubjobStartType::kRequired);
}

TEST(BrokerIntegration, EndToEndSelectionAndCoallocation) {
  // Full stack: grid + GIS + broker + DUROC.  The broker avoids the loaded
  // machine; the co-allocation releases on the two idle ones.
  test::SmallGrid g(3);
  sched::LoadInformationService service(g.grid->engine(), 0);
  for (int i = 1; i <= 3; ++i) {
    const std::string name = "host" + std::to_string(i);
    service.register_resource(name, &g.grid->host(name)->scheduler());
  }
  info::GisServer server(g.grid->network(), service);
  // host2 is fork-scheduled (unbounded), so use queue length via busy
  // processors: occupy it with a fork job.
  sched::JobDescriptor d;
  d.id = 77;
  d.count = 64;
  d.runtime = sim::kHour;
  g.grid->host("host2")->scheduler().submit(d, nullptr, nullptr);
  g.grid->run_until(sim::kSecond);
  service.publish_now();

  net::Endpoint ep(g.grid->network(), "broker");
  info::GisClient client(ep, server.contact());
  sched::AggregateWorkPredictor predictor;
  info::ResourceBroker broker(client, predictor);

  test::Outcome outcome;
  broker.select(
      {"host1", "host2", "host3"}, 2, 8, sim::kSecond,
      [&](util::Result<std::vector<info::ResourceBroker::Placement>> r) {
        ASSERT_TRUE(r.is_ok());
        for (const auto& p : r.value()) EXPECT_NE(p.contact, "host2");
        auto jobs = info::ResourceBroker::build_requests(
            r.value(), 8, "app", rsl::SubjobStartType::kRequired);
        auto* req = g.coallocator->create_request(outcome.callbacks());
        for (auto& j : jobs) req->add_subjob(std::move(j));
        req->commit();
      });
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.total_processes, 16);
}

}  // namespace
}  // namespace grid
