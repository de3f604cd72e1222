// Serial-vs-sharded byte-identity suite for the conservative parallel
// engine.
//
// The ShardedEngine's contract is substrate invariance: a K-shard model
// produces bit-identical results whether the shards run on the serial
// coordinator (threads = 0) or on worker threads, and a 1-shard engine is
// exactly the plain Engine.  These tests enforce the contract at three
// levels:
//
//   1. raw engine: a synthetic cross-shard ping-pong workload, per-shard
//      order-sensitive digests;
//   2. the full protocol stack: the chaos matrix (4 failure schedules x
//      kSeeds) on a 2-shard grid, comparing outcomes, virtual times, and
//      summed network stats.  payloads_fresh / payloads_recycled are
//      deliberately excluded: buffer pools are thread-local, so pool
//      recycling is the one observable the substrate may move;
//   3. ScaleScenario --quick at 2 shards: every metric including the
//      order-sensitive fingerprint.
//
// Under TSan this suite doubles as the data-race gate for the mailbox and
// barrier protocol (CI runs it with GRID_TRIAL_THREADS=4).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "app/behaviors.hpp"
#include "app/failure.hpp"
#include "core/grab.hpp"
#include "simkit/sharded.hpp"
#include "simkit/trialpool.hpp"
#include "testbed/grid.hpp"
#include "testbed/scale.hpp"

namespace grid {
namespace {

// ---- 1. raw engine ---------------------------------------------------------

/// Cross-shard ping-pong: each shard keeps an order-sensitive digest of
/// (time, tag) for every event it executes; cross-shard hops go through
/// post() at exactly the lookahead bound, the tightest legal schedule.
struct PingPongWorld {
  sim::ShardedEngine engines;
  std::vector<std::uint64_t> digest;

  explicit PingPongWorld(std::size_t shards, sim::Time lookahead)
      : engines(shards), digest(shards, 0xcbf29ce484222325ULL) {
    engines.set_lookahead(lookahead);
  }

  void mix(std::size_t shard, std::uint64_t value) {
    digest[shard] = (digest[shard] ^ value) * 0x100000001b3ULL;
  }

  void hop(std::uint32_t from, std::uint32_t to, sim::Time lookahead,
           int remaining) {
    engines.post(from, to, engines.shard(from).now() + lookahead,
                 [this, from, to, lookahead, remaining] {
                   mix(to, static_cast<std::uint64_t>(
                               engines.shard(to).now() * 31 + remaining));
                   if (remaining > 0) {
                     hop(to, from, lookahead, remaining - 1);
                   }
                 });
  }
};

std::vector<std::uint64_t> run_pingpong(std::size_t shards, unsigned threads,
                                        sim::Time lookahead) {
  PingPongWorld w(shards, lookahead);
  w.engines.set_threads(threads);
  // Local chatter on every shard plus cross-shard ping-pong chains, all
  // from the pre-run main thread (legal: no window is active yet).
  for (std::size_t s = 0; s < shards; ++s) {
    for (int i = 1; i <= 50; ++i) {
      w.engines.shard(s).schedule_at(i * 17 + static_cast<sim::Time>(s),
                                     [&w, s, i] {
                                       w.mix(s, static_cast<std::uint64_t>(
                                                    i * 1009));
                                     });
    }
  }
  if (shards > 1) {
    for (std::uint32_t s = 0; s + 1 < shards; ++s) {
      w.engines.shard(s).schedule_at(5, [&w, s, lookahead] {
        w.hop(s, s + 1, lookahead, 40);
      });
    }
  }
  w.engines.run();
  return w.digest;
}

TEST(ShardedEngine, SingleShardMatchesPlainEngine) {
  sim::Engine plain;
  std::uint64_t plain_digest = 0xcbf29ce484222325ULL;
  for (int i = 1; i <= 50; ++i) {
    plain.schedule_at(i * 17, [&plain_digest, i] {
      plain_digest = (plain_digest ^ static_cast<std::uint64_t>(i * 1009)) *
                     0x100000001b3ULL;
    });
  }
  plain.run();

  const std::vector<std::uint64_t> sharded = run_pingpong(1, 0, 1);
  EXPECT_EQ(sharded[0], plain_digest);
}

TEST(ShardedEngine, SerialVsThreadedPingPongIdentity) {
  for (const sim::Time lookahead : {sim::Time{1}, sim::Time{7}, sim::Time{50}}) {
    const auto serial = run_pingpong(2, 0, lookahead);
    const auto threaded = run_pingpong(2, 2, lookahead);
    EXPECT_EQ(serial, threaded) << "lookahead=" << lookahead;
  }
  const auto serial4 = run_pingpong(4, 0, 9);
  const auto threaded4 = run_pingpong(4, 4, 9);
  EXPECT_EQ(serial4, threaded4);
}

TEST(ShardedEngine, RunUntilChunksMatchSingleRun) {
  // Stopping at a deadline mid-chain (with a cross-shard message still in
  // a mailbox) and resuming must replay exactly like one uninterrupted
  // run — run_until is a pause point, never an observable boundary.
  PingPongWorld chunked(2, 10);
  chunked.engines.shard(0).schedule_at(
      5, [&chunked] { chunked.hop(0, 1, 10, 40); });
  chunked.engines.run_until(100);
  const auto mid = chunked.digest;
  chunked.engines.run_until(250);
  chunked.engines.run();

  PingPongWorld single(2, 10);
  single.engines.shard(0).schedule_at(
      5, [&single] { single.hop(0, 1, 10, 40); });
  single.engines.run();

  EXPECT_NE(mid, chunked.digest);  // the deadline actually paused the chain
  EXPECT_EQ(chunked.digest, single.digest);
}

// ---- 2. chaos matrix on a 2-shard grid -------------------------------------

constexpr int kSeeds = 32;
const sim::Time kHorizon = 20 * sim::kMinute;

enum class Schedule { kCrash, kPartition, kLossy, kFlapping };
constexpr Schedule kAllSchedules[] = {Schedule::kCrash, Schedule::kPartition,
                                      Schedule::kLossy, Schedule::kFlapping};

const char* to_string(Schedule s) {
  switch (s) {
    case Schedule::kCrash:
      return "crash";
    case Schedule::kPartition:
      return "partition";
    case Schedule::kLossy:
      return "lossy";
    case Schedule::kFlapping:
      return "flapping";
  }
  return "?";
}

/// Everything one trial observed; equality across substrates is the test.
struct TrialResult {
  int terminals = 0;
  int releases = 0;
  bool ok = false;
  sim::Time released_at = -1;
  sim::Time finished_at = -1;
  std::uint64_t events = 0;       // summed executed() across shards
  std::uint64_t sent = 0;         // summed network stats (pool counters
  std::uint64_t delivered = 0;    // excluded: thread-local recycling)
  std::uint64_t dropped = 0;
  std::uint64_t bytes = 0;
  std::uint64_t remote_sent = 0;
  std::uint64_t remote_delivered = 0;
  std::uint64_t barrier_released = 0;

  bool operator==(const TrialResult&) const = default;
};

net::RetryPolicy trial_retry_policy(std::uint64_t seed) {
  net::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 200 * sim::kMillisecond;
  policy.multiplier = 2.0;
  policy.jitter = 0.2;
  policy.jitter_seed = seed;
  policy.attempt_timeout = 3 * sim::kSecond;
  return policy;
}

TrialResult run_chaos_trial(Schedule schedule, std::uint64_t seed,
                            unsigned threads) {
  testbed::Grid grid(testbed::CostModel::paper(), seed, /*shards=*/2);
  grid.set_shard_threads(threads);
  std::vector<std::string> sites;
  for (int i = 1; i <= 4; ++i) {
    testbed::HostSpec hs;
    hs.name = "site" + std::to_string(i);
    hs.processors = 16;
    hs.shard = (i - 1) % 2;
    sites.push_back(hs.name);
    grid.add_host(hs);
  }
  app::StartupProfile profile;
  profile.init_delay = 50 * sim::kMillisecond;
  profile.init_jitter = 100 * sim::kMillisecond;
  profile.run_time = 30 * sim::kSecond;
  profile.checkin_resend = 2 * sim::kSecond;
  // Both shards host subjobs, so both registries need the app, each with
  // its shard's deterministic seed salt and its own stats sink (the app
  // callbacks run on the owning shard's thread).
  std::vector<app::BarrierStats> stats(
      static_cast<std::size_t>(grid.shards()));
  for (int s = 0; s < grid.shards(); ++s) {
    app::install_app(grid.executables(s), "sim", profile,
                     &stats[static_cast<std::size_t>(s)],
                     seed * 7 + 1 + static_cast<std::uint64_t>(s));
  }
  core::RequestConfig defaults;
  defaults.rpc_timeout = 5 * sim::kSecond;
  defaults.startup_timeout = 2 * sim::kMinute;
  auto mech = grid.make_coallocator("agent", "/CN=shard-chaos", defaults);
  mech->gram().set_retry_policy(trial_retry_policy(seed));
  app::FailureInjector inject(
      std::vector<net::Network*>{&grid.network(0), &grid.network(1)});

  core::GrabAllocator grab(*mech);
  TrialResult out;
  std::vector<std::string> subs;
  for (const std::string& site : sites) {
    subs.push_back(testbed::rsl_subjob(site, 4, "sim", "required"));
  }
  auto allocated = grab.allocate(
      testbed::rsl_multi(subs),
      {.on_subjob = nullptr,
       .on_released =
           [&](const core::RuntimeConfig&) {
             ++out.releases;
             out.released_at = grid.engine().now();
           },
       .on_terminal =
           [&](const util::Status& status) {
             ++out.terminals;
             out.ok = status.is_ok();
             out.finished_at = grid.engine().now();
           }});
  EXPECT_TRUE(allocated.is_ok());

  // One failure schedule drawn exactly like chaos_test draws it, aimed at
  // the agent<->gatekeeper paths (which now cross the shard boundary for
  // sites on shard 1).
  sim::Rng rng(seed ^ 0xc4a05);
  const net::NodeId agent = mech->endpoint().id();
  const auto victim = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(sites.size()) - 1));
  const net::NodeId contact = grid.host(sites[victim])->contact();
  const sim::Time from = rng.uniform_time(sim::kSecond, 8 * sim::kSecond);
  switch (schedule) {
    case Schedule::kCrash:
      inject.crash_at(contact, from);
      if (rng.chance(0.5)) {
        inject.restore_at(contact, from + rng.uniform_time(5 * sim::kSecond,
                                                           20 * sim::kSecond));
      }
      break;
    case Schedule::kPartition:
      inject.partition_between(
          agent, contact, from,
          from + rng.uniform_time(5 * sim::kSecond, 30 * sim::kSecond));
      break;
    case Schedule::kLossy:
      inject.lossy_window(
          rng.uniform(0.05, 0.3), from,
          from + rng.uniform_time(20 * sim::kSecond, 60 * sim::kSecond));
      if (rng.chance(0.5)) {
        inject.lossy_window(rng.uniform(0.3, 0.6), from + sim::kSecond,
                            from + 10 * sim::kSecond);
      }
      break;
    case Schedule::kFlapping:
      inject.flap_link(
          agent, contact, from,
          from + rng.uniform_time(10 * sim::kSecond, 40 * sim::kSecond),
          rng.uniform_time(sim::kSecond, 4 * sim::kSecond));
      break;
  }

  grid.run_until(kHorizon);
  if (out.terminals == 0 && allocated.is_ok()) {
    grab.cancel(allocated.value());
    grid.run_until(kHorizon + 2 * sim::kMinute);
  }

  for (int s = 0; s < grid.shards(); ++s) {
    out.events += grid.shard_engine(s).executed();
    const net::NetworkStats& ns = grid.network(s).stats();
    out.sent += ns.sent;
    out.delivered += ns.delivered;
    out.dropped += ns.dropped_down + ns.dropped_partition + ns.dropped_random;
    out.bytes += ns.bytes_sent + ns.bytes_delivered;
    out.remote_sent += ns.remote_sent;
    out.remote_delivered += ns.remote_delivered;
  }
  for (const app::BarrierStats& st : stats) {
    out.barrier_released += static_cast<std::uint64_t>(st.releases);
  }
  return out;
}

TEST(ShardedChaosIdentity, SerialVsThreadedMatrix) {
  sim::TrialPool pool;
  struct Pair {
    TrialResult serial;
    TrialResult threaded;
    std::uint64_t remote = 0;
  };
  const std::size_t n = std::size(kAllSchedules) * kSeeds;
  const auto pairs = pool.map<Pair>(n, [](std::size_t i) {
    const Schedule schedule = kAllSchedules[i / kSeeds];
    const std::uint64_t seed = 0x5eedULL + i % kSeeds;
    Pair p;
    p.serial = run_chaos_trial(schedule, seed, /*threads=*/0);
    p.threaded = run_chaos_trial(schedule, seed, /*threads=*/2);
    p.remote = p.serial.remote_sent;
    return p;
  });
  std::uint64_t crossings = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(std::string(to_string(kAllSchedules[i / kSeeds])) +
                 "/seed=" + std::to_string(0x5eedULL + i % kSeeds));
    EXPECT_EQ(pairs[i].serial, pairs[i].threaded);
    crossings += pairs[i].remote;
  }
  // The sweep must actually exercise the fabric, not degenerate into
  // per-shard silos.
  EXPECT_GT(crossings, 0u);
}

// ---- 3. ScaleScenario ------------------------------------------------------

testbed::ScaleMetrics run_scale(unsigned threads) {
  testbed::ScaleSpec spec = testbed::ScaleSpec::quick();
  spec.duration = 30 * sim::kMinute;
  spec.shards = 2;
  spec.shard_threads = threads;
  testbed::ScaleScenario scenario(spec);
  return scenario.run();
}

TEST(ShardedScaleIdentity, QuickScenarioSerialVsThreaded) {
  const testbed::ScaleMetrics a = run_scale(/*threads=*/0);
  const testbed::ScaleMetrics b = run_scale(/*threads=*/2);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.simulated, b.simulated);
  EXPECT_EQ(a.background_submitted, b.background_submitted);
  EXPECT_EQ(a.background_rejected, b.background_rejected);
  EXPECT_EQ(a.background_completed, b.background_completed);
  EXPECT_EQ(a.txn_attempted, b.txn_attempted);
  EXPECT_EQ(a.txn_placed, b.txn_placed);
  EXPECT_EQ(a.txn_select_failed, b.txn_select_failed);
  EXPECT_EQ(a.txn_released, b.txn_released);
  EXPECT_EQ(a.txn_done, b.txn_done);
  EXPECT_EQ(a.txn_aborted, b.txn_aborted);
  EXPECT_EQ(a.subjobs_requested, b.subjobs_requested);
  EXPECT_EQ(a.gis_queries_served, b.gis_queries_served);
  EXPECT_EQ(a.info.publish_rounds, b.info.publish_rounds);
  EXPECT_EQ(a.info.snapshots_refreshed, b.info.snapshots_refreshed);
  EXPECT_EQ(a.info.snapshots_skipped, b.info.snapshots_skipped);
  EXPECT_EQ(a.info.queries, b.info.queries);
  EXPECT_EQ(a.info.misses, b.info.misses);
  EXPECT_EQ(a.gis_cache.hits, b.gis_cache.hits);
  EXPECT_EQ(a.gis_cache.misses, b.gis_cache.misses);
  EXPECT_GT(a.txn_done, 0u);
  EXPECT_GT(a.background_completed, 0u);
}

}  // namespace
}  // namespace grid
