#include "world.hpp"

#include <algorithm>
#include <chrono>
#include <ctime>

#include "app/behaviors.hpp"
#include "core/coallocator.hpp"
#include "info/broker.hpp"
#include "info/gis.hpp"
#include "rsl/attributes.hpp"
#include "rsl/parser.hpp"
#include "sched/infoservice.hpp"
#include "simkit/allocguard.hpp"

namespace gridbench {
namespace {

namespace core = grid::core;
namespace info = grid::info;
namespace sched = grid::sched;
namespace sim = grid::sim;
namespace testbed = grid::testbed;
namespace util = grid::util;

// Background job ids never collide with the gatekeepers' GRAM job ids,
// which count up from 1 in the same scheduler id space.
constexpr std::uint64_t kBackgroundJobBase = 1ULL << 32;

constexpr std::uint64_t shard_salt(std::size_t s) {
  return 0x9e3779b97f4a7c15ULL * s;
}

void mix(std::uint64_t& digest, std::uint64_t value) {
  digest = (digest ^ value) * 0x100000001b3ULL;
}

double sim_seconds(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kSecond);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

double process_cpu_s() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void NetCounts::add(const grid::net::NetworkStats& n) {
  sent += n.sent;
  delivered += n.delivered;
  dropped_down += n.dropped_down;
  dropped_partition += n.dropped_partition;
  dropped_random += n.dropped_random;
  bytes_sent += n.bytes_sent;
  bytes_delivered += n.bytes_delivered;
  payloads += n.payloads_fresh + n.payloads_recycled;
  rpc_retries += n.rpc_retries;
  rpc_retry_successes += n.rpc_retry_successes;
  rpc_retry_exhausted += n.rpc_retry_exhausted;
  remote_sent += n.remote_sent;
  remote_delivered += n.remote_delivered;
}

struct World::Agent {
  std::unique_ptr<core::Coallocator> coallocator;
  std::vector<std::unique_ptr<info::GisClient>> gis;  // one per shard
  std::unique_ptr<info::ResourceBroker> broker;
};

// Everything one shard's events touch; with worker threads, only that
// shard's thread writes it while the engines run.
struct World::Shard {
  std::vector<testbed::Host*> hosts;
  std::unique_ptr<sched::LoadInformationService> service;
  std::unique_ptr<info::GisServer> gis_server;
  grid::app::BarrierStats barrier_stats;
  std::size_t next_arrival = 0;
  std::uint64_t next_job_id = kBackgroundJobBase;
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t digest = 0;
};

// Per-transaction bookkeeping for latencies and the conservation checks.
struct World::Txn {
  core::Coallocator* mech = nullptr;
  core::RequestId request = 0;
  sim::Time select_at = 0;
  sim::Time start_at = 0;
  std::uint8_t released = 0;
  std::uint8_t terminal = 0;
  bool placed = false;
  bool destroyed = false;
};

World::World(const Workload& workload, const testbed::ScaleSpec& spec,
             const ArrivalPlan& plan, unsigned threads, bool trace)
    : workload_(&workload),
      spec_(spec),
      plan_(&plan),
      tracer_(trace),
      grid_(testbed::CostModel::fast(), spec.seed,
            spec.shards < 1 ? 1 : spec.shards),
      predictor_(spec.background_mean_runtime),
      txns_(plan.txns.size()) {
  spec_.shards = grid_.shards();
  grid_.set_shard_threads(trace ? 0 : threads);
  const auto k = static_cast<std::size_t>(grid_.shards());
  shards_.resize(k);

  hosts_.reserve(plan.hosts.size());
  for (const testbed::HostSpec& hs : plan.hosts) {
    testbed::Host& h = grid_.add_host(hs);
    if (auto* batch = h.batch_scheduler()) {
      // Nobody reads per-job wait history; a long run would pile it up.
      batch->set_history_capacity(0);
    }
    hosts_.push_back(&h);
    shards_[static_cast<std::size_t>(hs.shard)].hosts.push_back(&h);
  }

  grid::app::StartupProfile profile;
  profile.init_delay = 50 * sim::kMillisecond;
  profile.init_jitter = 100 * sim::kMillisecond;
  profile.run_time = 2 * sim::kMinute;
  profile.failure_probability = 0.02;  // per-subjob stochastic failures
  profile.mode_on_chance = grid::app::FailureMode::kCrashBeforeBarrier;
  profile.failure_per_job = true;

  for (std::size_t s = 0; s < k; ++s) {
    Shard& sh = shards_[s];
    const int si = static_cast<int>(s);
    sh.service = std::make_unique<sched::LoadInformationService>(
        grid_.shard_engine(si), spec_.publish_interval);
    std::vector<std::string> contacts;
    contacts.reserve(sh.hosts.size());
    for (testbed::Host* h : sh.hosts) {
      sh.service->register_resource(h->name(), &h->scheduler());
      contacts.push_back(h->name());
    }
    sh.gis_server = std::make_unique<info::GisServer>(
        grid_.network(si), *sh.service, 1 * sim::kMillisecond);
    sh.gis_server->set_contacts(std::move(contacts));
    sh.gis_server->set_payload_cache(spec_.gis_payload_cache);
    grid::app::install_app(grid_.executables(si), "scale_app", profile,
                           &sh.barrier_stats,
                           spec_.seed ^ 0xab91ULL ^ shard_salt(s));
  }

  core::RequestConfig config;
  config.rpc_timeout = 15 * sim::kSecond;
  config.startup_timeout = 1 * sim::kHour;  // queued subjobs may wait
  agents_.resize(static_cast<std::size_t>(spec_.agents));
  for (std::size_t i = 0; i < agents_.size(); ++i) {
    Agent& agent = agents_[i];
    const std::string n = std::to_string(i);
    agent.coallocator = grid_.make_coallocator(
        "agent" + n, "/O=Grid/CN=agent" + n, config);
    for (std::size_t s = 0; s < k; ++s) {
      agent.gis.push_back(std::make_unique<info::GisClient>(
          agent.coallocator->endpoint(), shards_[s].gis_server->contact()));
    }
    agent.broker =
        std::make_unique<info::ResourceBroker>(*agent.gis[0], predictor_);
  }
}

World::~World() = default;

// ---- information plane -----------------------------------------------------

// The driver's own publish timer: the same rounds LoadInformationService's
// start() would run, but each publish_now() call is timed from outside.
void World::schedule_publish(std::size_t shard) {
  grid_.shard_engine(static_cast<int>(shard))
      .schedule_after(spec_.publish_interval, [this, shard] {
        Tracer::Scope timer = tracer_.open(SpanName::kBenchPublishTimer);
        Shard& sh = shards_[shard];
        if (tracer_.enabled()) {
          for (testbed::Host* h : sh.hosts) {
            result_.queue_depths.push_back(
                static_cast<double>(h->scheduler().queue_length()));
          }
        }
        {
          Tracer::Scope publish = tracer_.open(SpanName::kInfoPublish);
          sh.service->publish_now();
        }
        schedule_publish(shard);
      });
}

// ---- background load -------------------------------------------------------

void World::schedule_background(std::size_t shard) {
  const auto& arrivals = plan_->background[shard];
  const std::size_t next = shards_[shard].next_arrival;
  if (next >= arrivals.size()) return;
  grid_.shard_engine(static_cast<int>(shard))
      .schedule_at(arrivals[next].at,
                   [this, shard] { background_arrival(shard); });
}

void World::background_arrival(std::size_t shard) {
  Tracer::Scope event = tracer_.open(SpanName::kBenchArrival);
  Shard& sh = shards_[shard];
  const BackgroundArrival& a = plan_->background[shard][sh.next_arrival++];
  sched::JobDescriptor desc;
  desc.id = sh.next_job_id++;
  desc.count = a.count;
  desc.runtime = a.runtime;
  desc.estimated_runtime = a.estimate;
  auto on_end = [this, shard](sched::JobId id, sched::EndReason reason) {
    if (reason == sched::EndReason::kCompleted) {
      Shard& owner = shards_[shard];
      ++owner.completed;
      mix(owner.digest, id);
    }
  };
  sched::LocalScheduler::StartFn start_fn = [](sched::JobId) {};
  sched::LocalScheduler::EndFn end_fn = on_end;
  if (tracer_.enabled()) {
    start_fn = tracer_.wrap(SpanName::kBenchSchedStart, 0,
                            [](sched::JobId) {});
    end_fn = tracer_.wrap(SpanName::kBenchSchedEnd, 0, on_end);
  }
  sched::LocalScheduler& scheduler = sh.hosts[a.host]->scheduler();
  util::Status status;
  {
    Tracer::Scope submit = tracer_.open(SpanName::kSchedSubmit);
    status = scheduler.submit(desc, std::move(start_fn), std::move(end_fn));
  }
  if (status.is_ok()) {
    ++sh.submitted;
  } else {
    ++sh.rejected;
  }
  schedule_background(shard);
}

// ---- co-allocation transactions --------------------------------------------

void World::schedule_transaction() {
  if (next_txn_ >= plan_->txns.size()) return;
  grid_.engine().schedule_at(plan_->txns[next_txn_].at,
                             [this] { transaction_arrival(); });
}

void World::transaction_arrival() {
  const std::uint32_t seq = next_txn_++;
  const std::uint32_t txn_id = seq + 1;
  Tracer::Scope event = tracer_.open(SpanName::kBenchTxnArrival, txn_id);
  const TxnArrival& t = plan_->txns[seq];
  schedule_transaction();
  Agent& agent = agents_[seq % agents_.size()];
  txns_[seq].mech = agent.coallocator.get();
  txns_[seq].select_at = grid_.engine().now();

  std::vector<std::string> candidates;
  candidates.reserve(spec_.broker_candidates);
  for (std::size_t c = 0; c < spec_.broker_candidates; ++c) {
    candidates.push_back(
        hosts_[plan_->candidates[t.first_candidate + c]]->name());
  }
  auto done = [this, seq](auto result) { on_selected(seq, std::move(result)); };
  info::ResourceBroker::SelectFn on_done = done;
  if (tracer_.enabled()) {
    on_done = tracer_.wrap(SpanName::kBenchSelected, txn_id, done);
  }
  const auto k = static_cast<std::size_t>(t.subjobs);
  const sim::Time timeout = 10 * sim::kSecond;
  Tracer::Scope select = tracer_.open(SpanName::kInfoSelect, txn_id);
  switch (workload_->broker) {
    case BrokerPath::kSummary:
      agent.broker->select_by_summary(std::move(candidates), k, t.count,
                                      timeout, std::move(on_done));
      break;
    case BrokerPath::kFull:
      agent.broker->select(std::move(candidates), k, t.count, timeout,
                           std::move(on_done));
      break;
    case BrokerPath::kFederated: {
      // Each shard's slice of the candidate set goes to its own directory.
      std::vector<info::ResourceBroker::FederatedGroup> groups(
          shards_.size());
      for (std::size_t s = 0; s < groups.size(); ++s) {
        groups[s].client = agent.gis[s].get();
      }
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        const std::size_t s =
            plan_->candidates[t.first_candidate + c] % shards_.size();
        groups[s].candidates.push_back(std::move(candidates[c]));
      }
      info::ResourceBroker::select_federated(std::move(groups), k, t.count,
                                             timeout, predictor_,
                                             std::move(on_done));
      break;
    }
  }
}

void World::on_selected(
    std::uint32_t seq,
    util::Result<std::vector<info::ResourceBroker::Placement>> result) {
  const std::uint32_t txn_id = seq + 1;
  const sim::Time now = grid_.engine().now();
  Txn& txn = txns_[seq];
  result_.select_sim_s.push_back(sim_seconds(now - txn.select_at));
  if (!result.is_ok()) {
    ++result_.counts.txn_select_failed;
    mix(shards_[0].digest, result_.counts.txn_select_failed);
    return;
  }

  // The transaction reaches core as RSL multi-request text, DUROC's
  // interface.  GRAB-style atomic transactions make every subjob
  // required; the DUROC-interactive mix anchors one required subjob and
  // lets the rest fail individually (paper §3.2).
  const TxnArrival& t = plan_->txns[seq];
  std::vector<std::string> subjobs;
  subjobs.reserve(result.value().size());
  for (const info::ResourceBroker::Placement& p : result.value()) {
    const bool required = t.atomic || subjobs.empty();
    subjobs.push_back(testbed::rsl_subjob(p.contact, t.count, "scale_app",
                                          required ? "required"
                                                   : "interactive"));
  }
  const std::string text = testbed::rsl_multi(subjobs);
  util::Result<std::vector<grid::rsl::JobRequest>> requests(
      util::ErrorCode::kInternal, "unparsed");
  {
    Tracer::Scope parse = tracer_.open(SpanName::kRslParse, txn_id);
    util::Result<grid::rsl::Spec> multi =
        grid::rsl::parse_multi_request(text);
    requests = multi.is_ok() ? grid::rsl::parse_job_requests(multi.value())
                             : multi.status();
  }
  if (!requests.is_ok()) {
    result_.violations.push_back("rsl: generated request did not parse: " +
                                 requests.status().message());
    return;
  }

  core::RequestCallbacks callbacks;
  auto released = [this, seq](const core::RuntimeConfig&) {
    Txn& x = txns_[seq];
    const sim::Time at = grid_.engine().now();
    ++x.released;
    ++result_.counts.txn_released;
    result_.release_sim_s.push_back(sim_seconds(at - plan_->txns[seq].at));
    result_.start_to_release_sim_s.push_back(sim_seconds(at - x.start_at));
  };
  auto terminal = [this, seq](const util::Status& status) {
    Txn& x = txns_[seq];
    ++x.terminal;
    if (status.is_ok()) {
      ++result_.counts.txn_done;
    } else {
      ++result_.counts.txn_aborted;
    }
    sim::Engine& engine = grid_.engine();
    mix(shards_[0].digest, static_cast<std::uint64_t>(engine.now()) ^
                               (status.is_ok() ? 0x90ULL : 0xbadULL));
    // A request must never die inside its own callback: destroy it one
    // event later.
    engine.schedule_after(0, [this, seq] {
      Txn& y = txns_[seq];
      Tracer::Scope event = tracer_.open(SpanName::kBenchDestroy, seq + 1);
      {
        Tracer::Scope destroy = tracer_.open(SpanName::kCoreDestroy, seq + 1);
        y.mech->destroy_request(y.request);
      }
      y.destroyed = true;
    });
  };
  if (tracer_.enabled()) {
    callbacks.on_released =
        tracer_.wrap(SpanName::kBenchReleased, txn_id, released);
    callbacks.on_terminal =
        tracer_.wrap(SpanName::kBenchTerminal, txn_id, terminal);
  } else {
    callbacks.on_released = released;
    callbacks.on_terminal = terminal;
  }

  Tracer::Scope submit = tracer_.open(SpanName::kCoreSubmit, txn_id);
  core::CoallocationRequest* req = txn.mech->create_request(callbacks);
  txn.request = req->id();
  for (grid::rsl::JobRequest& jr : requests.value()) {
    (void)req->add_subjob(std::move(jr));
    ++result_.counts.subjobs;
  }
  txn.placed = true;
  ++result_.counts.txn_placed;
  txn.start_at = now;
  req->start();
  (void)req->commit();
}

// ---- run phase ---------------------------------------------------------------

RunResult World::run(sim::Time slice,
                     const std::function<void()>& between) {
  if (ran_) return {};
  ran_ = true;
  const auto phase0 = std::chrono::steady_clock::now();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    schedule_publish(s);
    schedule_background(s);
  }
  schedule_transaction();

  const auto run0 = std::chrono::steady_clock::now();
  const double cpu0 = process_cpu_s();
  double paused_s = 0;
  double paused_cpu_s = 0;
  std::uint64_t paused_allocs = 0;
  {
    sim::AllocGuard allocs;
    sim::Time until = slice > 0 ? std::min(slice, spec_.duration)
                                : spec_.duration;
    for (;;) {
      grid_.run_until(until);
      if (until >= spec_.duration) break;
      const auto pause0 = std::chrono::steady_clock::now();
      const double pause_cpu0 = process_cpu_s();
      const std::uint64_t pause_allocs0 = sim::AllocGuard::thread_allocations();
      if (between) between();
      paused_allocs += sim::AllocGuard::thread_allocations() - pause_allocs0;
      paused_cpu_s += process_cpu_s() - pause_cpu0;
      paused_s += seconds_since(pause0);
      until = std::min(until + slice, spec_.duration);
    }
    result_.main_thread_allocs = allocs.allocations() - paused_allocs;
  }
  result_.run_cpu_s = process_cpu_s() - cpu0 - paused_cpu_s;
  result_.run_s = seconds_since(run0) - paused_s;

  result_.phase_s = seconds_since(phase0) - paused_s;

  Counts& c = result_.counts;
  c.txn_attempted = next_txn_;
  c.digest = shards_[0].digest;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    c.bg_offered += sh.next_arrival;
    c.bg_submitted += sh.submitted;
    c.bg_rejected += sh.rejected;
    c.bg_completed += sh.completed;
    if (s > 0) mix(c.digest, sh.digest);
    const int si = static_cast<int>(s);
    c.events += grid_.shard_engine(si).executed();
    const sched::LoadInformationService::Stats& is = sh.service->stats();
    c.publish_rounds += is.publish_rounds;
    c.snapshots_refreshed += is.snapshots_refreshed;
    c.snapshots_skipped += is.snapshots_skipped;
    const info::GisServer::CacheStats& cs = sh.gis_server->cache_stats();
    c.gis_cache_hits += cs.hits;
    c.gis_cache_misses += cs.misses;
    const grid::net::NetworkStats& n = grid_.network(si).stats();
    c.net.add(n);
    result_.payloads_recycled += n.payloads_recycled;
  }
  if (shards_.size() > 1) {
    c.windows = grid_.engines().stats().windows;
    c.posted = grid_.engines().stats().posted;
  }
  check(result_);
  return std::move(result_);
}

void World::check(RunResult& r) const {
  const Counts& c = r.counts;
  const auto fail = [&r](const char* what) {
    if (std::find(r.violations.begin(), r.violations.end(), what) ==
        r.violations.end()) {
      r.violations.emplace_back(what);
    }
  };
  std::uint64_t planned = 0;
  for (const auto& shard : plan_->background) planned += shard.size();
  if (c.bg_offered != planned) fail("background: not every arrival fired");
  if (c.bg_submitted + c.bg_rejected != c.bg_offered) {
    fail("background: submitted + rejected != offered");
  }
  if (c.txn_attempted != plan_->txns.size()) {
    fail("txn: not every arrival fired");
  }
  if (c.txn_placed + c.txn_select_failed > c.txn_attempted) {
    fail("txn: more selections than attempts");
  }
  if (c.txn_released > c.txn_placed) fail("txn: released > placed");
  std::uint64_t live = 0;
  for (const Txn& t : txns_) {
    if (t.released > 1) fail("txn: released twice");
    if (t.terminal > 1) fail("txn: ended twice");
    if (!t.placed) {
      if (t.released != 0 || t.terminal != 0) fail("txn: unplaced but live");
      continue;
    }
    if (t.terminal == 0) {
      ++live;
      if (t.mech->find_request(t.request) == nullptr) {
        fail("txn: neither ended nor live at the horizon");
      }
    } else if (!t.destroyed) {
      fail("txn: ended but never destroyed");
    }
  }
  if (c.txn_done + c.txn_aborted + live != c.txn_placed) {
    fail("txn: done + aborted + live != placed");
  }
  const std::uint64_t dropped =
      c.net.dropped_down + c.net.dropped_partition + c.net.dropped_random;
  if (c.net.sent < c.net.delivered + dropped) {
    fail("net: delivered + dropped > sent");
  }
}

}  // namespace gridbench
