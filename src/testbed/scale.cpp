#include "testbed/scale.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace grid::testbed {
namespace {

// Background job ids must never collide with the gatekeepers' GRAM job
// ids, which share the same local scheduler id space and count up from 1.
// Each shard's driver counts from the same base: the streams may collide
// across shards, but they feed disjoint scheduler sets.
constexpr std::uint64_t kBackgroundJobBase = 1ULL << 32;

constexpr double kPi = 3.14159265358979323846;

// Per-shard RNG stream salt; shard 0 gets 0, so an unsharded run draws
// exactly the historical streams.
constexpr std::uint64_t shard_salt(std::size_t s) {
  return 0x9e3779b97f4a7c15ULL * s;
}

std::string host_name(int index) {
  std::string n = std::to_string(index);
  return "rm" + std::string(4 - std::min<std::size_t>(4, n.size()), '0') + n;
}

}  // namespace

ScaleSpec ScaleSpec::quick() {
  ScaleSpec s;
  s.resources = 96;
  s.duration = 2 * sim::kHour;
  s.background_jobs_per_day = 120'000.0;  // ~10k jobs over the 2h window
  s.transactions_per_day = 2'400.0;       // ~200 transactions
  s.agents = 2;
  s.broker_candidates = 8;
  return s;
}

ScaleScenario::ScaleScenario(ScaleSpec spec)
    : spec_(spec),
      grid_(CostModel::fast(), spec.seed,
            spec.shards < 1 ? 1 : spec.shards),
      predictor_(spec.background_mean_runtime),
      txn_rng_(spec.seed ^ 0x7a17ULL) {
  spec_.shards = grid_.shards();
  grid_.set_shard_threads(spec_.shard_threads);
  const std::size_t k = static_cast<std::size_t>(grid_.shards());
  shards_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    ShardState st;
    st.arrivals_rng = sim::Rng(spec_.seed ^ 0xa771ULL ^ shard_salt(s));
    st.background_rng = sim::Rng(spec_.seed ^ 0xb4c6ULL ^ shard_salt(s));
    st.next_background_id = kBackgroundJobBase;
    shards_.push_back(std::move(st));
  }

  // Heterogeneous resource pool: mixed sizes, speeds, and policies.  The
  // draw order is fixed, so the pool is a pure function of the seed —
  // sharding only adds the round-robin shard tag, never an extra draw.
  sim::Rng shape_rng(spec_.seed ^ 0x5a9eULL);
  static constexpr std::int32_t kSizes[] = {16, 32, 64, 128, 256};
  hosts_.reserve(static_cast<std::size_t>(spec_.resources));
  for (int i = 0; i < spec_.resources; ++i) {
    HostSpec hs;
    hs.name = host_name(i);
    hs.processors = kSizes[shape_rng.uniform_int(0, 4)];
    const std::int64_t policy = shape_rng.uniform_int(0, 9);
    hs.scheduler = policy < 7   ? SchedulerKind::kBackfill
                   : policy < 9 ? SchedulerKind::kFcfs
                                : SchedulerKind::kFork;
    hs.cost_scale = shape_rng.uniform(0.5, 2.0);
    hs.shard = i % spec_.shards;
    Host& h = grid_.add_host(hs);
    if (auto* batch = h.batch_scheduler()) {
      // A day of open-loop arrivals would otherwise accumulate O(1M) wait
      // observations nobody reads; the scenario keeps none.
      batch->set_history_capacity(0);
    }
    hosts_.push_back(&h);
    shards_[static_cast<std::size_t>(hs.shard)].hosts.push_back(&h);
  }

  app::StartupProfile profile;
  profile.init_delay = 50 * sim::kMillisecond;
  profile.init_jitter = 100 * sim::kMillisecond;
  profile.run_time = 2 * sim::kMinute;
  profile.failure_probability = 0.02;  // per-subjob stochastic failures
  profile.mode_on_chance = app::FailureMode::kCrashBeforeBarrier;
  profile.failure_per_job = true;

  for (std::size_t s = 0; s < k; ++s) {
    ShardState& st = shards_[s];
    st.service = std::make_unique<sched::LoadInformationService>(
        grid_.shard_engine(static_cast<int>(s)), spec_.publish_interval);
    std::vector<std::string> contacts;
    contacts.reserve(st.hosts.size());
    for (Host* h : st.hosts) {
      st.service->register_resource(h->name(), &h->scheduler());
      contacts.push_back(h->name());
    }
    st.gis_server = std::make_unique<info::GisServer>(
        grid_.network(static_cast<int>(s)), *st.service,
        1 * sim::kMillisecond);
    st.gis_server->set_contacts(std::move(contacts));
    st.gis_server->set_payload_cache(spec_.gis_payload_cache);
    app::install_app(grid_.executables(static_cast<int>(s)), "scale_app",
                     profile, &st.barrier_stats,
                     spec_.seed ^ 0xab91ULL ^ shard_salt(s));
  }

  core::RequestConfig config;
  config.rpc_timeout = 15 * sim::kSecond;
  config.startup_timeout = 1 * sim::kHour;  // queued subjobs may wait
  agents_.reserve(static_cast<std::size_t>(spec_.agents));
  for (int i = 0; i < spec_.agents; ++i) {
    Agent agent;
    agent.coallocator = grid_.make_coallocator(
        "agent" + std::to_string(i),
        "/O=Grid/CN=agent" + std::to_string(i), config);
    agent.gis.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      agent.gis.push_back(std::make_unique<info::GisClient>(
          agent.coallocator->endpoint(), shards_[s].gis_server->contact()));
    }
    agent.broker =
        std::make_unique<info::ResourceBroker>(*agent.gis[0], predictor_);
    agents_.push_back(std::move(agent));
  }
}

ScaleScenario::~ScaleScenario() = default;

void ScaleScenario::mix(ScaleMetrics& m, std::uint64_t value) {
  m.fingerprint = (m.fingerprint ^ value) * 0x100000001b3ULL;
}

bool ScaleScenario::accept_arrival(sim::Rng& rng, sim::Time now) const {
  // Thinning: candidate arrivals are drawn at the peak rate
  // lambda_max = mean * (1 + A) and kept with probability
  // lambda(t) / lambda_max, which yields the diurnal profile exactly.
  const double phase = 2.0 * kPi * static_cast<double>(now % kSimDay) /
                       static_cast<double>(kSimDay);
  const double relative = 1.0 + spec_.diurnal_amplitude * std::sin(phase);
  const double peak = 1.0 + spec_.diurnal_amplitude;
  return rng.uniform(0.0, peak) < relative;
}

void ScaleScenario::schedule_background_arrival(std::size_t shard) {
  if (spec_.background_jobs_per_day <= 0.0) return;
  // Each shard drives 1/K of the open-loop rate against its own hosts.
  const double peak_per_day = spec_.background_jobs_per_day /
                              static_cast<double>(spec_.shards) *
                              (1.0 + spec_.diurnal_amplitude);
  const sim::Time mean_gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(kSimDay) / peak_per_day));
  ShardState& st = shards_[shard];
  sim::Engine& engine = grid_.shard_engine(static_cast<int>(shard));
  engine.schedule_after(
      st.arrivals_rng.exponential_time(mean_gap),
      [this, shard, engine = &engine] {
        if (accept_arrival(shards_[shard].arrivals_rng, engine->now())) {
          submit_background_job(shard);
        }
        schedule_background_arrival(shard);
      });
}

void ScaleScenario::submit_background_job(std::size_t shard) {
  ShardState& st = shards_[shard];
  Host* host = st.hosts[static_cast<std::size_t>(st.background_rng.uniform_int(
      0, static_cast<std::int64_t>(st.hosts.size()) - 1))];
  sched::JobDescriptor desc;
  desc.id = st.next_background_id++;
  desc.count = static_cast<std::int32_t>(st.background_rng.uniform_int(
      1, std::min(spec_.background_max_count,
                  host->scheduler().total_processors())));
  desc.runtime = std::max<sim::Time>(
      sim::kMillisecond,
      st.background_rng.exponential_time(spec_.background_mean_runtime));
  // Users over-estimate; backfill plans with the estimate, not the truth.
  desc.estimated_runtime = static_cast<sim::Time>(
      static_cast<double>(desc.runtime) * st.background_rng.uniform(1.0, 2.0));
  const util::Status status = host->scheduler().submit(
      desc, [](sched::JobId) {},
      [this, shard](sched::JobId id, sched::EndReason reason) {
        if (reason == sched::EndReason::kCompleted) {
          ShardState& owner = shards_[shard];
          ++owner.metrics.background_completed;
          mix(owner.metrics, id);
        }
      });
  if (status.is_ok()) {
    ++st.metrics.background_submitted;
  } else {
    ++st.metrics.background_rejected;
  }
}

void ScaleScenario::schedule_transaction_arrival() {
  if (spec_.transactions_per_day <= 0.0) return;
  const double peak_per_day =
      spec_.transactions_per_day * (1.0 + spec_.diurnal_amplitude);
  const sim::Time mean_gap = std::max<sim::Time>(
      1, static_cast<sim::Time>(static_cast<double>(kSimDay) / peak_per_day));
  // The transaction driver lives on shard 0 and shares its arrival stream,
  // exactly like the unsharded scenario always has.
  grid_.engine().schedule_after(
      shards_[0].arrivals_rng.exponential_time(mean_gap), [this] {
        if (accept_arrival(shards_[0].arrivals_rng, grid_.engine().now())) {
          launch_transaction();
        }
        schedule_transaction_arrival();
      });
}

void ScaleScenario::launch_transaction() {
  ScaleMetrics& m = shards_[0].metrics;
  ++m.txn_attempted;
  Agent& agent = agents_[txn_seq_++ % agents_.size()];
  const int subjobs = static_cast<int>(
      txn_rng_.uniform_int(spec_.min_subjobs, spec_.max_subjobs));
  const std::int32_t count = static_cast<std::int32_t>(
      txn_rng_.uniform_int(spec_.min_count, spec_.max_count));
  const bool atomic = txn_rng_.uniform(0.0, 1.0) < spec_.atomic_fraction;

  // Sample a distinct candidate set; a rare duplicate after the bounded
  // retry loop is harmless (the broker queries it twice).
  std::vector<std::string> candidates;
  candidates.reserve(spec_.broker_candidates);
  std::vector<int> picked;
  for (std::size_t c = 0; c < spec_.broker_candidates; ++c) {
    int index = 0;
    for (int attempt = 0; attempt < 4; ++attempt) {
      index = static_cast<int>(txn_rng_.uniform_int(0, spec_.resources - 1));
      if (std::find(picked.begin(), picked.end(), index) == picked.end())
        break;
    }
    picked.push_back(index);
    candidates.push_back(hosts_[static_cast<std::size_t>(index)]->name());
  }

  core::Coallocator* mech = agent.coallocator.get();
  auto on_selected =
      [this, mech, count, atomic](
          util::Result<std::vector<info::ResourceBroker::Placement>> result) {
        ScaleMetrics& metrics = shards_[0].metrics;
        if (!result.is_ok()) {
          ++metrics.txn_select_failed;
          mix(metrics, metrics.txn_select_failed);
          return;
        }
        core::RequestCallbacks callbacks;
        callbacks.on_released = [this](const core::RuntimeConfig&) {
          ++shards_[0].metrics.txn_released;
        };
        // The id is only known after create_request, so the terminal
        // callback reads it through shared state; destruction is deferred
        // one event because a request must never die inside its own
        // callback.
        auto id_holder = std::make_shared<core::RequestId>(0);
        callbacks.on_terminal = [this, mech,
                                 id_holder](const util::Status& status) {
          ScaleMetrics& tally = shards_[0].metrics;
          if (status.is_ok()) {
            ++tally.txn_done;
          } else {
            ++tally.txn_aborted;
          }
          mix(tally, static_cast<std::uint64_t>(grid_.engine().now()) ^
                     (status.is_ok() ? 0x90ULL : 0xbadULL));
          const core::RequestId id = *id_holder;
          grid_.engine().schedule_after(
              0, [mech, id] { mech->destroy_request(id); });
        };
        core::CoallocationRequest* req = mech->create_request(callbacks);
        *id_holder = req->id();
        // GRAB-style atomic transactions make every subjob required; the
        // DUROC-interactive mix anchors one required subjob and lets the
        // rest fail individually (§3.2 categories).
        const auto requests = info::ResourceBroker::build_requests(
            result.value(), count, "scale_app",
            atomic ? rsl::SubjobStartType::kRequired
                   : rsl::SubjobStartType::kInteractive);
        bool first = true;
        for (rsl::JobRequest jr : requests) {
          if (!atomic && first) jr.start_type = rsl::SubjobStartType::kRequired;
          first = false;
          req->add_subjob(std::move(jr));
          ++shards_[0].metrics.subjobs_requested;
        }
        ++shards_[0].metrics.txn_placed;
        req->start();
        req->commit();
      };

  if (spec_.shards == 1) {
    agent.broker->select_by_summary(std::move(candidates),
                                    static_cast<std::size_t>(subjobs), count,
                                    10 * sim::kSecond, std::move(on_selected));
    return;
  }
  // Federated path: the candidate set spans shards, so each shard's slice
  // goes to that shard's directory and the broker joins the replies.
  std::vector<info::ResourceBroker::FederatedGroup> groups(
      static_cast<std::size_t>(spec_.shards));
  for (std::size_t s = 0; s < groups.size(); ++s) {
    groups[s].client = agent.gis[s].get();
  }
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const std::size_t s =
        static_cast<std::size_t>(picked[c] % spec_.shards);
    groups[s].candidates.push_back(std::move(candidates[c]));
  }
  info::ResourceBroker::select_federated(
      std::move(groups), static_cast<std::size_t>(subjobs), count,
      10 * sim::kSecond, predictor_, std::move(on_selected));
}

ScaleMetrics ScaleScenario::run() {
  if (ran_) return metrics_;
  ran_ = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].service->start();
    schedule_background_arrival(s);
  }
  schedule_transaction_arrival();
  grid_.run_until(spec_.duration);

  // Merge per-shard accumulators in shard order; an unsharded run takes
  // shard 0's verbatim.
  metrics_ = shards_[0].metrics;
  for (std::size_t s = 1; s < shards_.size(); ++s) {
    const ScaleMetrics& sm = shards_[s].metrics;
    metrics_.background_submitted += sm.background_submitted;
    metrics_.background_rejected += sm.background_rejected;
    metrics_.background_completed += sm.background_completed;
    mix(metrics_, sm.fingerprint);
  }
  metrics_.simulated = grid_.engine().now();
  metrics_.events_executed = 0;
  for (int s = 0; s < grid_.shards(); ++s) {
    metrics_.events_executed += grid_.shard_engine(s).executed();
  }
  for (const ShardState& st : shards_) {
    const sched::LoadInformationService::Stats is = st.service->stats();
    metrics_.info.publish_rounds += is.publish_rounds;
    metrics_.info.snapshots_refreshed += is.snapshots_refreshed;
    metrics_.info.snapshots_skipped += is.snapshots_skipped;
    metrics_.info.queries += is.queries;
    metrics_.info.misses += is.misses;
    metrics_.gis_queries_served += st.gis_server->queries_served();
    const info::GisServer::CacheStats cs = st.gis_server->cache_stats();
    metrics_.gis_cache.hits += cs.hits;
    metrics_.gis_cache.misses += cs.misses;
  }
  return metrics_;
}

}  // namespace grid::testbed
