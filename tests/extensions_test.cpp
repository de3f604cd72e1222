// Tests for the extension components: RSL alternatives, the
// AlternativesAgent, the ensemble monitor (§3.4), and co-reservation.
#include <gtest/gtest.h>

#include "core/composite.hpp"
#include "core/monitor.hpp"
#include "core/strategies.hpp"
#include "rsl/alternatives.hpp"
#include "rsl/parser.hpp"
#include "sched/coreservation.hpp"
#include "test_util.hpp"

namespace grid {
namespace {

using core::RequestState;
using core::SubjobState;
using test::Outcome;
using test::SmallGrid;

// ---- RSL alternatives --------------------------------------------------------

TEST(Alternatives, ParsesMixedSlots) {
  auto slots = rsl::parse_with_alternatives(
      "+(|(&(resourceManagerContact=A)(executable=sim))"
      "(&(resourceManagerContact=B)(executable=sim)))"
      "(&(resourceManagerContact=C)(count=2)(executable=master))");
  ASSERT_TRUE(slots.is_ok()) << slots.status().to_string();
  ASSERT_EQ(slots.value().size(), 2u);
  ASSERT_EQ(slots.value()[0].options.size(), 2u);
  EXPECT_EQ(slots.value()[0].options[0].resource_manager_contact, "A");
  EXPECT_EQ(slots.value()[0].options[1].resource_manager_contact, "B");
  ASSERT_EQ(slots.value()[1].options.size(), 1u);
  EXPECT_EQ(slots.value()[1].options[0].count, 2);
}

TEST(Alternatives, RejectsBadShapes) {
  EXPECT_FALSE(rsl::parse_with_alternatives("&(a=1)").is_ok());
  EXPECT_FALSE(
      rsl::parse_with_alternatives("+(|(&(executable=x))))").is_ok());
  // Option missing required attributes.
  EXPECT_FALSE(rsl::parse_with_alternatives(
                   "+(|(&(resourceManagerContact=A))"
                   "(&(resourceManagerContact=B)(executable=x)))")
                   .is_ok());
}

TEST(Alternatives, AgentFallsBackToSecondOption) {
  SmallGrid g(3);
  // host1 is down; the slot's alternative on host2 succeeds.
  g.grid->host("host1")->crash();
  Outcome outcome;
  const std::string rsl = std::string("+") +
      "(|(&(resourceManagerContact=host1)(count=4)(executable=app))" +
      "(&(resourceManagerContact=host2)(count=4)(executable=app)))" +
      "(&(resourceManagerContact=host3)(count=2)(executable=app))";
  auto agent = core::AlternativesAgent::from_rsl(*g.coallocator, rsl,
                                                 outcome.callbacks());
  ASSERT_TRUE(agent.is_ok()) << agent.status().to_string();
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(agent.value()->fallbacks_used(), 1u);
  EXPECT_EQ(outcome.config.total_processes, 6);
  EXPECT_EQ(outcome.config.subjobs[0].contact, "host2");
  EXPECT_EQ(outcome.config.subjobs[1].contact, "host3");
}

TEST(Alternatives, RequiredSlotSurvivesViaAlternative) {
  // The repaired-in-callback path: a *required* slot's failure does not
  // abort the request when the agent substitutes an alternative during
  // the failure callback.
  SmallGrid g(2);
  g.grid->host("host1")->crash();
  Outcome outcome;
  std::vector<rsl::SubjobAlternatives> slots(1);
  for (const char* host : {"host1", "host2"}) {
    rsl::JobRequest j;
    j.resource_manager_contact = host;
    j.executable = "app";
    j.count = 4;
    j.start_type = rsl::SubjobStartType::kRequired;
    slots[0].options.push_back(std::move(j));
  }
  core::AlternativesAgent agent(*g.coallocator, std::move(slots),
                                outcome.callbacks());
  g.grid->run();
  EXPECT_TRUE(outcome.released);
  EXPECT_EQ(outcome.config.subjobs[0].contact, "host2");
}

TEST(Alternatives, AgentAbortsWhenAllOptionsFail) {
  SmallGrid g(2);
  g.grid->host("host1")->crash();
  g.grid->host("host2")->crash();
  core::RequestConfig config;
  config.rpc_timeout = 5 * sim::kSecond;
  (void)config;
  Outcome outcome;
  std::vector<rsl::SubjobAlternatives> slots(1);
  for (const char* host : {"host1", "host2"}) {
    rsl::JobRequest j;
    j.resource_manager_contact = host;
    j.executable = "app";
    j.count = 4;
    j.start_type = rsl::SubjobStartType::kRequired;
    slots[0].options.push_back(std::move(j));
  }
  core::AlternativesAgent agent(*g.coallocator, std::move(slots),
                                outcome.callbacks());
  g.grid->run();
  EXPECT_FALSE(outcome.released);
  EXPECT_TRUE(outcome.terminal);
  EXPECT_EQ(outcome.status.code(), util::ErrorCode::kAborted);
}

// ---- ensemble monitor ----------------------------------------------------------

TEST(Monitor, ObservesGlobalTransitions) {
  SmallGrid g(2);
  core::EnsembleMonitor monitor;
  Outcome outcome;
  auto* req = g.coallocator->create_request(
      monitor.wrap(outcome.callbacks()));
  monitor.bind(req);
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  g.grid->run();
  ASSERT_TRUE(outcome.released);
  const auto& h = monitor.history();
  // ALL_PENDING -> ALL_ACTIVE -> RELEASED -> DONE, in order.
  auto find = [&](core::GlobalEvent e) {
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h[i] == e) return static_cast<std::ptrdiff_t>(i);
    }
    return static_cast<std::ptrdiff_t>(-1);
  };
  EXPECT_GE(find(core::GlobalEvent::kAllPending), 0);
  EXPECT_GT(find(core::GlobalEvent::kAllActive),
            find(core::GlobalEvent::kAllPending));
  EXPECT_GT(find(core::GlobalEvent::kReleased),
            find(core::GlobalEvent::kAllActive));
  EXPECT_GT(find(core::GlobalEvent::kDone),
            find(core::GlobalEvent::kReleased));
  const auto& summary = monitor.summary();
  EXPECT_EQ(summary.live_subjobs, 2u);
  EXPECT_EQ(summary.count(SubjobState::kDone), 2u);
  EXPECT_EQ(req->state(), RequestState::kDone);
}

TEST(Monitor, ReportsDegradationAfterRelease) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.run_time = sim::kHour});
  core::EnsembleMonitor monitor;
  Outcome outcome;
  auto* req = g.coallocator->create_request(
      monitor.wrap(outcome.callbacks()));
  monitor.bind(req);
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  g.grid->run_until(sim::kMinute);
  ASSERT_TRUE(outcome.released);
  // Kill one subjob's GRAM job out from under the running ensemble.
  auto view = req->subjob(req->subjobs()[1]);
  ASSERT_TRUE(view.is_ok());
  g.grid->host("host2")->scheduler().cancel(view.value().gram_job);
  g.grid->run_until(2 * sim::kMinute);
  bool degraded = false;
  for (core::GlobalEvent e : monitor.history()) {
    if (e == core::GlobalEvent::kDegraded) degraded = true;
  }
  EXPECT_TRUE(degraded);
  const auto& summary = monitor.summary();
  EXPECT_EQ(summary.count(SubjobState::kFailed), 1u);
  EXPECT_EQ(summary.live_subjobs, 1u);
}

TEST(Monitor, KillIsTheCollectiveControlOperation) {
  SmallGrid g(2, testbed::CostModel::fast(),
              app::StartupProfile{.run_time = sim::kHour});
  core::EnsembleMonitor monitor;
  Outcome outcome;
  auto* req = g.coallocator->create_request(
      monitor.wrap(outcome.callbacks()));
  monitor.bind(req);
  req->add_rsl(g.rsl(4, "required"));
  req->commit();
  g.grid->run_until(sim::kMinute);
  ASSERT_TRUE(outcome.released);
  monitor.kill();
  g.grid->run();
  EXPECT_EQ(req->state(), RequestState::kAborted);
  EXPECT_FALSE(monitor.history().empty());
  EXPECT_EQ(monitor.history().back(), core::GlobalEvent::kAborted);
}

// ---- hierarchical co-allocation (§3.1) --------------------------------------

TEST(Composite, TwoLevelCommitReleasesChildrenTogether) {
  // Two organizations, each with its own co-allocator identity, gather
  // their halves; the composite releases the union simultaneously.
  SmallGrid g(4, testbed::CostModel::fast(),
              app::StartupProfile{.init_delay = sim::kSecond,
                                  .init_jitter = 4 * sim::kSecond});
  auto org_b = g.grid->make_coallocator("org-b", "/CN=org-b");
  std::vector<core::RuntimeConfig> configs;
  util::Status done(util::ErrorCode::kInternal, "unset");
  core::CompositeAgent composite(
      {.on_released =
           [&](const std::vector<core::RuntimeConfig>& c) { configs = c; },
       .on_terminal = [&](const util::Status& s) { done = s; }});
  auto* child_a = composite.add_child(*g.coallocator);
  auto* child_b = composite.add_child(*org_b);
  child_a->add_rsl(testbed::rsl_multi(
      {testbed::rsl_subjob("host1", 4, "app"),
       testbed::rsl_subjob("host2", 4, "app")}));
  child_b->add_rsl(testbed::rsl_multi(
      {testbed::rsl_subjob("host3", 4, "app"),
       testbed::rsl_subjob("host4", 4, "app")}));
  composite.start();
  g.grid->run();
  ASSERT_TRUE(composite.released());
  ASSERT_EQ(configs.size(), 2u);
  EXPECT_EQ(configs[0].total_processes, 8);
  EXPECT_EQ(configs[1].total_processes, 8);
  EXPECT_TRUE(done.is_ok()) << done.to_string();
  // Simultaneity: both children were released at the same instant.
  EXPECT_EQ(child_a->released_at(), child_b->released_at());
  EXPECT_EQ(g.stats.releases, 16);
}

TEST(Composite, ChildFailureAbortsTheHierarchy) {
  SmallGrid g(3);
  app::install_app(g.grid->executables(), "crasher",
                   app::StartupProfile{.mode = app::FailureMode::kFailedCheck},
                   &g.stats);
  util::Status done;
  core::CompositeAgent composite(
      {.on_released = nullptr,
       .on_terminal = [&](const util::Status& s) { done = s; }});
  auto* healthy = composite.add_child(*g.coallocator);
  auto* doomed = composite.add_child(*g.coallocator);
  healthy->add_rsl(
      testbed::rsl_multi({testbed::rsl_subjob("host1", 4, "app")}));
  doomed->add_rsl(testbed::rsl_multi(
      {testbed::rsl_subjob("host2", 4, "crasher", "required")}));
  composite.start();
  g.grid->run();
  EXPECT_FALSE(composite.released());
  EXPECT_EQ(done.code(), util::ErrorCode::kAborted);
  EXPECT_EQ(healthy->state(), core::RequestState::kAborted);
  EXPECT_EQ(g.stats.releases, 0);  // nothing escaped the two-level barrier
}

TEST(Composite, FastChildWaitsForSlowChild) {
  SmallGrid g(2);
  app::install_app(g.grid->executables(), "slow",
                   app::StartupProfile{.init_delay = sim::kMinute}, &g.stats);
  core::RequestConfig config;
  config.startup_timeout = sim::kHour;
  std::vector<core::RuntimeConfig> configs;
  core::CompositeAgent composite(
      {.on_released =
           [&](const std::vector<core::RuntimeConfig>& c) { configs = c; },
       .on_terminal = nullptr});
  auto* fast = composite.add_child(*g.coallocator, {}, config);
  auto* slow = composite.add_child(*g.coallocator, {}, config);
  fast->add_rsl(testbed::rsl_multi({testbed::rsl_subjob("host1", 2, "app")}));
  slow->add_rsl(testbed::rsl_multi({testbed::rsl_subjob("host2", 2, "slow")}));
  composite.start();
  g.grid->run_until(30 * sim::kSecond);
  // The fast child holds its resources at the barrier, unreleased.
  EXPECT_EQ(fast->state(), core::RequestState::kEditing);
  EXPECT_TRUE(configs.empty());
  g.grid->run();
  EXPECT_EQ(configs.size(), 2u);
  EXPECT_EQ(fast->released_at(), slow->released_at());
}

// ---- co-reservation -------------------------------------------------------------

struct CoResFixture : ::testing::Test {
  sim::Engine engine;
  std::vector<std::unique_ptr<sched::ReservationScheduler>> machines;

  void make_machines(int k, std::int32_t procs = 64) {
    for (int i = 0; i < k; ++i) {
      machines.push_back(
          std::make_unique<sched::ReservationScheduler>(engine, procs));
    }
  }
  std::vector<sched::ReservationScheduler*> pointers() {
    std::vector<sched::ReservationScheduler*> out;
    for (auto& m : machines) out.push_back(m.get());
    return out;
  }
};

TEST_F(CoResFixture, AcquiresCommonWindowOnIdleMachines) {
  make_machines(3);
  sched::CoReservationAgent::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  ASSERT_TRUE(holds.is_ok()) << holds.status().to_string();
  ASSERT_EQ(holds.value().size(), 3u);
  const sim::Time start =
      sched::CoReservationAgent::window_start(holds.value());
  EXPECT_EQ(start, 0);
  for (const auto& h : holds.value()) {
    EXPECT_EQ(h.reservation.start, start);
    EXPECT_EQ(h.reservation.count, 32);
  }
}

TEST_F(CoResFixture, SkipsOverBusyWindows) {
  make_machines(2);
  // Machine 1 is fully reserved for the first two hours.
  ASSERT_TRUE(machines[1]->reserve(0, 2 * sim::kHour, 64).is_ok());
  sched::CoReservationAgent::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  options.step = 30 * sim::kMinute;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  ASSERT_TRUE(holds.is_ok());
  EXPECT_EQ(sched::CoReservationAgent::window_start(holds.value()),
            2 * sim::kHour);
  // The rollback left no stray reservations on machine 0.
  EXPECT_EQ(machines[0]->reservation_count(), 1u);
}

TEST_F(CoResFixture, FailsCleanlyPastHorizon) {
  make_machines(2);
  ASSERT_TRUE(machines[0]->reserve(0, 100 * sim::kHour, 64).is_ok());
  sched::CoReservationAgent::Options options;
  options.duration = sim::kHour;
  options.count = 32;
  options.horizon = 10 * sim::kHour;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  EXPECT_FALSE(holds.is_ok());
  EXPECT_EQ(holds.status().code(), util::ErrorCode::kResourceExhausted);
  // All-or-nothing: the unconstrained machine holds no leftover windows.
  EXPECT_EQ(machines[1]->reservation_count(), 0u);
}

TEST_F(CoResFixture, ReleaseClearsHolds) {
  make_machines(2);
  sched::CoReservationAgent::Options options;
  options.count = 16;
  auto holds = sched::CoReservationAgent::acquire(pointers(), options);
  ASSERT_TRUE(holds.is_ok());
  auto held = holds.take();
  sched::CoReservationAgent::release(held);
  EXPECT_TRUE(held.empty());
  EXPECT_EQ(machines[0]->reservation_count(), 0u);
  EXPECT_EQ(machines[1]->reservation_count(), 0u);
}

TEST_F(CoResFixture, RejectsDegenerateOptions) {
  make_machines(1);
  sched::CoReservationAgent::Options options;
  options.step = 0;
  EXPECT_FALSE(
      sched::CoReservationAgent::acquire(pointers(), options).is_ok());
  EXPECT_FALSE(
      sched::CoReservationAgent::acquire({}, {}).is_ok());
}

}  // namespace
}  // namespace grid
