// Tests of the benchmark's own arithmetic and inputs: span nesting and
// self times, the tail-percentile rule, generator determinism, and the
// claim that tracing, the RSL submission path and the calibration pauses
// leave the simulation unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "info/broker.hpp"
#include "rsl/parser.hpp"
#include "testbed/grid.hpp"
#include "trace.hpp"
#include "workload.hpp"
#include "world.hpp"

namespace gridbench {
namespace {

namespace sim = grid::sim;

Span span(std::int64_t start, std::int64_t end, std::uint32_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.name = SpanName::kBenchArrival;
  return s;
}

TEST(SelfTime, NestedChildrenAreSubtracted) {
  // 1:[0,100] with children 2:[10,40] and 3:[50,70]; 4:[15,25] under 2.
  const std::vector<Span> spans = {span(0, 100, 0), span(10, 40, 1),
                                   span(50, 70, 1), span(15, 25, 2)};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{50, 20, 20, 10}));
}

TEST(SelfTime, OnlyTheCoveredPartOfTheParentCounts) {
  const std::vector<Span> spans = {span(0, 100, 0), span(90, 120, 1)};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{90, 30}));
}

TEST(SelfTime, SelfTimesOfATreeSumToItsRoot) {
  Tracer tracer(true);
  {
    Tracer::Scope root = tracer.open(SpanName::kBenchTxnArrival, 7);
    {
      Tracer::Scope a = tracer.open(SpanName::kInfoSelect, 7);
    }
    {
      Tracer::Scope b = tracer.open(SpanName::kBenchSelected, 7);
      Tracer::Scope c = tracer.open(SpanName::kRslParse, 7);
    }
  }
  { Tracer::Scope second_root = tracer.open(SpanName::kBenchArrival); }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, 1u);
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].parent, 3u);
  EXPECT_EQ(spans[4].parent, 0u);
  EXPECT_EQ(spans[3].txn, 7u);
  EXPECT_EQ(spans[4].txn, 0u);
  const std::vector<std::int64_t> self = self_times(spans);
  for (std::int64_t s : self) EXPECT_GE(s, 0);
  EXPECT_EQ(self[0] + self[1] + self[2] + self[3],
            spans[0].end_ns - spans[0].start_ns);
}

TEST(SelfTime, DisabledTracerRecordsNothing) {
  Tracer tracer(false);
  { Tracer::Scope s = tracer.open(SpanName::kSchedSubmit); }
  int calls = 0;
  auto wrapped = tracer.wrap(SpanName::kBenchSchedEnd, 0, [&calls](int x) {
    calls += x;
  });
  wrapped(2);
  EXPECT_EQ(calls, 2);
  EXPECT_TRUE(tracer.spans().empty());
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Tail, NearestRankPercentiles) {
  const std::vector<double> v = ramp(1000);
  EXPECT_EQ(percentile(v, 50), 500.0);
  EXPECT_EQ(percentile(v, 99), 990.0);
  EXPECT_EQ(percentile(ramp(1), 99), 1.0);
  EXPECT_EQ(beyond(1000, 99), 10u);
  EXPECT_EQ(beyond(999, 99), 9u);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  struct Case {
    std::size_t n;
    int percentile;
    std::size_t beyond;
  };
  for (const Case c : {Case{1000, 99, 10}, Case{999, 95, 49},
                       Case{200, 95, 10}, Case{199, 90, 19},
                       Case{100, 90, 10}, Case{99, 90, 9}}) {
    const Tail t = tail(ramp(c.n));
    EXPECT_EQ(t.percentile, c.percentile) << "n=" << c.n;
    EXPECT_EQ(t.beyond, c.beyond) << "n=" << c.n;
    EXPECT_EQ(t.samples, c.n);
    EXPECT_EQ(t.value, percentile(ramp(c.n), c.percentile));
  }
}

grid::testbed::ScaleSpec small_spec(std::uint64_t seed) {
  grid::testbed::ScaleSpec spec = grid::testbed::ScaleSpec::quick();
  spec.seed = seed;
  spec.resources = 24;
  spec.duration = 20 * sim::kMinute;
  return spec;
}

// Order-sensitive digest of every field of a plan.
std::uint64_t plan_digest(const ArrivalPlan& plan) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
  for (const grid::testbed::HostSpec& hs : plan.hosts) {
    mix(static_cast<std::uint64_t>(hs.processors));
    mix(static_cast<std::uint64_t>(hs.scheduler));
    mix(static_cast<std::uint64_t>(hs.cost_scale * 1e9));
    mix(static_cast<std::uint64_t>(hs.shard));
  }
  for (const auto& shard : plan.background) {
    for (const BackgroundArrival& a : shard) {
      mix(static_cast<std::uint64_t>(a.at));
      mix(a.host);
      mix(static_cast<std::uint64_t>(a.count));
      mix(static_cast<std::uint64_t>(a.runtime));
      mix(static_cast<std::uint64_t>(a.estimate));
    }
  }
  for (const TxnArrival& t : plan.txns) {
    mix(static_cast<std::uint64_t>(t.at));
    mix(static_cast<std::uint64_t>(t.subjobs));
    mix(static_cast<std::uint64_t>(t.count));
    mix(t.atomic ? 1 : 0);
  }
  for (std::uint32_t c : plan.candidates) mix(c);
  return h;
}

TEST(Generator, SameSeedSamePlan) {
  const ArrivalPlan a = generate(small_spec(11));
  const ArrivalPlan b = generate(small_spec(11));
  const ArrivalPlan c = generate(small_spec(12));
  EXPECT_EQ(plan_digest(a), plan_digest(b));
  EXPECT_NE(plan_digest(a), plan_digest(c));
  // The pool belongs to the workload, not to the seed.
  ASSERT_EQ(a.hosts.size(), c.hosts.size());
  for (std::size_t i = 0; i < a.hosts.size(); ++i) {
    EXPECT_EQ(a.hosts[i].processors, c.hosts[i].processors);
    EXPECT_EQ(a.hosts[i].scheduler, c.hosts[i].scheduler);
  }
}

TEST(Generator, RepeatSeeds) {
  EXPECT_EQ(repeat_seed(11, 0), 11u);
  EXPECT_NE(repeat_seed(11, 1), 11u);
  EXPECT_NE(repeat_seed(11, 1), repeat_seed(11, 2));
  EXPECT_NE(repeat_seed(11, 1), repeat_seed(12, 1));
}

TEST(Generator, ArrivalsAreOrderedAndWithinTheSpec) {
  const grid::testbed::ScaleSpec spec = small_spec(3);
  const ArrivalPlan plan = generate(spec);
  ASSERT_EQ(plan.hosts.size(), static_cast<std::size_t>(spec.resources));
  ASSERT_EQ(plan.background.size(), 1u);
  const auto& bg = plan.background[0];
  ASSERT_FALSE(bg.empty());
  ASSERT_FALSE(plan.txns.empty());
  for (std::size_t i = 0; i < bg.size(); ++i) {
    if (i > 0) EXPECT_LE(bg[i - 1].at, bg[i].at);
    EXPECT_LE(bg[i].at, spec.duration);
    EXPECT_GE(bg[i].count, 1);
    EXPECT_LE(bg[i].count, spec.background_max_count);
    EXPECT_GE(bg[i].estimate, bg[i].runtime);
  }
  for (const TxnArrival& t : plan.txns) {
    EXPECT_GE(t.subjobs, spec.min_subjobs);
    EXPECT_LE(t.subjobs, spec.max_subjobs);
  }
  EXPECT_EQ(plan.candidates.size(),
            plan.txns.size() * spec.broker_candidates);
}

TEST(Generator, ShardsSplitThePoolRoundRobin) {
  grid::testbed::ScaleSpec spec = small_spec(5);
  spec.shards = 3;
  const ArrivalPlan plan = generate(spec);
  ASSERT_EQ(plan.shard_hosts.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    for (std::uint32_t h : plan.shard_hosts[s]) EXPECT_EQ(h % 3, s);
    EXPECT_FALSE(plan.background[s].empty());
  }
}

TEST(RslPath, ParsedTextEqualsTheStructuredRequests) {
  const std::vector<grid::info::ResourceBroker::Placement> placements = {
      {"rm0001", 0, 0}, {"rm0042", 0, 0}, {"rm0999", 0, 0}};
  for (const bool atomic : {true, false}) {
    std::vector<std::string> subjobs;
    for (const auto& p : placements) {
      subjobs.push_back(grid::testbed::rsl_subjob(
          p.contact, 6, "scale_app",
          atomic || subjobs.empty() ? "required" : "interactive"));
    }
    const auto multi =
        grid::rsl::parse_multi_request(grid::testbed::rsl_multi(subjobs));
    ASSERT_TRUE(multi.is_ok());
    const auto parsed = grid::rsl::parse_job_requests(multi.value());
    ASSERT_TRUE(parsed.is_ok());
    auto expected = grid::info::ResourceBroker::build_requests(
        placements, 6, "scale_app",
        atomic ? grid::rsl::SubjobStartType::kRequired
               : grid::rsl::SubjobStartType::kInteractive);
    expected[0].start_type = grid::rsl::SubjobStartType::kRequired;
    EXPECT_EQ(parsed.value(), expected);
  }
}

TEST(World, TracingLeavesTheRunUnchanged) {
  const Workload& w = *find_workload("coalloc_storm");
  grid::testbed::ScaleSpec spec = w.spec;
  spec.seed = 21;
  spec.resources = 32;
  spec.duration = 15 * sim::kMinute;
  const ArrivalPlan plan = generate(spec);
  World plain(w, spec, plan, 1, false);
  const RunResult a = plain.run();
  World traced(w, spec, plan, 1, true);
  const RunResult b = traced.run();
  EXPECT_TRUE(a.violations.empty());
  EXPECT_TRUE(b.violations.empty());
  EXPECT_GT(a.counts.txn_released, 0u);
  EXPECT_TRUE(a.counts == b.counts);
  EXPECT_TRUE(plain.tracer().spans().empty());
  EXPECT_FALSE(traced.tracer().spans().empty());
}

TEST(World, ShardedDigestIgnoresWorkerThreads) {
  const Workload& w = *find_workload("grid_sharded");
  grid::testbed::ScaleSpec spec = w.spec;
  spec.seed = 9;
  spec.resources = 48;
  spec.duration = 5 * sim::kMinute;
  const ArrivalPlan plan = generate(spec);
  World serial(w, spec, plan, 1, false);
  World threaded(w, spec, plan, 4, false);
  const RunResult a = serial.run();
  const RunResult b = threaded.run();
  EXPECT_TRUE(a.violations.empty());
  EXPECT_GT(a.counts.posted, 0u);
  EXPECT_TRUE(a.counts == b.counts);
}

TEST(World, CalibrationPausesLeaveTheRunUnchanged) {
  for (const char* name : {"coalloc_storm", "grid_sharded"}) {
    const Workload& w = *find_workload(name);
    grid::testbed::ScaleSpec spec = w.spec;
    spec.seed = 5;
    spec.resources = 48;
    spec.duration = 30 * sim::kMinute;
    const ArrivalPlan plan = generate(spec);
    World whole(w, spec, plan, 1, false);
    const RunResult a = whole.run();
    Calibrator cal;
    int pauses = 0;
    World sliced(w, spec, plan, 1, false);
    const RunResult b = sliced.run(spec.duration / 7, [&] {
      cal.run(1000);
      ++pauses;
    });
    EXPECT_TRUE(a.violations.empty()) << name;
    EXPECT_GT(a.counts.txn_placed, 0u) << name;
    EXPECT_EQ(pauses, 7) << name;  // 7 full slices and a short last one
    // A sharded engine's lookahead window that straddles a slice boundary
    // is cut in two there; nothing else may change.
    EXPECT_GE(b.counts.windows, a.counts.windows) << name;
    EXPECT_LE(b.counts.windows, a.counts.windows + 7) << name;
    Counts uncut = b.counts;
    uncut.windows = a.counts.windows;
    EXPECT_TRUE(a.counts == uncut) << name;
    EXPECT_EQ(a.release_sim_s, b.release_sim_s) << name;
  }
}

TEST(Calibrator, KernelIsFixedAndTallied) {
  Calibrator a;
  Calibrator b;
  EXPECT_EQ(a.slowdown(), 1.0);
  a.run(5000);
  b.run(2000);
  b.run(3000);
  EXPECT_EQ(a.checksum(), b.checksum());
  EXPECT_GT(a.slowdown(), 0.0);
  a.reset_tally();
  EXPECT_EQ(a.slowdown(), 1.0);
}

}  // namespace
}  // namespace gridbench
