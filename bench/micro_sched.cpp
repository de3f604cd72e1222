// Scheduler decision-path microbenchmark: the profile-based EASY backfill
// (sched::BatchScheduler) versus the scan-based reference oracle
// (sched::ReferenceBackfill), measured in one binary on the same workload
// (the micro_engine / micro_net recipe).
//
// The workload is the shape the rewrite targets: a machine saturated by
// running jobs with staggered estimates, a wide head job that cannot start
// (so EASY shadow/extra gate every decision), and a queue already D jobs
// deep.  Each measured "decision" is one submit into that queue — the
// scheduler must decide admit-now / hold, which costs the reference a full
// O(D) queue rescan and the profile path one O(log) fit query against the
// cached shadow state.  Both paths run the identical submit sequence, and
// the bench cross-checks that they agreed on every outcome (queue length,
// busy processors, accept count) — a miniature of tests/sched_diff_test.
//
// Sweeps queue depth 1k -> 100k (--quick shrinks to 1k/4k for ctest).
//
// A second row times full EASY passes over a deep queue, the cost a job
// end pays: one of the running jobs completes, freeing processors that
// every queued candidate is too wide for, so the pass walks the whole
// queue and starts nothing.  A short job then backfills into the freed
// processors through the submit fast path, restoring the state.  The row
// reports queued jobs walked per second, the per-job scan cost.
//
// Writes measurements as JSON to the path given as an argument (e.g. the
// committed BENCH_sched.json), and nowhere without one;
// scripts/run_benches.sh diffs the JSON against the committed baseline.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "sched/batch.hpp"
#include "sched/reference.hpp"
#include "simkit/engine.hpp"
#include "simkit/time.hpp"
#include "testbed/report.hpp"

using namespace grid;

namespace {

constexpr std::int32_t kProcessors = 256;
constexpr std::int32_t kFillJobs = 32;       // running jobs saturating the machine
constexpr std::int32_t kFillWidth = kProcessors / kFillJobs;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

sched::JobDescriptor job(sched::JobId id, std::int32_t count,
                         sim::Time estimate) {
  sched::JobDescriptor d;
  d.id = id;
  d.count = count;
  d.estimated_runtime = estimate;
  return d;
}

/// One scheduler world in the measured configuration.  All submits happen
/// at virtual time 0; the engine never advances, so the decision cost is
/// the only thing on the clock.
template <typename Scheduler>
struct World {
  sim::Engine engine;
  Scheduler sched{engine, kProcessors, sched::Backfill::kEasy};
  sched::JobId next_id = 1;
  std::uint64_t accepted = 0;

  void submit(std::int32_t count, sim::Time estimate) {
    if (sched.submit(job(next_id++, count, estimate), {}, {}).is_ok()) {
      ++accepted;
    }
  }

  /// Saturate the machine, block the head, grow the queue to `depth`
  /// with candidates `width` wide.
  void fill_to(std::size_t depth, std::int32_t width = 2) {
    // Running load: staggered estimated ends give the profile (and the
    // reference's shadow sort) a realistic breakpoint population.
    for (std::int32_t i = 0; i < kFillJobs; ++i) {
      submit(kFillWidth, (100000 + i * 1000) * sim::kSecond);
    }
    // The head wants the whole machine: shadow lands at the last
    // estimated end, extra is zero, and everything behind it holds.
    submit(kProcessors, 1000 * sim::kSecond);
    // Queue filler: too wide for the zero free processors, too long to
    // finish before the shadow — held, exactly like the measured submits.
    while (sched.queue_length() < depth) {
      submit(width, 500000 * sim::kSecond);
    }
  }
};

struct Measured {
  double decisions_per_s = 0;
  std::uint64_t accepted = 0;
  std::size_t queue_length = 0;
  std::int32_t busy = 0;
};

template <typename Scheduler>
Measured run_depth(std::size_t depth, std::uint64_t decisions) {
  World<Scheduler> w;
  w.fill_to(depth);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < decisions; ++i) {
    w.submit(2, 500000 * sim::kSecond);
  }
  const double dt = seconds_since(t0);
  Measured m;
  m.decisions_per_s = static_cast<double>(decisions) / dt;
  m.accepted = w.accepted;
  m.queue_length = w.sched.queue_length();
  m.busy = w.sched.busy_processors();
  return m;
}

struct Row {
  std::size_t depth = 0;
  Measured profile;
  Measured reference;
  double speedup = 0;
};

/// Full-pass row: `decisions_per_s` counts passes.
template <typename Scheduler>
Measured run_full_passes(std::size_t depth, std::uint64_t passes) {
  World<Scheduler> w;
  // Candidates twice as wide as one running job never fit what one end
  // frees.
  w.fill_to(depth, 2 * kFillWidth);
  sched::JobId running = 1;  // the first running job
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < passes; ++i) {
    w.sched.complete(running);  // frees kFillWidth: one full pass
    running = w.next_id;
    w.submit(kFillWidth, 1000 * sim::kSecond);  // backfills at once
  }
  const double dt = seconds_since(t0);
  Measured m;
  m.decisions_per_s = static_cast<double>(passes) / dt;
  m.accepted = w.accepted;
  m.queue_length = w.sched.queue_length();
  m.busy = w.sched.busy_processors();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      out_path = argv[i];
    }
  }
  const std::vector<std::size_t> depths =
      quick ? std::vector<std::size_t>{1000, 4000}
            : std::vector<std::size_t>{1000, 10000, 100000};

  testbed::print_heading(
      "Scheduler decision path: profile-based EASY backfill vs. scan-based "
      "reference oracle");

  std::vector<Row> rows;
  bool agreed = true;
  for (const std::size_t depth : depths) {
    const std::uint64_t decisions =
        quick ? 500 : std::max<std::uint64_t>(1000, depth / 10);
    Row row;
    row.depth = depth;
    row.profile = run_depth<sched::BatchScheduler>(depth, decisions);
    row.reference = run_depth<sched::ReferenceBackfill>(depth, decisions);
    row.speedup =
        row.profile.decisions_per_s / row.reference.decisions_per_s;
    // The two paths ran the identical submit sequence; any disagreement on
    // the observable outcome means the equivalence contract broke.
    if (row.profile.accepted != row.reference.accepted ||
        row.profile.queue_length != row.reference.queue_length ||
        row.profile.busy != row.reference.busy) {
      agreed = false;
      std::printf("DISAGREEMENT at depth %zu: accepted %llu/%llu queue "
                  "%zu/%zu busy %d/%d\n",
                  depth,
                  static_cast<unsigned long long>(row.profile.accepted),
                  static_cast<unsigned long long>(row.reference.accepted),
                  row.profile.queue_length, row.reference.queue_length,
                  row.profile.busy, row.reference.busy);
    }
    rows.push_back(row);
  }

  // Full-pass row, at the sweep's middle depth.
  const std::size_t pass_depth = quick ? 1000 : 10000;
  const std::uint64_t passes = quick ? 200 : 2000;
  const Measured pass = run_full_passes<sched::BatchScheduler>(pass_depth, passes);
  const Measured pass_ref =
      run_full_passes<sched::ReferenceBackfill>(pass_depth, passes);
  const bool pass_agreed = pass.accepted == pass_ref.accepted &&
                           pass.queue_length == pass_ref.queue_length &&
                           pass.busy == pass_ref.busy &&
                           pass.queue_length == pass_depth &&
                           pass.busy == kProcessors;
  if (!pass_agreed) {
    agreed = false;
    std::printf("DISAGREEMENT in full passes at depth %zu: queue %zu/%zu "
                "busy %d/%d\n",
                pass_depth, pass.queue_length, pass_ref.queue_length,
                pass.busy, pass_ref.busy);
  }
  const double pass_mjobs = pass.decisions_per_s * pass_depth / 1e6;

  testbed::Table table({"queue_depth", "ref_kdec/s", "profile_kdec/s",
                        "ref_us/dec", "profile_us/dec", "speedup"});
  for (const Row& r : rows) {
    table.add_row({std::to_string(r.depth),
                   testbed::Table::num(r.reference.decisions_per_s / 1e3, 1),
                   testbed::Table::num(r.profile.decisions_per_s / 1e3, 1),
                   testbed::Table::num(1e6 / r.reference.decisions_per_s, 3),
                   testbed::Table::num(1e6 / r.profile.decisions_per_s, 3),
                   testbed::Table::num(r.speedup, 1) + "x"});
  }
  testbed::print_table(table);

  testbed::Table passes_table(
      {"queue_depth", "profile_us/pass", "profile_ns/job", "ref_us/pass"});
  passes_table.add_row({std::to_string(pass_depth),
                        testbed::Table::num(1e6 / pass.decisions_per_s, 1),
                        testbed::Table::num(1e3 / pass_mjobs, 2),
                        testbed::Table::num(1e6 / pass_ref.decisions_per_s, 1)});
  std::printf("\nFull EASY pass (a job end; every candidate too wide):\n");
  testbed::print_table(passes_table);

  std::FILE* f = out_path != nullptr ? std::fopen(out_path, "w") : nullptr;
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"grid.bench_sched.v1\",\n"
                 "  \"hw_threads\": %u,\n"
                 "  \"sched\": {\n",
                 std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      // The reference oracle's absolute throughput is deliberately left
      // out: it is the machine-relative denominator (any slowdown there
      // inflates the speedup), so only the figures a regression should
      // move — profile throughput and the ratio — are baselined.
      std::fprintf(f,
                   "    \"depth_%zu\": {\n"
                   "      \"profile_kdec_per_sec\": %.1f,\n"
                   "      \"speedup\": %.1f\n"
                   "    },\n",
                   r.depth, r.profile.decisions_per_s / 1e3, r.speedup);
    }
    std::fprintf(f,
                 "    \"speedup_at_deepest\": %.1f,\n"
                 "    \"full_pass_depth_%zu\": {\n"
                 "      \"profile_Mjobs_per_sec\": %.1f\n"
                 "    }\n"
                 "  }\n"
                 "}\n",
                 rows.back().speedup, pass_depth, pass_mjobs);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  }

  const double deepest = rows.back().speedup;
  const double want = quick ? 1.5 : 10.0;
#if defined(GRID_SANITIZED)
  // Sanitizer instrumentation skews the two paths differently, so the
  // timing half of the shape is not asserted in those builds.
  const bool check_speedup = false;
#else
  const bool check_speedup = true;
#endif
  const bool ok = agreed && (!check_speedup || deepest >= want);
  std::printf(
      "\nshape check: both paths agree on every decision (%s)\nand the "
      "profile path is >=%.1fx the reference at depth %zu "
      "(%.1fx%s): %s\n",
      agreed ? "yes" : "NO", want, rows.back().depth, deepest,
      check_speedup ? "" : ", not asserted under sanitizers",
      ok ? "HOLDS" : "VIOLATED");
  return ok ? 0 : 1;
}
