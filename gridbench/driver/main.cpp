// gridbench driver: runs one workload once and prints one JSON line.
//
//   gridbench_driver --workload grid_day --seed 1 --seconds 16 --trace 0
//
// --trace 0 measures the end-to-end metrics.  The run phase is repeated
// round(--seconds / the workload's nominal repeat time) times, at least
// once, each on a fresh set-up: repeat 0 on the seed itself, later ones on
// seeds derived from it.  Host time is the median over repeats; the
// simulated-time metrics pool every repeat's samples; set-up time is the
// median of many build-and-destroy cycles.  Host times are CPU seconds
// divided by the slowdown of a calibration kernel (calibrate.hpp) run in
// short stretches between slices of each run phase and between set-up
// cycles, so they read as seconds on the reference machine.
//
// --trace 1 makes two untraced runs and one traced run of the same plan,
// checks that they agree exactly, and reports per-layer metrics from the
// traced run's spans (written to --spans PATH when given).
//
// Either mode ends with a replay of the workload's default seed over a
// short horizon (the canary), whose digest gridbench/run.py compares with
// the recorded one.  Measured and traced runs use one thread; a sharded
// workload's canary also runs the threaded substrate, whose digest must
// equal the serial one.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "calibrate.hpp"
#include "trace.hpp"
#include "workload.hpp"
#include "world.hpp"

namespace {

using namespace gridbench;
namespace sim = grid::sim;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// A field of /proc/self/status such as VmRSS or VmHWM, in MiB (the file
/// gives KiB); 0 when it cannot be read.
double status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  const std::size_t len = std::strlen(field);
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kib = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Resets the process's peak resident set (VmHWM) to its current one.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

// The calibration kernel's stretches: after each of kSlicesPerRepeat
// slices of a run phase (about 10 ms each on the reference machine), and
// after each set-up cycle (about 1 ms).
constexpr int kSlicesPerRepeat = 48;
constexpr std::size_t kRunPauseSteps = 40'000;
constexpr std::size_t kSetupPauseSteps = 4'000;

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// A JSON string literal; messages may quote RSL text.
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Metrics in insertion order, each with its unit.
struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(std::string name, double value, std::string unit) {
    items.push_back({std::move(name), {value, std::move(unit)}});
  }
  std::string json() const {
    std::string out = "{";
    for (const auto& [name, vu] : items) {
      if (out.size() > 1) out += ", ";
      out += "\"" + name + "\": {\"value\": " + num(vu.first) +
             ", \"unit\": \"" + vu.second + "\"}";
    }
    return out + "}";
  }
};

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double pct(const std::vector<double>& sorted_values, int p) {
  return sorted_values.empty() ? 0.0 : percentile(sorted_values, p);
}

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 0;
  bool trace = false;
  std::string spans_path;
};

grid::testbed::ScaleSpec spec_for(const Workload& w, std::uint64_t seed,
                                  sim::Time horizon) {
  grid::testbed::ScaleSpec spec = w.spec;
  spec.seed = seed;
  spec.duration = horizon;
  return spec;
}

double hours(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kHour);
}

/// What one driver invocation prints.
struct Report {
  Metrics metrics;
  std::vector<std::string> violations;
  std::vector<std::string> notes;
  Counts counts;  // of the run on the given seed itself
  std::uint64_t attempted = 0;
};

/// Sets up a world, runs it, and tears it down.  Spans, when traced, are
/// handed to `spans_out`; `slice` and `between` go to World::run.
RunResult run_once(const Workload& w, const grid::testbed::ScaleSpec& spec,
                   const ArrivalPlan& plan, bool trace,
                   std::vector<Span>* spans_out = nullptr,
                   unsigned threads = 1, sim::Time slice = 0,
                   const std::function<void()>& between = {}) {
  auto world = std::make_unique<World>(w, spec, plan, threads, trace);
  RunResult result = world->run(slice, between);
  if (spans_out != nullptr) *spans_out = world->tracer().spans();
  return result;
}

/// A run whose host time is measured against the calibration kernel: the
/// run phase stops after each of kSlicesPerRepeat slices of simulated
/// time for a stretch of the kernel.
struct Calibrated {
  RunResult run;
  double cpu_per_hour = 0;  // CPU seconds per simulated hour
  double slowdown = 1;      // the kernel's, over this run phase
  /// Host seconds per simulated hour on the reference machine.
  double per_hour() const { return cpu_per_hour / slowdown; }
};

Calibrated run_calibrated(const Workload& w,
                          const grid::testbed::ScaleSpec& spec,
                          const ArrivalPlan& plan, bool trace,
                          Calibrator& cal,
                          std::vector<Span>* spans_out = nullptr) {
  const sim::Time slice =
      std::max<sim::Time>(1, spec.duration / kSlicesPerRepeat);
  cal.reset_tally();
  Calibrated c;
  c.run = run_once(w, spec, plan, trace, spans_out, 1, slice,
                   [&cal] { cal.run(kRunPauseSteps); });
  c.slowdown = cal.slowdown();
  c.cpu_per_hour = c.run.run_cpu_s / hours(spec.duration);
  return c;
}

/// Set-up time on the reference machine, from a burst of build-and-destroy
/// cycles, each followed by a stretch of the calibration kernel: at least
/// 10 cycles, and more until 0.1 s has gone into them (at most 100).
/// Appends each cycle's CPU seconds divided by the burst's slowdown.
void sample_setups(const Workload& w, const grid::testbed::ScaleSpec& spec,
                   const ArrivalPlan& plan, Calibrator& cal,
                   std::vector<double>& out) {
  std::vector<double> burst;
  cal.reset_tally();
  const auto t0 = std::chrono::steady_clock::now();
  for (int n = 0; n < 10 || (seconds_since(t0) < 0.1 && n < 100); ++n) {
    const double cpu0 = process_cpu_s();
    auto world = std::make_unique<World>(w, spec, plan, 1, false);
    burst.push_back(process_cpu_s() - cpu0);
    world.reset();
    cal.run(kSetupPauseSteps);
  }
  for (double s : burst) out.push_back(s / cal.slowdown());
}

void add_violations(std::vector<std::string>& out, const RunResult& r,
                    const char* which) {
  for (const std::string& v : r.violations) {
    std::string line = std::string(which) + ": " + v;
    if (std::find(out.begin(), out.end(), line) == out.end()) {
      out.push_back(std::move(line));
    }
  }
}

// ---- end-to-end (untraced) -------------------------------------------------

void end_to_end(const Options& o, Report& out) {
  const Workload& w = *o.workload;
  const sim::Time horizon = w.spec.duration;
  const int repeats =
      std::max(1, static_cast<int>(std::lround(o.seconds / w.repeat_s)));
  // The calibration kernel runs between slices of every run phase and
  // after every set-up cycle, so a slow stretch of the host slows both
  // alike.  Its state is built and warmed before any timing.
  Calibrator cal;
  cal.run(kSetupPauseSteps * 100);
  std::vector<double> setups;
  std::vector<double> per_hour;
  std::vector<double> cpu_per_hour;
  std::vector<double> slowdowns;
  std::vector<double> release;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string seeds;
  for (int r = 0; r < repeats; ++r) {
    const grid::testbed::ScaleSpec spec =
        spec_for(w, repeat_seed(o.seed, r), horizon);
    const ArrivalPlan plan = generate(spec);
    // Peak memory the first run adds to what the process already holds,
    // the input plan and the calibration kernel among it.  It is read
    // before any set-up burst or later repeat has built a world in the
    // heap.
    double rss_before_mb = 0;
    if (r == 0) {
      if (!reset_peak_rss()) {
        out.notes.push_back("could not reset VmHWM: peak_rss_mb includes "
                            "the input generation's peak");
      }
      rss_before_mb = status_mb("VmRSS");
    }
    const Calibrated measured = run_calibrated(w, spec, plan, false, cal);
    const RunResult& t = measured.run;
    if (r == 0) {
      out.metrics.add("peak_rss_mb", status_mb("VmHWM") - rss_before_mb, "MB");
      out.counts = t.counts;
    }
    // A burst of set-ups after every repeat: spreading them over the run
    // keeps one slow stretch of the host from setting the median of a
    // millisecond-scale timing.
    sample_setups(w, spec, plan, cal, setups);
    cpu_per_hour.push_back(measured.cpu_per_hour);
    per_hour.push_back(measured.per_hour());
    slowdowns.push_back(measured.slowdown);
    add_violations(out.violations, t, "run");
    const Counts& c = t.counts;
    attempted += c.bg_offered + c.txn_attempted;
    failed += c.bg_rejected + c.txn_select_failed + c.txn_aborted;
    release.insert(release.end(), t.release_sim_s.begin(),
                   t.release_sim_s.end());
    if (r > 0) seeds += ' ';
    seeds += std::to_string(spec.seed);
  }

  std::sort(release.begin(), release.end());
  const Tail tl = tail(release);
  if (tl.beyond < 10) {
    out.violations.push_back("tail: fewer than 100 released transactions");
  }
  out.attempted = attempted;
  out.metrics.add("setup_s", median(setups), "s");
  out.metrics.add("host_s_per_simhour", median(per_hour), "s");
  out.metrics.add("coalloc_release_p50_sim_s", pct(release, 50), "s");
  out.metrics.add("coalloc_release_tail_sim_s", tl.value, "s");
  out.metrics.add("ops_failed_share",
                  ratio(static_cast<double>(failed),
                        static_cast<double>(attempted)),
                  "ratio");

  const auto list = [](const std::vector<double>& v) {
    std::string text;
    for (double x : v) {
      if (!text.empty()) text += ' ';
      text += num(x);
    }
    return text;
  };
  out.notes.push_back("coalloc_release_tail_sim_s is p" +
                      std::to_string(tl.percentile) + " of " +
                      std::to_string(tl.samples) +
                      " released transactions (" +
                      std::to_string(tl.beyond) + " beyond it)");
  out.notes.push_back(std::to_string(repeats) + " repeats on seeds " + seeds +
                      "; host_s_per_simhour " + list(per_hour) +
                      " (CPU s per simulated hour " + list(cpu_per_hour) +
                      " over slowdowns " + list(slowdowns) + "); set-up " +
                      std::to_string(setups.size()) + "x; medians reported");
}

// ---- per-layer (traced) ------------------------------------------------------

struct NameStats {
  std::uint64_t calls = 0;
  double self_s = 0;
  std::vector<double> self_samples;  // seconds, when kept
};

void per_layer(const Options& o, Report& out) {
  const Workload& w = *o.workload;
  const sim::Time horizon = w.spec.duration;
  const grid::testbed::ScaleSpec spec = spec_for(w, o.seed, horizon);
  const ArrivalPlan plan = generate(spec);
  Metrics& m = out.metrics;
  std::vector<std::string>& violations = out.violations;
  // All runs use one thread: spans go to one tracer, and a sharded grid's
  // serial substrate is byte-identical to its threaded one.  The first
  // untraced run warms the process up; the overhead compares the second
  // with the traced run.
  Calibrator cal;
  cal.run(kSetupPauseSteps * 100);
  // All three runs stop at the same slices: a sharded grid's window
  // count depends on where its run is cut.
  const RunResult warm = run_calibrated(w, spec, plan, false, cal).run;
  const Calibrated ref_run = run_calibrated(w, spec, plan, false, cal);
  std::vector<Span> spans;
  const Calibrated traced_run =
      run_calibrated(w, spec, plan, true, cal, &spans);
  const RunResult& ref = ref_run.run;
  const RunResult& traced = traced_run.run;
  add_violations(violations, warm, "untraced");
  add_violations(violations, ref, "untraced");
  add_violations(violations, traced, "traced");
  if (ref.counts != warm.counts) {
    violations.push_back("repeat: a repeated run changed its outcome");
  }
  if (traced.counts != ref.counts) {
    violations.push_back("trace: traced and untraced runs disagree");
  }
  if (!o.spans_path.empty() && !write_spans(o.spans_path, spans)) {
    violations.push_back("trace: could not write " + o.spans_path);
  }
  out.counts = traced.counts;
  const Counts& c = out.counts;
  out.attempted = c.bg_offered + c.txn_attempted;
  const RunResult& r = traced;

  std::vector<NameStats> by_name(static_cast<std::size_t>(SpanName::kCount));
  by_name[static_cast<std::size_t>(SpanName::kSchedSubmit)].self_samples
      .reserve(c.bg_offered);
  const std::vector<std::int64_t> self = self_times(spans);
  double root_s = 0;
  double bench_self_s = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self_s = static_cast<double>(self[i]) * 1e-9;
    NameStats& ns = by_name[static_cast<std::size_t>(s.name)];
    ++ns.calls;
    ns.self_s += self_s;
    if (s.name == SpanName::kSchedSubmit || s.name == SpanName::kInfoPublish) {
      ns.self_samples.push_back(self_s);
    }
    if (std::strncmp(span_name(s.name), "bench.", 6) == 0) {
      bench_self_s += self_s;
    }
    if (s.parent == 0) root_s += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  }
  const auto stats = [&by_name](SpanName n) -> NameStats& {
    return by_name[static_cast<std::size_t>(n)];
  };
  const std::vector<double> submit_self =
      sorted(stats(SpanName::kSchedSubmit).self_samples);
  const std::vector<double> publish_self =
      sorted(stats(SpanName::kInfoPublish).self_samples);
  const std::vector<double> depths = sorted(r.queue_depths);
  const std::vector<double> select_lat = sorted(r.select_sim_s);
  const std::vector<double> s2r = sorted(r.start_to_release_sim_s);
  const double run_other_s = r.run_s - root_s;
  const double events = static_cast<double>(c.events);
  const double dropped = static_cast<double>(
      c.net.dropped_down + c.net.dropped_partition + c.net.dropped_random);

  m.add("sched.submit.calls", static_cast<double>(stats(SpanName::kSchedSubmit).calls), "count");
  m.add("sched.submit.self_s", stats(SpanName::kSchedSubmit).self_s, "s");
  m.add("sched.submit.self_us_p50", pct(submit_self, 50) * 1e6, "us");
  m.add("sched.submit.self_us_p99", pct(submit_self, 99) * 1e6, "us");
  m.add("sched.submit.rejected", static_cast<double>(c.bg_rejected), "count");
  m.add("sched.queue_depth_p50", pct(depths, 50), "jobs");
  m.add("sched.queue_depth_p99", pct(depths, 99), "jobs");

  m.add("info.publish.calls", static_cast<double>(stats(SpanName::kInfoPublish).calls), "count");
  m.add("info.publish.self_s", stats(SpanName::kInfoPublish).self_s, "s");
  m.add("info.publish.self_ms_p99", pct(publish_self, 99) * 1e3, "ms");
  m.add("info.publish.refresh_ratio",
        ratio(static_cast<double>(c.snapshots_refreshed),
              static_cast<double>(c.snapshots_refreshed + c.snapshots_skipped)),
        "ratio");
  m.add("info.select.calls", static_cast<double>(stats(SpanName::kInfoSelect).calls), "count");
  m.add("info.select.self_s", stats(SpanName::kInfoSelect).self_s, "s");
  m.add("info.select.failed", static_cast<double>(c.txn_select_failed), "count");
  m.add("info.gis.cache_hit_ratio",
        ratio(static_cast<double>(c.gis_cache_hits),
              static_cast<double>(c.gis_cache_hits + c.gis_cache_misses)),
        "ratio");
  m.add("info.select.sim_s_p50", pct(select_lat, 50), "s");
  m.add("info.select.sim_s_p99", pct(select_lat, 99), "s");

  m.add("rsl.parse.calls", static_cast<double>(stats(SpanName::kRslParse).calls), "count");
  m.add("rsl.parse.self_s", stats(SpanName::kRslParse).self_s, "s");

  m.add("core.submit.calls", static_cast<double>(stats(SpanName::kCoreSubmit).calls), "count");
  m.add("core.submit.self_s", stats(SpanName::kCoreSubmit).self_s, "s");
  m.add("core.destroy.self_s", stats(SpanName::kCoreDestroy).self_s, "s");
  m.add("core.txn.placed", static_cast<double>(c.txn_placed), "count");
  m.add("core.txn.released", static_cast<double>(c.txn_released), "count");
  m.add("core.txn.done", static_cast<double>(c.txn_done), "count");
  m.add("core.txn.aborted", static_cast<double>(c.txn_aborted), "count");
  m.add("core.start_to_release.sim_s_p50", pct(s2r, 50), "s");
  m.add("core.start_to_release.sim_s_p99", pct(s2r, 99), "s");

  m.add("simkit.run_other_s", run_other_s, "s");
  m.add("simkit.events", events, "count");
  m.add("simkit.events_per_s", ratio(events, ref.run_s), "1/s");
  // Allocation counters come from the process's first run, which starts
  // from empty buffer pools like a measured run does; later runs inherit
  // the pools it filled.
  const RunResult& first = warm;
  m.add("simkit.allocs_per_event",
        ratio(static_cast<double>(first.main_thread_allocs), events),
        "count");
  m.add("simkit.bufpool.recycled_ratio",
        ratio(static_cast<double>(first.payloads_recycled),
              static_cast<double>(first.counts.net.payloads)),
        "ratio");
  m.add("simkit.sharded.windows", static_cast<double>(c.windows), "count");
  m.add("simkit.sharded.events_per_window",
        ratio(events, static_cast<double>(c.windows)), "count");
  m.add("simkit.sharded.posted", static_cast<double>(c.posted), "count");

  m.add("net.msgs_per_txn",
        ratio(static_cast<double>(c.net.sent),
              static_cast<double>(c.txn_attempted)),
        "count");
  m.add("net.bytes_per_msg",
        ratio(static_cast<double>(c.net.bytes_sent),
              static_cast<double>(c.net.sent)),
        "B");
  m.add("net.dropped", dropped, "count");
  m.add("net.rpc_retries", static_cast<double>(c.net.rpc_retries), "count");
  m.add("net.remote_sent", static_cast<double>(c.net.remote_sent), "count");

  m.add("bench.self_s", bench_self_s, "s");
  m.add("trace.run_phase_s", r.phase_s, "s");
  m.add("trace.overhead_s_per_simhour",
        traced_run.per_hour() - ref_run.per_hour(), "s");

  std::string by_span = "self_s by span:";
  for (std::size_t n = 0; n < by_name.size(); ++n) {
    by_span += ' ';
    by_span += span_name(static_cast<SpanName>(n));
    by_span += '=';
    by_span += num(by_name[n].self_s);
  }
  out.notes.push_back(by_span);
  out.notes.push_back("spans recorded: " + std::to_string(spans.size()));
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string workload_name;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "gridbench_driver: options come in --key value pairs\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload_name = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, nullptr, 0);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, nullptr);
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "0") != 0;
    } else if (key == "--spans") {
      o.spans_path = val;
    } else {
      std::fprintf(stderr, "gridbench_driver: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  o.workload = find_workload(workload_name);
  if (o.workload == nullptr) {
    std::fprintf(stderr, "gridbench_driver: unknown workload '%s'\n",
                 workload_name.c_str());
    return 2;
  }
  if (!(o.seconds > 0)) {
    std::fprintf(stderr, "gridbench_driver: --seconds must be given, > 0\n");
    return 2;
  }
  const Workload& w = *o.workload;
  const int shards = std::max(1, w.spec.shards);
  const unsigned threads = std::min<unsigned>(
      static_cast<unsigned>(shards), std::thread::hardware_concurrency());
  Report report;
  if (o.trace) {
    per_layer(o, report);
  } else {
    end_to_end(o, report);
  }
  std::vector<std::string>& violations = report.violations;

  // Canary: the default seed over a short horizon, on every substrate the
  // workload runs on; run.py checks each digest against the recorded one.
  const grid::testbed::ScaleSpec cspec = spec_for(w, kDefaultSeed, w.canary);
  const ArrivalPlan cplan = generate(cspec);
  std::vector<std::uint64_t> canary;
  std::vector<unsigned> substrates = {1};
  if (threads > 1) substrates.push_back(threads);
  for (unsigned n : substrates) {
    RunResult t = run_once(w, cspec, cplan, false, nullptr, n);
    add_violations(violations, t, "canary");
    canary.push_back(t.counts.digest);
  }

  std::string out = "{\"workload\": \"" + w.name + "\", \"seed\": " +
                    std::to_string(o.seed) + ", \"default_seed\": " +
                    std::to_string(kDefaultSeed) + ", \"trace\": " +
                    (o.trace ? "1" : "0") + ", \"horizon_hours\": " +
                    num(hours(w.spec.duration)) + ", \"digest\": \"" +
                    hex(report.counts.digest) + "\", \"canary_hours\": " +
                    num(hours(w.canary)) + ", \"canary_digests\": [";
  for (std::size_t i = 0; i < canary.size(); ++i) {
    out += (i ? ", \"" : "\"") + hex(canary[i]) + "\"";
  }
  out += "], \"attempted\": " + std::to_string(report.attempted) +
         ", \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out += (i ? ", " : "") + quote(violations[i]);
  }
  out += "], \"notes\": [";
  for (std::size_t i = 0; i < report.notes.size(); ++i) {
    out += (i ? ", " : "") + quote(report.notes[i]);
  }
  out += "], \"metrics\": " + report.metrics.json() + "}";
  std::puts(out.c_str());
  return 0;
}
