// In-memory spans and the benchmark's own arithmetic over them.
//
// A traced run records one span around every call the driver makes into a
// layer (sched, info, rsl, core) and around every callback a layer hands
// back.  Spans live in memory and are written out once, at exit.  A span's
// self time is its duration minus the part of it that its child spans
// cover; summed per name, self times say where the run phase's host time
// went.  Untraced runs construct the same Scope objects with recording
// off, which costs one branch each.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace gridbench {

/// Every span the driver records.  Layer spans are named after the layer
/// call they wrap; bench.* spans cover the driver's own code, including
/// the callbacks a layer hands back.
enum class SpanName : std::uint8_t {
  kSchedSubmit,
  kInfoPublish,
  kInfoSelect,
  kRslParse,
  kCoreSubmit,
  kCoreDestroy,
  kBenchArrival,      // background arrival event
  kBenchTxnArrival,   // transaction arrival event
  kBenchPublishTimer, // publish timer event (samples queue depths)
  kBenchSchedStart,   // sched start callback
  kBenchSchedEnd,     // sched end callback
  kBenchSelected,     // broker selection callback
  kBenchReleased,     // core barrier-release callback
  kBenchTerminal,     // core terminal callback
  kBenchDestroy,      // deferred destroy event
  kCount
};

const char* span_name(SpanName name);

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  // 1-based index of the enclosing span; 0 = root
  std::uint32_t txn = 0;     // transaction sequence number; 0 = none
  SpanName name = SpanName::kCount;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false)
      : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Closes its span when it goes out of scope.  Spans nest by scope, so
  /// the innermost open span is the parent of the next one opened.
  class Scope {
   public:
    Scope() = default;
    Scope(Tracer* tracer, std::uint32_t index)
        : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    Tracer* tracer_ = nullptr;
    std::uint32_t index_ = 0;
  };

  [[nodiscard]] Scope open(SpanName name, std::uint32_t txn = 0) {
    if (!enabled_) return Scope();
    Span s;
    s.start_ns = now_ns();
    s.parent = open_;
    s.txn = txn;
    s.name = name;
    spans_.push_back(s);
    open_ = static_cast<std::uint32_t>(spans_.size());
    return Scope(this, open_);
  }

  /// Wraps a callback a layer will invoke later so the invocation is
  /// recorded as a span.
  template <typename Fn>
  auto wrap(SpanName name, std::uint32_t txn, Fn fn) {
    return [this, name, txn, fn = std::move(fn)](auto&&... args) mutable {
      Scope scope = open(name, txn);
      return fn(std::forward<decltype(args)>(args)...);
    };
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  void close(std::uint32_t index) {
    Span& s = spans_[index - 1];
    s.end_ns = now_ns();
    open_ = s.parent;
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::uint32_t open_ = 0;
};

/// Binary dump: a "GBSPAN1\n" header, then one fixed 32-byte
/// little-endian record per span in Span field order.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its direct children cover.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Nearest-rank percentile of `sorted` (ascending, non-empty): the sample
/// at rank ceil(p/100 * n).
double percentile(const std::vector<double>& sorted, int p);

/// Samples strictly beyond the nearest-rank p-th percentile.
std::size_t beyond(std::size_t n, int p);

struct Tail {
  double value = 0;
  int percentile = 0;      // 99, 95 or 90
  std::size_t samples = 0; // n
  std::size_t beyond = 0;  // samples past the chosen percentile
};

/// The highest of p99, p95 and p90 that has at least 10 samples beyond it.
/// With fewer than 100 samples no percentile qualifies; the result is then
/// p90 with `beyond` < 10, which callers must report as too thin.
Tail tail(const std::vector<double>& sorted);

}  // namespace gridbench
