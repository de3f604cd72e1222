#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace gridbench {

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kSchedSubmit: return "sched.submit";
    case SpanName::kInfoPublish: return "info.publish";
    case SpanName::kInfoSelect: return "info.select";
    case SpanName::kRslParse: return "rsl.parse";
    case SpanName::kCoreSubmit: return "core.submit";
    case SpanName::kCoreDestroy: return "core.destroy";
    case SpanName::kBenchArrival: return "bench.arrival";
    case SpanName::kBenchTxnArrival: return "bench.txn_arrival";
    case SpanName::kBenchPublishTimer: return "bench.publish_timer";
    case SpanName::kBenchSchedStart: return "bench.cb.sched_start";
    case SpanName::kBenchSchedEnd: return "bench.cb.sched_end";
    case SpanName::kBenchSelected: return "bench.cb.selected";
    case SpanName::kBenchReleased: return "bench.cb.released";
    case SpanName::kBenchTerminal: return "bench.cb.terminal";
    case SpanName::kBenchDestroy: return "bench.destroy";
    case SpanName::kCount: break;
  }
  return "?";
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite("GBSPAN1\n", 1, 8, f) == 8;
  unsigned char rec[32];
  for (const Span& s : spans) {
    std::memset(rec, 0, sizeof rec);
    const auto put = [&rec](std::size_t at, std::uint64_t v, int bytes) {
      for (int b = 0; b < bytes; ++b) {
        rec[at + static_cast<std::size_t>(b)] =
            static_cast<unsigned char>(v >> (8 * b));
      }
    };
    put(0, static_cast<std::uint64_t>(s.start_ns), 8);
    put(8, static_cast<std::uint64_t>(s.end_ns), 8);
    put(16, s.parent, 4);
    put(20, s.txn, 4);
    put(24, static_cast<std::uint64_t>(s.name), 1);
    ok = ok && std::fwrite(rec, 1, sizeof rec, f) == sizeof rec;
  }
  return std::fclose(f) == 0 && ok;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  // Children of one span run one after another (calls nest by scope), so
  // the covered part is the sum of their overlaps with the parent.
  for (const Span& child : spans) {
    if (child.parent == 0) continue;
    const Span& parent = spans[child.parent - 1];
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) self[child.parent - 1] -= hi - lo;
  }
  return self;
}

namespace {
// ceil(p/100 * n) in integers, so p99 of 1000 samples is rank 990 exactly.
std::size_t rank(std::size_t n, int p) {
  return (static_cast<std::size_t>(p) * n + 99) / 100;
}
}  // namespace

double percentile(const std::vector<double>& sorted, int p) {
  const std::size_t r = std::max<std::size_t>(1, rank(sorted.size(), p));
  return sorted[r - 1];
}

std::size_t beyond(std::size_t n, int p) { return n - rank(n, p); }

Tail tail(const std::vector<double>& sorted) {
  Tail t;
  t.samples = sorted.size();
  for (int p : {99, 95, 90}) {
    t.percentile = p;
    t.beyond = beyond(sorted.size(), p);
    if (t.beyond >= 10) break;
  }
  t.value = sorted.empty() ? 0.0 : percentile(sorted, t.percentile);
  return t;
}

}  // namespace gridbench
