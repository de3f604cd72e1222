// Message-path microbenchmark: the pooled-payload / slab-call-table /
// zero-copy-decode path versus the seed message path, measured inside one
// binary on the same workload (the same recipe as micro_engine).
//
// The seed path (fresh `std::vector<uint8_t>` per frame, byte-at-a-time
// put_le, `unordered_map` pending-call table, `std::function` response
// captures, copying `str()`/`blob()` decoders) is embedded below verbatim
// as `legacy::{Writer,Reader,Network,Endpoint}`.  Both paths run over the
// current sim::Engine so the comparison isolates the message layer, not
// the event loop (that was the previous round's benchmark).
//
// Three traffic patterns, chosen to match real load in this repo:
//   rpc_roundtrip — request/response pairs, the GRAM/GSI/NIS shape;
//   notify_fanout — one frame to many receivers, the DUROC barrier
//     broadcast / abort / gridmpi table shape (new path encodes once and
//     share()s the buffer; seed path re-encodes per receiver);
//   codec_churn — encode+decode of a CheckinMessage-shaped record with no
//     network in between (new path decodes through str_view()).
//
// A scoped sim::AllocGuard (the counting `operator new` hook in
// simkit/allocguard.hpp) asserts the headline claim: after warmup, the new
// path's request/response round-trip allocates NOTHING.
//
// Writes measurements as JSON to the path given as an argument (e.g. the
// committed BENCH_net.json), and nowhere without one; --quick shrinks the
// workload for ctest.  scripts/run_benches.sh diffs the JSON against the
// committed baseline.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/rpc.hpp"
#include "simkit/allocguard.hpp"
#include "simkit/codec.hpp"
#include "simkit/engine.hpp"
#include "simkit/status.hpp"
#include "testbed/report.hpp"

using namespace grid;

// ---- the seed message path, embedded verbatim -------------------------------

namespace legacy {

using Bytes = std::vector<std::uint8_t>;

/// The seed util::Writer: appends into a freshly allocated vector, one
/// push_back per byte for fixed-width integers.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void blob(const Bytes& b) {
    varint(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// The seed util::Reader: copying str()/blob() accessors only.
class Reader {
 public:
  explicit Reader(const Bytes& buf) : data_(buf.data()), size_(buf.size()) {}
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_ - 1];
  }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return ok_ ? v : 0.0;
  }
  bool boolean() { return u8() != 0; }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!take(1)) return 0;
      const std::uint8_t b = data_[pos_ - 1];
      v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    ok_ = false;
    return 0;
  }
  std::string str() {
    const std::uint64_t n = varint();
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }
  Bytes blob() {
    const std::uint64_t n = varint();
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return {};
    }
    Bytes b(data_ + pos_, data_ + pos_ + n);
    pos_ += static_cast<std::size_t>(n);
    return b;
  }
  bool ok() const { return ok_; }

 private:
  template <typename T>
  T get_le() {
    if (!take(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ - sizeof(T) + i])
                              << (8 * i)));
    }
    return v;
  }
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

using NodeId = std::uint32_t;

struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t kind = 0;
  Bytes payload;
};

class Node {
 public:
  virtual ~Node() = default;
  virtual void handle_message(const Message& msg) = 0;
};

/// The seed net::Network message path: vector payloads moved through the
/// engine, per-message latency via a virtual model call (fixed here, as in
/// the benchmark's new-path configuration).
class Network {
 public:
  explicit Network(sim::Engine& engine) : engine_(&engine) {}

  NodeId attach(Node* node) {
    const NodeId id = next_id_++;
    nodes_[id] = Slot{node, true, 0};
    return id;
  }

  void send(NodeId src, NodeId dst, std::uint32_t kind, Bytes payload) {
    auto sit = nodes_.find(src);
    if (sit == nodes_.end()) return;
    ++sent_;
    bytes_sent_ += payload.size();
    if (!sit->second.up) return;
    const sim::Time dt = latency(src, dst, payload.size());
    Message msg{src, dst, kind, std::move(payload)};
    engine_->schedule_after(
        dt, [this, m = std::move(msg), se = epoch_of(src),
             de = epoch_of(dst)]() mutable { deliver(std::move(m), se, de); });
  }

  sim::Engine& engine() { return *engine_; }

 private:
  struct Slot {
    Node* node = nullptr;
    bool up = true;
    std::uint64_t epoch = 0;
  };

  sim::Time latency(NodeId, NodeId, std::size_t) {
    return 2 * sim::kMillisecond;
  }
  std::uint64_t epoch_of(NodeId id) const {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? 0 : it->second.epoch;
  }
  void deliver(Message msg, std::uint64_t src_epoch, std::uint64_t dst_epoch) {
    auto it = nodes_.find(msg.dst);
    if (it == nodes_.end() || !it->second.up || it->second.node == nullptr) {
      return;
    }
    if (it->second.epoch != dst_epoch || epoch_of(msg.src) != src_epoch) {
      return;
    }
    ++delivered_;
    it->second.node->handle_message(msg);
  }

  sim::Engine* engine_;
  NodeId next_id_ = 1;
  std::unordered_map<NodeId, Slot> nodes_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

enum Frame : std::uint32_t {
  kFrameRequest = 1,
  kFrameResponse = 2,
  kFrameNotify = 3,
};

/// The seed net::Endpoint client/server path: `unordered_map` pending-call
/// table, `std::function` response callbacks, a fresh Writer vector per
/// frame, copying blob() sub-readers on every dispatch.
class Endpoint : public Node {
 public:
  using ResponseFn =
      std::function<void(const util::Status& status, Reader& result)>;
  using MethodHandler =
      std::function<void(NodeId caller, std::uint64_t call_id, Reader& args)>;
  using NotifyHandler = std::function<void(NodeId src, Reader& payload)>;

  explicit Endpoint(Network& network) : network_(&network) {
    id_ = network_->attach(this);
  }
  ~Endpoint() override {
    for (auto& [call_id, pc] : pending_) {
      engine().cancel(pc.timeout_event);
    }
  }

  NodeId id() const { return id_; }
  sim::Engine& engine() { return network_->engine(); }

  std::uint64_t call(NodeId dst, std::uint32_t method, Bytes args,
                     sim::Time timeout, ResponseFn on_response) {
    const std::uint64_t call_id = next_call_id_++;
    Writer w;
    w.varint(call_id);
    w.u32(method);
    w.blob(args);
    PendingCall pc;
    pc.on_response = std::move(on_response);
    if (timeout > 0) {
      pc.timeout_event = engine().schedule_after(timeout, [this, call_id] {
        fail_call(call_id, util::ErrorCode::kTimeout, "rpc timeout");
      });
    }
    pending_.emplace(call_id, std::move(pc));
    network_->send(id_, dst, kFrameRequest, w.take());
    return call_id;
  }

  void register_method(std::uint32_t method, MethodHandler handler) {
    methods_[method] = std::move(handler);
  }

  void respond(NodeId caller, std::uint64_t call_id, Bytes result) {
    Writer w;
    w.varint(call_id);
    w.boolean(true);
    w.blob(result);
    network_->send(id_, caller, kFrameResponse, w.take());
  }

  void notify(NodeId dst, std::uint32_t kind, Bytes payload) {
    Writer w;
    w.u32(kind);
    w.blob(payload);
    network_->send(id_, dst, kFrameNotify, w.take());
  }

  void register_notify(std::uint32_t kind, NotifyHandler handler) {
    notifies_[kind] = std::move(handler);
  }

  void handle_message(const Message& msg) override {
    Reader r(msg.payload);
    switch (msg.kind) {
      case kFrameRequest: {
        const std::uint64_t call_id = r.varint();
        const std::uint32_t method = r.u32();
        const Bytes args = r.blob();
        if (!r.ok()) return;
        auto it = methods_.find(method);
        if (it == methods_.end()) return;
        Reader args_reader(args);
        it->second(msg.src, call_id, args_reader);
        return;
      }
      case kFrameResponse: {
        const std::uint64_t call_id = r.varint();
        const bool ok = r.boolean();
        auto it = pending_.find(call_id);
        if (it == pending_.end()) return;
        ResponseFn fn = std::move(it->second.on_response);
        engine().cancel(it->second.timeout_event);
        pending_.erase(it);
        if (ok) {
          const Bytes result = r.blob();
          if (!r.ok()) return;
          Reader result_reader(result);
          fn(util::Status::ok(), result_reader);
        }
        return;
      }
      case kFrameNotify: {
        const std::uint32_t kind = r.u32();
        const Bytes payload = r.blob();
        if (!r.ok()) return;
        auto it = notifies_.find(kind);
        if (it == notifies_.end()) return;
        Reader payload_reader(payload);
        it->second(msg.src, payload_reader);
        return;
      }
      default:
        return;
    }
  }

 private:
  struct PendingCall {
    ResponseFn on_response;
    sim::EventId timeout_event;
  };

  void fail_call(std::uint64_t call_id, util::ErrorCode code,
                 const std::string& message) {
    auto it = pending_.find(call_id);
    if (it == pending_.end()) return;
    ResponseFn fn = std::move(it->second.on_response);
    engine().cancel(it->second.timeout_event);
    pending_.erase(it);
    Bytes empty;
    Reader r(empty);
    fn(util::Status(code, message), r);
  }

  Network* network_;
  NodeId id_ = 0;
  std::uint64_t next_call_id_ = 1;
  std::unordered_map<std::uint64_t, PendingCall> pending_;
  std::unordered_map<std::uint32_t, MethodHandler> methods_;
  std::unordered_map<std::uint32_t, NotifyHandler> notifies_;
};

}  // namespace legacy

// ---- the benchmark ----------------------------------------------------------

namespace {

volatile std::uint64_t g_sink = 0;  // defeats elision of decoded values

constexpr std::uint32_t kEchoMethod = 0x42;
constexpr std::uint32_t kNotifyKind = 0x301;
constexpr int kFanout = 24;  // receivers per broadcast frame

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Measured {
  double ops_per_s = 0;
  std::uint64_t allocs = 0;  // heap allocations inside the measured window
  std::uint64_t ops = 0;
};

/// Runs `body(ops)` twice: a warmup pass (pools and tables grow to steady
/// state) and a measured pass inside a sim::AllocGuard counting region.
template <typename Body>
Measured run_measured(std::uint64_t warmup_ops, std::uint64_t ops,
                      Body&& body) {
  body(warmup_ops);
  sim::AllocGuard guard;
  const auto t0 = std::chrono::steady_clock::now();
  body(ops);
  const double dt = seconds_since(t0);
  Measured m;
  m.ops_per_s = static_cast<double>(ops) / dt;
  m.allocs = guard.allocations();
  m.ops = ops;
  return m;
}

// ---- pattern 1: request/response round-trips --------------------------------

Measured bench_roundtrip_new(std::uint64_t warmup, std::uint64_t roundtrips) {
  sim::Engine e;
  net::Network n{e};
  net::Endpoint server(n, "server");
  net::Endpoint client(n, "client");
  server.register_method(
      kEchoMethod,
      [&server](net::NodeId caller, std::uint64_t call_id, util::Reader& args) {
        const std::uint64_t v = args.u64();
        util::Writer w;
        w.reserve(12);
        w.u64(v + 1);
        server.respond(caller, call_id, w.take());
      });

  std::uint64_t remaining = 0;
  std::function<void()> next = [&] {
    if (remaining-- == 0) return;
    util::Writer w;
    w.reserve(12);
    w.u64(remaining);
    client.call(server.id(), kEchoMethod, w.take(), sim::kSecond,
                [&](const util::Status& status, util::Reader& result) {
                  if (status.is_ok()) g_sink = g_sink + result.u64();
                  next();
                });
  };
  return run_measured(warmup, roundtrips, [&](std::uint64_t ops) {
    remaining = ops;
    next();
    e.run();
  });
}

Measured bench_roundtrip_old(std::uint64_t warmup, std::uint64_t roundtrips) {
  sim::Engine e;
  legacy::Network n{e};
  legacy::Endpoint server(n);
  legacy::Endpoint client(n);
  server.register_method(
      kEchoMethod, [&server](legacy::NodeId caller, std::uint64_t call_id,
                             legacy::Reader& args) {
        const std::uint64_t v = args.u64();
        legacy::Writer w;
        w.u64(v + 1);
        server.respond(caller, call_id, w.take());
      });

  std::uint64_t remaining = 0;
  std::function<void()> next = [&] {
    if (remaining-- == 0) return;
    legacy::Writer w;
    w.u64(remaining);
    client.call(server.id(), kEchoMethod, w.take(), sim::kSecond,
                [&](const util::Status& status, legacy::Reader& result) {
                  if (status.is_ok()) g_sink = g_sink + result.u64();
                  next();
                });
  };
  return run_measured(warmup, roundtrips, [&](std::uint64_t ops) {
    remaining = ops;
    next();
    e.run();
  });
}

// ---- pattern 2: one frame fanned out to many receivers ----------------------

Measured bench_fanout_new(std::uint64_t warmup, std::uint64_t sends) {
  sim::Engine e;
  net::Network n{e};
  net::Endpoint sender(n, "sender");
  std::vector<std::unique_ptr<net::Endpoint>> receivers;
  for (int i = 0; i < kFanout; ++i) {
    receivers.push_back(
        std::make_unique<net::Endpoint>(n, "rx" + std::to_string(i)));
    receivers.back()->register_notify(
        kNotifyKind, [](net::NodeId, util::Reader& r) {
          g_sink = g_sink + r.u64() + r.blob_view().size();
        });
  }
  const util::Bytes body(64, 0x7e);
  return run_measured(warmup, sends, [&](std::uint64_t ops) {
    const std::uint64_t rounds = ops / kFanout;
    for (std::uint64_t round = 0; round < rounds; ++round) {
      util::Writer w;
      w.reserve(80);
      w.u64(round);
      w.blob(body);
      // Encode the notify frame once; every receiver's send shares the
      // same pooled buffer.
      const sim::Payload frame =
          net::Endpoint::encode_notify(kNotifyKind, w.take());
      for (auto& rx : receivers) {
        sender.notify_frame(rx->id(), frame.share());
      }
      e.run();
    }
  });
}

Measured bench_fanout_old(std::uint64_t warmup, std::uint64_t sends) {
  sim::Engine e;
  legacy::Network n{e};
  legacy::Endpoint sender(n);
  std::vector<std::unique_ptr<legacy::Endpoint>> receivers;
  for (int i = 0; i < kFanout; ++i) {
    receivers.push_back(std::make_unique<legacy::Endpoint>(n));
    receivers.back()->register_notify(
        kNotifyKind, [](legacy::NodeId, legacy::Reader& r) {
          g_sink = g_sink + r.u64() + r.blob().size();
        });
  }
  const legacy::Bytes body(64, 0x7e);
  return run_measured(warmup, sends, [&](std::uint64_t ops) {
    const std::uint64_t rounds = ops / kFanout;
    for (std::uint64_t round = 0; round < rounds; ++round) {
      // The seed path re-encodes the payload and the notify frame for
      // every receiver.
      for (auto& rx : receivers) {
        legacy::Writer w;
        w.u64(round);
        w.blob(body);
        sender.notify(rx->id(), kNotifyKind, w.take());
      }
      e.run();
    }
  });
}

// ---- pattern 3: encode/decode churn, no network -----------------------------
//
// The record mirrors core::CheckinMessage: ids, a contact string, a state
// message, a float and a flag.

constexpr std::string_view kContact = "gatekeeper.site-07.example.org:2119";
constexpr std::string_view kStateMsg = "state change: ACTIVE";

Measured bench_churn_new(std::uint64_t warmup, std::uint64_t pairs) {
  return run_measured(warmup, pairs, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      util::Writer w;
      w.reserve(80);
      w.varint(i);
      w.u32(static_cast<std::uint32_t>(i & 7));
      w.u32(static_cast<std::uint32_t>(i & 63));
      w.str(kContact);
      w.str(kStateMsg);
      w.f64(0.25 * static_cast<double>(i & 1023));
      w.boolean((i & 1) != 0);
      const sim::Payload p = w.take();
      util::Reader r(p);
      std::uint64_t acc = r.varint();
      acc += r.u32();
      acc += r.u32();
      acc += r.str_view().size();   // zero-copy: no std::string built
      acc += r.str_view().size();
      acc += static_cast<std::uint64_t>(r.f64());
      acc += r.boolean() ? 1 : 0;
      g_sink = g_sink + acc;
    }
  });
}

Measured bench_churn_old(std::uint64_t warmup, std::uint64_t pairs) {
  return run_measured(warmup, pairs, [&](std::uint64_t ops) {
    for (std::uint64_t i = 0; i < ops; ++i) {
      legacy::Writer w;
      w.varint(i);
      w.u32(static_cast<std::uint32_t>(i & 7));
      w.u32(static_cast<std::uint32_t>(i & 63));
      w.str(kContact);
      w.str(kStateMsg);
      w.f64(0.25 * static_cast<double>(i & 1023));
      w.boolean((i & 1) != 0);
      const legacy::Bytes p = w.take();
      legacy::Reader r(p);
      std::uint64_t acc = r.varint();
      acc += r.u32();
      acc += r.u32();
      acc += r.str().size();        // the seed decoders copied into strings
      acc += r.str().size();
      acc += static_cast<std::uint64_t>(r.f64());
      acc += r.boolean() ? 1 : 0;
      g_sink = g_sink + acc;
    }
  });
}

double allocs_per_op(const Measured& m) {
  return m.ops > 0
             ? static_cast<double>(m.allocs) / static_cast<double>(m.ops)
             : 0.0;
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
  const std::uint64_t scale = quick ? 1 : 10;
  const std::uint64_t roundtrips = 30000 * scale;
  const std::uint64_t fanout_sends = kFanout * 2000 * scale;
  const std::uint64_t churn_pairs = 50000 * scale;
  const std::uint64_t warmup = 2000;

  testbed::print_heading(
      "Message path: pooled payloads + slab call table + zero-copy decode "
      "vs. seed path");

  const Measured new_rt = bench_roundtrip_new(warmup, roundtrips);
  const Measured old_rt = bench_roundtrip_old(warmup, roundtrips);
  const Measured new_fan = bench_fanout_new(warmup, fanout_sends);
  const Measured old_fan = bench_fanout_old(warmup, fanout_sends);
  const Measured new_churn = bench_churn_new(warmup, churn_pairs);
  const Measured old_churn = bench_churn_old(warmup, churn_pairs);

  const double s_rt = new_rt.ops_per_s / old_rt.ops_per_s;
  const double s_fan = new_fan.ops_per_s / old_fan.ops_per_s;
  const double s_churn = new_churn.ops_per_s / old_churn.ops_per_s;
  const double s_geomean = std::cbrt(s_rt * s_fan * s_churn);

  testbed::Table table({"pattern", "seed_Mops", "new_Mops", "speedup",
                        "seed_allocs/op", "new_allocs/op"});
  auto row = [&](const char* name, const Measured& oldm, const Measured& newm) {
    table.add_row({name, testbed::Table::num(oldm.ops_per_s / 1e6, 3),
                   testbed::Table::num(newm.ops_per_s / 1e6, 3),
                   testbed::Table::num(newm.ops_per_s / oldm.ops_per_s, 2) +
                       "x",
                   testbed::Table::num(allocs_per_op(oldm), 2),
                   testbed::Table::num(allocs_per_op(newm), 2)});
  };
  row("rpc_roundtrip", old_rt, new_rt);
  row("notify_fanout", old_fan, new_fan);
  row("codec_churn", old_churn, new_churn);
  testbed::print_table(table);

  std::FILE* f = out_path != nullptr ? std::fopen(out_path, "w") : nullptr;
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"schema\": \"grid.bench_net.v1\",\n"
                 "  \"net\": {\n"
                 "    \"rpc_roundtrip_Mops\": %.3f,\n"
                 "    \"notify_fanout_Mops\": %.3f,\n"
                 "    \"codec_churn_Mops\": %.3f,\n"
                 "    \"steady_state_allocs\": %llu,\n"
                 "    \"speedup_vs_seed\": {\n"
                 "      \"rpc_roundtrip\": %.2f,\n"
                 "      \"notify_fanout\": %.2f,\n"
                 "      \"codec_churn\": %.2f,\n"
                 "      \"geomean\": %.2f\n"
                 "    }\n"
                 "  }\n"
                 "}\n",
                 new_rt.ops_per_s / 1e6, new_fan.ops_per_s / 1e6,
                 new_churn.ops_per_s / 1e6,
                 static_cast<unsigned long long>(new_rt.allocs + new_fan.allocs +
                                                 new_churn.allocs),
                 s_rt, s_fan, s_churn, s_geomean);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path);
  }

  const std::uint64_t new_allocs =
      new_rt.allocs + new_fan.allocs + new_churn.allocs;
#if defined(GRID_SANITIZED)
  // Sanitizer instrumentation skews the seed-vs-new timing ratio, so only
  // the allocation half of the shape is asserted in those builds.
  const bool check_speedup = false;
#else
  const bool check_speedup = true;
#endif
  const bool ok = new_allocs == 0 && (!check_speedup || s_geomean >= 2.0);
  std::printf(
      "\nshape check: zero steady-state allocations on the new path "
      "(%llu seen)\nand >=2x geomean speedup over the seed path "
      "(%.2fx%s): %s\n",
      static_cast<unsigned long long>(new_allocs), s_geomean,
      check_speedup ? "" : ", not asserted under sanitizers",
      ok ? "HOLDS" : "VIOLATED");
  return ok ? 0 : 1;
}
