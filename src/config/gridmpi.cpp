#include "config/gridmpi.hpp"

#include <algorithm>

namespace grid::cfg {

Communicator::Communicator(net::Endpoint& endpoint, core::ReleaseInfo info)
    : endpoint_(&endpoint), runtime_(std::move(info)) {
  my_subjob_nodes_ = runtime_.my_subjob_members();
  endpoint_->register_notify(
      kNotifyGridMpi, [this](net::NodeId src, util::Reader& payload) {
        handle(src, payload);
      });
}

Communicator::~Communicator() = default;

void Communicator::raw_send(net::NodeId node, sim::Payload frame) {
  endpoint_->notify(node, kNotifyGridMpi, std::move(frame));
}

net::NodeId Communicator::address_of(std::int32_t global_rank) const {
  if (global_rank < 0 ||
      static_cast<std::size_t>(global_rank) >= table_.size()) {
    return net::kInvalidNode;
  }
  return table_[static_cast<std::size_t>(global_rank)];
}

// ---- bootstrap ---------------------------------------------------------------

void Communicator::init(std::function<void()> on_ready) {
  on_ready_ = std::move(on_ready);
  const std::int32_t nsub = runtime_.subjob_count();
  if (!runtime_.is_leader()) {
    // Members wait for the full table from their leader (stage 3).
    return;
  }
  // Stage 2: leaders exchange member tables.  Each leader already knows its
  // own subjob's members from the release payload (§3.3 intra-subjob
  // mechanism) and every other subjob's leader address (inter-subjob
  // mechanism).
  leader_tables_.assign(static_cast<std::size_t>(nsub), {});
  leader_tables_[static_cast<std::size_t>(runtime_.my_subjob())] =
      my_subjob_nodes_;
  leader_tables_received_ = 1;
  util::Writer w;
  w.u8(kLeaderTable);
  w.i32(runtime_.my_subjob());
  w.varint(my_subjob_nodes_.size());
  for (net::NodeId n : my_subjob_nodes_) w.u32(n);
  const sim::Payload frame =
      net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
  for (std::int32_t s = 0; s < nsub; ++s) {
    if (s == runtime_.my_subjob()) continue;
    endpoint_->notify_frame(runtime_.subjob_leader(s), frame.share());
  }
  maybe_broadcast_table();
}

void Communicator::on_leader_table(std::int32_t subjob,
                                   const std::vector<net::NodeId>& nodes) {
  if (subjob < 0 || subjob >= runtime_.subjob_count()) return;
  auto& slot = leader_tables_[static_cast<std::size_t>(subjob)];
  if (!slot.empty()) return;  // duplicate
  slot = nodes;
  ++leader_tables_received_;
  maybe_broadcast_table();
}

void Communicator::maybe_broadcast_table() {
  if (initialized_ ||
      leader_tables_received_ < runtime_.subjob_count()) {
    return;
  }
  // Stage 3: assemble the global table and push it to our members.
  std::vector<net::NodeId> table(
      static_cast<std::size_t>(runtime_.total_processes()),
      net::kInvalidNode);
  for (std::int32_t s = 0; s < runtime_.subjob_count(); ++s) {
    const auto& nodes = leader_tables_[static_cast<std::size_t>(s)];
    const std::int32_t base = runtime_.rank_base(s);
    for (std::size_t r = 0; r < nodes.size(); ++r) {
      const std::size_t g = static_cast<std::size_t>(base) + r;
      if (g < table.size()) table[g] = nodes[r];
    }
  }
  util::Writer w;
  w.u8(kFullTable);
  w.varint(table.size());
  for (net::NodeId n : table) w.u32(n);
  const sim::Payload frame =
      net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
  for (std::size_t r = 1; r < my_subjob_nodes_.size(); ++r) {
    endpoint_->notify_frame(my_subjob_nodes_[r], frame.share());
  }
  adopt_table(std::move(table));
}

void Communicator::adopt_table(std::vector<net::NodeId> table) {
  if (initialized_) return;
  table_ = std::move(table);
  initialized_ = true;
  if (on_ready_) {
    auto cb = std::move(on_ready_);
    cb();
  }
}

// ---- dispatch ------------------------------------------------------------------

void Communicator::handle(net::NodeId /*src*/, util::Reader& r) {
  const auto kind = static_cast<Kind>(r.u8());
  switch (kind) {
    case kGatherAddress:
      return;  // unused: the release payload already carries member lists
    case kLeaderTable: {
      const std::int32_t subjob = r.i32();
      const std::uint64_t n = r.varint();
      std::vector<net::NodeId> nodes;
      // A node id is 4 bytes on the wire: a hostile count reserves no
      // more than the frame could hold.
      nodes.reserve(std::min<std::uint64_t>(n, r.remaining() / 4));
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) nodes.push_back(r.u32());
      if (r.ok()) on_leader_table(subjob, nodes);
      return;
    }
    case kFullTable: {
      const std::uint64_t n = r.varint();
      std::vector<net::NodeId> table;
      table.reserve(std::min<std::uint64_t>(n, r.remaining() / 4));
      for (std::uint64_t i = 0; i < n && r.ok(); ++i) table.push_back(r.u32());
      if (r.ok()) adopt_table(std::move(table));
      return;
    }
    case kUser: {
      const std::int32_t src_rank = r.i32();
      const std::int32_t tag = r.i32();
      const util::Bytes blob = r.blob();
      if (r.ok()) deliver_user(src_rank, tag, blob);
      return;
    }
    case kBarrierEnter: {
      ++barrier_arrivals_;
      if (barrier_arrivals_ >= size()) {
        barrier_arrivals_ -= size();
        util::Writer w;
        w.u8(kBarrierLeave);
        const sim::Payload frame =
            net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
        for (std::int32_t g = 1; g < size(); ++g) {
          endpoint_->notify_frame(address_of(g), frame.share());
        }
        if (!barrier_waiters_.empty()) {
          auto cb = std::move(barrier_waiters_.front());
          barrier_waiters_.erase(barrier_waiters_.begin());
          cb();
        }
      }
      return;
    }
    case kBarrierLeave: {
      if (!barrier_waiters_.empty()) {
        auto cb = std::move(barrier_waiters_.front());
        barrier_waiters_.erase(barrier_waiters_.begin());
        cb();
      }
      return;
    }
    case kBcast: {
      const std::uint64_t seq = r.u64();
      const util::Bytes blob = r.blob();
      if (!r.ok()) return;
      auto it = bcast_waiters_.find(seq);
      if (it == bcast_waiters_.end()) {
        bcast_early_[seq] = blob;
        return;
      }
      auto cb = std::move(it->second);
      bcast_waiters_.erase(it);
      cb(blob);
      return;
    }
    case kReduceContrib: {
      const std::uint64_t seq = r.u64();
      const auto op = static_cast<ReduceOp>(r.u8());
      const std::int64_t value = r.i64();
      if (!r.ok()) return;
      ReduceState& state = reduce_state_[seq];
      if (state.contributions == 0) {
        state.value = value;
        state.op = op;
      } else {
        switch (state.op) {
          case ReduceOp::kSum:
            state.value += value;
            break;
          case ReduceOp::kMin:
            state.value = std::min(state.value, value);
            break;
          case ReduceOp::kMax:
            state.value = std::max(state.value, value);
            break;
        }
      }
      ++state.contributions;
      if (state.contributions >= size()) {
        const std::int64_t total = state.value;
        reduce_state_.erase(seq);
        util::Writer w;
        w.u8(kReduceResult);
        w.u64(seq);
        w.i64(total);
        const sim::Payload frame =
            net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
        for (std::int32_t g = 1; g < size(); ++g) {
          endpoint_->notify_frame(address_of(g), frame.share());
        }
        auto it = reduce_waiters_.find(seq);
        if (it != reduce_waiters_.end()) {
          auto cb = std::move(it->second);
          reduce_waiters_.erase(it);
          cb(total);
        } else {
          reduce_early_[seq] = total;
        }
      }
      return;
    }
    case kReduceResult: {
      const std::uint64_t seq = r.u64();
      const std::int64_t total = r.i64();
      if (!r.ok()) return;
      auto it = reduce_waiters_.find(seq);
      if (it == reduce_waiters_.end()) {
        reduce_early_[seq] = total;
        return;
      }
      auto cb = std::move(it->second);
      reduce_waiters_.erase(it);
      cb(total);
      return;
    }
    case kGatherContrib: {
      const std::uint64_t seq = r.u64();
      const std::int32_t src_rank = r.i32();
      util::Bytes blob = r.blob();
      if (!r.ok()) return;
      gather_contribute(seq, src_rank, std::move(blob));
      return;
    }
  }
}

void Communicator::gather_contribute(std::uint64_t seq, std::int32_t src_rank,
                                     util::Bytes blob) {
  GatherState& state = gather_state_[seq];
  if (state.pieces.empty()) {
    state.pieces.resize(static_cast<std::size_t>(size()));
    state.present.resize(static_cast<std::size_t>(size()), false);
  }
  if (src_rank < 0 || static_cast<std::size_t>(src_rank) >= state.pieces.size() ||
      state.present[static_cast<std::size_t>(src_rank)]) {
    return;
  }
  state.pieces[static_cast<std::size_t>(src_rank)] = std::move(blob);
  state.present[static_cast<std::size_t>(src_rank)] = true;
  ++state.received;
  if (state.received >= size()) {
    auto pieces = std::move(state.pieces);
    gather_state_.erase(seq);
    auto it = gather_waiters_.find(seq);
    if (it == gather_waiters_.end()) return;  // root callback not set yet?
    auto cb = std::move(it->second);
    gather_waiters_.erase(it);
    cb(std::move(pieces));
  }
}

void Communicator::deliver_user(std::int32_t src_rank, std::int32_t tag,
                                const util::Bytes& blob) {
  auto it = handlers_.find(tag);
  if (it == handlers_.end()) {
    early_[tag].emplace_back(src_rank, blob);
    return;
  }
  util::Reader r(blob);
  it->second(src_rank, r);
}

// ---- user operations ------------------------------------------------------------

void Communicator::send(std::int32_t dst_rank, std::int32_t tag,
                        util::Bytes payload) {
  util::Writer w;
  w.u8(kUser);
  w.i32(rank());
  w.i32(tag);
  w.blob(payload);
  raw_send(address_of(dst_rank), w.take());
}

void Communicator::recv(std::int32_t tag, RecvHandler handler) {
  handlers_[tag] = std::move(handler);
  auto it = early_.find(tag);
  if (it == early_.end()) return;
  auto queued = std::move(it->second);
  early_.erase(it);
  auto& h = handlers_[tag];
  for (auto& [src_rank, blob] : queued) {
    util::Reader r(blob);
    h(src_rank, r);
  }
}

void Communicator::barrier(std::function<void()> on_done) {
  barrier_waiters_.push_back(std::move(on_done));
  if (rank() == 0) {
    const util::Bytes frame{static_cast<std::uint8_t>(kBarrierEnter)};
    util::Reader self(frame);
    handle(endpoint_->id(), self);
    return;
  }
  util::Writer w;
  w.u8(kBarrierEnter);
  raw_send(address_of(0), w.take());
}

void Communicator::bcast(std::int32_t root, util::Bytes payload,
                         std::function<void(util::Bytes)> on_done) {
  const std::uint64_t seq = bcast_seq_++;
  if (rank() == root) {
    util::Writer w;
    w.u8(kBcast);
    w.u64(seq);
    w.blob(payload);
    const sim::Payload frame =
        net::Endpoint::encode_notify(kNotifyGridMpi, w.take());
    for (std::int32_t g = 0; g < size(); ++g) {
      if (g == root) continue;
      endpoint_->notify_frame(address_of(g), frame.share());
    }
    on_done(std::move(payload));
    return;
  }
  auto it = bcast_early_.find(seq);
  if (it != bcast_early_.end()) {
    util::Bytes blob = std::move(it->second);
    bcast_early_.erase(it);
    on_done(std::move(blob));
    return;
  }
  bcast_waiters_[seq] = std::move(on_done);
}

void Communicator::allreduce(ReduceOp op, std::int64_t value,
                             std::function<void(std::int64_t)> on_done) {
  const std::uint64_t seq = reduce_seq_++;
  reduce_waiters_[seq] = std::move(on_done);
  // A result that raced ahead of this call (possible on non-root ranks
  // when others finished first) is delivered immediately.
  if (auto it = reduce_early_.find(seq); it != reduce_early_.end()) {
    const std::int64_t total = it->second;
    reduce_early_.erase(it);
    auto cb = std::move(reduce_waiters_[seq]);
    reduce_waiters_.erase(seq);
    cb(total);
    return;
  }
  util::Writer w;
  w.u8(kReduceContrib);
  w.u64(seq);
  w.u8(static_cast<std::uint8_t>(op));
  w.i64(value);
  if (rank() == 0) {
    util::Reader self(w.bytes());
    handle(endpoint_->id(), self);
  } else {
    raw_send(address_of(0), w.take());
  }
}

void Communicator::allreduce_sum(std::int64_t value,
                                 std::function<void(std::int64_t)> on_done) {
  allreduce(ReduceOp::kSum, value, std::move(on_done));
}

void Communicator::allreduce_min(std::int64_t value,
                                 std::function<void(std::int64_t)> on_done) {
  allreduce(ReduceOp::kMin, value, std::move(on_done));
}

void Communicator::allreduce_max(std::int64_t value,
                                 std::function<void(std::int64_t)> on_done) {
  allreduce(ReduceOp::kMax, value, std::move(on_done));
}

void Communicator::gather(std::int32_t root, util::Bytes payload,
                          std::function<void(std::vector<util::Bytes>)>
                              on_done) {
  const std::uint64_t seq = gather_seq_++;
  if (rank() == root) {
    gather_waiters_[seq] = std::move(on_done);
    gather_contribute(seq, rank(), std::move(payload));
    return;
  }
  util::Writer w;
  w.u8(kGatherContrib);
  w.u64(seq);
  w.i32(rank());
  w.blob(payload);
  raw_send(address_of(root), w.take());
  on_done({});  // non-root ranks complete immediately
}

}  // namespace grid::cfg
