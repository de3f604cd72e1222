#include "net/network.hpp"

#include <utility>

#include "net/fabric.hpp"

namespace grid::net {

void MatrixLatency::set_pair(NodeId a, NodeId b, sim::Time one_way) {
  if (one_way < floor_) floor_ = one_way;
  const std::uint64_t k = key(a, b);
  const std::uint32_t idx = pair_index_.find(k);
  if (idx != sim::IdMap::kNotFound) {
    values_[idx] = one_way;
    return;
  }
  pair_index_.insert(k, static_cast<std::uint32_t>(values_.size()));
  values_.push_back(one_way);
}

sim::Time MatrixLatency::latency(NodeId src, NodeId dst, std::size_t) {
  const std::uint32_t idx = pair_index_.find(key(src, dst));
  return idx == sim::IdMap::kNotFound ? default_ : values_[idx];
}

std::uint64_t MatrixLatency::key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

sim::Time BandwidthLatency::latency(NodeId, NodeId, std::size_t bytes) {
  if (bps_ <= 0.0) return base_;
  const double serialize =
      static_cast<double>(bytes) / bps_ * static_cast<double>(sim::kSecond);
  return base_ + static_cast<sim::Time>(serialize);
}

Network::Network(sim::Engine& engine, NodeId id_base)
    : engine_(&engine),
      latency_(std::make_unique<FixedLatency>(2 * sim::kMillisecond)),
      drop_rng_(0xda7a5eedULL),
      id_base_(id_base == kInvalidNode ? 1 : id_base),
      next_id_(id_base_) {}

void Network::set_fabric(ShardFabric* fabric, std::uint32_t shard_index) {
  fabric_ = fabric;
  shard_index_ = shard_index;
}

Network::Slot* Network::slot(NodeId id) {
  if (id < id_base_) return nullptr;
  const NodeId idx = id - id_base_;
  if (idx >= nodes_.size() || !nodes_[idx].attached) return nullptr;
  return &nodes_[idx];
}

const Network::Slot* Network::slot(NodeId id) const {
  if (id < id_base_) return nullptr;
  const NodeId idx = id - id_base_;
  if (idx >= nodes_.size() || !nodes_[idx].attached) return nullptr;
  return &nodes_[idx];
}

NodeId Network::attach(Node* node, std::string name) {
  const NodeId id = next_id_++;
  nodes_.resize(id - id_base_ + 1);
  Slot& s = nodes_[id - id_base_];
  s.node = node;
  s.name = std::move(name);
  s.up = true;
  s.attached = true;
  return id;
}

void Network::detach(NodeId id) {
  Slot* s = slot(id);
  if (s == nullptr) return;
  s->node = nullptr;
  s->attached = false;
}

void Network::set_latency_model(std::unique_ptr<LatencyModel> model) {
  if (model) latency_ = std::move(model);
}

util::Status Network::send(NodeId src, NodeId dst, std::uint32_t kind,
                           sim::Payload payload) {
  const Slot* s = slot(src);
  if (s == nullptr) {
    return {util::ErrorCode::kInvalidArgument, "send from unknown node"};
  }
  ++stats_.sent;
  stats_.bytes_sent += payload.size();
  if (payload.attached()) {
    if (payload.recycled()) {
      ++stats_.payloads_recycled;
    } else {
      ++stats_.payloads_fresh;
    }
  }
  // Step order below is the determinism contract documented on send() in
  // network.hpp: drop checks BEFORE the latency-model consult.
  if (!s->up) {
    // A crashed host cannot transmit.
    ++stats_.dropped_down;
    return util::Status::ok();
  }
  if (drop_prob_ > 0.0 && drop_rng_.chance(drop_prob_)) {
    ++stats_.dropped_random;
    return util::Status::ok();
  }
  const sim::Time dt = latency_->latency(src, dst, payload.size()) +
                       node_extra_delay(src) + node_extra_delay(dst);
  if (fabric_ != nullptr && !is_local(dst)) {
    // The destination lives on another shard: hand the frame to the
    // fabric, which copies the bytes out of the (thread-local) pooled
    // buffer and carries them through the ShardedEngine mailbox.  All
    // send-side checks and the latency consult already happened above, so
    // the determinism contract's step order is identical for local and
    // cross-shard traffic.
    ++stats_.remote_sent;
    fabric_->post_remote(shard_index_, src, dst, kind, payload,
                         engine_->now(), engine_->now() + dt);
    return util::Status::ok();
  }
  Message msg{src, dst, kind, std::move(payload)};
  engine_->schedule_after(
      dt, [this, m = std::move(msg), se = epoch_of(src),
           de = epoch_of(dst)]() mutable { deliver(std::move(m), se, de); });
  return util::Status::ok();
}

void Network::deliver_remote(NodeId src, NodeId dst, std::uint32_t kind,
                             std::vector<std::uint8_t> bytes,
                             sim::Time sent_at) {
  if (is_partitioned(src, dst)) {
    ++stats_.dropped_partition;
    return;
  }
  const Slot* d = slot(dst);
  if (d == nullptr || !d->up || d->node == nullptr) {
    ++stats_.dropped_down;
    return;
  }
  // In flight across a destination crash: dropped even though the node is
  // back up, same rule the epoch counter enforces for local traffic.
  if (d->last_crash >= sent_at) {
    ++stats_.dropped_down;
    return;
  }
  Message msg{src, dst, kind, sim::Payload(std::move(bytes))};
  ++stats_.delivered;
  ++stats_.remote_delivered;
  stats_.bytes_delivered += msg.payload.size();
  d->node->handle_message(msg);
}

void Network::deliver(Message msg, std::uint64_t src_epoch,
                      std::uint64_t dst_epoch) {
  // Partition and liveness are evaluated at delivery time, so a partition
  // injected while a message is in flight still swallows it.
  if (is_partitioned(msg.src, msg.dst)) {
    ++stats_.dropped_partition;
    return;
  }
  const Slot* d = slot(msg.dst);
  if (d == nullptr || !d->up || d->node == nullptr) {
    ++stats_.dropped_down;
    return;
  }
  // A crash of either endpoint while the message was in flight loses it,
  // even if the node was restored before the nominal delivery time.
  if (d->epoch != dst_epoch || epoch_of(msg.src) != src_epoch) {
    ++stats_.dropped_down;
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += msg.payload.size();
  d->node->handle_message(msg);
}

std::uint64_t Network::epoch_of(NodeId id) const {
  const Slot* s = slot(id);
  return s == nullptr ? 0 : s->epoch;
}

void Network::set_node_up(NodeId id, bool up) {
  Slot* s = slot(id);
  if (s == nullptr) return;
  const bool was_up = s->up;
  s->up = up;
  if (was_up && !up) {
    ++s->epoch;
    s->last_crash = engine_->now();
    if (s->node != nullptr) s->node->on_crash();
  }
}

bool Network::is_up(NodeId id) const {
  const Slot* s = slot(id);
  return s != nullptr && s->up;
}

void Network::set_partitioned(NodeId a, NodeId b, bool blocked) {
  const std::uint64_t k =
      a < b ? (static_cast<std::uint64_t>(a) << 32) | b
            : (static_cast<std::uint64_t>(b) << 32) | a;
  if (blocked) {
    if (partitions_.find(k) == sim::IdMap::kNotFound) partitions_.insert(k, 1);
  } else {
    partitions_.erase(k);
  }
}

bool Network::is_partitioned(NodeId a, NodeId b) const {
  const std::uint64_t k =
      a < b ? (static_cast<std::uint64_t>(a) << 32) | b
            : (static_cast<std::uint64_t>(b) << 32) | a;
  return partitions_.find(k) != sim::IdMap::kNotFound;
}

void Network::set_node_extra_delay(NodeId node, sim::Time extra) {
  if (extra < 0) extra = 0;
  if (!is_local(node)) {
    // A slow node on another shard: mirror its spike here so this shard's
    // senders price it without reading the foreign network.
    const std::uint32_t idx = remote_extra_.find(node);
    if (idx != sim::IdMap::kNotFound) {
      remote_extra_values_[idx] = extra;
    } else if (extra > 0) {
      remote_extra_.insert(
          node, static_cast<std::uint32_t>(remote_extra_values_.size()));
      remote_extra_values_.push_back(extra);
    }
    return;
  }
  // Stored even for ids that are no longer (or not yet) attached, matching
  // the old side-table semantics; clamped at zero.
  if (node < id_base_) return;
  const NodeId idx = node - id_base_;
  if (idx >= nodes_.size()) {
    if (extra <= 0) return;
    nodes_.resize(idx + 1);
  }
  nodes_[idx].extra_delay = extra;
}

sim::Time Network::node_extra_delay(NodeId node) const {
  if (!is_local(node)) {
    const std::uint32_t idx = remote_extra_.find(node);
    return idx == sim::IdMap::kNotFound ? 0 : remote_extra_values_[idx];
  }
  if (node < id_base_) return 0;
  const NodeId idx = node - id_base_;
  return idx < nodes_.size() ? nodes_[idx].extra_delay : 0;
}

const std::string& Network::name(NodeId id) const {
  static const std::string kUnknown = "<unknown>";
  const Slot* s = slot(id);
  return s == nullptr ? kUnknown : s->name;
}

}  // namespace grid::net
