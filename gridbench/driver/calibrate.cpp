#include "calibrate.hpp"

#include "world.hpp"

namespace gridbench {
namespace {

constexpr std::size_t kEntities = std::size_t{1} << 20;  // 64 MiB of them
constexpr std::size_t kPending = std::size_t{1} << 16;
constexpr std::size_t kLiveNodes = 4096;
constexpr std::uint64_t kKeys = std::uint64_t{1} << 16;

std::uint64_t next(std::uint64_t& x) {  // splitmix64
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Calibrator::Calibrator() : entities_(kEntities), live_(kLiveNodes) {
  static_assert(sizeof(Entity) == 64);
  for (std::size_t i = 0; i < kPending; ++i) {
    queue_.push({next(rng_) % 1'000'000,
                 static_cast<std::uint32_t>(next(rng_) % kEntities)});
  }
}

double Calibrator::run(std::size_t steps) {
  const double cpu0 = process_cpu_s();
  for (std::size_t n = 0; n < steps; ++n, ++step_) {
    const auto [now, id] = queue_.top();
    queue_.pop();
    Entity& e = entities_[id];
    e.state = e.state * 31 + now;
    ++e.visits;
    sum_ += e.state ^ e.pad[e.visits % e.pad.size()];
    const std::uint64_t r = next(rng_);
    queue_.push({now + 1 + r % 1000, static_cast<std::uint32_t>(r % kEntities)});
    if (step_ % 4 == 0) {
      auto [it, fresh] = index_.try_emplace(r % kKeys, id);
      if (!fresh) {
        sum_ += it->second;
        index_.erase(it);
      }
    }
    if (step_ % 8 == 0) {
      auto& slot = live_[(r >> 32) % kLiveNodes];
      if (slot != nullptr) sum_ += slot->payload[0];
      slot = std::make_unique<Node>();
      slot->payload[0] = r;
    }
  }
  const double spent = process_cpu_s() - cpu0;
  steps_ += steps;
  cpu_s_ += spent;
  return spent;
}

double Calibrator::slowdown() const {
  if (steps_ == 0) return 1.0;
  return cpu_s_ / (static_cast<double>(steps_) * kReferenceStep_s);
}

}  // namespace gridbench
