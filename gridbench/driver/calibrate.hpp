// The host's speed, measured with a fixed kernel of the benchmark's own.
//
// A shared host runs the driver on a core whose speed moves with what its
// neighbours do: the same run phase took 1.1 and 1.8 host seconds per
// simulated hour within minutes on one machine, with CPU time within 5%
// of wall time (the process was not waiting for a CPU; each cycle did
// less).
// The Calibrator runs a fixed kernel shaped like the simulation's work - a
// binary-heap event queue whose events touch a random entity in a table
// larger than the cache, hash-map churn and small allocations - in code
// the program under test does not share, so a change to the program
// cannot move it.  The driver interleaves short stretches of the kernel
// with the timed work and divides host times by the kernel's slowdown
// against kReferenceStep_s, its time per step on the reference machine.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace gridbench {

/// CPU seconds per Calibrator step on the reference machine.  It fixes
/// the scale of every host time and must stay as it is.  On the 4-vCPU
/// 2.1 GHz Xeon VM the benchmark was written on, a step took 0.37-0.65 us
/// as the neighbours' load came and went.
inline constexpr double kReferenceStep_s = 2.5e-7;

class Calibrator {
 public:
  Calibrator();

  /// Runs `steps` more steps of the kernel and returns their CPU seconds.
  double run(std::size_t steps);

  /// How many times slower than on the reference machine the steps run so
  /// far went; 1 before any.
  double slowdown() const;

  /// Restarts the slowdown's tally (the kernel's state carries on).
  void reset_tally() {
    steps_ = 0;
    cpu_s_ = 0;
  }

  /// Depends on every step taken, so the work cannot be optimised away.
  std::uint64_t checksum() const { return sum_ + index_.size(); }

 private:
  struct Entity {
    std::uint64_t state = 0;
    std::uint64_t visits = 0;
    std::array<std::uint64_t, 6> pad{};
  };
  struct Node {
    std::uint64_t payload[6];
  };
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // time, entity

  std::uint64_t rng_ = 0x5ca1eULL;
  std::uint64_t sum_ = 0;
  std::uint64_t step_ = 0;
  std::vector<Entity> entities_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
  std::vector<std::unique_ptr<Node>> live_;
  std::size_t steps_ = 0;  // since reset_tally()
  double cpu_s_ = 0;
};

}  // namespace gridbench
