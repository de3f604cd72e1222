// GRAB — the Globus Resource Allocation Broker (paper §4.1).
//
// The atomic transaction co-allocator: "All required resources are
// specified at the time the request is made.  The request succeeds if all
// resources required by the application are allocated.  Otherwise, the
// request fails and none of the resources are acquired."
//
// GRAB is the degenerate configuration of the co-allocation mechanism
// layer: every subjob is forced to `required`, the request is committed
// immediately (no editing window), and any failure or timeout rolls the
// whole allocation back.  Its limitations under realistic failure modes
// (§4.3) are what motivated DUROC.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/coallocator.hpp"
#include "core/monitor.hpp"
#include "simkit/annotate.hpp"
#include "simkit/idmap.hpp"

namespace grid::core {

class GRID_HOT GrabAllocator {
 public:
  explicit GrabAllocator(Coallocator& mechanisms) : mech_(&mechanisms) {}

  /// Starts an atomic co-allocation from RSL text.  subjobStartType
  /// attributes are ignored: every subjob is treated as required.  Without
  /// an explicit config the mechanism layer's defaults apply.  on_released
  /// fires once every resource is acquired; on_terminal fires once, OK
  /// after the application completes or the error that rolled back.
  util::Result<RequestId> allocate(
      const std::string& rsl_text, RequestCallbacks callbacks,
      std::optional<RequestConfig> config = std::nullopt);

  /// Same, from typed subjob descriptions.
  util::Result<RequestId> allocate(
      std::vector<rsl::JobRequest> subjobs, RequestCallbacks callbacks,
      std::optional<RequestConfig> config = std::nullopt);

  /// Rolls back / kills an allocation.
  void cancel(RequestId id);

  /// Arms heartbeat failure detection on subsequently allocated requests.
  /// Since every GRAB subjob is required, a dead verdict aborts the whole
  /// transaction immediately ("abort fast") instead of waiting out the
  /// startup deadline — atomicity is preserved, only detection latency
  /// changes.  nullopt disables for later allocations.
  void set_heartbeats(std::optional<HeartbeatConfig> config) {
    heartbeats_ = config;
  }

  /// The detector watching `id`; nullptr when heartbeats were not armed.
  const HeartbeatDetector* detector(RequestId id) const {
    const auto* d = detectors_.find(id);
    return d == nullptr ? nullptr : d->get();
  }

  Coallocator& mechanisms() { return *mech_; }

 private:
  Coallocator* mech_;
  std::optional<HeartbeatConfig> heartbeats_;
  sim::IdSlab<std::unique_ptr<HeartbeatDetector>> detectors_;
};

}  // namespace grid::core
