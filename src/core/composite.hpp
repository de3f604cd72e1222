// Hierarchical co-allocation (paper §3.1: the common mechanism set
// "enables the development of sophisticated co-allocation schemes, for
// example by nested or hierarchical co-allocators").
//
// A CompositeAgent treats whole child co-allocation requests as the units
// of a higher-level two-phase commit: every child gathers its own
// resources and holds them at the barrier; only when *every* child is
// fully checked in does the composite commit them all, releasing the
// union simultaneously.  Any child failure before that point aborts every
// other child.  Children may live on different co-allocators (different
// agent identities or even different organizations' brokers), which is
// what makes the scheme hierarchical rather than just bigger.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/coallocator.hpp"
#include "simkit/annotate.hpp"

namespace grid::core {

class GRID_HOT CompositeAgent {
 public:
  struct Callbacks {
    /// Fired once when every child's barrier has released; the configs
    /// arrive in child-addition order.  gridlint: allow(hot-function)
    std::function<void(const std::vector<RuntimeConfig>&)> on_released;
    /// Fired once: OK when all children complete, or the first abort.
    /// gridlint: allow(hot-function) — fires once, not per message
    std::function<void(const util::Status&)> on_terminal;
  };

  explicit CompositeAgent(Callbacks callbacks)
      : callbacks_(std::move(callbacks)) {}

  CompositeAgent(const CompositeAgent&) = delete;
  CompositeAgent& operator=(const CompositeAgent&) = delete;

  /// Creates a child request on `mechanisms`.  The caller configures it
  /// (add_rsl / add_subjob) before start(); per-child user callbacks are
  /// chained after the composite's own bookkeeping.
  CoallocationRequest* add_child(Coallocator& mechanisms,
                                 RequestCallbacks user = {},
                                 RequestConfig config = {});

  /// Starts every child's submission pipeline.
  void start();

  /// Aborts the whole hierarchy.
  void abort(const std::string& reason);

  bool released() const { return released_count_ == children_.size(); }

 private:
  struct Child {
    CoallocationRequest* request = nullptr;
    RequestCallbacks user;
    RuntimeConfig config;
  };

  void on_child_subjob(std::size_t index, SubjobHandle handle,
                       SubjobState state, const util::Status& why);
  void evaluate();
  void finish(const util::Status& status);

  Callbacks callbacks_;
  std::vector<Child> children_;
  bool committed_ = false;
  bool finished_ = false;
  std::size_t released_count_ = 0;
  std::size_t terminal_count_ = 0;
  bool any_failed_ = false;
  util::Status first_failure_;
};

}  // namespace grid::core
