// Reusable co-allocation agent strategies (paper §3.2's examples).
//
// The mechanism layer deliberately implements no policy; these classes are
// the application-specific strategies the paper says agents should compose
// from the mechanisms:
//
//  * ReplacementAgent — "interactive resources allow an application ... to
//    replace slow or failed elements of a request if an alternative
//    resource can be found": failed interactive subjobs are substituted
//    with spares from a candidate pool.
//
//  * MinimumCountAgent — the Figure 1 master/worker strategy: commit as
//    soon as enough worker processes have checked in, deleting interactive
//    subjobs that have not yet responded; abort if the minimum cannot be
//    reached by a deadline.
//
//  * FirstAvailableAgent — "decrease allocation time by requesting several
//    alternative resources simultaneously and committing to the first that
//    becomes available".
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/coallocator.hpp"
#include "rsl/alternatives.hpp"
#include "simkit/annotate.hpp"
#include "simkit/idmap.hpp"

namespace grid::core {

/// Substitutes failed interactive subjobs with alternates from a pool.
class GRID_HOT ReplacementAgent {
 public:
  struct Options {
    /// Contacts tried, in order, when an interactive subjob fails.
    std::vector<std::string> spare_contacts;
    /// Cap on total substitutions across the request.
    std::size_t max_substitutions = SIZE_MAX;
    /// Commit automatically once the request is barrier_ready().
    bool auto_commit = true;
  };

  ReplacementAgent(Coallocator& mechanisms, Options options,
                   RequestCallbacks user_callbacks);

  CoallocationRequest& request() { return *request_; }
  std::size_t substitutions_made() const { return substitutions_; }
  const std::vector<std::string>& spares_left() const { return spares_; }

 private:
  void on_subjob(SubjobHandle handle, SubjobState state,
                 const util::Status& why);
  void maybe_commit();

  Coallocator* mech_;
  Options options_;
  RequestCallbacks user_;
  CoallocationRequest* request_ = nullptr;
  std::vector<std::string> spares_;
  std::size_t substitutions_ = 0;
  bool committed_ = false;
};

/// Commits once a minimum process count has checked in, dropping
/// unresponsive interactive subjobs at that point (Figure 1 semantics).
class MinimumCountAgent {
 public:
  struct Options {
    /// Total checked-in processes (across checked-in subjobs) required
    /// before committing.
    std::int32_t minimum_processes = 1;
    /// Give up and abort if the minimum is not reached in time; 0 disables.
    sim::Time decision_deadline = 0;
  };

  MinimumCountAgent(Coallocator& mechanisms, Options options,
                    RequestCallbacks user_callbacks);
  ~MinimumCountAgent();

  CoallocationRequest& request() { return *request_; }
  std::int32_t checked_in_processes() const;

 private:
  void on_subjob(SubjobHandle handle, SubjobState state,
                 const util::Status& why);
  void evaluate();

  Coallocator* mech_;
  Options options_;
  RequestCallbacks user_;
  CoallocationRequest* request_ = nullptr;
  sim::EventId deadline_event_;
  bool committed_ = false;
};

/// Drives a request whose slots carry RSL '|' alternatives: each slot
/// starts on its first option; when an option fails the slot is
/// substituted with the next one, preserving the slot's position in the
/// configuration.  Commits automatically once the request is
/// barrier_ready().
class AlternativesAgent {
 public:
  AlternativesAgent(Coallocator& mechanisms,
                    std::vector<rsl::SubjobAlternatives> slots,
                    RequestCallbacks user_callbacks);

  /// Convenience: parse RSL text with '|' alternatives and start.
  static util::Result<std::unique_ptr<AlternativesAgent>> from_rsl(
      Coallocator& mechanisms, const std::string& rsl_text,
      RequestCallbacks user_callbacks);

  CoallocationRequest& request() { return *request_; }
  std::size_t fallbacks_used() const { return fallbacks_; }

 private:
  void on_subjob(SubjobHandle handle, SubjobState state,
                 const util::Status& why);
  void maybe_commit();

  Coallocator* mech_;
  RequestCallbacks user_;
  CoallocationRequest* request_ = nullptr;
  sim::IdSlab<std::vector<rsl::JobRequest>> remaining_;
  std::size_t fallbacks_ = 0;
  bool committed_ = false;
};

/// Races alternative resources for one logical slot: all alternatives are
/// submitted as interactive subjobs; the first to check in is kept and the
/// rest removed, then the request commits.
class FirstAvailableAgent {
 public:
  FirstAvailableAgent(Coallocator& mechanisms,
                      std::vector<rsl::JobRequest> alternatives,
                      RequestCallbacks user_callbacks);

  CoallocationRequest& request() { return *request_; }
  /// The winning subjob (0 until one checks in).
  SubjobHandle winner() const { return winner_; }

 private:
  void on_subjob(SubjobHandle handle, SubjobState state,
                 const util::Status& why);

  Coallocator* mech_;
  RequestCallbacks user_;
  CoallocationRequest* request_ = nullptr;
  SubjobHandle winner_ = 0;
  std::size_t alternatives_live_ = 0;
};

}  // namespace grid::core
