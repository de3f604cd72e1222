#include "info/broker.hpp"

#include <algorithm>
#include <memory>

namespace grid::info {

namespace {

using Summaries = std::vector<util::Result<sched::QueueSummary>>;

/// One directory's summaries of `candidates`; with `full` set they are
/// fetched as full snapshots and summarized, since ranking reads no more.
void fetch_summaries(GisClient& client, std::vector<std::string> candidates,
                     bool full, sim::Time timeout,
                     GisClient::SummariesFn on_done) {
  if (!full) {
    client.query_many_summaries(std::move(candidates), timeout,
                                std::move(on_done));
    return;
  }
  client.query_many(
      std::move(candidates), timeout,
      [on_done = std::move(on_done)](
          std::vector<util::Result<sched::QueueSnapshot>> snaps) {
        Summaries summaries;
        summaries.reserve(snaps.size());
        for (const auto& snap : snaps) {
          if (snap.is_ok()) {
            summaries.emplace_back(sched::summarize(snap.value()));
          } else {
            summaries.emplace_back(snap.status());
          }
        }
        on_done(std::move(summaries));
      });
}

/// One selection in flight: the candidate groups and each group's replies.
struct Gather {
  std::vector<ResourceBroker::FederatedGroup> groups;
  std::vector<Summaries> replies;
  std::size_t outstanding;
  std::size_t k;
  std::int32_t count;
  const sched::WaitPredictor* predictor;
  ResourceBroker::SelectFn on_done;
};

/// The ranking: skip unreachable and too-small machines, sort by predicted
/// wait (stable, so candidate order breaks ties), keep the best k.
void rank(Gather& g) {
  std::vector<ResourceBroker::Placement> usable;
  for (std::size_t i = 0; i < g.groups.size(); ++i) {
    for (std::size_t j = 0; j < g.groups[i].candidates.size(); ++j) {
      if (!g.replies[i][j].is_ok()) continue;  // unreachable or unknown
      const sched::QueueSummary& s = g.replies[i][j].value();
      if (s.total_processors < g.count) continue;  // machine too small
      ResourceBroker::Placement p;
      p.contact = std::move(g.groups[i].candidates[j]);
      p.predicted_wait = g.predictor->predict(s, g.count);
      p.free_processors = s.free_processors();
      usable.push_back(std::move(p));
    }
  }
  if (usable.size() < g.k) {
    g.on_done(util::Status(
        util::ErrorCode::kResourceExhausted,
        "only " + std::to_string(usable.size()) + " of " +
            std::to_string(g.k) + " required candidates are usable"));
    return;
  }
  std::stable_sort(usable.begin(), usable.end(),
                   [](const ResourceBroker::Placement& a,
                      const ResourceBroker::Placement& b) {
                     return a.predicted_wait < b.predicted_wait;
                   });
  usable.resize(g.k);
  g.on_done(std::move(usable));
}

/// The one selection path: one fan-out per non-empty group, all in flight
/// concurrently; the last reply to land ranks the candidates in group
/// order, so group boundaries never affect the result.
void select_groups(std::vector<ResourceBroker::FederatedGroup> groups,
                   bool full, std::size_t k, std::int32_t count,
                   sim::Time timeout, const sched::WaitPredictor& predictor,
                   ResourceBroker::SelectFn on_done) {
  const auto fan_outs = static_cast<std::size_t>(
      std::count_if(groups.begin(), groups.end(),
                    [](const auto& g) { return !g.candidates.empty(); }));
  if (k == 0 || fan_outs == 0) {
    on_done(util::Status(util::ErrorCode::kInvalidArgument,
                         "no candidates or zero selection size"));
    return;
  }
  const std::size_t n = groups.size();
  auto gather = std::make_shared<Gather>(
      Gather{std::move(groups), std::vector<Summaries>(n), fan_outs, k, count,
             &predictor, std::move(on_done)});
  for (std::size_t i = 0; i < n; ++i) {
    const ResourceBroker::FederatedGroup& g = gather->groups[i];
    if (g.candidates.empty()) continue;
    fetch_summaries(*g.client, g.candidates, full, timeout,
                    [gather, i](Summaries replies) {
                      gather->replies[i] = std::move(replies);
                      if (--gather->outstanding == 0) rank(*gather);
                    });
  }
}

}  // namespace

void ResourceBroker::select(std::vector<std::string> candidates,
                            std::size_t k, std::int32_t count,
                            sim::Time timeout, SelectFn on_done) {
  std::vector<FederatedGroup> groups(1);
  groups[0] = {client_, std::move(candidates)};
  select_groups(std::move(groups), true, k, count, timeout, *predictor_,
                std::move(on_done));
}

void ResourceBroker::select_by_summary(std::vector<std::string> candidates,
                                       std::size_t k, std::int32_t count,
                                       sim::Time timeout, SelectFn on_done) {
  std::vector<FederatedGroup> groups(1);
  groups[0] = {client_, std::move(candidates)};
  select_groups(std::move(groups), false, k, count, timeout, *predictor_,
                std::move(on_done));
}

void ResourceBroker::select_federated(std::vector<FederatedGroup> groups,
                                      std::size_t k, std::int32_t count,
                                      sim::Time timeout,
                                      const sched::WaitPredictor& predictor,
                                      SelectFn on_done) {
  select_groups(std::move(groups), false, k, count, timeout, predictor,
                std::move(on_done));
}

std::vector<rsl::JobRequest> ResourceBroker::build_requests(
    const std::vector<Placement>& placements, std::int32_t count,
    const std::string& executable, rsl::SubjobStartType start_type) {
  std::vector<rsl::JobRequest> out;
  out.reserve(placements.size());
  for (const Placement& p : placements) {
    rsl::JobRequest j;
    j.resource_manager_contact = p.contact;
    j.executable = executable;
    j.count = count;
    j.start_type = start_type;
    out.push_back(std::move(j));
  }
  return out;
}

}  // namespace grid::info
