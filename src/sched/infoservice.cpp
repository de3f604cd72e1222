#include "sched/infoservice.hpp"

#include "simkit/check.hpp"

namespace grid::sched {

LoadInformationService::LoadInformationService(sim::Engine& engine,
                                               sim::Time publish_interval)
    : engine_(&engine), interval_(publish_interval) {}

LoadInformationService::~LoadInformationService() { stop(); }

void LoadInformationService::register_resource(std::string contact,
                                               const LocalScheduler* sched) {
  ContactId id = 0;
  auto it = intern_.find(contact);
  if (it != intern_.end()) {
    id = it->second;
  } else {
    entries_.emplace_back();
    id = static_cast<ContactId>(entries_.size());
    entries_.back().contact = contact;
    intern_.emplace(std::move(contact), id);
  }
  Entry& e = entries_[id - 1];
  if (e.registered && e.sched != nullptr) e.sched->release_mark();
  if (!e.registered) ++registered_count_;
  e.registered = true;
  e.sched = sched;
  e.published = false;
  if (sched != nullptr) {
    e.published_at = engine_->now();
    refresh(e);
  }
}

void LoadInformationService::unregister_resource(const std::string& contact) {
  auto it = intern_.find(contact);
  if (it == intern_.end()) return;
  Entry& e = entries_[it->second - 1];
  if (!e.registered) return;
  e.registered = false;
  if (e.sched != nullptr) e.sched->release_mark();
  e.sched = nullptr;  // may be destroyed after unregistration
  --registered_count_;
  // e.snap stays alive for holders of previously returned SnapshotRefs.
}

void LoadInformationService::start() {
  if (running_ || interval_ <= 0) return;
  running_ = true;
  tick_event_ = engine_->schedule_after(interval_, [this] { tick(); });
}

void LoadInformationService::stop() {
  if (!running_) return;
  running_ = false;
  engine_->cancel(tick_event_);
}

void LoadInformationService::tick() {
  publish_now();
  if (running_) {
    tick_event_ = engine_->schedule_after(interval_, [this] { tick(); });
  }
}

void LoadInformationService::refresh(Entry& e) {
  // Perfect-information mode serves live views, so it reads no mark.
  if (interval_ > 0) e.sched->mark_published(engine_->now());
  e.snap.reset();  // built by the version's first full-detail read
  e.summary = e.sched->summary();
  e.sched_version = e.sched->version();
  e.published_version = ++next_published_version_;
  e.published = true;
  ++stats_.snapshots_refreshed;
}

void LoadInformationService::publish_now() {
  // Entries are visited in registration order; nothing here schedules
  // events or sends messages, so publication cannot leak ordering.
  ++stats_.publish_rounds;
  const sim::Time now = engine_->now();
  for (Entry& e : entries_) {
    if (!e.registered || e.sched == nullptr) continue;
    e.published_at = now;  // the round ran, even if the content held still
    const std::uint64_t v = e.sched->version();
    if (e.published && v != 0 && v == e.sched_version) {
      ++stats_.snapshots_skipped;  // dirty flag clean: keep mark and copy
      continue;
    }
    refresh(e);
  }
}

LoadInformationService::ContactId LoadInformationService::resolve(
    const std::string& contact) const {
  auto it = intern_.find(contact);
  return it == intern_.end() ? 0 : it->second;
}

util::Result<const LoadInformationService::Entry*>
LoadInformationService::lookup(ContactId id) const {
  if (id == 0 || id > entries_.size() || !entries_[id - 1].registered) {
    return util::small_status(util::ErrorCode::kNotFound, "unknown contact");
  }
  // A registered scheduler is published at registration, so in perfect-
  // information mode this only rejects entries without one.
  if (!entries_[id - 1].published) {
    return util::small_status(util::ErrorCode::kNotFound, "unpublished");
  }
  return &entries_[id - 1];
}

util::Result<const LoadInformationService::Entry*>
LoadInformationService::counted_lookup(ContactId id) const {
  ++stats_.queries;
  auto e = lookup(id);
  if (!e.is_ok()) ++stats_.misses;
  return e;
}

util::Result<QueueSummary> LoadInformationService::summary(
    ContactId id) const {
  auto e = counted_lookup(id);
  if (!e.is_ok()) return e.status();
  return interval_ <= 0 ? e.value()->sched->summary() : e.value()->summary;
}

util::Result<LoadInformationService::SnapshotRef>
LoadInformationService::snapshot_ref(ContactId id) const {
  auto e = counted_lookup(id);
  if (!e.is_ok()) return e.status();
  const Entry& en = *e.value();
  if (interval_ <= 0) {
    return std::make_shared<const QueueSnapshot>(en.sched->snapshot());
  }
  if (!en.snap) {
    en.snap =
        std::make_shared<const QueueSnapshot>(en.sched->marked_snapshot());
    ++stats_.snapshots_built;
    GRID_CHECK(summarize(*en.snap) == en.summary,
               "lazily built snapshot disagrees with the published summary");
  }
  return en.snap;
}

std::uint64_t LoadInformationService::published_version(ContactId id) const {
  auto e = lookup(id);
  return e.is_ok() && interval_ > 0 ? e.value()->published_version : 0;
}

sim::Time LoadInformationService::staleness(ContactId id) const {
  auto e = lookup(id);
  if (!e.is_ok()) return sim::kTimeNever;
  return interval_ <= 0 ? 0 : engine_->now() - e.value()->published_at;
}

}  // namespace grid::sched
