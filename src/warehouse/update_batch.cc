#include "warehouse/update_batch.h"

#include <cstdint>
#include <unordered_map>

namespace gsv {

namespace {

// One map key per (source, edge) / (source, modify target). Interned OID
// ids are dense uint32s, so an edge packs into one uint64; the source index
// is folded in by keeping one map per source.
uint64_t EdgeKey(const UpdateEvent& event) {
  return (static_cast<uint64_t>(event.parent.id()) << 32) | event.child.id();
}

}  // namespace

void UpdateBatch::Add(std::vector<std::pair<size_t, UpdateEvent>> events) {
  if (events_.empty()) {
    events_ = std::move(events);
    return;
  }
  events_.reserve(events_.size() + events.size());
  for (auto& item : events) events_.push_back(std::move(item));
}

size_t UpdateBatch::Coalesce() {
  if (events_.size() < 2) return 0;  // an inline drain's batch of one
  // index into events_ of the last surviving event for a key, per source.
  std::unordered_map<size_t, std::unordered_map<uint64_t, size_t>> last_edge;
  std::unordered_map<size_t, std::unordered_map<uint32_t, size_t>> last_modify;
  // index of the last event naming an object, as parent or as child.
  std::unordered_map<size_t, std::unordered_map<uint32_t, size_t>> last_named;
  std::vector<bool> dead(events_.size(), false);
  size_t removed = 0;

  for (size_t i = 0; i < events_.size(); ++i) {
    const auto& [source, event] = events_[i];
    auto& named = last_named[source];
    if (event.kind == UpdateKind::kModify) {
      named[event.parent.id()] = i;
      auto& per_source = last_modify[source];
      auto [it, inserted] = per_source.emplace(event.parent.id(), i);
      if (!inserted) {
        // Merge into this (later) slot: newest snapshot and new value win;
        // the net transition starts from the earliest old value.
        UpdateEvent& survivor = events_[i].second;
        const UpdateEvent& earlier = events_[it->second].second;
        if (earlier.old_value.has_value()) {
          survivor.old_value = earlier.old_value;
        }
        dead[it->second] = true;
        ++removed;
        it->second = i;
      }
      continue;
    }
    auto& per_source = last_edge[source];
    const uint64_t key = EdgeKey(event);
    auto it = per_source.find(key);
    // The pair cancels only when no event between the two names the
    // parent: such an event may carry a snapshot of P holding the transient
    // edge, and a delegate built from it would keep C with nothing left to
    // take it out.
    const bool cancels = it != per_source.end() &&
                         events_[it->second].second.kind != event.kind &&
                         named[event.parent.id()] == it->second;
    named[event.parent.id()] = i;
    named[event.child.id()] = i;
    if (cancels) {
      // insert/delete (or delete/insert) of the same edge: net nil.
      dead[it->second] = true;
      dead[i] = true;
      removed += 2;
      per_source.erase(it);
      continue;
    }
    per_source[key] = i;
  }

  if (removed == 0) return 0;
  std::vector<std::pair<size_t, UpdateEvent>> survivors;
  survivors.reserve(events_.size() - removed);
  for (size_t i = 0; i < events_.size(); ++i) {
    if (!dead[i]) survivors.push_back(std::move(events_[i]));
  }
  events_ = std::move(survivors);
  return removed;
}

}  // namespace gsv
