#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/algorithm1.h"
#include "core/buffered_view.h"
#include "util/retry.h"
#include "warehouse/warehouse.h"

namespace gsv {

namespace {

// One unit of parallel evaluation: the events of one view (or of one
// independent root subtree within a view), in batch order, each tagged with
// its screening verdict.
struct EvalTask {
  size_t view_index = 0;
  uint32_t group_key = 0;
  std::vector<std::pair<const UpdateEvent*, bool>> events;  // (event, relevant)
  std::unique_ptr<BufferedViewStorage> buffer;
  Algorithm1Maintainer::Stats stats;
  Status status;
};

struct SweepTask {
  size_t view_index = 0;
  std::vector<Oid> doomed;
  Status status;
};

}  // namespace

// Keys the independent-subtree partition: the child of the source root whose
// subtree contains the event's anchor object, by a bounded first-parent climb
// over the final source state. Unreachable/detached anchors (and climbs that
// exceed the bound) fall back to the anchor itself, which conservatively
// isolates them in their own group. Modifies anchor at the modified object so
// every modify of one object lands in one group and its delegate-value syncs
// replay in batch order.
static uint32_t SubtreeGroupKey(const ObjectStore& store, const Oid& root,
                                const UpdateEvent& event) {
  Oid anchor = event.parent;
  if (event.kind != UpdateKind::kModify && anchor == root && event.child.valid()) {
    anchor = event.child;
  }
  if (anchor == root) return anchor.id();
  Oid current = anchor;
  for (int depth = 0; depth < 256; ++depth) {
    std::vector<Oid> parents = store.Parents(current);
    if (parents.empty()) break;
    if (parents.front() == root) return current.id();
    current = parents.front();
  }
  return anchor.id();
}

Status Warehouse::ProcessPendingBatch(const BatchOptions& options) {
  UpdateBatch batch;
  batch.Add(std::exchange(pending_, {}));
  return DrainBatch(std::move(batch), options);
}

Status Warehouse::DrainBatch(UpdateBatch batch, const BatchOptions& options) {
  const int64_t queries_before = costs_.source_queries;
  // Recovery prologue: resynced views take part in this batch normally.
  TryResyncStaleViews();

  Status first_error;
  if (batch.empty()) {
    // Nothing queued; still close the group a prologue resync logged.
    if (options.log_commit) LogCommit();
    StorageQuiescent();
    return Status::Ok();
  }
  costs_.events_coalesced += batch.Coalesce();
  costs_.events_received += static_cast<int64_t>(batch.size());

  std::vector<bool> touched(sources_.size(), false);
  for (const auto& [source_index, event] : batch.events()) {
    touched[source_index] = true;
  }

  // ---- Phase 1: absorb the batch into the auxiliary caches and plan the
  // evaluation tasks (screening once per distinct label, grouping by
  // independent root subtree). Sequential: caches are shared mutable state.
  const bool split = options.threads > 1;
  std::vector<EvalTask> eval_tasks;
  for (size_t view_index = 0; view_index < views_.size(); ++view_index) {
    ViewEntry& entry = *views_[view_index];
    if (!touched[entry.source_index]) continue;
    // A shard's slice of a §6 view it does not host ignores events: the
    // host's network exports every op the slice needs.
    if (entry.engine == EngineKind::kGdn && entry.gdn == nullptr) continue;
    SourceEntry& source = *sources_[entry.source_index];

    // §5.1 screening memoized per distinct label. Deletes keep their
    // detached subtrees readable in the cache until the post-replay Prune().
    std::unordered_map<std::string, bool> edge_labels;
    std::unordered_map<std::string, bool> modify_labels;
    // Storage-level membership so a sharded slice answers for the whole
    // view (the root's delegate may live at a peer shard). General-engine
    // views never split: a discrimination network is one stateful engine
    // per view (and DAG subtrees are not independent anyway), so the whole
    // view is one task — engines of different views still run in parallel.
    const bool view_splittable = split &&
                                 entry.engine == EngineKind::kAlgorithm1 &&
                                 !entry.storage()->ContainsBase(source.root);
    std::map<uint32_t, size_t> group_index;  // ordered => deterministic replay
    auto* task_base = &eval_tasks;  // indices stay valid; pointers may not

    for (const auto& [source_index, event] : batch.events()) {
      if (source_index != entry.source_index) continue;
      // The skip rule: on a shard, Algorithm 1 views maintain only the
      // events routed here; the rest were forwarded for a hosted network.
      if (binding_.has_value() && entry.engine == EngineKind::kAlgorithm1 &&
          RouteShardOf(event, binding_->shard_mask) != binding_->shard_index) {
        continue;
      }

      // Quarantined views sit the batch out; the resync recompute covers
      // their skipped events. A view can also quarantine mid-batch, when
      // the cache's query-backs hit a down source — the resync rebuilds the
      // corridor, so a partially absorbed batch cannot corrupt it.
      if (entry.stale) {
        SkipStaleEvents(entry);
        continue;
      }
      if (entry.cache != nullptr) {
        Status status = entry.cache->OnEvent(event, source.wrapper.get());
        if (!status.ok()) {
          if (IsSourceFailure(status)) {
            Quarantine(entry, status);
            SkipStaleEvents(entry);
            continue;
          }
          if (first_error.ok()) first_error = status;
        }
      }

      bool relevant = true;
      // §5.1 screening applies to Algorithm 1 corridors only; a general
      // engine must see every event (its screening memo IS the network).
      if (entry.engine == EngineKind::kAlgorithm1 &&
          event.level >= ReportingLevel::kWithValues) {
        if (event.kind == UpdateKind::kModify) {
          const std::string label = event.parent_object.has_value()
                                        ? event.parent_object->label()
                                        : std::string();
          auto [it, fresh] = modify_labels.try_emplace(label, false);
          if (fresh) it->second = EventRelevant(entry, event);
          relevant = it->second;
        } else if (event.child_object.has_value()) {
          auto [it, fresh] =
              edge_labels.try_emplace(event.child_object->label(), false);
          if (fresh) it->second = EventRelevant(entry, event);
          relevant = it->second;
        }
      }
      if (!relevant) ++costs_.events_screened_out;

      uint32_t key = view_splittable
                         ? SubtreeGroupKey(*source.store, source.root, event)
                         : 0;
      auto [it, fresh] = group_index.try_emplace(key, task_base->size());
      if (fresh) {
        EvalTask task;
        task.view_index = view_index;
        task.group_key = key;
        task.buffer = std::make_unique<BufferedViewStorage>(entry.storage());
        task_base->push_back(std::move(task));
      }
      (*task_base)[it->second].events.emplace_back(&event, relevant);
    }
  }

  // ---- Phase 2: evaluate in parallel. Workers read the frozen sources and
  // caches through private accessors and buffer all view operations; the
  // shared delegate store is never touched.
  ThreadPool* pool = Pool(options.threads);
  for (EvalTask& task : eval_tasks) {
    pool->Submit([this, &task] {
      ViewEntry& entry = *views_[task.view_index];
      SourceEntry& source = *sources_[entry.source_index];
      if (entry.engine != EngineKind::kAlgorithm1) {
        // One task per general view (never subtree-split), so this worker
        // is the only one touching the view's engine; it reads the frozen
        // final source state and buffers its deltas like any other task.
        // No §5.1 screening: the network must see every event to keep its
        // memos aligned with the base.
        for (const auto& [event, relevant] : task.events) {
          Status status =
              entry.gdn->Apply(event->ToUpdateAt(*source.store),
                               task.buffer.get());
          if (!status.ok() && task.status.ok()) task.status = status;
        }
        return;
      }
      RemoteAccessor accessor(source.wrapper.get(), &costs_);
      if (entry.cache != nullptr) accessor.set_cache(entry.cache.get());
      Algorithm1Maintainer maintainer(task.buffer.get(), &accessor, entry.def,
                                      source.root);
      for (const auto& [event, relevant] : task.events) {
        Status status;
        accessor.ClearError();
        if (!relevant) {
          status = task.buffer->SyncUpdate(event->ToUpdate());
        } else {
          accessor.set_current_event(event);
          if (event->kind == UpdateKind::kModify &&
              event->level == ReportingLevel::kOidsOnly) {
            status = Level1ModifyRecheck(entry, *event, task.buffer.get(),
                                         &accessor);
          } else {
            status = maintainer.Maintain(event->ToUpdate());
          }
          accessor.set_current_event(nullptr);
        }
        // A failed query-back surfaces through the accessor even when the
        // maintenance call itself reports success.
        if (status.ok()) status = accessor.last_error();
        if (!status.ok() && task.status.ok()) task.status = status;
      }
      task.stats = maintainer.stats();
    });
  }
  pool->Wait();

  // ---- Phase 3: replay single-threaded in fixed (view, subtree-key) order
  // so the resulting views, delegate store and stats are deterministic.
  //
  // All-or-nothing per view: when ANY of a view's tasks hit a down source,
  // none of its buffers replay — a half-applied batch would leave the view
  // in a state no source history ever produced. The view quarantines
  // instead, and its resync recompute covers the whole batch slice.
  for (EvalTask& task : eval_tasks) {
    if (task.status.ok()) continue;
    ViewEntry& entry = *views_[task.view_index];
    // A poisoned network quarantines like a down source: its buffered
    // deltas are partial and must not replay; the resync recompute +
    // Rebuild() restores the view and the network together.
    const bool gdn_poisoned = entry.gdn != nullptr && entry.gdn->poisoned();
    if (!IsSourceFailure(task.status) && !gdn_poisoned) continue;
    Quarantine(entry, task.status);
  }
  for (EvalTask& task : eval_tasks) {
    ViewEntry& entry = *views_[task.view_index];
    if (entry.stale) {
      SkipStaleEvents(entry, task.events.size());
      continue;
    }
    if (!task.status.ok() && first_error.ok()) first_error = task.status;
    // Replay through the scoped storage when sharded: owned ops land in the
    // view, foreign ops queue in the outbox — still single-threaded here.
    Status status = task.buffer->ReplayInto(entry.storage());
    if (!status.ok() && first_error.ok()) first_error = status;
    if (entry.maintainer != nullptr) entry.maintainer->MergeStats(task.stats);
  }
  for (auto& entry : views_) {
    if (touched[entry->source_index] && !entry->stale &&
        entry->cache != nullptr) {
      entry->cache->Prune();
    }
  }

  // An evaluation that asked the sources nothing was local for every event
  // in the batch (see cost_model.h).
  if (costs_.source_queries == queries_before) {
    costs_.events_local_only += static_cast<int64_t>(batch.size());
  }

  // ---- Phase 4: the verification sweep (see the header). A sharded
  // coordinator runs the batch with run_sweep off and sweeps
  // (RunVerificationSweep) only after every shard's foreign ops landed.
  if (options.run_sweep) {
    Status status = SweepViews(touched, pool);
    if (!status.ok() && first_error.ok()) first_error = status;
  }

  if (!first_error.ok()) last_status_ = first_error;
  // The batch drained to quiescence: one commit record closes the group
  // (every event and view delta logged above is certified applied). The
  // sharded coordinator commits instead, after cross-shard ops delivered.
  if (options.log_commit) LogCommit();
  StorageQuiescent();
  return first_error;
}

Status Warehouse::SweepViews(const std::vector<bool>& sources,
                             ThreadPool* pool) {
  std::vector<SweepTask> tasks;
  for (size_t view_index = 0; view_index < views_.size(); ++view_index) {
    const ViewEntry& entry = *views_[view_index];
    if (!sources[entry.source_index]) continue;
    if (entry.stale) continue;  // its resync recomputes
    // The GDN keeps membership exact against final state; only Algorithm 1
    // views need the disclaimed-responsibility sweep.
    if (entry.engine != EngineKind::kAlgorithm1) continue;
    SweepTask task;
    task.view_index = view_index;
    tasks.push_back(std::move(task));
  }
  for (SweepTask& task : tasks) {
    pool->Submit([this, &task] {
      ViewEntry& entry = *views_[task.view_index];
      SourceEntry& source = *sources_[entry.source_index];
      RemoteAccessor accessor(source.wrapper.get(), &costs_);
      if (entry.cache != nullptr) accessor.set_cache(entry.cache.get());
      task.status = CollectUnderivable(entry, &accessor, &task.doomed);
    });
  }
  pool->Wait();
  Status first_error;
  for (SweepTask& task : tasks) {
    ViewEntry& entry = *views_[task.view_index];
    if (!task.status.ok()) {
      if (IsSourceFailure(task.status)) {
        // The sweep could not verify membership against the source; the
        // collected deletions are unreliable. Quarantine instead of acting.
        Quarantine(entry, task.status);
        continue;
      }
      if (first_error.ok()) first_error = task.status;
    }
    for (const Oid& member : task.doomed) {
      Status status = entry.view->VDelete(member);
      if (!status.ok() && first_error.ok()) first_error = status;
    }
  }
  return first_error;
}

Status Warehouse::RunVerificationSweep() {
  Status status =
      SweepViews(std::vector<bool>(sources_.size(), true), Pool(pool_threads_));
  if (!status.ok()) last_status_ = status;
  StorageQuiescent();
  return status;
}

}  // namespace gsv
