#include <cstdint>
#include <map>
#include <utility>
#include <vector>

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
  std::vector<ViewEngine::ScreenedEvent> events;
  std::unique_ptr<BufferedViewStorage> buffer;
  Status status;
};

// One view's share of step 4: its evaluated events and inserted members
// (the scope's sources), the scope navigated from them, and the members the
// sweep dooms.
struct SweepTask {
  size_t view_index = 0;
  std::vector<ViewEngine::ScreenedEvent> events;
  std::vector<Oid> scope;
  const OidSet* members = nullptr;  // null: every member
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

size_t Warehouse::RoutedHere(const UpdateBatch& batch) const {
  if (!binding_.has_value()) return batch.size();
  size_t routed = 0;
  for (const auto& [source_index, event] : batch.events()) {
    routed += RouteShardOf(event, binding_->shard_mask) ==
              binding_->shard_index;
  }
  return routed;
}

Status Warehouse::ProcessPendingBatch(const BatchOptions& options,
                                      SweepScope* deferred_scope) {
  UpdateBatch batch;
  batch.Add(std::exchange(pending_, {}));
  return DrainBatch(std::move(batch), options, deferred_scope);
}

Status Warehouse::DrainBatch(UpdateBatch batch, const BatchOptions& options,
                             SweepScope* deferred_scope) {
  const int64_t queries_before = costs_.source_queries;
  // Recovery prologue: resynced views take part in this batch normally.
  SweepScope scope;
  TryResyncStaleViews(&scope);

  Status first_error;
  if (batch.empty()) {
    // Nothing queued; still close the group a prologue resync logged.
    if (deferred_scope != nullptr) *deferred_scope = std::move(scope);
    if (options.log_commit) LogCommit();
    StorageQuiescent();
    return Status::Ok();
  }
  // An event counts once, on the shard it is routed to: the copies a host
  // shard gets forwarded for its networks are neither received nor
  // coalesced here.
  const size_t routed_before = RoutedHere(batch);
  batch.Coalesce();
  const size_t routed = RoutedHere(batch);
  costs_.events_coalesced += static_cast<int64_t>(routed_before - routed);
  costs_.events_received += static_cast<int64_t>(routed);

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
    SourceEntry& source = *sources_[entry.source_index];

    // Storage-level membership so a sharded slice answers for the whole
    // view (the root's delegate may live at a peer shard). An unsplittable
    // view is one task; engines of different views still run in parallel.
    const bool view_splittable = split && entry.engine->Splittable() &&
                                 !entry.storage()->ContainsBase(source.root);
    std::map<uint32_t, size_t> group_index;  // ordered => deterministic replay
    auto* task_base = &eval_tasks;  // indices stay valid; pointers may not

    for (const auto& [source_index, event] : batch.events()) {
      if (source_index != entry.source_index) continue;
      // A skip precedes every account: on a shard it is an event routed
      // elsewhere (forwarded for a hosted network), or any event for a
      // slice of a view hosted elsewhere.
      const ViewEngine::Verdict verdict = entry.engine->Screen(event);
      if (verdict == ViewEngine::Verdict::kSkip) continue;

      // Quarantined views sit the batch out; the resync recompute covers
      // their skipped events. A view can also quarantine mid-batch, when
      // the cache's query-backs hit a down source — the resync rebuilds the
      // corridor, so a partially absorbed batch cannot corrupt it.
      if (entry.stale) {
        SkipStaleEvents(entry);
        continue;
      }
      // Deletes keep their detached subtrees readable in the cache until
      // the post-replay Prune().
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

      if (verdict == ViewEngine::Verdict::kSync) ++costs_.events_screened_out;

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
      (*task_base)[it->second].events.push_back({&event, verdict});
    }
  }

  // ---- Phase 2: evaluate in parallel. Workers read the frozen sources and
  // caches through private accessors and buffer all view operations; the
  // shared delegate store is never touched.
  ThreadPool* pool = Pool(options.threads);
  for (EvalTask& task : eval_tasks) {
    pool->Submit([this, &task] {
      task.status = views_[task.view_index]->engine->Apply(task.events,
                                                           task.buffer.get());
    });
  }
  pool->Wait();

  // ---- Phase 3: replay single-threaded in fixed (view, subtree-key) order
  // so the resulting views and delegate store are deterministic.
  //
  // All-or-nothing per view: when ANY of a view's tasks hit a down source,
  // none of its buffers replay — a half-applied batch would leave the view
  // in a state no source history ever produced. The view quarantines
  // instead, and its resync recompute covers the whole batch slice.
  for (EvalTask& task : eval_tasks) {
    if (task.status.ok()) continue;
    ViewEntry& entry = *views_[task.view_index];
    if (entry.engine->Quarantines(task.status)) Quarantine(entry, task.status);
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
  }

  // An evaluation that asked the sources nothing was local for every event
  // routed here (see cost_model.h); the sweep's queries come after.
  if (costs_.source_queries == queries_before) {
    costs_.events_local_only += static_cast<int64_t>(routed);
  }

  // ---- Phase 4: the verification sweep (see the header), over the members
  // the batch can have made underivable. Each fresh view navigates its
  // scope from its evaluated events in parallel, before Prune() drops the
  // detached subtrees those events name. A sharded coordinator runs the
  // batch with run_sweep off, takes the scope, and sweeps
  // (RunVerificationSweep) only after every shard's foreign ops landed.
  if (options.run_sweep || deferred_scope != nullptr) {
    std::vector<SweepTask> tasks;
    std::map<size_t, size_t> task_of_view;
    for (size_t view_index = 0; view_index < views_.size(); ++view_index) {
      const ViewEntry& entry = *views_[view_index];
      if (!touched[entry.source_index] || entry.stale ||
          scope.count(entry.def.name()) > 0) {
        continue;
      }
      task_of_view[view_index] = tasks.size();
      tasks.push_back({});
      tasks.back().view_index = view_index;
    }
    for (const EvalTask& eval : eval_tasks) {
      auto it = task_of_view.find(eval.view_index);
      if (it == task_of_view.end()) continue;
      SweepTask& task = tasks[it->second];
      task.events.insert(task.events.end(), eval.events.begin(),
                         eval.events.end());
      for (const ViewDelta& delta : eval.buffer->ops()) {
        if (delta.op() == ViewDeltaOp::kVInsert) {
          task.scope.push_back(delta.target());
        }
      }
    }
    for (SweepTask& task : tasks) {
      pool->Submit([this, &task] {
        task.status = views_[task.view_index]->engine->SweepScope(
            task.events, &task.scope);
      });
    }
    pool->Wait();
    for (SweepTask& task : tasks) {
      ViewEntry& entry = *views_[task.view_index];
      if (IsSourceFailure(task.status)) {
        Quarantine(entry, task.status);  // an unreliable scope; resync
        continue;
      }
      if (!task.status.ok() && first_error.ok()) first_error = task.status;
      scope[entry.def.name()] = OidSet(std::move(task.scope));
    }
  }
  for (auto& entry : views_) {
    if (touched[entry->source_index] && !entry->stale &&
        entry->cache != nullptr) {
      entry->cache->Prune();
    }
  }
  if (options.run_sweep) {
    Status status = SweepViews(&scope, pool);
    if (!status.ok() && first_error.ok()) first_error = status;
  } else if (deferred_scope != nullptr) {
    *deferred_scope = std::move(scope);
  }

  if (!first_error.ok()) last_status_ = first_error;
  // The batch drained to quiescence: one commit record closes the group
  // (every event and view delta logged above is certified applied). The
  // sharded coordinator commits instead, after cross-shard ops delivered.
  if (options.log_commit) LogCommit();
  StorageQuiescent();
  return first_error;
}

Status Warehouse::SweepViews(const SweepScope* scope, ThreadPool* pool) {
  std::vector<SweepTask> tasks;
  for (size_t view_index = 0; view_index < views_.size(); ++view_index) {
    const ViewEntry& entry = *views_[view_index];
    if (entry.stale) continue;  // its resync recomputes
    SweepTask task;
    task.view_index = view_index;
    if (scope != nullptr) {
      auto it = scope->find(entry.def.name());
      if (it == scope->end()) continue;
      if (it->second.has_value()) task.members = &*it->second;
    }
    tasks.push_back(std::move(task));
  }
  for (SweepTask& task : tasks) {
    pool->Submit([this, &task] {
      task.status = views_[task.view_index]->engine->Sweep(task.members,
                                                           &task.doomed);
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

Status Warehouse::RunVerificationSweep(const SweepScope* scope) {
  Status status = SweepViews(scope, Pool(pool_threads_));
  if (!status.ok()) last_status_ = status;
  StorageQuiescent();
  return status;
}

}  // namespace gsv
