#include <sstream>

#include "oem/serialize.h"
#include "storage/recovery.h"
#include "warehouse/warehouse.h"

namespace gsv {

// The durability side-car of one warehouse: the open WAL, the delta sink
// wired into every materialized view, and the recovery/checkpoint
// bookkeeping. Lives behind a unique_ptr in Warehouse so warehouse.h stays
// free of the implementation details.
struct WarehouseDurability : public ViewDeltaSink {
  Warehouse::DurabilityOptions options;
  std::unique_ptr<Wal> wal;
  Warehouse::RecoveryReport report;
  Warehouse::DurabilityStats stats;

  // True while recovery redoes committed deltas (they are already in the
  // log) and before EnableDurability finishes wiring; the sink and the
  // Log* hooks are silent then.
  bool logging_paused = false;
  // First WAL failure; sticky. Once the log is broken nothing more is
  // appended (a half-logged group is exactly what commit records fence).
  Status log_status;
  // Non-commit records since the last commit; empty groups log no commit.
  size_t records_in_group = 0;
  uint64_t events_since_checkpoint = 0;
  uint64_t next_checkpoint_id = 1;

  void Append(WalRecord record) {
    if (!log_status.ok()) return;
    bool is_commit = record.type == WalRecordType::kCommit;
    Status status = wal->Append(std::move(record));
    if (!status.ok()) {
      log_status = status;
      return;
    }
    if (!is_commit) ++records_in_group;
  }

  // ---- ViewDeltaSink ----
  // Fires synchronously for every delta actually applied to a view; the
  // warehouse's external synchronization makes these single-threaded (batch
  // workers write to BufferedViewStorage, which has no sink).
  void OnDelta(const MaterializedView& view, ViewDelta delta) override {
    if (logging_paused) return;
    Append(WalRecord::Delta(view.def().name(), std::move(delta)));
    ++stats.deltas_logged;
  }
};

// Defined here (not in warehouse.cc) so unique_ptr<WarehouseDurability> has
// a complete type at construction and destruction.
Warehouse::Warehouse(ObjectStore* store, Options options)
    : store_(store), options_(std::move(options)) {}

Warehouse::~Warehouse() {
  for (auto& source : sources_) {
    if (source->store != nullptr && source->monitor != nullptr) {
      source->store->RemoveListener(source->monitor.get());
    }
  }
}

// ---- Logging hooks ----

void Warehouse::LogEvent(const SourceEntry& source, const UpdateEvent& event) {
  if (durability_ == nullptr || durability_->logging_paused) return;
  durability_->Append(WalRecord::Event(source.name, event));
  ++durability_->stats.events_logged;
  ++durability_->events_since_checkpoint;
}

void Warehouse::LogViewDef(const std::string& definition, CacheMode cache_mode,
                           const std::string& source_name) {
  if (durability_ == nullptr || durability_->logging_paused) return;
  durability_->Append(WalRecord::ViewDef(
      definition, static_cast<int>(cache_mode), source_name));
}

void Warehouse::LogCommit() {
  if (durability_ == nullptr || durability_->logging_paused) return;
  WarehouseDurability& d = *durability_;
  if (!d.log_status.ok()) {
    last_status_ = d.log_status;  // surface the broken log, once per group
    return;
  }
  // A commit certifies quiescence: every logged record before it is fully
  // applied and nothing is pending. Empty groups log nothing.
  if (!pending_.empty() || d.records_in_group == 0) return;
  std::vector<WalWatermark> marks;
  marks.reserve(sources_.size());
  for (const auto& source : sources_) {
    marks.push_back({source->name, source->next_sequence - 1});
  }
  d.Append(WalRecord::Commit(std::move(marks)));
  if (!d.log_status.ok()) {
    last_status_ = d.log_status;
    return;
  }
  ++d.stats.commits_logged;
  d.records_in_group = 0;

  if (d.options.checkpoint_interval_events > 0 &&
      d.events_since_checkpoint >= d.options.checkpoint_interval_events) {
    Status status = WriteCheckpoint();
    if (!status.ok()) last_status_ = status;
  }
}

void Warehouse::AttachSink(MaterializedView* view) {
  if (durability_ == nullptr) return;
  view->set_delta_sink(durability_.get());
}

// ---- Public API ----

Wal* Warehouse::wal() {
  return durability_ != nullptr ? durability_->wal.get() : nullptr;
}

const Warehouse::RecoveryReport& Warehouse::recovery_report() const {
  static const RecoveryReport kEmpty{};
  return durability_ != nullptr ? durability_->report : kEmpty;
}

const Warehouse::DurabilityStats& Warehouse::durability_stats() const {
  static const DurabilityStats kEmpty{};
  return durability_ != nullptr ? durability_->stats : kEmpty;
}

Status Warehouse::EnableDurability(const DurabilityOptions& options) {
  if (durability_ != nullptr) {
    return Status::FailedPrecondition("durability already enabled");
  }
  if (options.dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions.dir is required");
  }
  if (!pending_.empty()) {
    return Status::FailedPrecondition(
        "drain pending events before EnableDurability");
  }

  GSV_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(options.dir));
  bool has_state =
      plan.have_checkpoint || !plan.committed.empty() || !plan.tail.empty();
  if (has_state) {
    if (!views_.empty()) {
      return Status::FailedPrecondition(
          "recovering durable state requires a warehouse without views: "
          "connect the sources (same names), then EnableDurability");
    }
    if (plan.have_checkpoint && store_->size() != 0) {
      return Status::FailedPrecondition(
          "recovering a checkpoint requires an empty delegate store");
    }
  }
  GSV_RETURN_IF_ERROR(ApplyLogTruncation(options.dir, plan));

  auto d = std::make_unique<WarehouseDurability>();
  d->options = options;
  d->logging_paused = true;
  Wal::Options wal_options;
  wal_options.fsync = options.fsync;
  wal_options.writer_epoch = options.epoch;
  wal_options.owner = options.owner;
  GSV_ASSIGN_OR_RETURN(d->wal, Wal::Open(options.dir, wal_options,
                                         plan.next_lsn));
  GSV_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> checkpoints,
                       ListCheckpoints(options.dir));
  if (!checkpoints.empty()) d->next_checkpoint_id = checkpoints.back().id + 1;
  durability_ = std::move(d);

  Status status = RestoreFromPlan(plan);
  if (!status.ok()) {
    // A failed recovery leaves partially restored views behind; the caller
    // must discard this warehouse (the durable state on disk is untouched
    // beyond the log truncation, so a fresh warehouse can retry).
    for (auto& entry : views_) entry->view->set_delta_sink(nullptr);
    durability_.reset();
    return status;
  }

  // A fresh directory gets a baseline checkpoint when the warehouse already
  // holds state the log alone could not rebuild (views defined before
  // durability was enabled).
  if (!has_state && !views_.empty()) {
    GSV_RETURN_IF_ERROR(WriteCheckpoint());
  }
  StorageQuiescent();
  return Status::Ok();
}

Status Warehouse::RestoreFromPlan(const RecoveryPlan& plan) {
  WarehouseDurability& d = *durability_;
  d.report = RecoveryReport{};
  d.report.log_torn = plan.log_torn;
  d.report.torn_bytes = plan.torn_bytes;
  d.report.tail_deltas_dropped = plan.tail_deltas_dropped;

  // The warehouse's views as a redo target: each one is rebuilt with its
  // cache and engine by BuildViewEntry.
  struct WarehouseViews : RedoViews {
    explicit WarehouseViews(Warehouse* warehouse) : w(warehouse) {}
    Status Define(const CheckpointViewState& state, bool adopt) override {
      GSV_ASSIGN_OR_RETURN(size_t source_index,
                           w->ResolveSourceIndex(state.source));
      GSV_ASSIGN_OR_RETURN(
          std::unique_ptr<ViewEntry> entry,
          w->BuildViewEntry(source_index, state.definition,
                            static_cast<CacheMode>(state.cache_mode)));
      GSV_RETURN_IF_ERROR(adopt ? entry->view->AdoptExisting()
                                : entry->view->Bootstrap());
      if (state.stale) {
        w->Quarantine(*entry,
                      Status::Unavailable("view '" + entry->def.name() +
                                          "' was quarantined when the "
                                          "checkpoint was taken"));
      }
      w->views_.push_back(std::move(entry));
      return Status::Ok();
    }
    MaterializedView* Find(const std::string& name) override {
      return w->view(name);
    }
    Warehouse* w;
  } views(this);

  // 1-2. The checkpoint image, then the committed zone. Redo is purely
  //      local — the delta records replay into the views without
  //      Algorithm 1 and without a single source query. That asymmetry
  //      (redo log vs recompute) is what exp16 measures.
  RedoCounts counts;
  GSV_RETURN_IF_ERROR(RedoCommitted(plan, store_, &views, &counts));
  d.report.recovered_checkpoint = plan.have_checkpoint;
  d.report.checkpoint_id = plan.checkpoint.manifest.id;  // 0 without one
  d.report.views_restored = counts.views_adopted;
  d.report.views_redefined = counts.views_defined;
  d.report.deltas_redone = counts.deltas_redone;

  // 3. Watermarks: the integrator expects last_sequence + 1 next.
  for (const WalWatermark& mark : plan.watermarks) {
    bool found = false;
    for (auto& source : sources_) {
      if (source->name != mark.source) continue;
      source->next_sequence = mark.last_sequence + 1;
      found = true;
      break;
    }
    if (!found) {
      return Status::FailedPrecondition(
          "recovered watermark references unknown source '" + mark.source +
          "'; connect the same sources before EnableDurability");
    }
  }

  // 4. Corridor caches. When nothing happened after the checkpoint the
  //    saved cache bytes are exact — reload them without touching the
  //    source. Otherwise the corridor rebuilds from the live source (its
  //    current state subsumes every logged event, same as a resync).
  bool clean = plan.committed.empty() && plan.tail.empty() && !plan.log_torn;
  for (auto& entry : views_) {
    if (entry->cache == nullptr) continue;
    bool loaded = false;
    if (clean && plan.have_checkpoint) {
      auto it = plan.checkpoint.cache_texts.find(entry->def.name());
      if (it != plan.checkpoint.cache_texts.end()) {
        std::istringstream in(it->second);
        GSV_RETURN_IF_ERROR(entry->cache->LoadFrom(in));
        loaded = true;
        d.report.caches_reloaded = true;
      }
    }
    if (!loaded && !entry->stale) {
      const SourceEntry& source = *sources_[entry->source_index];
      Status status = entry->cache->Initialize(source.wrapper.get());
      if (!status.ok()) {
        if (!IsSourceFailure(status)) return status;
        Quarantine(*entry, status);  // resync rebuilds the corridor later
      }
    }
  }

  // 5. A torn log may have eaten an *accepted* event (the tear lies past
  //    every valid record, so only the group in flight is affected — but an
  //    event record in it is gone for good: the source applied the update,
  //    and no monitor will re-emit it). Incremental maintenance can no
  //    longer be trusted, so fall back to PR 2 quarantine + resync: the
  //    first drain recomputes each view from current source state.
  if (plan.log_torn) {
    Status cause = Status::DataLoss(
        "recovered from a torn log: an accepted event may be lost");
    for (size_t i = 0; i < sources_.size(); ++i) {
      QuarantineSourceViews(i, cause);
    }
  }

  // 6. Uncommitted tail: re-deliver the surviving events through live
  //    maintenance with logging ON — they re-log with fresh LSNs (the
  //    truncation dropped their old frames) and the closing drain appends
  //    the commit their interrupted group never got. Convergent like any
  //    at-least-once redelivery.
  d.logging_paused = false;
  for (auto& entry : views_) entry->view->set_delta_sink(durability_.get());
  bool saved_deferred = deferred_;
  deferred_ = true;
  // 6a. Discrimination networks are derived state: Rebuild() each from the
  //     live base, then Reconcile — with the sinks attached, so every
  //     divergence fix is itself logged — which makes the tail replay below
  //     a convergent no-op for these views.
  Status first_error = RebuildNetworks();
  for (const WalRecord& record : plan.tail) {
    if (record.type == WalRecordType::kViewDef) {
      // The definition's group never committed; run the full DefineView
      // (bootstrap + initial materialization from current source state).
      Status status =
          DefineView(record.definition,
                     static_cast<CacheMode>(record.cache_mode), record.source);
      if (!status.ok() && first_error.ok()) first_error = status;
      continue;
    }
    if (record.type != WalRecordType::kEvent) continue;
    auto source_index = ResolveSourceIndex(record.source);
    if (!source_index.ok()) {
      if (first_error.ok()) first_error = source_index.status();
      continue;
    }
    Deliver(source_index.value(), record.event);
    ++d.report.events_replayed;
  }
  if (!pending_.empty()) {
    // The corridor caches were rebuilt from the live source and never held
    // the subtrees the tail's deletes detached, so no scope can be
    // navigated from them: this drain sweeps every member.
    BatchOptions options;
    options.run_sweep = false;
    options.log_commit = false;
    Status status = ProcessPendingBatch(options);
    Status swept = RunVerificationSweep();
    if (status.ok()) status = swept;
    if (!status.ok() && first_error.ok()) first_error = status;
    LogCommit();
  }
  deferred_ = saved_deferred;

  // 7. Monitor continuity: events emitted from now on must continue the
  //    numbering the integrator expects (replay may have advanced it past
  //    the committed watermark).
  for (auto& source : sources_) {
    if (source->monitor != nullptr) {
      source->monitor->set_last_sequence(source->next_sequence - 1);
    }
  }
  return first_error;
}

Status Warehouse::RebuildNetworks() {
  Status first_error;
  for (auto& entry : views_) {
    Status status = entry->engine->Heal(entry->storage());
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

Status Warehouse::WriteCheckpoint() {
  if (durability_ == nullptr) {
    return Status::FailedPrecondition("durability not enabled");
  }
  WarehouseDurability& d = *durability_;
  if (!d.log_status.ok()) return d.log_status;
  if (!pending_.empty()) {
    return Status::FailedPrecondition(
        "drain pending events before WriteCheckpoint");
  }

  // Capture: in-memory strings only, at this quiescent point. Reads go
  // through the store's const surface, so concurrent readers holding
  // published index snapshots are never blocked.
  CheckpointCapture capture;
  capture.manifest.id = d.next_checkpoint_id;
  capture.manifest.wal_lsn = d.wal->next_lsn() - 1;
  capture.manifest.watermarks.reserve(sources_.size());
  for (const auto& source : sources_) {
    capture.manifest.watermarks.push_back(
        {source->name, source->next_sequence - 1});
  }
  for (const auto& entry : views_) {
    CheckpointViewState state;
    state.name = entry->def.name();
    state.source = sources_[entry->source_index]->name;
    state.cache_mode = static_cast<int>(entry->cache_mode);
    state.stale = entry->stale;
    state.definition = entry->definition_text;
    capture.manifest.views.push_back(std::move(state));
    if (entry->cache != nullptr) {
      std::ostringstream out;
      GSV_RETURN_IF_ERROR(entry->cache->SaveTo(out));
      capture.cache_texts.emplace_back(entry->def.name(), out.str());
    }
  }
  GSV_ASSIGN_OR_RETURN(capture.store_text, ExportStoreImage(store_));

  // Persist (all the file IO), then start a fresh segment so whole old
  // segments can retire.
  GSV_RETURN_IF_ERROR(PersistCheckpoint(d.options.dir, capture));
  ++d.next_checkpoint_id;
  ++d.stats.checkpoints_written;
  d.events_since_checkpoint = 0;
  GSV_RETURN_IF_ERROR(d.wal->Roll());

  RetireCoveredWalSegments(d.options.dir);
  StorageQuiescent();
  return Status::Ok();
}

}  // namespace gsv
