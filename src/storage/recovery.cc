#include "storage/recovery.h"

#include <algorithm>

#include "core/view_definition.h"

namespace gsv {

Result<RecoveryPlan> PlanRecovery(const std::string& dir) {
  RecoveryPlan plan;

  Result<LoadedCheckpoint> checkpoint = LoadLatestCheckpoint(dir);
  if (checkpoint.ok()) {
    plan.have_checkpoint = true;
    plan.checkpoint = std::move(checkpoint).value();
    plan.watermarks = plan.checkpoint.manifest.watermarks;
  } else if (checkpoint.status().code() != StatusCode::kNotFound) {
    return checkpoint.status();
  }

  GSV_ASSIGN_OR_RETURN(WalScan scan, ScanWal(dir));
  plan.log_torn = scan.torn;
  plan.torn_bytes = scan.torn_bytes;
  if (scan.torn) {
    plan.need_truncate = true;
    plan.truncate_segment = scan.torn_segment;
    plan.truncate_offset = scan.torn_offset;
  }

  const uint64_t base_lsn =
      plan.have_checkpoint ? plan.checkpoint.manifest.wal_lsn : 0;

  // Locate the last commit above the checkpoint; everything at or below it
  // is the committed zone.
  size_t last_commit = scan.records.size();  // npos
  for (size_t i = scan.records.size(); i-- > 0;) {
    const WalRecord& record = scan.records[i];
    if (record.lsn <= base_lsn) break;
    if (record.type == WalRecordType::kCommit) {
      last_commit = i;
      break;
    }
  }

  plan.next_lsn = base_lsn + 1;
  bool tail_started = false;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    WalRecord& record = scan.records[i];
    if (record.lsn <= base_lsn) continue;
    const bool committed = last_commit != scan.records.size() &&
                           i <= last_commit;
    if (committed) {
      if (record.type == WalRecordType::kCommit) {
        plan.watermarks = record.watermarks;
      }
      plan.next_lsn = record.lsn + 1;
      plan.committed.push_back(std::move(record));
      continue;
    }
    // The interrupted group. The physical log is cut back to its first
    // record — a tear, if any, lies strictly after every valid record, so
    // this truncation subsumes the tear's. The surviving events re-log
    // with fresh LSNs during the live replay.
    if (!tail_started) {
      tail_started = true;
      plan.need_truncate = true;
      plan.truncate_segment = record.segment;
      plan.truncate_offset = record.offset;
    }
    if (record.type == WalRecordType::kViewDelta) {
      ++plan.tail_deltas_dropped;
      continue;
    }
    if (record.type == WalRecordType::kEpoch) {
      // Writer-session header, not replayable state; the next writer
      // stamps its own on open.
      continue;
    }
    plan.tail.push_back(std::move(record));
  }
  return plan;
}

Status ApplyLogTruncation(const std::string& dir, const RecoveryPlan& plan) {
  if (!plan.need_truncate) return Status::Ok();
  return TruncateWal(dir, plan.truncate_segment, plan.truncate_offset);
}

Status MaterializedViewSet::Define(const CheckpointViewState& state,
                                   bool adopt) {
  GSV_ASSIGN_OR_RETURN(ViewDefinition def,
                       ViewDefinition::Parse(state.definition));
  if (Find(def.name()) != nullptr) {
    return Status::DataLoss("duplicate view definition '" + def.name() + "'");
  }
  Entry entry;
  entry.state = state;
  entry.state.name = def.name();
  entry.view = std::make_unique<MaterializedView>(store_, std::move(def));
  GSV_RETURN_IF_ERROR(adopt ? entry.view->AdoptExisting()
                            : entry.view->Bootstrap());
  entries_.push_back(std::move(entry));
  return Status::Ok();
}

MaterializedView* MaterializedViewSet::Find(const std::string& name) {
  for (Entry& entry : entries_) {
    if (entry.state.name == name) return entry.view.get();
  }
  return nullptr;
}

Status RedoViewRecord(const WalRecord& record, RedoViews* views) {
  if (record.type == WalRecordType::kViewDef) {
    CheckpointViewState state;
    state.definition = record.definition;
    state.cache_mode = record.cache_mode;
    state.source = record.source;
    return views->Define(state, /*adopt=*/false);
  }
  if (record.type != WalRecordType::kViewDelta) return Status::Ok();
  MaterializedView* view = views->Find(record.view);
  if (view == nullptr) {
    return Status::DataLoss("view delta for unknown view '" + record.view +
                            "'");
  }
  return record.delta.ApplyTo(view);
}

Status RedoCommitted(
    const RecoveryPlan& plan, ObjectStore* store, RedoViews* views,
    RedoCounts* counts,
    const std::function<Status(const WalRecord&)>& on_record) {
  RedoCounts ignored;
  if (counts == nullptr) counts = &ignored;
  if (plan.have_checkpoint) {
    // Delegate store first, then every view rebinds to its objects
    // (AdoptExisting re-derives membership from the delegates).
    GSV_RETURN_IF_ERROR(ImportStoreImage(plan.checkpoint.store_text, store));
    for (const CheckpointViewState& state : plan.checkpoint.manifest.views) {
      GSV_RETURN_IF_ERROR(views->Define(state, /*adopt=*/true));
      ++counts->views_adopted;
    }
    // Image loaded: let a paged engine shed the bulk-load working set.
    store->StorageSafePoint();
  }
  for (const WalRecord& record : plan.committed) {
    GSV_RETURN_IF_ERROR(RedoViewRecord(record, views));
    if (record.type == WalRecordType::kViewDef) ++counts->views_defined;
    if (record.type == WalRecordType::kViewDelta) ++counts->deltas_redone;
    if (on_record) GSV_RETURN_IF_ERROR(on_record(record));
  }
  return Status::Ok();
}

Result<size_t> ReplayEventsInto(const std::vector<WalRecord>& records,
                                ObjectStore* store) {
  size_t applied = 0;
  for (const WalRecord& record : records) {
    if (record.type != WalRecordType::kEvent) continue;
    GSV_ASSIGN_OR_RETURN(bool did_apply,
                         store->ApplyFromLog(record.event.ToUpdate()));
    if (did_apply) ++applied;
  }
  return applied;
}

}  // namespace gsv
