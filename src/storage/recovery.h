#ifndef GSV_STORAGE_RECOVERY_H_
#define GSV_STORAGE_RECOVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/materialized_view.h"
#include "oem/store.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/status.h"

namespace gsv {

// Crash-recovery planning: turns the on-disk durability state (checkpoints
// + WAL segments) into an executable plan. The planner only reads; the
// warehouse (Warehouse::EnableDurability) and a follower (Replica::Start)
// apply the plan: truncation, then RedoCommitted below, then — warehouse
// only — the live replay of the tail.
//
// The plan's shape follows the commit-group invariant the logger maintains:
// every commit record certifies that all preceding records are fully
// applied and that the warehouse was quiescent (no pending events) at that
// instant. Hence three zones:
//
//   lsn <= checkpoint.wal_lsn   already inside the checkpoint image — skip;
//   up to the last commit       `committed`: redo the view deltas locally,
//                               no Algorithm 1, no source queries;
//   after the last commit       `tail`: the group a crash interrupted. Its
//                               delta records are dropped (a partial redo
//                               could apply half a maintenance step); its
//                               event records replay through *live*
//                               maintenance instead, which is convergent
//                               exactly like an at-least-once redelivery.
//
// A torn physical tail (power loss mid-write) is cut at the first invalid
// byte; an interrupted logical tail is cut at its first record and
// re-appended by the live replay, so the log never carries uncommitted
// deltas across a restart.
struct RecoveryPlan {
  bool have_checkpoint = false;
  LoadedCheckpoint checkpoint;  // meaningful when have_checkpoint

  // Committed zone (in LSN order): kEvent / kViewDelta / kViewDef / kCommit
  // records above the checkpoint and at or below the last commit.
  std::vector<WalRecord> committed;
  // Watermarks as of the last commit (falling back to the checkpoint's).
  std::vector<WalWatermark> watermarks;

  // Uncommitted zone: events and view definitions to replay through live
  // maintenance. Delta records of the interrupted group are not here.
  std::vector<WalRecord> tail;
  size_t tail_deltas_dropped = 0;

  // Physical log repair to apply before reopening the Wal for append.
  bool need_truncate = false;
  std::string truncate_segment;  // file name within the durability dir
  uint64_t truncate_offset = 0;
  bool log_torn = false;       // the scan hit a torn/corrupt record
  uint64_t torn_bytes = 0;     // bytes dropped by the physical tear

  // One past the last surviving committed record; the LSN the reopened Wal
  // continues from (tail records re-log with fresh LSNs from here).
  uint64_t next_lsn = 1;
};

// Reads checkpoints and WAL under `dir` and computes the plan. Read-only.
Result<RecoveryPlan> PlanRecovery(const std::string& dir);

// Applies the plan's physical log repair (torn-tail / uncommitted-group
// truncation). No-op when the plan needs none.
Status ApplyLogTruncation(const std::string& dir, const RecoveryPlan& plan);

// ---- Redo: one path for recovery, the follower and `wal_inspect diff` ----

// The materialized views a redo writes into. The warehouse, a follower and
// the offline checksum checker each keep their views their own way; these
// are the two things redo needs from them.
class RedoViews {
 public:
  virtual ~RedoViews() = default;
  // Builds the view `state` describes. With `adopt` it rebinds to the
  // objects a checkpoint image already put in the delegate store;
  // otherwise it is bootstrapped empty (a kViewDef record — the members
  // arrive as the delta records that follow).
  virtual Status Define(const CheckpointViewState& state, bool adopt) = 0;
  // The view named `name`, or null.
  virtual MaterializedView* Find(const std::string& name) = 0;
};

// Plain views over one delegate store: the follower's and the checksum
// checker's redo target. Defining a name twice is kDataLoss.
class MaterializedViewSet : public RedoViews {
 public:
  struct Entry {
    CheckpointViewState state;  // name filled in from the definition
    std::unique_ptr<MaterializedView> view;
  };

  explicit MaterializedViewSet(ObjectStore* store) : store_(store) {}
  Status Define(const CheckpointViewState& state, bool adopt) override;
  MaterializedView* Find(const std::string& name) override;
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  ObjectStore* store_;
  std::vector<Entry> entries_;
};

// Applies one committed kViewDef or kViewDelta record to `views`; every
// other record type is a no-op. kDataLoss for a delta naming an unknown
// view; a refresh of an absent delegate fails as ViewDelta::ApplyTo does.
Status RedoViewRecord(const WalRecord& record, RedoViews* views);

struct RedoCounts {
  size_t views_adopted = 0;  // from the checkpoint image
  size_t views_defined = 0;  // from committed kViewDef records
  size_t deltas_redone = 0;  // committed kViewDelta records
};

// Loads `plan`'s checkpoint image (if any) into `store` and adopts its
// views, then redoes the committed zone through RedoViewRecord. Purely
// local: no Algorithm 1, no source query. `on_record`, when set, sees every
// committed record after its redo (the follower tracks commits and epochs
// there).
Status RedoCommitted(
    const RecoveryPlan& plan, ObjectStore* store, RedoViews* views,
    RedoCounts* counts = nullptr,
    const std::function<Status(const WalRecord&)>& on_record = nullptr);

// Standalone event redo into a plain store (wal_inspect --apply, tests):
// applies every kEvent record's base update to `store` through the
// idempotent ObjectStore::ApplyFromLog entry point, skipping records whose
// preconditions no longer hold (at-least-once semantics). Returns the
// number of updates applied.
Result<size_t> ReplayEventsInto(const std::vector<WalRecord>& records,
                                ObjectStore* store);

}  // namespace gsv

#endif  // GSV_STORAGE_RECOVERY_H_
