#ifndef GSV_WAREHOUSE_WAREHOUSE_H_
#define GSV_WAREHOUSE_WAREHOUSE_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "oem/store.h"
#include "query/explain.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "util/thread_pool.h"
#include "warehouse/aux_cache.h"
#include "warehouse/cost_model.h"
#include "warehouse/fault_injector.h"
#include "warehouse/monitor.h"
#include "warehouse/path_knowledge.h"
#include "warehouse/sharding.h"
#include "warehouse/update_batch.h"
#include "warehouse/update_event.h"
#include "warehouse/view_engine.h"
#include "warehouse/wrapper.h"

namespace gsv {

struct RecoveryPlan;
struct WarehouseDurability;

// The data warehouse of §5 / Figure 6: materialized views live here; base
// objects live at one or more autonomous sources that export update events
// and answer queries through their wrappers. Only the warehouse knows the
// view definitions.
//
// One integrator handles every event, whether it arrives inline (a drain
// over a batch of one) or from the deferred queue (ProcessPendingBatch).
// Each view (bound to the source its entry belongs to) is maintained by one
// ViewEngine (view_engine.h), chosen by DefineView from the definition:
// simple views (§4.2) run Algorithm1Engine, the §6 classes a network.
// Per view and event:
//   1. the engine screens the event (§5.1 for Algorithm 1: with level >= 2
//      events the affected label is checked against the view's sel/cond
//      labels — pruned further by path knowledge — and irrelevant events
//      only sync delegate values; a §6 network sees every event);
//   2. the auxiliary cache (if configured, §5.2) absorbs the update;
//   3. the engine applies the event. Algorithm 1 runs over a RemoteAccessor
//      that prefers event info and cache content and falls back to metered
//      source queries; level-1 modify events carry no values, so membership
//      is re-derived by querying (the paper's "cannot do much other than
//      sending queries").
class Warehouse {
 public:
  enum class CacheMode {
    kNone,
    kLabelsOnly,  // §5.2 partial caching
    kFull,        // §5.2 full corridor caching
  };

  // Which maintenance engine a view runs on. DefineView picks it from the
  // definition: simple views (§4.2) run Algorithm 1; the §6 relaxations
  // (path expressions, AND/OR, WITHIN, DAG bases) run the discrimination
  // network (GDN).
  using EngineKind = ViewEngine::Kind;

  struct Options {
    // Builds the storage engine backing each §5.2 corridor cache this
    // warehouse creates in DefineView (one engine per cached view; null =
    // memory default). The delegate store's own engine is chosen by
    // whoever constructed `store` — the warehouse borrows, never owns, it.
    StorageEngineFactory aux_engine_factory;
  };

  // `store` holds this warehouse's delegates; must outlive the warehouse.
  explicit Warehouse(ObjectStore* store) : Warehouse(store, Options()) {}
  Warehouse(ObjectStore* store, Options options);
  ~Warehouse();

  // Attaches a source (Figure 6 allows several): installs a monitor at
  // `level` whose events flow into this warehouse, and a wrapper for
  // query-backs. `source_root` is the database root view entries refer to.
  // `name` identifies the source for DefineView; when empty, a name
  // "source<N>" is generated. Roots must be distinct across sources.
  Status ConnectSource(ObjectStore* source, Oid source_root,
                       ReportingLevel level, std::string name = "");

  // ---- Shard participation (partitioned OID space) ----
  //
  // A ShardedWarehouse coordinator runs K of these warehouses, each bound
  // to one slice of the interned OID space: shard `oid.id() & (K-1)` owns
  // the object. A bound warehouse materializes only the view members it
  // owns; maintenance ops for foreign members queue in the outbox for the
  // coordinator to redistribute, and foreign membership reads go through
  // the coordinator's resolver. A §6 view's discrimination network runs on
  // one shard only, its host (HostShardOf); the other shards hold a slice
  // engine that skips every event. Algorithm 1 views skip events
  // routed to another shard, so a host ignores the events forwarded to it
  // for its networks. Must be called before any DefineView; `resolver` must
  // outlive the warehouse.
  Status BindShard(uint32_t shard_index, uint32_t shard_mask,
                   const CrossShardResolver* resolver);

  // ConnectSource without a monitor: the coordinator routes events here by
  // owning shard (re-stamped into this warehouse's per-source sequence
  // domain) through InjectRoutedEvent, which runs the normal delivery path
  // — fault injection, duplicate drop, gap detection, then queueing or the
  // inline one-event drain — per shard.
  Status ConnectSourceRouted(ObjectStore* source, Oid source_root,
                             std::string name = "");
  void InjectRoutedEvent(size_t source_index, const UpdateEvent& event) {
    OnEvent(source_index, event);
  }

  // Drains the outbox (ops this shard produced for members other shards
  // own). The coordinator delivers them via the owners' ApplyForeignOps.
  std::vector<ForeignViewOp> TakeForeignOps() {
    return std::exchange(outbox_, {});
  }
  // Applies peer-produced ops for members this shard owns; ops targeting
  // other shards' members are skipped, so callers may pass whole producer
  // outboxes unfiltered. Ops naming a quarantined view are skipped — the
  // post-resync recompute subsumes them — and ops for unknown views fail.
  Status ApplyForeignOps(const std::vector<ForeignViewOp>& ops);

  // The drain's verification sweep (ProcessPendingBatch step 4) over every
  // fresh view: each engine re-verifies its members against current source
  // state and drops the underivable (a no-op for §6 networks). The
  // coordinator runs this after foreign ops land, when a batch had run with
  // BatchOptions::run_sweep = false.
  Status RunVerificationSweep();

  // Closes the current durability commit group (no-op when durability is
  // off). The coordinator commits each shard only after cross-shard ops
  // applied, so a shard's log never certifies a half-delivered batch.
  void CommitDurable() { LogCommit(); }

  // Highest event sequence integrated from `source_name` (0 when none) —
  // after recovery the coordinator restamps its router from this.
  uint64_t last_delivered_sequence(const std::string& source_name) const;

  // True when a view of `source_name` needs the events routed to other
  // shards too (this shard hosts its network); the coordinator forwards
  // every event of that source here.
  bool NeedsForwardedEvents(const std::string& source_name) const;

  // Parses "define mview NAME as: ...", materializes it from the current
  // source state (setup, not metered as maintenance cost), and starts
  // maintaining it: simple definitions on Algorithm 1, the §6 classes on a
  // discrimination network (ANS INT is refused). Its entry must resolve to
  // the root of `source_name` (or of the sole connected source when
  // `source_name` is empty); corridor caches need a simple view.
  Status DefineView(std::string_view definition,
                    CacheMode cache_mode = CacheMode::kNone,
                    const std::string& source_name = "");

  // Installs §5.2 path knowledge used for screening (applies to all views).
  void SetPathKnowledge(PathKnowledge knowledge);

  // ---- Deferred (asynchronous) event processing ----
  //
  // Sources are autonomous (§5): in a real deployment events arrive and
  // are applied some time after the source committed the update, while the
  // source keeps changing. With deferral enabled, monitor events queue
  // instead of being applied inline; a drain applies the queue. Base
  // accesses during the drain observe the source's *current* state — the
  // §4.3 "right after the update" assumption is relaxed — and Algorithm 1's
  // candidate verification plus condition rechecks make the outcome
  // convergent: once the queue is drained, the view equals the view over
  // the source's current state (asserted by the deferred-processing
  // property tests). Inline mode runs the same drain at once over each
  // accepted event alone, without the sweep; queued events stay queued.
  void set_deferred(bool deferred) { deferred_ = deferred; }
  bool deferred() const { return deferred_; }
  size_t pending_events() const { return pending_.size(); }
  // The one deferred drain, single-threaded (ProcessPendingBatch below).
  Status ProcessPending() { return ProcessPendingBatch(); }

  // ---- The deferred drain (batched, optionally multi-threaded) ----
  //
  // ProcessPendingBatch drains the pending queue through the batch engine —
  // the one integrator; an inline event runs steps 1-3 as a batch of one.
  // It returns the first error (processing continues past errors so the
  // queue always drains):
  //
  //   1. the batch is coalesced (UpdateBatch: insert+delete of the same
  //      edge cancel unless an event between them names the parent,
  //      modifies of one object merge last-writer-wins);
  //   2. per view, the engine screens each event (Algorithm 1's label/path
  //      screening, §5.1, is resolved once per *distinct label* rather than
  //      once per event), and the auxiliary cache absorbs the whole batch;
  //   3. the screened events are fanned out across a worker pool — one task
  //      per independent view, and (on tree bases, for a splittable engine)
  //      one per independent root subtree within a view, since subtrees of
  //      a tree cannot share affected delegates. Workers run the engine
  //      against the frozen final source state and buffer their view
  //      operations (BufferedViewStorage); after the barrier the op logs
  //      replay into the real views single-threaded, in a fixed order — so
  //      the resulting views are deterministic, and the engines' summed
  //      counters are too;
  //   4. the verification sweep runs read-only in parallel per view, and
  //      its deletions apply after a second barrier. Because every event
  //      is evaluated against the source's *current* state, an event can
  //      disclaim responsibility that another queued event also disclaims
  //      (e.g. a modify whose corridor path a later delete already broke,
  //      under a delete that no longer sees the object in its subtree).
  //      Such misses are always stale *extras*, never missing members — a
  //      member that should appear is found by whichever queued insert
  //      restored its derivation, which re-evaluates the attached subtree.
  //      So the sweep re-verifies the current members of each view whose
  //      source contributed events and drops those whose derivation or
  //      condition no longer holds. It costs O(|view| · (climb + condition
  //      eval)) through the accessor — local when a full auxiliary cache
  //      is configured, metered query-backs otherwise.
  //
  // Sources must not change during the call (the usual external
  // synchronization for a deferred drain). After the drain each view
  // equals its query over the source's current state.
  struct BatchOptions {
    // Worker pool size; <= 1 evaluates inline. Above 1, independent root
    // subtrees within a view fan out too (sound on tree bases; skipped for
    // a view whose root is a member).
    size_t threads = 1;
    // A sharded coordinator defers these two: the sweep must wait for the
    // foreign ops of every shard to land, and the commit must not certify
    // a batch whose cross-shard ops are still in flight.
    bool run_sweep = true;
    bool log_commit = true;
  };
  Status ProcessPendingBatch(const BatchOptions& options);
  Status ProcessPendingBatch() { return ProcessPendingBatch(BatchOptions{}); }

  // ---- Fault tolerance (sequenced delivery, quarantine, resync) ----
  //
  // The warehouse–source channel is at-least-once: monitor events carry a
  // per-source sequence number, duplicates are dropped idempotently, and a
  // gap (lost delivery) quarantines every view of that source. A view also
  // quarantines when a query-back fails after retries or hits an open
  // circuit breaker. Quarantined (kStale) views keep serving reads from
  // their last consistent state; events for them are skipped (and
  // counted). Each drain first attempts to resync stale views — probe the
  // source, recompute the view from current source state (§4.4 path),
  // rebuild the corridor cache and the discrimination network — so
  // recovery is automatic once the source answers again. The current state
  // already reflects every skipped event, so nothing is replayed.

  // Installs a deterministic fault model on `source_name`'s channel and
  // wrapper (nullptr detaches). The injector must outlive its installation.
  Status SetFaultInjector(const std::string& source_name,
                          FaultInjector* injector);

  // The wrapper of `source_name` (the sole source when empty); nullptr when
  // unknown. Exposed so callers can tune retry/breaker policies and probe.
  SourceWrapper* wrapper(const std::string& source_name = "");

  enum class ViewHealth {
    kFresh,  // maintained incrementally, consistent with delivered events
    kStale,  // quarantined: serving last consistent state, awaiting resync
  };
  ViewHealth view_health(const std::string& name) const;
  size_t stale_view_count() const;
  // Events the currently quarantined views skipped since they went stale
  // (their resync recompute covers them).
  size_t buffered_stale_events() const;

  // Forces a resync attempt for every quarantined view now (probing past
  // an open breaker). Returns Ok when no views remain stale.
  Status ResyncStaleViews();

  // Recovery step 6a: rebuilds every discrimination network from the live
  // base and Reconciles it against its view. On a host shard the view is
  // the whole view (the resolver supplies the peers' members), so the fixes
  // for foreign members queue in the outbox. A sharded coordinator runs
  // this again once every shard has loaded; Reconcile is idempotent.
  Status RebuildNetworks();

  // ---- Durability (write-ahead log, checkpoints, crash recovery) ----
  //
  // EnableDurability attaches a WAL + checkpoint directory to this
  // warehouse. Every accepted update event and every applied view delta is
  // logged; a commit record (carrying the per-source sequence watermarks)
  // closes each group — one per drain, an inline event being a drain of
  // one — and certifies that the warehouse was quiescent when it was
  // written.
  //
  // If `dir` already holds durable state, EnableDurability *recovers* it:
  // the latest valid checkpoint is loaded (delegate store, view
  // memberships, §5.2 corridor caches, watermarks), the committed log tail
  // is redone locally from the view-delta records (no source queries), and
  // the uncommitted tail — truncated at the first record past the last
  // commit, which subsumes any torn write — is replayed through live
  // maintenance by re-delivering its events. A torn log additionally
  // quarantines every view (an accepted event may have been lost in the
  // tear), so the first drain resyncs from current source state — the PR 2
  // fallback for an unusable log. Sources must be connected (same names)
  // before calling; views must not be defined when recovering state.
  struct DurabilityOptions {
    std::string dir;  // WAL segments + checkpoints live here
    FsyncPolicy fsync = FsyncPolicy::kCommit;
    // Automatically checkpoint at the first quiescent commit after this
    // many logged events (0 = only explicit WriteCheckpoint calls).
    uint64_t checkpoint_interval_events = 0;
    // Replication fencing (see wal.h FenceInfo): when epoch > 0 the WAL
    // claims the directory fence on open, stamps kEpoch headers into its
    // segments, and every append re-checks the fence — a promoted replica
    // raising the fence cuts this writer off at its next log write.
    uint64_t epoch = 0;
    std::string owner;
  };

  struct RecoveryReport {
    bool recovered_checkpoint = false;
    uint64_t checkpoint_id = 0;     // id of the checkpoint restored
    size_t views_restored = 0;      // adopted from the checkpoint image
    size_t views_redefined = 0;     // re-bootstrapped from kViewDef records
    size_t deltas_redone = 0;       // committed-zone deltas applied locally
    size_t events_replayed = 0;     // uncommitted tail events re-delivered
    size_t tail_deltas_dropped = 0; // uncommitted deltas discarded
    bool log_torn = false;          // a torn/corrupt record was truncated
    uint64_t torn_bytes = 0;
    bool caches_reloaded = false;   // corridor caches came from the image
  };

  struct DurabilityStats {
    int64_t events_logged = 0;
    int64_t deltas_logged = 0;
    int64_t commits_logged = 0;
    int64_t checkpoints_written = 0;
  };

  Status EnableDurability(const DurabilityOptions& options);
  bool durable() const { return durability_ != nullptr; }
  // Snapshots the warehouse at the current quiescent point (pending queue
  // must be empty): delegate store, corridor caches, watermarks and view
  // definitions, then rolls the log and retires segments older than the
  // previous retained checkpoint. Never blocks concurrent readers — the
  // capture reads through the store's published index snapshots.
  Status WriteCheckpoint();
  // What EnableDurability recovered (zeroed on a fresh directory).
  const RecoveryReport& recovery_report() const;
  const DurabilityStats& durability_stats() const;
  // The live log (null when durability is off). Exposed for tests and
  // tools (crash injection, forced sync).
  Wal* wal();

  MaterializedView* view(const std::string& name);
  // Names of the defined views, in definition order.
  std::vector<std::string> view_names() const;
  // Engine introspection: the Algorithm 1 engine (null for §6 views), the
  // kind (kAlgorithm1 for unknown names) and the hosted network (null for
  // simple views and for a shard's slice of a view hosted elsewhere).
  const Algorithm1Engine* maintainer(const std::string& name) const;
  const AuxiliaryCache* cache(const std::string& name) const;
  EngineKind view_engine(const std::string& name) const;
  const GdnEngine* gdn_engine(const std::string& name) const;
  // Per-view maintenance explanation (engine kind, GDN network size and
  // propagation counters); shards = 1.
  ShardedViewExplanation ExplainView(const std::string& name) const;

  ObjectStore& store() { return *store_; }
  WarehouseCosts& costs() { return costs_; }
  const Status& last_status() const { return last_status_; }
  // The monitor of the sole source (legacy convenience; null when the
  // warehouse has several sources).
  SourceMonitor* monitor();
  size_t source_count() const { return sources_.size(); }

 private:
  struct SourceEntry {
    std::string name;
    ObjectStore* store = nullptr;
    Oid root;
    std::unique_ptr<SourceWrapper> wrapper;
    std::unique_ptr<SourceMonitor> monitor;
    // Channel fault model (not owned; also installed on the wrapper).
    FaultInjector* injector = nullptr;
    // Sequence expected from the next monitor event (events with
    // sequence 0 are unsequenced and bypass the checks).
    uint64_t next_sequence = 1;
  };

  struct ViewEntry {
    explicit ViewEntry(ViewDefinition d) : def(std::move(d)) {}
    size_t source_index = 0;
    ViewDefinition def;
    std::string definition_text;  // original text, for checkpoint manifests
    CacheMode cache_mode = CacheMode::kNone;
    std::unique_ptr<MaterializedView> view;
    // Shard scoping decorator (bound warehouses only): owned ops hit
    // `view`, foreign ops queue in the warehouse outbox.
    std::unique_ptr<ShardScopedStorage> scoped;
    std::unique_ptr<AuxiliaryCache> cache;
    // Drives membership; borrows `view` and `cache`, so it is declared (and
    // destroyed) after them. BuildViewEntry picks the implementation.
    std::unique_ptr<ViewEngine> engine;
    // Where maintenance writes: the scoped storage when sharded, the view
    // itself otherwise.
    ViewStorage* storage() {
      return scoped != nullptr ? static_cast<ViewStorage*>(scoped.get())
                               : view.get();
    }
    // Quarantine state: a stale view serves its last consistent contents
    // and counts the events it skips until the resync recompute.
    bool stale = false;
    size_t skipped_events = 0;
    Status stale_cause;  // why the view quarantined (Ok when fresh)
  };

  void OnEvent(size_t source_index, const UpdateEvent& event);
  // Sequence accounting for one delivered event: drops duplicates, detects
  // gaps (quarantining the source's views), logs it, then queues it
  // (deferred) or drains it alone at once (inline).
  void Deliver(size_t source_index, const UpdateEvent& event);
  // The drain body behind ProcessPendingBatch and inline delivery: resync
  // prologue, then steps 1-4 of the header comment over `batch`.
  Status DrainBatch(UpdateBatch batch, const BatchOptions& options);
  // Events of `batch` routed to this shard (all of them when unbound).
  size_t RoutedHere(const UpdateBatch& batch) const;
  // Step 4 over the fresh views of the sources marked in `sources`: each
  // engine collects underivable members read-only in parallel on `pool`;
  // they are deleted after the barrier. A view whose query-backs fail
  // quarantines.
  Status SweepViews(const std::vector<bool>& sources, ThreadPool* pool);
  // Quarantine entry points.
  void Quarantine(ViewEntry& entry, const Status& cause);
  // Counts events a quarantined view skips.
  void SkipStaleEvents(ViewEntry& entry, size_t count = 1);
  void QuarantineSourceViews(size_t source_index, const Status& cause);
  // One resync attempt; leaves the view stale when the source still fails.
  Status TryResyncView(ViewEntry& entry, bool force);
  // Opportunistic resync of every stale view (drain prologue).
  void TryResyncStaleViews();
  // Declares a storage quiescent point: no `const Object*` from the
  // delegate store or a corridor cache is live past this call, so a paged
  // engine may evict back down to its buffer-pool budget. Runs at the end
  // of every drain / resync / checkpoint.
  void StorageQuiescent();
  // Lazily builds/resizes the worker pool for `threads` workers.
  ThreadPool* Pool(size_t threads);
  // Shared body of ConnectSource / ConnectSourceRouted.
  Status ConnectSourceInternal(ObjectStore* source, Oid source_root,
                               ReportingLevel level, std::string name,
                               bool install_monitor);
  // Drops members of `entry` that another shard owns (no-op unbound). A
  // full materialization — Initialize or a resync recompute — derives the
  // whole view; the foreign members belong to the peers. With
  // `export_members` set each pruned member is first exported as a foreign
  // kRefresh (insert, or refresh the delegate value, at the owner) so
  // owners that missed the underlying events converge in membership and in
  // values (the resync path); DefineView prunes silently since every shard
  // runs the same initialization.
  void PruneForeignMembers(ViewEntry& entry, bool export_members);

  // ---- Durability internals (warehouse_durability.cc) ----
  // Resolves a source by name (the sole source when empty).
  Result<size_t> ResolveSourceIndex(const std::string& source_name) const;
  // Parses + validates a definition and builds a ViewEntry with its view,
  // cache and engine constructed but nothing initialized. The one place
  // that picks a view's engine.
  Result<std::unique_ptr<ViewEntry>> BuildViewEntry(size_t source_index,
                                                    std::string_view definition,
                                                    CacheMode cache_mode);
  // Logging hooks; all no-ops when durability is off or paused.
  void LogEvent(const SourceEntry& source, const UpdateEvent& event);
  void LogViewDef(const std::string& definition, CacheMode cache_mode,
                  const std::string& source_name);
  void LogCommit();
  // Points the view's delta sink at the WAL (no-op when durability is off).
  void AttachSink(MaterializedView* view);
  // Recovery steps.
  Status RestoreFromPlan(const RecoveryPlan& plan);

  SourceEntry& SourceOf(const ViewEntry& entry) const {
    return *sources_[entry.source_index];
  }
  // The entry of view `name`; nullptr when unknown.
  ViewEntry* FindEntry(const std::string& name) const;

  struct ShardBinding {
    uint32_t shard_index = 0;
    uint32_t shard_mask = 0;
    const CrossShardResolver* resolver = nullptr;
  };

  ObjectStore* store_;
  Options options_;
  std::vector<std::unique_ptr<SourceEntry>> sources_;
  PathKnowledge knowledge_;
  WarehouseCosts costs_;
  std::vector<std::unique_ptr<ViewEntry>> views_;
  std::optional<ShardBinding> binding_;
  std::vector<ForeignViewOp> outbox_;
  bool deferred_ = false;
  std::vector<std::pair<size_t, UpdateEvent>> pending_;
  Status last_status_;
  std::unique_ptr<ThreadPool> pool_;
  size_t pool_threads_ = 0;
  // Durability state (WAL, stats, recovery report); null when disabled.
  std::unique_ptr<WarehouseDurability> durability_;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_WAREHOUSE_H_
