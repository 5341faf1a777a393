#ifndef GSV_WAREHOUSE_SHARDED_WAREHOUSE_H_
#define GSV_WAREHOUSE_SHARDED_WAREHOUSE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "query/explain.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"

namespace gsv {

// A multi-writer warehouse over a partitioned OID space (perf companion to
// §5's single warehouse): K shard warehouses — each with its own delegate
// store, label/path indexes, WAL directory and cost sheet — maintain
// disjoint slices of every view, split by `oid.id() & (K-1)` over the
// interned 4-byte OID space. A router re-stamps each source's events into
// per-shard sequence domains (duplicate-drop and gap-detection intact per
// shard) and delivers them to the owning shard; drains run on all shards
// concurrently. A §6 view's discrimination network runs on one shard, the
// view's host (HostShardOf), inside that shard's ordinary drain: the router
// also forwards every event of the view's source to the host, at level 1.
// Cross-shard edges are first class: a shard that derives a member it
// doesn't own exports the op to the owner, and membership questions about
// foreign members resolve through a coordinator directory (frozen per batch
// so every shard evaluates one consistent pre-drain state — the §6
// DAG-delivery discipline generalized across shards). Reads fan out and
// K-way merge in lexicographic OID order, so results are byte-identical to
// a 1-shard warehouse over the same events.
class ShardedWarehouse {
 public:
  // Wall-clock decomposition of one coordinated drain. `eval_micros` /
  // `sweep_micros` are the per-shard parallel phases; `serial_micros` is
  // everything that must run on the coordinator thread (freeze, foreign-op
  // redistribution, commits). On an N-core machine the drain's critical
  // path is serial + max(eval) + max(sweep); exp17 reports both this bound
  // and the measured wall clock.
  struct DrainTiming {
    int64_t serial_micros = 0;
    std::vector<int64_t> eval_micros;
    std::vector<int64_t> sweep_micros;
  };

  struct DurabilityOptions {
    std::string dir;  // per-shard state lands in <dir>/shard-<i>
    FsyncPolicy fsync = FsyncPolicy::kCommit;
    uint64_t checkpoint_interval_events = 0;
    // Fencing epoch applied to every shard's WAL (see Warehouse::
    // DurabilityOptions::epoch). One fence per shard home.
    uint64_t epoch = 0;
    std::string owner;
  };

  struct Options {
    // Builds each shard's delegate-store engine (called once per shard —
    // the factory must hand out a fresh engine, and for a paged engine a
    // fresh scratch directory, per call; see MakePagedEngineFactory). Null
    // selects the memory default.
    StorageEngineFactory engine_factory;
  };

  // `shards` must be a power of two >= 1.
  explicit ShardedWarehouse(uint32_t shards)
      : ShardedWarehouse(shards, Options()) {}
  ShardedWarehouse(uint32_t shards, Options options);
  ~ShardedWarehouse();

  uint32_t shard_count() const { return static_cast<uint32_t>(shards_.size()); }
  Warehouse& shard(size_t index) { return *shards_[index]; }
  ObjectStore& shard_store(size_t index) { return *stores_[index]; }
  const Status& init_status() const { return init_status_; }

  // Connects `source` to every shard (monitor-less) and installs the
  // coordinator's routing monitor on it. Mirrors Warehouse::ConnectSource.
  Status ConnectSource(ObjectStore* source, Oid source_root,
                       ReportingLevel level, std::string name = "");

  // Defines the view on every shard; each initializes from current source
  // state and keeps only its owned slice, and a §6 view's host also builds
  // its network. Sharded warehouses are cache-less (CacheMode::kNone) — the
  // §5.2 corridor cuts across the partition.
  Status DefineView(std::string_view definition,
                    const std::string& source_name = "");

  void SetPathKnowledge(PathKnowledge knowledge);

  // Deferred mode queues routed events at their owning shards (and at the
  // hosts they are forwarded to); a drain processes all shards
  // concurrently. Inline mode drains each event alone at each shard it
  // reaches on arrival, then delivers its cross-shard ops at once.
  void set_deferred(bool deferred);
  bool deferred() const { return deferred_; }
  size_t pending_events() const;

  // Coordinated drain: freeze the membership directory; run each
  // participating shard's batch drain (Algorithm 1 and the hosted networks,
  // threads=1 inside the shard — concurrency comes from the shard fan-out)
  // in parallel; redistribute the foreign-op outboxes in deterministic
  // shard order; sweep; commit per-shard durability. Appends one
  // DrainTiming.
  Status ProcessPendingBatch(size_t threads);
  Status ProcessPending() { return ProcessPendingBatch(1); }

  const std::vector<DrainTiming>& drain_timings() const { return timings_; }
  void clear_drain_timings() { timings_.clear(); }

  // ---- Fault tolerance ----
  // Installs a fault model on the router→shard channel (and wrapper) of
  // `source_name` at one shard; other shards' deliveries are unaffected.
  Status SetFaultInjector(const std::string& source_name, uint32_t shard_index,
                          FaultInjector* injector);
  size_t stale_view_count() const;
  // Forces resync at every shard, redistributes the recompute exports (each
  // owner inserts or refreshes the member, so values catch up too), and
  // sweeps all shards so peers drop what the lost events should have
  // deleted. Returns Ok when no views remain stale.
  Status ResyncStaleViews();

  // ---- Durability ----
  // Enables (or recovers) per-shard WAL + checkpoints under
  // options.dir/shard-<i>, then restores the router's per-shard sequence
  // counters from the recovered watermarks, reconciles each host's networks
  // against the whole recovered view, and settles cross-shard effects of
  // the replay. Call after ConnectSource, before DefineView when
  // recovering.
  Status EnableDurability(const DurabilityOptions& options);
  Status WriteCheckpoint();

  // ---- Queries (fan out + merge) ----
  // Members of `name` across all shards, K-way merged in canonical
  // lexicographic OID order (byte-identical to a 1-shard warehouse).
  std::vector<Oid> ViewMembers(const std::string& name);
  // (base OID, "label value") per member, same order.
  std::vector<std::pair<Oid, std::string>> ViewContents(
      const std::string& name);
  ShardedViewExplanation ExplainView(const std::string& name);

  // Cross-shard totals (per-shard sheets summed).
  WarehouseCosts MergedCosts() const;
  StoreMetrics MergedDelegateMetrics() const;

 private:
  // The coordinator's cross-shard membership directory. An inline drain of
  // one event probes the owning shard live; a coordinated drain freezes a
  // snapshot so every shard evaluates against the same pre-drain membership
  // (workers on different shards must not observe each other's mid-batch
  // writes).
  class Directory : public CrossShardResolver {
   public:
    explicit Directory(ShardedWarehouse* owner) : owner_(owner) {}
    bool ViewContains(const std::string& view, const Oid& base) const override;
    OidSet ViewMembers(const std::string& view) const override;
    void Freeze();
    void Thaw() { frozen_ = false; }

   private:
    ShardedWarehouse* owner_;
    bool frozen_ = false;
    // Per-(view, shard) slice snapshots, indexed by owning shard. Kept as
    // slices rather than one unioned set: the owner's slice alone answers
    // any membership probe, and copying K sorted vectors is far cheaper
    // than K ordered merges on the serial coordinator path.
    std::unordered_map<std::string, std::vector<OidSet>> snapshot_;
  };

  struct SourceRoute {
    std::string name;
    ObjectStore* store = nullptr;
    std::unique_ptr<SourceMonitor> monitor;
    // Next sequence to hand out per shard (the router owns the per-shard
    // sequence domains; shard i's events are numbered 1.. independently).
    std::vector<uint64_t> next_out;
    // Shards hosting a network for a §6 view of this source; each gets
    // every event (RefreshHosts derives the list from the shards).
    std::vector<uint32_t> hosts;
  };

  void RouteEvent(size_t source_index, const UpdateEvent& event);
  // Rederives every route's `hosts` from the shards' view entries.
  void RefreshHosts();
  // The one cross-shard delivery (drain, inline routing, resync, recovery):
  // takes each shard's outbox in shard order, and every owner applies its
  // ops from them in that (producer, op) order, owners in parallel on the
  // pool. A view's ops thus land in its producer's order: one producer per
  // §6 view (its host), as at K=1. Marks each owner in `applied` (when
  // non-null); with `timing`, charges the take to serial_micros and each
  // owner's apply CPU time to its eval_micros. Commits nothing.
  Status DeliverForeignOps(std::vector<bool>* applied = nullptr,
                           DrainTiming* timing = nullptr);
  ThreadPool* Pool(size_t threads);

  uint32_t mask_ = 0;
  bool deferred_ = false;
  Status init_status_;
  std::vector<std::unique_ptr<ObjectStore>> stores_;
  std::vector<std::unique_ptr<Warehouse>> shards_;
  std::vector<std::unique_ptr<SourceRoute>> sources_;
  std::vector<std::string> view_names_;
  Directory directory_{this};
  std::vector<DrainTiming> timings_;
  std::unique_ptr<ThreadPool> pool_;
  size_t pool_threads_ = 0;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_SHARDED_WAREHOUSE_H_
