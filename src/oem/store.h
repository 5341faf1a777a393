#ifndef GSV_OEM_STORE_H_
#define GSV_OEM_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "oem/label_index.h"
#include "oem/object.h"
#include "oem/oid.h"
#include "oem/storage_engine.h"
#include "oem/update.h"
#include "oem/value.h"
#include "util/counters.h"
#include "util/status.h"

namespace gsv {

// Cost counters for the access-pattern analyses of §4.4 / §5. All graph
// navigation in the library runs through the store and is metered here.
//
// The counters are relaxed atomics so that const store methods stay safe to
// call from several maintenance workers at once (the batch engine reads
// source stores concurrently); totals are exact, ordering between counters
// is not guaranteed mid-flight. A sharded warehouse keeps one delegate
// store per shard; whole-warehouse reporting merges their metrics instead
// of quoting shard 0.
//
// One row per counter: X(field, ToString key, print group, merge kind).
#define GSV_STORE_METRICS(X)                                                   \
  X(edges_traversed, "edges_traversed", kBase, kSum) /* child links */         \
  X(parent_lookups, "parent_lookups", kBase, kSum) /* inverse-index steps */   \
  X(lookups, "lookups", kBase, kSum)                 /* OID table probes */    \
  X(objects_scanned, "scanned", kBase, kSum)         /* full-scan visits */    \
  X(index_probes, "index_probes", kBase, kSum) /* label/step posting scans */  \
  X(index_fallbacks, "index_fallbacks", kBase, kSum) /* via traversal */       \
  /* Buffer-pool counters (paged storage engine; zero on memory). */           \
  X(page_faults, "page_faults", kPaging, kSum) /* pages read in */             \
  X(page_evictions, "page_evictions", kPaging, kSum) /* frames dropped */      \
  X(page_writeback_bytes, "writeback_bytes", kPaging, kSum) /* dirty bytes */  \
  X(pages_pinned_peak, "pinned_peak", kPaging, kMax) /* pinned high-water */   \
  X(swizzle_hits, "swizzle_hits", kPaging, kSum) /* reads via direct ptr */    \
  X(swizzle_misses, "swizzle_misses", kPaging, kSum) /* took the slow path */

struct StoreMetrics {
  GSV_COUNTER_SHEET(StoreMetrics, GSV_STORE_METRICS)
};

// An edge whose child OID no longer resolves to an object.
struct DanglingEdge {
  Oid parent;
  Oid child;
  bool operator==(const DanglingEdge& other) const {
    return parent == other.parent && child == other.child;
  }
};

// The graph-structured database engine (paper §2). Holds OEM objects,
// applies the basic updates of §4.1, groups objects into named databases,
// and maintains an optional inverse (parent) index — the index whose
// presence §4.4 identifies as the key cost factor for ancestor().
//
// Thread-compatible: const methods are safe to call concurrently; mutating
// methods require external synchronization.
class ObjectStore {
 public:
  struct Options {
    // Maintain a child -> parents index. Without it, Parents() falls back
    // to a full scan (metered in StoreMetrics::objects_scanned).
    bool enable_parent_index = true;
    // Maintain the label/label-path index (label_index.h) inside every
    // mutation and publish epoch-versioned snapshots. Navigation primitives
    // probe the snapshot instead of walking the graph. Requires the parent
    // index; disabled automatically when enable_parent_index is false.
    bool enable_label_index = true;
    // When true, Remove() records edges left pointing at the removed object
    // in dangling_log() (the paper leaves them dangling; the index skips
    // them, but callers may want to notice).
    bool check_dangling = false;
    // Builds the storage engine backing this store's objects
    // (storage_engine.h). Null selects the memory-resident default. The
    // parent/label indexes, databases, and listeners stay in RAM regardless
    // of engine; only the object bytes go through the seam.
    StorageEngineFactory engine_factory;
  };

  ObjectStore() : ObjectStore(Options()) {}
  explicit ObjectStore(Options options) : options_(std::move(options)) {
    if (!options_.enable_parent_index) options_.enable_label_index = false;
    engine_ = options_.engine_factory ? options_.engine_factory()
                                      : MakeInMemoryEngine();
    engine_->AttachMetrics(&metrics_);
  }

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  // ---- Object creation ----

  // Adds a new object. Fails with kAlreadyExists on a duplicate OID.
  Status Put(Object object);

  // Conveniences building the Object in place.
  Status PutAtomic(const Oid& oid, std::string label, Value value);
  Status PutSet(const Oid& oid, std::string label,
                std::vector<Oid> children = {});

  // Removes an object outright (not a paper basic update; used by GC and
  // materialized-view storage). Also removes it from the parent index and
  // from any databases. Edges *to* it from other objects are left dangling,
  // matching the paper's remark that GC is out of scope.
  Status Remove(const Oid& oid);

  // ---- Lookup ----

  // Returns the object or nullptr. Pointers are invalidated by Put/Remove
  // and by StorageSafePoint() (a paged engine may evict the backing page
  // there; the in-memory engine happens to keep pointers stable, but code
  // must not rely on that).
  const Object* Get(const Oid& oid) const;
  bool Contains(const Oid& oid) const;
  size_t size() const { return engine_->Size(); }

  // All parents of `oid` (objects whose set value contains it). Uses the
  // inverse index when enabled, otherwise a metered full scan.
  std::vector<Oid> Parents(const Oid& oid) const;

  // Iterates every object (unspecified order).
  void ForEach(const std::function<void(const Object&)>& fn) const;

  // Iterates every object in canonical lexicographic OID order — the
  // checkpoint/serialization order. On a paged engine this streams page by
  // page within the pool budget, so a beyond-RAM store can be captured
  // without materializing it. Metered like ForEach.
  void ScanInOrder(const std::function<void(const Object&)>& fn) const;

  // ---- Storage engine (DESIGN.md §4h) ----

  // Declares that the caller holds no Object pointers into this store.
  // A bounded-pool engine evicts back down to its budget here. Warehouse
  // drains, checkpoint writers, and bulk loads call this at their
  // quiescent boundaries; it is always safe (a no-op on memory).
  void StorageSafePoint() { engine_->SafePoint(); }

  // Writes the engine's dirty pages + page directory to its backing files
  // (no-op on memory). WriteCheckpoint calls this so the paged image on
  // disk is complete and CRC-verifiable at every checkpoint.
  Status FlushStorage() { return engine_->Flush(); }

  const char* engine_name() const { return engine_->EngineName(); }
  // The engine itself, for diagnostics probes (wal_inspect, exp19).
  StorageEngine* storage_engine() const { return engine_.get(); }

  // ---- Basic updates (paper §4.1) ----

  // insert(N1,N2): adds N2 to value(N1). N1 must be a set object; N2 must
  // exist. Inserting an already-present child is a no-op (no notification).
  Status Insert(const Oid& parent, const Oid& child);

  // delete(N1,N2): removes N2 from value(N1). Fails with kNotFound if N2
  // was not a child of N1 (state unchanged, no notification).
  Status Delete(const Oid& parent, const Oid& child);

  // modify(N, old, new): replaces the value of atomic object N. The new
  // value must be atomic too (changing a set is modeled as inserts/deletes,
  // §4.1). A modify to an equal value still notifies listeners.
  Status Modify(const Oid& oid, Value new_value);

  // Applies any basic update.
  Status Apply(const Update& update);

  // ---- Log replay (durability subsystem) ----

  // Applies a basic update recorded in a write-ahead log: idempotent and
  // silent. No listener runs (replay must not re-trigger maintenance or
  // monitors), and an update whose precondition no longer holds — parent
  // gone, edge already present/absent — is skipped rather than failed,
  // because an at-least-once log may carry updates the restored state
  // already reflects. Returns true when the store actually changed.
  // Indexes are maintained exactly as by the live path.
  Result<bool> ApplyFromLog(const Update& update);

  // ---- Raw edits (view-storage bookkeeping; NOT basic updates) ----
  //
  // These mutate objects without notifying listeners and without requiring
  // the referenced child to exist in this store (delegate values may hold
  // OIDs of remote base objects, §3.2). MaterializedView and SwizzleManager
  // use them; application code should use the basic updates above.

  // Adds `child` to set object `parent`; no-op if already present.
  Status AddChildRaw(const Oid& parent, const Oid& child);
  // Removes `child` from set object `parent`; no-op if absent.
  Status RemoveChildRaw(const Oid& parent, const Oid& child);
  // Replaces `from` with `to` inside set object `parent` (edge swizzling).
  // No-op if `from` is absent.
  Status ReplaceChildRaw(const Oid& parent, const Oid& from, const Oid& to);
  // Replaces the whole value of `oid` (any type -> any type).
  Status SetValueRaw(const Oid& oid, Value value);

  // ---- Databases (paper §2) ----

  // A database is an ordinary set object whose value lists the members.
  // CreateDatabase makes the object and registers the name; RegisterDatabase
  // names an existing set object.
  Status CreateDatabase(const std::string& name, const Oid& oid,
                        std::string label = "database");
  Status RegisterDatabase(const std::string& name, const Oid& oid);
  // OID of the named database object, or invalid Oid if unknown.
  Oid DatabaseOid(const std::string& name) const;
  // True if `oid` is a member of the named database.
  bool InDatabase(const std::string& name, const Oid& oid) const;
  std::vector<std::string> DatabaseNames() const;

  // ---- Listeners ----

  // Listeners are notified after each applied basic update, in registration
  // order. Not owned. Remove before destroying the listener.
  void AddListener(UpdateListener* listener);
  void RemoveListener(UpdateListener* listener);

  // ---- Garbage collection ----

  // Mark-and-sweep from the given roots plus all database objects; removes
  // unreachable objects. Returns the number collected. (Paper §4.1 notes GC
  // is possible after delete; we provide it as an explicit operation.)
  size_t CollectGarbage(const std::vector<Oid>& extra_roots = {});

  // ---- Label/path index (§4.4 generalised) ----

  // Current immutable index snapshot, or nullptr when the label index is
  // disabled. One atomic shared_ptr load, never the store lock; safe while
  // another thread mutates the store (readers probe the frozen epoch, the
  // writer publishes the next).
  LabelIndexSnapshotPtr AcquireIndexSnapshot() const {
    if (!options_.enable_label_index) return nullptr;
    return label_index_.Acquire();
  }

  // ---- Dangling-edge accounting ----

  // Edges recorded by Remove() while options().check_dangling. Oldest first.
  const std::vector<DanglingEdge>& dangling_log() const {
    return dangling_log_;
  }
  void ClearDanglingLog() { dangling_log_.clear(); }

  // Full audit: scans every set object for edges whose child is missing.
  // Independent of check_dangling; metered as a scan.
  std::vector<DanglingEdge> AuditDanglingEdges() const;

  // ---- Metrics ----
  StoreMetrics& metrics() const { return metrics_; }

  const Options& options() const { return options_; }

 private:
  void Notify(const Update& update);
  void IndexChildren(const Object& object);
  void UnindexChildren(const Object& object);

  // Label-index maintenance. The object lookups inside bypass metrics so
  // index upkeep does not perturb the traversal cost counters.
  const Object* RawGet(const Oid& oid) const;
  void LabelIndexPutObject(const Object& object);
  void LabelIndexRemoveObject(const Object& object);
  void LabelIndexAddEdge(const Object& parent, const Oid& child);
  void LabelIndexRemoveEdge(const Object& parent, const Oid& child);

  Options options_;
  // The bytes behind the objects (storage_engine.h). Const store methods
  // call through the pointer: a paged engine's reads fault pages behind an
  // internal lock, so concurrent const access stays safe.
  std::unique_ptr<StorageEngine> engine_;
  // child -> parents. Maintained only when options_.enable_parent_index.
  // Entries survive Remove() of the child: the surviving parents still hold
  // the dangling edge, and a later re-Put must see them to re-index.
  std::unordered_map<Oid, OidSet, OidHash> parent_index_;
  std::unordered_map<std::string, Oid> databases_;
  std::vector<UpdateListener*> listeners_;
  LabelIndex label_index_;
  std::vector<DanglingEdge> dangling_log_;
  mutable StoreMetrics metrics_;
};

}  // namespace gsv

#endif  // GSV_OEM_STORE_H_
