#ifndef GSV_OEM_STORAGE_ENGINE_H_
#define GSV_OEM_STORAGE_ENGINE_H_

#include <functional>
#include <memory>

#include "oem/object.h"
#include "oem/oid.h"
#include "util/status.h"

namespace gsv {

struct StoreMetrics;

// The adapter seam between ObjectStore's logic (basic updates, listeners,
// parent/label indexes, databases) and the bytes that back the objects.
// ObjectStore routes every object access through one of these; everything
// above the store — Warehouse, MaterializedView delegates, auxiliary
// caches, the label/path index base layers — is engine-agnostic.
//
// Two engines ship: InMemoryEngine (memory-resident, a table indexed by
// the dense interned OID id; the default) and PagedEngine
// (oem/paged_engine.h: fixed-size on-disk pages in the checkpoint text
// encoding behind a bounded buffer pool), which takes a warehouse beyond
// RAM.
//
// ## Pointer contract
//
// Get/GetMutable return pointers into engine-resident state. A returned
// pointer stays valid until
//   (a) that object is erased or re-put, or
//   (b) the next SafePoint() on this engine,
// whichever comes first. InMemoryEngine pointers additionally survive safe
// points (each object is its own allocation), but callers must not rely on
// that: code written against the seam treats SafePoint() as invalidating. The
// ObjectStore documents the same contract to its own callers.
//
// ## Thread compatibility
//
// Mirrors ObjectStore: mutating calls (GetMutable/Put/Erase/SafePoint/
// Flush) require external synchronization; read calls (Get/Size/scans) are
// safe concurrently with each other. A paged engine's reads fault pages in
// behind an internal lock, so concurrent readers are safe even though a
// read physically mutates the pool.
class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  // Engine name for diagnostics ("memory", "paged").
  virtual const char* EngineName() const = 0;

  // ---- Point operations ----

  // The object, or nullptr when absent. See the pointer contract above.
  virtual const Object* Get(const Oid& oid) = 0;

  // Mutable access; the engine marks the object's backing page dirty. The
  // caller must not change the object's OID.
  virtual Object* GetMutable(const Oid& oid) = 0;

  // Adds a new object. kAlreadyExists when the OID is present.
  virtual Status Put(Object object) = 0;

  // Removes an object. kNotFound when absent.
  virtual Status Erase(const Oid& oid) = 0;

  virtual size_t Size() const = 0;

  // ---- Scans ----

  // Visits every object in canonical lexicographic OID order (the on-disk
  // and checkpoint order). A paged engine streams page by page, pinning
  // only the page under the cursor, so a full scan of a beyond-RAM store
  // stays within the pool budget. `fn` must not mutate this engine.
  virtual void ScanInOrder(const std::function<void(const Object&)>& fn) = 0;

  // Visits every object in unspecified order. Default: the ordered scan;
  // InMemoryEngine overrides with a walk in id order (no sort).
  virtual void ScanUnordered(const std::function<void(const Object&)>& fn) {
    ScanInOrder(fn);
  }

  // ---- Residency / durability hooks ----

  // Declares a quiescent point: the caller holds no pointers obtained from
  // Get/GetMutable. A bounded-pool engine evicts back down to its budget
  // here (second-chance over unpinned frames); the in-memory engine
  // no-ops. The warehouse calls this at drain/checkpoint boundaries, the
  // replica after applying each commit group, and bulk loads periodically.
  virtual void SafePoint() {}

  // Writes every dirty page and the page directory to the engine's backing
  // files (checkpoint integration; no-op for in-memory). The engine's
  // on-disk image is only guaranteed complete after a Flush.
  virtual Status Flush() { return Status::Ok(); }

  // Points the engine's counters (page faults, evictions, writeback bytes,
  // pinned peak) at the owning store's metrics sheet. Called once by
  // ObjectStore's constructor, before any operation.
  virtual void AttachMetrics(StoreMetrics* metrics) { (void)metrics; }
};

// Builds one engine instance. A factory may be invoked several times (one
// store per shard, one per auxiliary cache); each call must return an
// independent engine.
using StorageEngineFactory = std::function<std::unique_ptr<StorageEngine>()>;

// The default memory-resident engine.
std::unique_ptr<StorageEngine> MakeInMemoryEngine();

}  // namespace gsv

#endif  // GSV_OEM_STORAGE_ENGINE_H_
