#ifndef GSV_WAREHOUSE_AUX_CACHE_H_
#define GSV_WAREHOUSE_AUX_CACHE_H_

#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "oem/store.h"
#include "path/path.h"
#include "util/status.h"
#include "warehouse/update_event.h"
#include "warehouse/wrapper.h"

namespace gsv {

// The auxiliary structure of §5.2 (Example 10): "for a view whose select
// path starts from object OBJ, the warehouse caches all objects and labels
// reachable from OBJ along sel_path.cond_path. Then the warehouse can
// maintain the view locally, for any base update."
//
// The cache is itself a small GSDB ("the auxiliary data is simply another
// materialized view") holding the *corridor*: the root plus every source
// object whose derivation path is a prefix of sel_path.cond_path. It is
// kept current from the update events, querying the wrapper only when an
// insert attaches a subtree whose corridor content the event doesn't carry
// (Example 10: "the direct subobjects of P") — those queries are metered as
// cache_maintenance_queries.
//
// Partial caching (§5.2: "the warehouse may choose to cache part of the
// above structure, e.g. without the values of atomic nodes") is the
// kLabelsOnly mode: structure and labels cached, atomic values not — so
// condition tests still query the source for values.
class AuxiliaryCache {
 public:
  enum class Mode {
    kLabelsOnly,  // partial caching: no atomic values
    kFull,        // everything: fully local maintenance
  };

  // `engine_factory` builds the storage engine backing the corridor store
  // (null = memory default); a beyond-RAM warehouse pages its caches too.
  AuxiliaryCache(Mode mode, Oid root, Path corridor,
                 StorageEngineFactory engine_factory = nullptr);

  // Loads the corridor by querying the source (metered).
  Status Initialize(SourceWrapper* wrapper);

  // Discards all cached content. Used by the resync path: after a view is
  // rebuilt from a full recompute, the corridor is reloaded from the
  // now-reachable source rather than patched from missed events.
  void Reset();

  // Applies one reported update; queries `wrapper` only for corridor
  // content the event does not carry.
  //
  // A delete updates corridor *membership* immediately but defers the
  // physical removal of detached objects until Prune(): Algorithm 1's
  // delete case still needs to evaluate the detached subtree (its eval
  // over the just-removed edge's child), while candidate verification must
  // already see the post-delete reachability. The warehouse calls Prune()
  // after maintenance finishes.
  Status OnEvent(const UpdateEvent& event, SourceWrapper* wrapper);

  // Drops cached objects that are no longer on the corridor.
  void Prune();

  // Declares a storage quiescent point on the corridor store (see
  // ObjectStore::StorageSafePoint): a paged engine may shrink back to its
  // buffer-pool budget here. The warehouse calls this at drain boundaries.
  void StorageSafePoint() { store_.StorageSafePoint(); }

  // ---- Locally answered accessor operations ----

  bool OnCorridor(const Oid& oid) const { return depths_.count(oid.str()) > 0; }

  // All derivation paths root→n that are corridor prefixes. (Corridor
  // labels are fixed, so the path at depth d is corridor.Prefix(d).) An
  // uncached n has no corridor derivation — the complete answer for
  // prefix-matching purposes.
  std::vector<Path> CorridorPathsFromRoot(const Oid& n) const;

  // ancestor(n, p) within the corridor.
  std::vector<Oid> Ancestors(const Oid& n, const Path& p) const;

  // True iff path(root, y) includes exactly the corridor prefix `p`.
  bool VerifyPath(const Oid& y, const Path& p) const;

  // Objects in n.p along the corridor, with values. Returns nullopt when a
  // needed atomic value is not cached (kLabelsOnly) — the caller must then
  // query the source.
  std::optional<std::vector<Object>> EvalObjects(const Oid& n,
                                                 const Path& p) const;

  // The cached object, if its value is fully known.
  Result<Object> Fetch(const Oid& oid) const;

  const ObjectStore& store() const { return store_; }
  size_t size() const { return depths_.size(); }
  Mode mode() const { return mode_; }

  // ---- Persistence (durability subsystem) ----
  //
  // The cache state round-trips as text: the known-value OID list plus the
  // corridor store in the oem/serialize format, both in sorted order so the
  // bytes are deterministic for a given corridor state. Mode, root and
  // corridor path come from the constructor (the checkpoint manifest
  // records them with the view definition); LoadFrom rebuilds the depth map
  // from the reloaded store.

  // Writes the cache state to `out` (deterministic bytes).
  Status SaveTo(std::ostream& out) const;
  // Restores state saved by SaveTo into this (freshly constructed or
  // Reset) cache, then recomputes corridor membership.
  Status LoadFrom(std::istream& in);

 private:
  // Adds `object` to the corridor at `depth` and recursively pulls its
  // corridor descendants through the wrapper.
  Status AddToCorridor(const Object& object, size_t depth,
                       SourceWrapper* wrapper);
  // Re-derives corridor membership inside the cache.
  void RecomputeMembership();
  // True if the atomic value of `oid` is cached.
  bool ValueKnown(const Oid& oid) const;

  Mode mode_;
  Oid root_;
  Path corridor_;
  ObjectStore store_;
  // OID -> corridor depths (a DAG object can appear at several).
  std::unordered_map<std::string, std::set<size_t>> depths_;
  // Atomic OIDs whose cached value is real (always true in kFull mode).
  OidSet values_known_;
};

}  // namespace gsv

#endif  // GSV_WAREHOUSE_AUX_CACHE_H_
