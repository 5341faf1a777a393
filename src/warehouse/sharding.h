#ifndef GSV_WAREHOUSE_SHARDING_H_
#define GSV_WAREHOUSE_SHARDING_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/materialized_view.h"
#include "core/view_delta.h"
#include "core/view_storage.h"
#include "oem/object.h"
#include "oem/oid.h"
#include "oem/update.h"
#include "warehouse/cost_model.h"
#include "warehouse/update_event.h"

namespace gsv {

// Shard participation for a partitioned warehouse.
//
// The interned 4-byte OID space makes ownership a mask: shard
// `mix(oid.id()) & (K-1)` owns the object, for K a power of two. Interned
// ids are dense (allocation order), which follows graph construction order
// — siblings and cousins sit at *regular strides*, so masking raw ids
// clusters structurally-related objects (e.g. every leaf-level parent of a
// uniform tree) onto a couple of residues and starves the other shards. A
// Fibonacci multiply plus an xor-fold decorrelates the stride before the
// mask, keeping the split near-uniform for any population. Every shard
// warehouse materializes exactly the members it owns; the union over
// shards — disjoint by construction — is the full view, and merging
// per-shard members in canonical lexicographic OID order reproduces the
// 1-shard answer byte-for-byte.

inline uint32_t ShardOfOid(const Oid& oid, uint32_t shard_mask) {
  uint32_t h = oid.id() * 2654435761u;  // 2^32 / golden ratio
  h ^= h >> 16;                         // fold entropy into the masked bits
  return h & shard_mask;
}

// Routing anchor of an update event. Modifies route by the modified
// object. Inserts and deletes route by the *child*: a long update stream
// concentrates structural changes on a few hub parents (the root of an
// eroding tree ends up absorbing a large share of attach/detach traffic),
// and parent-routing would serialize that share onto one shard; children
// are diverse (fresh objects, detached subtree roots), so child-routing
// keeps the load near-uniform. Ordering stays safe: every event on the
// same edge (N1, N2) shares its anchor, so edge-level insert/delete pairs
// stay in one per-shard sequence domain, and the evaluating shard exports
// whatever it derives for members it does not own.
inline uint32_t RouteShardOf(const UpdateEvent& event, uint32_t shard_mask) {
  const Oid& anchor = event.child.valid() ? event.child : event.parent;
  return ShardOfOid(anchor, shard_mask);
}

// The shard that runs a §6 view's discrimination network (its host): the
// owner of the view object. Derived, never stored, so recovery recomputes
// it. The router forwards every event of the view's source to the host,
// and the host's network is the view's one producer of ops.
inline uint32_t HostShardOf(const ViewDefinition& def, uint32_t shard_mask) {
  return ShardOfOid(def.view_oid(), shard_mask);
}

// A view operation produced at one shard for a member another shard owns:
// it lands at ShardOfOid(delta.target()). Maintenance evaluates against
// the frozen final source state, so the op is correct wherever it lands;
// the coordinator redistributes outboxes to the owning shards between the
// evaluation barrier and the verification sweep. The set is kVDelete,
// kSync and kRefresh: a foreign insert travels as kRefresh (see
// ShardScopedStorage::VInsert).
struct ForeignViewOp {
  std::string view;  // view (definition) name, identical across shards
  ViewDelta delta;
};

// Answers cross-shard membership questions. Algorithm 1's delete cases
// consult ContainsBase on members the evaluating shard may not own ("if Y
// in MV"); the resolver is the cross-shard accessor stub that answers for
// the whole warehouse. During a coordinated drain the coordinator freezes a
// membership snapshot (evaluation reads a consistent pre-drain state, like
// any two parallel batch workers); an inline event, drained alone at its
// owning shard, probes the owner live.
class CrossShardResolver {
 public:
  virtual ~CrossShardResolver() = default;
  // True when `base` is currently a member of `view` in any shard.
  virtual bool ViewContains(const std::string& view, const Oid& base) const = 0;
  // The members of `view` across all shards. A §6 host reconciles its
  // network against the whole view, so peers' stale members get deleted.
  virtual OidSet ViewMembers(const std::string& view) const = 0;
};

// ViewStorage decorator that scopes one shard's slice of a view: owned
// operations go to the wrapped MaterializedView, foreign ones are exported
// to the shard's outbox, and foreign membership reads go through the
// resolver. The maintenance stack (Algorithm 1, batch buffers, level-1
// rechecks) runs unchanged on top of it.
class ShardScopedStorage : public ViewStorage {
 public:
  ShardScopedStorage(MaterializedView* inner, const ObjectStore* source,
                     uint32_t shard_index, uint32_t shard_mask,
                     const CrossShardResolver* resolver,
                     std::vector<ForeignViewOp>* outbox, WarehouseCosts* costs)
      : inner_(inner),
        source_(source),
        shard_index_(shard_index),
        shard_mask_(shard_mask),
        resolver_(resolver),
        outbox_(outbox),
        costs_(costs) {}

  bool Owns(const Oid& base_oid) const {
    return ShardOfOid(base_oid, shard_mask_) == shard_index_;
  }

  // ---- ViewStorage ----
  const Oid& view_oid() const override { return inner_->view_oid(); }

  bool ContainsBase(const Oid& base_oid) const override {
    if (Owns(base_oid)) return inner_->ContainsBase(base_oid);
    ++costs_->cross_shard_probes;
    return resolver_ != nullptr &&
           resolver_->ViewContains(inner_->def().name(), base_oid);
  }

  // A V_insert delegates the source's drain-end object, not the event's
  // snapshot of it: an owner applies its own ops before its peers', so a
  // peer's insert can land after the owner dropped a later update's sync
  // for a non-member. Cross-shard the insert travels as kRefresh, an
  // upsert (Warehouse::ApplyForeignOps), so the order the ops land in no
  // longer matters. The source read is unmetered, like the GDN's.
  Status VInsert(const Object& base_object) override {
    const Object* current = source_->Get(base_object.oid());
    const Object& object = current != nullptr ? *current : base_object;
    if (Owns(object.oid())) return inner_->VInsert(object);
    return Export(ViewDelta::Refresh(object));
  }

  Status VDelete(const Oid& base_oid) override {
    if (Owns(base_oid)) return inner_->VDelete(base_oid);
    return Export(ViewDelta::VDelete(base_oid));
  }

  // The whole view: the owned slice, plus the foreign members the resolver
  // knows. Only GdnEngine::Reconcile reads it, on the view's host shard.
  OidSet BaseMembers() const override {
    if (resolver_ == nullptr) return inner_->BaseMembers();
    std::vector<Oid> foreign;
    for (const Oid& member : resolver_->ViewMembers(inner_->def().name())) {
      if (!Owns(member)) foreign.push_back(member);
    }
    return OidSet::Union(inner_->BaseMembers(), OidSet(std::move(foreign)));
  }

  Status SyncUpdate(const Update& update) override {
    if (Owns(update.parent)) return inner_->SyncUpdate(update);
    return Export(ViewDelta::Sync(update));
  }

 private:
  Status Export(ViewDelta delta) {
    ++costs_->cross_shard_exports;
    outbox_->push_back({inner_->def().name(), std::move(delta)});
    return Status::Ok();
  }

  MaterializedView* inner_;
  const ObjectStore* source_;
  uint32_t shard_index_;
  uint32_t shard_mask_;
  const CrossShardResolver* resolver_;
  std::vector<ForeignViewOp>* outbox_;
  WarehouseCosts* costs_;
};

// Canonical per-member content lines of one view slice: (base OID, "label
// value") in lexicographic base-OID order. The sharded coordinator merges
// the slices of all shards; a 1-shard warehouse's single slice produces the
// byte-identical result — the twin tests compare exactly these strings.
std::vector<std::pair<Oid, std::string>> ViewContentLines(
    const MaterializedView& view);

// Merges per-shard ViewContentLines runs (each sorted, pairwise disjoint)
// into one run in lexicographic OID order — the 1-shard answer.
std::vector<std::pair<Oid, std::string>> MergeContentLineRuns(
    std::vector<std::vector<std::pair<Oid, std::string>>> runs);

}  // namespace gsv

#endif  // GSV_WAREHOUSE_SHARDING_H_
