#ifndef GSV_CORE_MATERIALIZED_VIEW_H_
#define GSV_CORE_MATERIALIZED_VIEW_H_

#include <cstdint>
#include <vector>

#include "core/view_definition.h"
#include "core/view_delta.h"
#include "core/view_storage.h"
#include "oem/store.h"
#include "oem/update.h"
#include "util/status.h"

namespace gsv {

// A materialized view (paper §3.2): a stored copy of the objects in a view.
// Every base object in the view has a *delegate* — a real object with the
// same label, type and value, whose OID is the semantic concatenation
// "MV.<base>". The view itself is the ordinary set object
// <MV, mview, set, {delegate OIDs}>, registered as a database under the
// view's name so it can be queried like any GSDB (§3.3).
//
class MaterializedView;

// Observer of the *applied* view deltas — exactly the mutations that
// changed this view's materialized state (ignored duplicate V_inserts /
// absent V_deletes do not fire). The warehouse durability subsystem logs
// these to its write-ahead log so recovery can redo maintenance without
// re-running Algorithm 1. Callbacks run synchronously inside the mutation,
// under the same external synchronization as the store write itself.
class ViewDeltaSink {
 public:
  virtual ~ViewDeltaSink() = default;
  virtual void OnDelta(const MaterializedView& view, ViewDelta delta) = 0;
};

// The delegate store may be the same store as the base data (centralized,
// §4) or a different one (warehouse, §5); delegate set values hold base
// OIDs unless edge swizzling is enabled.
class MaterializedView : public ViewStorage {
 public:
  struct Options {
    // Swizzle edges between delegates (§3.2): when a delegate's child also
    // has a delegate in this view, store the child's delegate OID instead
    // of the base OID — and keep that property under V_insert/V_delete.
    bool swizzle = false;
    // Keep delegate values equal to their base objects' values when in-view
    // objects are updated (the paper's standing assumption that "a delegate
    // has the same value as the original object"). Applied via SyncUpdate.
    bool sync_values = true;
    // Perform delegate-set and delegate-value changes through the store's
    // *basic updates* instead of silent raw edits, so listeners on the
    // delegate store observe them. This is what makes stacked views live
    // (§3.1 "define views on views"): an outer view maintained over this
    // view's store sees V_insert/V_delete/sync as ordinary updates.
    // Requires the referenced children to exist in the delegate store
    // (centralized views qualify; dangling references to remote base
    // objects fall back to raw edits). Incompatible with `swizzle`.
    bool emit_basic_updates = false;
  };

  struct Stats {
    int64_t v_inserts = 0;        // delegates created
    int64_t v_deletes = 0;        // delegates removed
    int64_t ignored_inserts = 0;  // V_insert of an existing delegate
    int64_t ignored_deletes = 0;  // V_delete of an absent delegate
  };

  // `view_store` must outlive the view. The view object is not created
  // until Bootstrap()/Initialize().
  MaterializedView(ObjectStore* view_store, ViewDefinition def)
      : MaterializedView(view_store, std::move(def), Options{}) {}
  MaterializedView(ObjectStore* view_store, ViewDefinition def,
                   Options options);

  // Creates the empty view object and registers the view as a database in
  // the delegate store. Call once.
  Status Bootstrap();

  // Initial materialization: ResolveMembers + Materialize.
  Status Initialize(const ObjectStore& base);

  // Initial materialization in two steps, for a caller that must log the
  // definition after everything that can fail and before the first write.
  // ResolveMembers evaluates the defining query on `base` and resolves
  // every member object, writing nothing; Materialize bootstraps the view
  // and creates a delegate per resolved member. The pointers follow the
  // store's pointer contract: no write to or safe point on `base` between
  // the two calls.
  Result<std::vector<const Object*>> ResolveMembers(
      const ObjectStore& base) const;
  Status Materialize(const std::vector<const Object*>& members);

  // Rebinds this view to state already present in the delegate store —
  // the crash-recovery path, where the store was reloaded from a
  // checkpoint image before the view object existed in memory. The view
  // object must exist; membership is re-derived from its delegate
  // children, and the database registration is re-created when the image
  // carried none. Mutually exclusive with Bootstrap()/Initialize().
  Status AdoptExisting();

  // ---- ViewStorage ----
  const Oid& view_oid() const override { return def_.view_oid(); }
  bool ContainsBase(const Oid& base_oid) const override {
    return base_members_.Contains(base_oid);
  }
  Status VInsert(const Object& base_object) override;
  Status VDelete(const Oid& base_oid) override;
  OidSet BaseMembers() const override { return base_members_; }

  // ---- Delegate value synchronization ----

  // Applies the effect of a base update to delegate *values* (not view
  // membership — that is the maintainer's job): a child inserted into /
  // deleted from an in-view set object appears in / disappears from its
  // delegate; a modify of an in-view atomic object updates its delegate.
  // No-op when options.sync_values is false.
  Status SyncUpdate(const Update& update) override;

  // kNotFound when `base_object` has no delegate here.
  Status RefreshDelegate(const Object& base_object) override;

  // ---- Introspection ----
  const ViewDefinition& def() const { return def_; }
  const ObjectStore& store() const { return *store_; }
  ObjectStore& mutable_store() { return *store_; }
  const Options& options() const { return options_; }
  const Stats& stats() const { return stats_; }
  size_t size() const { return base_members_.size(); }

  // The delegate OID of `base_oid` in this view.
  Oid DelegateOid(const Oid& base_oid) const {
    return Oid::Delegate(view_oid(), base_oid);
  }

  // Installs an applied-delta observer (nullptr detaches). Not owned; must
  // outlive its installation.
  void set_delta_sink(ViewDeltaSink* sink) { delta_sink_ = sink; }
  ViewDeltaSink* delta_sink() const { return delta_sink_; }

 private:
  // Copies `value`, swizzling child OIDs that have delegates (when enabled).
  Value DelegateValue(const Value& value) const;

  ObjectStore* store_;
  ViewDefinition def_;
  Options options_;
  OidSet base_members_;
  Stats stats_;
  ViewDeltaSink* delta_sink_ = nullptr;
  bool bootstrapped_ = false;
};

}  // namespace gsv

#endif  // GSV_CORE_MATERIALIZED_VIEW_H_
