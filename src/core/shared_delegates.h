#ifndef GSV_CORE_SHARED_DELEGATES_H_
#define GSV_CORE_SHARED_DELEGATES_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/view_definition.h"
#include "core/view_storage.h"
#include "oem/store.h"
#include "oem/update.h"
#include "util/status.h"

namespace gsv {

// Shared delegates (paper §3.2): "the notion of a view cluster avoids
// [multiple delegates for the same base object], by making all views in a
// cluster share delegates". A pool belongs to one owner object, whose value
// lists one delegate "<owner>.<base>" per base object; each delegate is
// reference-counted across the pool's members and goes with the last one.
//
// A view cluster's members each have their own view object, which also
// lists the member's delegates. A §6 union's branches have none: a union is
// a cluster whose members answer to one view object, the owner.
class SharedDelegates {
 public:
  // `store` holds the owner object and the delegates; it must outlive the
  // pool. The owner object must exist before the first V_insert.
  SharedDelegates(ObjectStore* store, Oid owner)
      : store_(store), owner_(std::move(owner)) {}
  // Members hold the pool's address.
  SharedDelegates(const SharedDelegates&) = delete;
  SharedDelegates& operator=(const SharedDelegates&) = delete;

  // Adds a member and returns its ViewStorage (owned by the pool). A valid
  // `view_oid` names the member's own view object, which then lists the
  // member's delegates; otherwise the member answers to the owner object.
  ViewStorage* AddMember(Oid view_oid = Oid());

  Oid DelegateOid(const Oid& base_oid) const {
    return Oid::Delegate(owner_, base_oid);
  }
  // Number of delegates in the pool.
  size_t size() const { return refcounts_.size(); }
  // How many members currently hold `base_oid` (0 if none).
  int RefCount(const Oid& base_oid) const;
  // The base OIDs of every delegate in the pool.
  OidSet Bases() const;

 private:
  class Member;

  Status AcquireDelegate(const Object& base_object);
  Status ReleaseDelegate(const Oid& base_oid);
  // Idempotent, so every member may forward the same update.
  Status SyncShared(const Update& update);

  ObjectStore* store_;
  Oid owner_;
  std::unordered_map<uint32_t, int> refcounts_;  // base OID id -> #members
  std::vector<std::unique_ptr<ViewStorage>> members_;
};

// Applies `update` to the delegate of its parent, `delegate`, by raw edits
// (no listener fires): an inserted child edge is added, a deleted one
// removed, a modified value copied.
Status SyncDelegate(ObjectStore* store, const Oid& delegate,
                    const Update& update);

// The view-object bootstrap: checks that `name` is non-empty and dot-free
// (it prefixes delegate OIDs), creates <name, mview, set, {}> and registers
// it as database `name`. `what` names the kind of view in the error.
Status BootstrapViewObject(ObjectStore* store, std::string_view what,
                           const std::string& name);

// The dot-free name check alone, for an owner object that is not a view.
Status CheckDotFreeName(std::string_view what, const std::string& name);

// The member resolver: evaluates `def` on `base` and calls `fn` with each
// selected object in OID order, stopping at the first error. Each object is
// looked up just before its call, so `fn` may write to `base`.
Status ForEachViewMember(const ObjectStore& base, const ViewDefinition& def,
                         const std::function<Status(const Object&)>& fn);

}  // namespace gsv

#endif  // GSV_CORE_SHARED_DELEGATES_H_
