#ifndef GSV_CORE_VIEW_STORAGE_H_
#define GSV_CORE_VIEW_STORAGE_H_

#include "oem/object.h"
#include "oem/oid.h"
#include "oem/update.h"
#include "oem/value.h"
#include "util/status.h"

namespace gsv {

// The delegate-set operations a maintenance algorithm needs (paper §4.3):
// V_insert(MV, MV.Y) and V_delete(MV, MV.Y), plus membership queries.
// Implemented by MaterializedView (one view, own delegates) and by the
// members of a SharedDelegates pool (shared delegates, §3.2 "view cluster"
// remark): view cluster members and union branches.
class ViewStorage {
 public:
  virtual ~ViewStorage() = default;

  // The view object's OID (the "MV" in delegate OIDs "MV.Y").
  virtual const Oid& view_oid() const = 0;

  // True if the delegate of `base_oid` is currently in the view.
  virtual bool ContainsBase(const Oid& base_oid) const = 0;

  // V_insert: creates the delegate of `base_object` and adds it to the view
  // object's value. Inserting an existing delegate is a no-op (§4.3).
  virtual Status VInsert(const Object& base_object) = 0;

  // V_delete: removes the delegate of `base_oid` from the view. Deleting an
  // absent delegate is a no-op (§4.3).
  virtual Status VDelete(const Oid& base_oid) = 0;

  // Base OIDs of all current members.
  virtual OidSet BaseMembers() const = 0;

  // Propagates a base update into delegate *values* (not membership) so
  // delegates keep the same value as their originals (§3.2). Storage
  // implementations that don't duplicate values may leave this a no-op.
  virtual Status SyncUpdate(const Update& update) {
    (void)update;
    return Status::Ok();
  }

  // Re-copies the delegate value of `base_object` from its current state
  // (recompute, resync and cross-shard refreshes). Storage without values
  // of its own may leave this a no-op.
  virtual Status RefreshDelegate(const Object& base_object) {
    (void)base_object;
    return Status::Ok();
  }
};

}  // namespace gsv

#endif  // GSV_CORE_VIEW_STORAGE_H_
