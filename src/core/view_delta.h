#ifndef GSV_CORE_VIEW_DELTA_H_
#define GSV_CORE_VIEW_DELTA_H_

#include <cstdint>
#include <string>
#include <variant>

#include "core/view_storage.h"
#include "oem/object.h"
#include "oem/oid.h"
#include "oem/update.h"
#include "util/status.h"

namespace gsv {

// The ways maintenance changes a view's delegates: the paper's
// V_insert(MV, MV.Y) and V_delete(MV, MV.Y) (§4.3), the sync that keeps a
// delegate's value equal to its original's (§3.2), and a refresh that
// recopies a delegate's value from the base object. The values are the
// WAL's op bytes.
enum class ViewDeltaOp : uint8_t {
  kVInsert = 1,  // delegate created (payload: base object)
  kVDelete = 2,  // delegate removed (payload: base OID)
  kSync = 3,     // delegate value synced (payload: the base update)
  kRefresh = 4,  // delegate value recopied (payload: base object)
};

// One delegate op and its payload. The same value is buffered by a batch
// worker, shipped to the shard owning its target, logged to the WAL and
// redone by recovery and the follower; ApplyTo is the one map from an op
// to view calls.
class ViewDelta {
 public:
  ViewDelta() = default;  // a V_insert of an empty object
  static ViewDelta VInsert(Object base_object) {
    return ViewDelta(ViewDeltaOp::kVInsert, std::move(base_object));
  }
  static ViewDelta VDelete(Oid base_oid) {
    return ViewDelta(ViewDeltaOp::kVDelete, std::move(base_oid));
  }
  static ViewDelta Sync(Update update) {
    return ViewDelta(ViewDeltaOp::kSync, std::move(update));
  }
  static ViewDelta Refresh(Object base_object) {
    return ViewDelta(ViewDeltaOp::kRefresh, std::move(base_object));
  }

  ViewDeltaOp op() const { return op_; }
  // The base OID the op touches: the member, or for a sync the updated
  // base object.
  const Oid& target() const;
  // The payloads: object() for kVInsert / kRefresh, update() for kSync;
  // a kVDelete carries only its target.
  const Object& object() const { return std::get<Object>(payload_); }
  const Update& update() const { return std::get<Update>(payload_); }

  // Applies the op to `view`. A refresh of an absent delegate is kNotFound.
  Status ApplyTo(ViewStorage* view) const;

  // "vinsert <oid>", "vdelete <oid>", "sync <update>" or "refresh <oid>".
  std::string ToString() const;

 private:
  ViewDelta(ViewDeltaOp op, std::variant<Object, Oid, Update> payload)
      : op_(op), payload_(std::move(payload)) {}

  ViewDeltaOp op_ = ViewDeltaOp::kVInsert;
  std::variant<Object, Oid, Update> payload_;
};

}  // namespace gsv

#endif  // GSV_CORE_VIEW_DELTA_H_
