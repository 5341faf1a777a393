#include "core/buffered_view.h"

namespace gsv {

bool BufferedViewStorage::ContainsBase(const Oid& base_oid) const {
  auto it = overlay_.find(base_oid);
  if (it != overlay_.end()) return it->second;
  return base_->ContainsBase(base_oid);
}

Status BufferedViewStorage::VInsert(const Object& base_object) {
  if (ContainsBase(base_object.oid())) {
    return Status::Ok();  // the real view would ignore it too (§4.3)
  }
  overlay_[base_object.oid()] = true;
  ops_.push_back(ViewDelta::VInsert(base_object));
  return Status::Ok();
}

Status BufferedViewStorage::VDelete(const Oid& base_oid) {
  if (!ContainsBase(base_oid)) {
    return Status::Ok();  // deleting an absent delegate: no-op (§4.3)
  }
  overlay_[base_oid] = false;
  ops_.push_back(ViewDelta::VDelete(base_oid));
  return Status::Ok();
}

OidSet BufferedViewStorage::BaseMembers() const {
  OidSet members = base_->BaseMembers();
  for (const auto& [oid, present] : overlay_) {
    if (present) {
      members.Insert(oid);
    } else {
      members.Erase(oid);
    }
  }
  return members;
}

Status BufferedViewStorage::SyncUpdate(const Update& update) {
  // Always recorded: whether the sync applies depends on membership at
  // replay time, and the real view's SyncUpdate makes that call.
  ops_.push_back(ViewDelta::Sync(update));
  return Status::Ok();
}

Status BufferedViewStorage::ReplayInto(ViewStorage* target) const {
  Status first_error;
  for (const ViewDelta& delta : ops_) {
    Status status = delta.ApplyTo(target);
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

}  // namespace gsv
