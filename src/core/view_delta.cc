#include "core/view_delta.h"

namespace gsv {

const Oid& ViewDelta::target() const {
  if (const Object* object = std::get_if<Object>(&payload_)) {
    return object->oid();
  }
  if (const Update* sync = std::get_if<Update>(&payload_)) return sync->parent;
  return std::get<Oid>(payload_);
}

Status ViewDelta::ApplyTo(ViewStorage* view) const {
  switch (op_) {
    case ViewDeltaOp::kVInsert:
      return view->VInsert(object());
    case ViewDeltaOp::kVDelete:
      return view->VDelete(target());
    case ViewDeltaOp::kSync:
      return view->SyncUpdate(update());
    case ViewDeltaOp::kRefresh:
      return view->RefreshDelegate(object());
  }
  return Status::InvalidArgument("unknown view delta op");
}

std::string ViewDelta::ToString() const {
  static const char* const kNames[] = {"", "vinsert", "vdelete", "sync",
                                       "refresh"};
  return std::string(kNames[static_cast<uint8_t>(op_)]) + ' ' +
         (op_ == ViewDeltaOp::kSync ? update().ToString() : target().str());
}

}  // namespace gsv
