#include "warehouse/update_event.h"

#include <sstream>

namespace gsv {

const char* ReportingLevelName(ReportingLevel level) {
  switch (level) {
    case ReportingLevel::kOidsOnly:
      return "oids-only";
    case ReportingLevel::kWithValues:
      return "with-values";
    case ReportingLevel::kWithRootPath:
      return "with-root-path";
  }
  return "unknown";
}

Update UpdateEvent::ToUpdate() const {
  switch (kind) {
    case UpdateKind::kInsert:
      return Update::Insert(parent, child);
    case UpdateKind::kDelete:
      return Update::Delete(parent, child);
    case UpdateKind::kModify:
      return Update::Modify(parent, old_value.value_or(Value()),
                            new_value.value_or(Value()));
  }
  return Update();
}

Update UpdateEvent::ToUpdateAt(const ObjectStore& store) const {
  Update update = ToUpdate();
  if (kind != UpdateKind::kModify) return update;
  const Object* object = store.Get(parent);
  if (object != nullptr && object->IsAtomic()) update.new_value = object->value();
  return update;
}

std::string UpdateEvent::ToString() const {
  std::ostringstream out;
  out << UpdateKindName(kind) << "(" << parent.str();
  if (kind != UpdateKind::kModify) out << ", " << child.str();
  out << ") [" << ReportingLevelName(level) << "]";
  if (root_path.has_value()) {
    out << " path=" << root_path->labels.ToString();
  }
  return out.str();
}

}  // namespace gsv
