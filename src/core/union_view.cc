#include "core/union_view.h"

namespace gsv {

UnionView::UnionView(ObjectStore* view_store, std::string name,
                     BaseAccessor* accessor)
    : store_(view_store),
      name_(std::move(name)),
      view_oid_(name_),
      accessor_(accessor),
      delegates_(view_store, view_oid_),
      listener_(this) {}

Status UnionView::Bootstrap() {
  if (bootstrapped_) {
    return Status::FailedPrecondition("union view " + name_ +
                                      " already bootstrapped");
  }
  GSV_RETURN_IF_ERROR(BootstrapViewObject(store_, "union view", name_));
  bootstrapped_ = true;
  return Status::Ok();
}

Status UnionView::AddBranch(const ViewDefinition& def,
                            const ObjectStore& base, Oid root) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("union view " + name_ +
                                      " not bootstrapped");
  }
  GSV_RETURN_IF_ERROR(Algorithm1Maintainer::ValidateDefinition(def));
  // A branch has no view object of its own: it answers to the union's.
  ViewStorage* storage = delegates_.AddMember();
  auto maintainer = std::make_unique<Algorithm1Maintainer>(
      storage, accessor_, def, std::move(root));
  GSV_RETURN_IF_ERROR(ForEachViewMember(
      base, def,
      [storage](const Object& object) { return storage->VInsert(object); }));
  branches_.push_back(std::move(maintainer));
  return Status::Ok();
}

Status UnionView::Maintain(const Update& update) {
  for (auto& branch : branches_) {
    GSV_RETURN_IF_ERROR(branch->Maintain(update));
  }
  return Status::Ok();
}

}  // namespace gsv
