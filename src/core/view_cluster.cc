#include "core/view_cluster.h"

namespace gsv {

ViewCluster::ViewCluster(ObjectStore* store, std::string name)
    : store_(store),
      name_(std::move(name)),
      cluster_oid_(name_),
      delegates_(store, cluster_oid_) {}

Status ViewCluster::Bootstrap() {
  if (bootstrapped_) {
    return Status::FailedPrecondition("cluster " + name_ +
                                      " already bootstrapped");
  }
  GSV_RETURN_IF_ERROR(CheckDotFreeName("cluster", name_));
  GSV_RETURN_IF_ERROR(
      store_->Put(Object(cluster_oid_, "cluster", Value::Set(OidSet()))));
  bootstrapped_ = true;
  return Status::Ok();
}

Result<ViewStorage*> ViewCluster::AddView(const ViewDefinition& def) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("cluster " + name_ +
                                      " not bootstrapped");
  }
  GSV_RETURN_IF_ERROR(BootstrapViewObject(store_, "view", def.name()));
  members_.emplace_back(def, delegates_.AddMember(def.view_oid()));
  return members_.back().second;
}

Status ViewCluster::InitializeAll(const ObjectStore& base) {
  for (const auto& [def, storage] : members_) {
    GSV_RETURN_IF_ERROR(ForEachViewMember(
        base, def,
        [storage](const Object& object) { return storage->VInsert(object); }));
  }
  return Status::Ok();
}

}  // namespace gsv
