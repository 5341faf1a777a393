#include "core/shared_delegates.h"

#include "core/virtual_view.h"

namespace gsv {

// Membership of one member; delegate objects are shared through the pool.
class SharedDelegates::Member : public ViewStorage {
 public:
  Member(SharedDelegates* pool, Oid view_oid)
      : pool_(pool), view_oid_(std::move(view_oid)) {}

  const Oid& view_oid() const override {
    return view_oid_.valid() ? view_oid_ : pool_->owner_;
  }

  bool ContainsBase(const Oid& base_oid) const override {
    return members_.Contains(base_oid);
  }

  Status VInsert(const Object& base_object) override {
    if (ContainsBase(base_object.oid())) return Status::Ok();
    GSV_RETURN_IF_ERROR(pool_->AcquireDelegate(base_object));
    if (view_oid_.valid()) {
      GSV_RETURN_IF_ERROR(pool_->store_->AddChildRaw(
          view_oid_, pool_->DelegateOid(base_object.oid())));
    }
    members_.Insert(base_object.oid());
    return Status::Ok();
  }

  Status VDelete(const Oid& base_oid) override {
    if (!ContainsBase(base_oid)) return Status::Ok();
    if (view_oid_.valid()) {
      GSV_RETURN_IF_ERROR(pool_->store_->RemoveChildRaw(
          view_oid_, pool_->DelegateOid(base_oid)));
    }
    GSV_RETURN_IF_ERROR(pool_->ReleaseDelegate(base_oid));
    members_.Erase(base_oid);
    return Status::Ok();
  }

  OidSet BaseMembers() const override { return members_; }

  Status SyncUpdate(const Update& update) override {
    return pool_->SyncShared(update);
  }

 private:
  SharedDelegates* pool_;
  Oid view_oid_;  // invalid: the member answers to the owner object
  OidSet members_;
};

ViewStorage* SharedDelegates::AddMember(Oid view_oid) {
  members_.push_back(std::make_unique<Member>(this, std::move(view_oid)));
  return members_.back().get();
}

int SharedDelegates::RefCount(const Oid& base_oid) const {
  auto it = refcounts_.find(base_oid.id());
  return it == refcounts_.end() ? 0 : it->second;
}

OidSet SharedDelegates::Bases() const {
  std::vector<Oid> bases;
  bases.reserve(refcounts_.size());
  for (const auto& [id, count] : refcounts_) bases.push_back(Oid::FromId(id));
  return OidSet(std::move(bases));
}

Status SharedDelegates::AcquireDelegate(const Object& base_object) {
  int& count = refcounts_[base_object.oid().id()];
  if (count == 0) {
    Oid delegate_oid = DelegateOid(base_object.oid());
    GSV_RETURN_IF_ERROR(store_->Put(
        Object(delegate_oid, base_object.label(), base_object.value())));
    GSV_RETURN_IF_ERROR(store_->AddChildRaw(owner_, delegate_oid));
  }
  ++count;
  return Status::Ok();
}

Status SharedDelegates::ReleaseDelegate(const Oid& base_oid) {
  auto it = refcounts_.find(base_oid.id());
  if (it == refcounts_.end() || it->second <= 0) {
    return Status::Internal("release of unreferenced delegate for " +
                            base_oid.str());
  }
  if (--it->second == 0) {
    refcounts_.erase(it);
    Oid delegate_oid = DelegateOid(base_oid);
    GSV_RETURN_IF_ERROR(store_->RemoveChildRaw(owner_, delegate_oid));
    GSV_RETURN_IF_ERROR(store_->Remove(delegate_oid));
  }
  return Status::Ok();
}

Status SharedDelegates::SyncShared(const Update& update) {
  if (RefCount(update.parent) == 0) return Status::Ok();
  return SyncDelegate(store_, DelegateOid(update.parent), update);
}

Status SyncDelegate(ObjectStore* store, const Oid& delegate,
                    const Update& update) {
  switch (update.kind) {
    case UpdateKind::kInsert:
      return store->AddChildRaw(delegate, update.child);
    case UpdateKind::kDelete:
      return store->RemoveChildRaw(delegate, update.child);
    case UpdateKind::kModify:
      return store->SetValueRaw(delegate, update.new_value);
  }
  return Status::InvalidArgument("unknown update kind");
}

Status CheckDotFreeName(std::string_view what, const std::string& name) {
  if (name.empty() || name.find('.') != std::string::npos) {
    return Status::InvalidArgument(std::string(what) + " name '" + name +
                                   "' must be non-empty and dot-free");
  }
  return Status::Ok();
}

Status BootstrapViewObject(ObjectStore* store, std::string_view what,
                           const std::string& name) {
  GSV_RETURN_IF_ERROR(CheckDotFreeName(what, name));
  const Oid view_oid(name);
  GSV_RETURN_IF_ERROR(
      store->Put(Object(view_oid, "mview", Value::Set(OidSet()))));
  return store->RegisterDatabase(name, view_oid);
}

Status ForEachViewMember(const ObjectStore& base, const ViewDefinition& def,
                         const std::function<Status(const Object&)>& fn) {
  GSV_ASSIGN_OR_RETURN(OidSet members, EvaluateView(base, def));
  for (const Oid& oid : members) {
    const Object* object = base.Get(oid);
    if (object == nullptr) {
      return Status::Internal("view member " + oid.str() +
                              " missing from base store");
    }
    GSV_RETURN_IF_ERROR(fn(*object));
  }
  return Status::Ok();
}

}  // namespace gsv
