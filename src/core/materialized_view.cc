#include "core/materialized_view.h"

#include "core/virtual_view.h"

namespace gsv {

MaterializedView::MaterializedView(ObjectStore* view_store, ViewDefinition def,
                                   Options options)
    : store_(view_store), def_(std::move(def)), options_(options) {}

Status MaterializedView::Bootstrap() {
  if (bootstrapped_) {
    return Status::FailedPrecondition("view " + def_.name() +
                                      " already bootstrapped");
  }
  if (options_.emit_basic_updates && options_.swizzle) {
    return Status::InvalidArgument(
        "emit_basic_updates is incompatible with swizzle (swizzling is "
        "view-internal bookkeeping, not base updates)");
  }
  GSV_RETURN_IF_ERROR(
      store_->Put(Object(view_oid(), "mview", Value::Set(OidSet()))));
  GSV_RETURN_IF_ERROR(store_->RegisterDatabase(def_.name(), view_oid()));
  bootstrapped_ = true;
  return Status::Ok();
}

Status MaterializedView::Initialize(const ObjectStore& base) {
  GSV_ASSIGN_OR_RETURN(std::vector<const Object*> members,
                       ResolveMembers(base));
  return Materialize(members);
}

Result<std::vector<const Object*>> MaterializedView::ResolveMembers(
    const ObjectStore& base) const {
  GSV_ASSIGN_OR_RETURN(OidSet members, EvaluateView(base, def_));
  std::vector<const Object*> objects;
  objects.reserve(members.size());
  for (const Oid& oid : members) {
    const Object* object = base.Get(oid);
    if (object == nullptr) {
      return Status::Internal("view member " + oid.str() +
                              " missing from base store");
    }
    objects.push_back(object);
  }
  return objects;
}

Status MaterializedView::Materialize(
    const std::vector<const Object*>& members) {
  GSV_RETURN_IF_ERROR(Bootstrap());
  for (const Object* object : members) {
    GSV_RETURN_IF_ERROR(VInsert(*object));
  }
  return Status::Ok();
}

Status MaterializedView::AdoptExisting() {
  if (bootstrapped_) {
    return Status::FailedPrecondition("view " + def_.name() +
                                      " already bootstrapped");
  }
  const Object* view_object = store_->Get(view_oid());
  if (view_object == nullptr) {
    return Status::NotFound("view object " + view_oid().str() +
                            " not in the delegate store");
  }
  if (!view_object->IsSet()) {
    return Status::FailedPrecondition("view object " + view_oid().str() +
                                      " must have set type");
  }
  if (!store_->DatabaseOid(def_.name()).valid()) {
    GSV_RETURN_IF_ERROR(store_->RegisterDatabase(def_.name(), view_oid()));
  }
  base_members_.clear();
  for (const Oid& delegate : view_object->children()) {
    if (!delegate.IsDelegateOf(view_oid())) {
      return Status::Internal("view object " + view_oid().str() +
                              " holds non-delegate child " + delegate.str());
    }
    base_members_.Insert(delegate.BaseIn(view_oid()));
  }
  bootstrapped_ = true;
  return Status::Ok();
}

Value MaterializedView::DelegateValue(const Value& value) const {
  if (!value.IsSet()) return value;
  OidSet children;
  for (const Oid& child : value.AsSet()) {
    if (options_.swizzle && ContainsBase(child)) {
      children.Insert(DelegateOid(child));
    } else {
      children.Insert(child);
    }
  }
  return Value::Set(std::move(children));
}

Status MaterializedView::VInsert(const Object& base_object) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("view " + def_.name() +
                                      " not bootstrapped");
  }
  const Oid& base_oid = base_object.oid();
  if (ContainsBase(base_oid)) {
    ++stats_.ignored_inserts;
    return Status::Ok();  // paper §4.3: duplicate V_insert is ignored
  }
  Oid delegate_oid = DelegateOid(base_oid);
  GSV_RETURN_IF_ERROR(store_->Put(Object(
      delegate_oid, base_object.label(), DelegateValue(base_object.value()))));
  if (options_.emit_basic_updates) {
    GSV_RETURN_IF_ERROR(store_->Insert(view_oid(), delegate_oid));
  } else {
    GSV_RETURN_IF_ERROR(store_->AddChildRaw(view_oid(), delegate_oid));
  }
  base_members_.Insert(base_oid);
  ++stats_.v_inserts;
  if (delta_sink_ != nullptr) {
    delta_sink_->OnDelta(*this, ViewDelta::VInsert(base_object));
  }

  if (options_.swizzle) {
    // Re-swizzle: delegates of this view that reference base_oid now point
    // at the new delegate. The delegate store's inverse index finds them.
    for (const Oid& parent : store_->Parents(base_oid)) {
      if (parent.IsDelegateOf(view_oid()) &&
          ContainsBase(parent.BaseIn(view_oid()))) {
        GSV_RETURN_IF_ERROR(
            store_->ReplaceChildRaw(parent, base_oid, delegate_oid));
      }
    }
  }
  return Status::Ok();
}

Status MaterializedView::VDelete(const Oid& base_oid) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("view " + def_.name() +
                                      " not bootstrapped");
  }
  if (!ContainsBase(base_oid)) {
    ++stats_.ignored_deletes;
    return Status::Ok();  // paper §4.3: deleting an absent delegate: no-op
  }
  Oid delegate_oid = DelegateOid(base_oid);
  if (options_.swizzle) {
    // Unswizzle: edges to the departing delegate revert to the base OID.
    for (const Oid& parent : store_->Parents(delegate_oid)) {
      if (parent == view_oid()) continue;
      GSV_RETURN_IF_ERROR(
          store_->ReplaceChildRaw(parent, delegate_oid, base_oid));
    }
  }
  if (options_.emit_basic_updates) {
    // Notify while the delegate still exists, then drop the object.
    GSV_RETURN_IF_ERROR(store_->Delete(view_oid(), delegate_oid));
  } else {
    GSV_RETURN_IF_ERROR(store_->RemoveChildRaw(view_oid(), delegate_oid));
  }
  GSV_RETURN_IF_ERROR(store_->Remove(delegate_oid));
  base_members_.Erase(base_oid);
  ++stats_.v_deletes;
  if (delta_sink_ != nullptr) {
    delta_sink_->OnDelta(*this, ViewDelta::VDelete(base_oid));
  }
  return Status::Ok();
}

Status MaterializedView::SyncUpdate(const Update& update) {
  if (!options_.sync_values) return Status::Ok();
  if (!ContainsBase(update.parent)) return Status::Ok();
  if (delta_sink_ != nullptr) {
    delta_sink_->OnDelta(*this, ViewDelta::Sync(update));
  }
  switch (update.kind) {
    case UpdateKind::kInsert: {
      Oid delegate = DelegateOid(update.parent);
      Oid child = (options_.swizzle && ContainsBase(update.child))
                      ? DelegateOid(update.child)
                      : update.child;
      if (options_.emit_basic_updates && store_->Contains(child)) {
        return store_->Insert(delegate, child);
      }
      return store_->AddChildRaw(delegate, child);
    }
    case UpdateKind::kDelete: {
      Oid delegate = DelegateOid(update.parent);
      if (options_.emit_basic_updates) {
        const Object* object = store_->Get(delegate);
        if (object != nullptr && object->IsSet() &&
            object->children().Contains(update.child)) {
          return store_->Delete(delegate, update.child);
        }
      }
      // The stored edge may be in base or swizzled form; remove either.
      GSV_RETURN_IF_ERROR(store_->RemoveChildRaw(delegate, update.child));
      return store_->RemoveChildRaw(delegate, DelegateOid(update.child));
    }
    case UpdateKind::kModify: {
      Oid delegate = DelegateOid(update.parent);
      if (options_.emit_basic_updates) {
        const Object* object = store_->Get(delegate);
        if (object != nullptr && object->IsAtomic()) {
          return store_->Modify(delegate, update.new_value);
        }
      }
      return store_->SetValueRaw(delegate, update.new_value);
    }
  }
  return Status::InvalidArgument("unknown update kind");
}

Status MaterializedView::RefreshDelegate(const Object& base_object) {
  if (!ContainsBase(base_object.oid())) {
    return Status::NotFound("no delegate for " + base_object.oid().str());
  }
  GSV_RETURN_IF_ERROR(store_->SetValueRaw(DelegateOid(base_object.oid()),
                                          DelegateValue(base_object.value())));
  if (delta_sink_ != nullptr) {
    delta_sink_->OnDelta(*this, ViewDelta::Refresh(base_object));
  }
  return Status::Ok();
}

}  // namespace gsv
