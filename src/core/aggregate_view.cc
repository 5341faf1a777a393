#include "core/aggregate_view.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "core/shared_delegates.h"
#include "path/navigate.h"

namespace gsv {

const char* AggregateView::KindName(Kind kind) {
  switch (kind) {
    case Kind::kCount:
      return "count";
    case Kind::kSum:
      return "sum";
    case Kind::kMin:
      return "min";
    case Kind::kMax:
      return "max";
  }
  return "aggregate";
}

// Creates/destroys the synthetic aggregate delegates as membership changes.
class AggregateView::Storage : public ViewStorage {
 public:
  explicit Storage(AggregateView* owner) : owner_(owner) {}

  const Oid& view_oid() const override { return owner_->view_oid_; }
  bool ContainsBase(const Oid& base_oid) const override {
    return members_.Contains(base_oid);
  }
  OidSet BaseMembers() const override { return members_; }

  Status VInsert(const Object& base_object) override {
    const Oid& member = base_object.oid();
    if (ContainsBase(member)) return Status::Ok();
    GSV_ASSIGN_OR_RETURN(Value aggregate, owner_->ComputeAggregate(member));
    Oid delegate = owner_->DelegateOid(member);
    GSV_RETURN_IF_ERROR(owner_->store_->Put(
        Object(delegate, KindName(owner_->kind_), std::move(aggregate))));
    GSV_RETURN_IF_ERROR(
        owner_->store_->AddChildRaw(owner_->view_oid_, delegate));
    members_.Insert(member);
    return Status::Ok();
  }

  Status VDelete(const Oid& base_oid) override {
    if (!ContainsBase(base_oid)) return Status::Ok();
    Oid delegate = owner_->DelegateOid(base_oid);
    GSV_RETURN_IF_ERROR(
        owner_->store_->RemoveChildRaw(owner_->view_oid_, delegate));
    GSV_RETURN_IF_ERROR(owner_->store_->Remove(delegate));
    members_.Erase(base_oid);
    return Status::Ok();
  }

  // Aggregate delegates carry computed values, not copies: value sync is
  // handled by AggregateView::RefreshAffected instead.
  Status SyncUpdate(const Update& update) override {
    (void)update;
    return Status::Ok();
  }

 private:
  AggregateView* owner_;
  OidSet members_;
};

AggregateView::AggregateView(ObjectStore* base, ObjectStore* view_store,
                             std::string name, ViewDefinition membership_def,
                             Oid root, Path agg_path, Kind kind)
    : base_(base),
      store_(view_store),
      name_(std::move(name)),
      view_oid_(name_),
      def_(std::move(membership_def)),
      root_(std::move(root)),
      agg_path_(std::move(agg_path)),
      kind_(kind),
      listener_(this) {}

AggregateView::~AggregateView() = default;

Result<Value> AggregateView::ComputeAggregate(const Oid& member) const {
  int64_t count = 0;
  double sum = 0;
  bool all_int = true;
  std::optional<double> min_value;
  std::optional<double> max_value;
  for (const Oid& oid : EvalPath(*base_, member, agg_path_)) {
    const Object* object = base_->Get(oid);
    if (object == nullptr) continue;
    ++count;
    if (!object->IsAtomic()) continue;
    double numeric = 0;
    if (object->type() == ValueType::kInt) {
      numeric = static_cast<double>(object->value().AsInt());
    } else if (object->type() == ValueType::kReal) {
      numeric = object->value().AsReal();
      all_int = false;
    } else {
      continue;  // non-numeric values do not aggregate
    }
    sum += numeric;
    min_value = min_value.has_value() ? std::min(*min_value, numeric) : numeric;
    max_value = max_value.has_value() ? std::max(*max_value, numeric) : numeric;
  }
  switch (kind_) {
    case Kind::kCount:
      return Value::Int(count);
    case Kind::kSum:
      return all_int ? Value::Int(static_cast<int64_t>(sum))
                     : Value::Real(sum);
    case Kind::kMin:
      if (!min_value.has_value()) return Value::Int(0);
      return all_int ? Value::Int(static_cast<int64_t>(*min_value))
                     : Value::Real(*min_value);
    case Kind::kMax:
      if (!max_value.has_value()) return Value::Int(0);
      return all_int ? Value::Int(static_cast<int64_t>(*max_value))
                     : Value::Real(*max_value);
  }
  return Status::Internal("unknown aggregate kind");
}

Status AggregateView::Initialize() {
  if (initialized_) {
    return Status::FailedPrecondition("aggregate view " + name_ +
                                      " already initialized");
  }
  GSV_RETURN_IF_ERROR(Algorithm1Maintainer::ValidateDefinition(def_));
  GSV_RETURN_IF_ERROR(BootstrapViewObject(store_, "aggregate view", name_));

  storage_ = std::make_unique<Storage>(this);
  accessor_ = std::make_unique<LocalAccessor>(base_);
  membership_ = std::make_unique<Algorithm1Maintainer>(
      storage_.get(), accessor_.get(), def_, root_);

  GSV_RETURN_IF_ERROR(ForEachViewMember(
      *base_, def_,
      [this](const Object& object) { return storage_->VInsert(object); }));
  initialized_ = true;
  return Status::Ok();
}

Status AggregateView::RefreshAffected(const Update& update) {
  // Any member whose agg_path cone contains a directly affected object may
  // have a new aggregate: climb from the endpoints up to |agg_path| levels
  // (an over-approximation — recomputation is idempotent) and refresh the
  // members found.
  OidSet candidates;
  auto climb = [&](const Oid& start) {
    if (!base_->Contains(start)) return;
    std::unordered_set<uint32_t> seen{start.id()};
    std::deque<Oid> frontier{start};
    candidates.Insert(start);
    for (size_t depth = 0; depth < agg_path_.size() && !frontier.empty();
         ++depth) {
      std::deque<Oid> next;
      for (const Oid& oid : frontier) {
        for (const Oid& parent : base_->Parents(oid)) {
          if (seen.insert(parent.id()).second) {
            candidates.Insert(parent);
            next.push_back(parent);
          }
        }
      }
      frontier = std::move(next);
    }
  };
  climb(update.parent);
  if (update.child.valid()) climb(update.child);

  for (const Oid& candidate : candidates) {
    if (!storage_->ContainsBase(candidate)) continue;
    GSV_ASSIGN_OR_RETURN(Value aggregate, ComputeAggregate(candidate));
    GSV_RETURN_IF_ERROR(
        store_->SetValueRaw(DelegateOid(candidate), std::move(aggregate)));
  }
  return Status::Ok();
}

Status AggregateView::Maintain(const Update& update) {
  if (!initialized_) {
    return Status::FailedPrecondition("aggregate view " + name_ +
                                      " not initialized");
  }
  // Membership first (fresh members compute their aggregate on insert),
  // then refresh the aggregates of surviving members near the update.
  GSV_RETURN_IF_ERROR(membership_->Maintain(update));
  return RefreshAffected(update);
}

OidSet AggregateView::Members() const {
  return storage_ != nullptr ? storage_->BaseMembers() : OidSet();
}

Result<Value> AggregateView::AggregateOf(const Oid& member) const {
  if (storage_ == nullptr || !storage_->ContainsBase(member)) {
    return Status::NotFound(member.str() + " is not a view member");
  }
  const Object* delegate = store_->Get(DelegateOid(member));
  if (delegate == nullptr) {
    return Status::Internal("missing aggregate delegate for " + member.str());
  }
  return delegate->value();
}

}  // namespace gsv
