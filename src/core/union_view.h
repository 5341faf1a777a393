#ifndef GSV_CORE_UNION_VIEW_H_
#define GSV_CORE_UNION_VIEW_H_

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm1.h"
#include "core/base_accessor.h"
#include "core/shared_delegates.h"
#include "core/view_definition.h"
#include "core/view_storage.h"
#include "oem/store.h"
#include "util/status.h"

namespace gsv {

// Views with more than one select path — the relaxation §6 calls
// "straightforward": one materialized view whose members are the union of
// several simple branches, e.g.
//
//   SELECT ROOT.professor X WHERE X.age <= 45
//   ∪ SELECT ROOT.secretary X WHERE X.age <= 45
//
// Each branch is an ordinary simple definition maintained by its own
// Algorithm 1 instance. A union is a view cluster whose members answer to
// one view object: the view object <UV, mview, set, {UV.*}> owns a
// SharedDelegates pool, so an object selected by two branches keeps its
// one delegate until the last branch drops it. The view object is a
// queryable database like any other view.
class UnionView {
 public:
  // `view_store` holds the delegates; `accessor` answers base accesses for
  // every branch maintainer (LocalAccessor centrally, RemoteAccessor in a
  // warehouse). Both must outlive the union view.
  UnionView(ObjectStore* view_store, std::string name,
            BaseAccessor* accessor);

  // Creates the view object and registers the database name. Call once.
  Status Bootstrap();

  // Adds one branch; `def` must satisfy Algorithm 1's simple-view shape
  // and use this view's base root as its entry. Branches are evaluated on
  // `base` immediately (the view must be initially correct, §4.3).
  Status AddBranch(const ViewDefinition& def, const ObjectStore& base,
                   Oid root);

  // Feeds one applied base update to every branch maintainer (§4.3: call
  // right after the update). Registering the view as an UpdateListener is
  // also supported via listener().
  Status Maintain(const Update& update);
  UpdateListener* listener() { return &listener_; }

  const Oid& view_oid() const { return view_oid_; }
  // Union membership (any branch).
  OidSet Members() const { return delegates_.Bases(); }
  // How many branches currently select `base_oid`.
  int RefCount(const Oid& base_oid) const {
    return delegates_.RefCount(base_oid);
  }
  size_t branch_count() const { return branches_.size(); }

  const Status& last_status() const { return last_status_; }

 private:
  class Listener : public UpdateListener {
   public:
    explicit Listener(UnionView* owner) : owner_(owner) {}
    void OnUpdate(const ObjectStore& store, const Update& update) override {
      (void)store;
      Status status = owner_->Maintain(update);
      if (!status.ok()) owner_->last_status_ = status;
    }

   private:
    UnionView* owner_;
  };

  ObjectStore* store_;
  std::string name_;
  Oid view_oid_;
  BaseAccessor* accessor_;
  bool bootstrapped_ = false;
  SharedDelegates delegates_;
  std::vector<std::unique_ptr<Algorithm1Maintainer>> branches_;
  Listener listener_;
  Status last_status_;
};

}  // namespace gsv

#endif  // GSV_CORE_UNION_VIEW_H_
