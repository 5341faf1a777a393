#ifndef GSV_CORE_VIEW_CLUSTER_H_
#define GSV_CORE_VIEW_CLUSTER_H_

#include <string>
#include <utility>
#include <vector>

#include "core/shared_delegates.h"
#include "core/view_definition.h"
#include "core/view_storage.h"
#include "oem/store.h"
#include "util/status.h"

namespace gsv {

// A view cluster (paper §3.2): "if a remote site defines several views that
// share common objects, it may end up with multiple delegates for the same
// base object. The notion of a view cluster avoids this, by making all
// views in a cluster share delegates."
//
// The cluster object owns a SharedDelegates pool: one delegate per base
// object, named with the *cluster* OID ("CL.P1") and reference-counted
// across member views. Each member view is still an ordinary queryable
// object <V, mview, set, {CL.*}> registered as a database; maintainers
// drive it through the ViewStorage adapter returned by AddView.
class ViewCluster {
 public:
  // `store` is the delegate store; must outlive the cluster. The cluster
  // name must not contain '.' (it prefixes delegate OIDs).
  ViewCluster(ObjectStore* store, std::string name);

  // Creates the cluster object <CL, cluster, set, {}>.
  Status Bootstrap();

  // Registers a member view and returns its ViewStorage adapter (owned by
  // the cluster). Creates the view object and registers it as a database.
  Result<ViewStorage*> AddView(const ViewDefinition& def);

  // Evaluates every member view's query on `base` and populates delegates.
  Status InitializeAll(const ObjectStore& base);

  const Oid& cluster_oid() const { return cluster_oid_; }
  // Number of distinct delegates currently materialized.
  size_t delegate_count() const { return delegates_.size(); }
  // How many member views currently include `base_oid` (0 if none).
  int RefCount(const Oid& base_oid) const {
    return delegates_.RefCount(base_oid);
  }
  // The shared delegate OID for a base object.
  Oid DelegateOid(const Oid& base_oid) const {
    return delegates_.DelegateOid(base_oid);
  }

  ObjectStore& store() { return *store_; }

 private:
  ObjectStore* store_;
  std::string name_;
  Oid cluster_oid_;
  bool bootstrapped_ = false;
  SharedDelegates delegates_;
  std::vector<std::pair<ViewDefinition, ViewStorage*>> members_;
};

}  // namespace gsv

#endif  // GSV_CORE_VIEW_CLUSTER_H_
