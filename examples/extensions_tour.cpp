// A tour of the §6 relaxations and future-work features this library
// implements beyond Algorithm 1's simple views: wildcard (path-expression)
// views, DAG bases, union views (multiple select paths), aggregate views,
// view clusters, and partial materialization.
//
//   $ ./examples/extensions_tour

#include <cstdio>
#include <cstdlib>

#include "core/aggregate_view.h"
#include "core/materialized_view.h"
#include "core/partial_materialization.h"
#include "core/union_view.h"
#include "core/view_cluster.h"
#include "core/view_definition.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "query/evaluator.h"
#include "workload/person_db.h"

namespace {

void Check(const gsv::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

void Section(const char* title) { std::printf("\n=== %s ===\n", title); }

std::string Members(const gsv::OidSet& members) {
  std::string out = "{";
  bool first = true;
  for (const gsv::Oid& oid : members) {
    if (!first) out += ", ";
    first = false;
    out += oid.str();
  }
  return out + "}";
}

}  // namespace

int main() {
  using namespace gsv;             // NOLINT(build/namespaces)
  using namespace gsv::person_db;  // NOLINT(build/namespaces)

  ObjectStore base;
  Check(BuildPersonDb(&base));

  Section("Path-expression view (SELECT ROOT.* ...) via the GDN engine");
  auto wild_def = ViewDefinition::Parse(
      "define mview WILD as: SELECT ROOT.* X WHERE X.name = 'John'");
  ObjectStore wild_store;
  MaterializedView wild(&wild_store, *wild_def);
  Check(wild.Initialize(base));
  GdnListener wild_maintainer(&wild, &base, *wild_def, Root());
  Check(wild_maintainer.Initialize());
  base.AddListener(&wild_maintainer);
  std::printf("WILD = %s\n", Members(wild.BaseMembers()).c_str());
  Check(base.Modify(N3(), Value::Str("Jane")));
  std::printf("after renaming N3: WILD = %s  (%lld propagations)\n",
              Members(wild.BaseMembers()).c_str(),
              static_cast<long long>(
                  wild_maintainer.engine().stats().propagations));
  base.RemoveListener(&wild_maintainer);
  Check(base.Modify(N3(), Value::Str("John")));  // restore

  Section("Union view: professors <= 45 UNION all secretaries");
  ObjectStore union_store;
  LocalAccessor accessor(&base);
  UnionView union_view(&union_store, "UV", &accessor);
  Check(union_view.Bootstrap());
  Check(union_view.AddBranch(
      *ViewDefinition::Parse(
          "define mview UVa as: SELECT ROOT.professor X WHERE X.age <= 45"),
      base, Root()));
  Check(union_view.AddBranch(
      *ViewDefinition::Parse("define mview UVb as: SELECT ROOT.secretary X"),
      base, Root()));
  base.AddListener(union_view.listener());
  std::printf("UV = %s  (refcount P1 = %d)\n",
              Members(union_view.Members()).c_str(),
              union_view.RefCount(P1()));
  Check(base.Modify(A1(), Value::Int(70)));
  std::printf("after P1 turns 70: UV = %s\n",
              Members(union_view.Members()).c_str());
  base.RemoveListener(union_view.listener());
  Check(base.Modify(A1(), Value::Int(45)));  // restore

  Section("Aggregate view: students per professor (a §6 open issue)");
  ObjectStore agg_store;
  AggregateView agg(&base, &agg_store, "NSTUD",
                    *ViewDefinition::Parse(
                        "define mview NSTUD as: SELECT ROOT.professor X"),
                    Root(), *Path::Parse("student"),
                    AggregateView::Kind::kCount);
  Check(agg.Initialize());
  base.AddListener(agg.listener());
  std::printf("count(P1) = %lld, count(P2) = %lld\n",
              static_cast<long long>(agg.AggregateOf(P1())->AsInt()),
              static_cast<long long>(agg.AggregateOf(P2())->AsInt()));
  Check(base.PutSet(Oid("ST9"), "student"));
  Check(base.Insert(P2(), Oid("ST9")));
  std::printf("after P2 gains a student: count(P2) = %lld\n",
              static_cast<long long>(agg.AggregateOf(P2())->AsInt()));
  base.RemoveListener(agg.listener());

  Section("View cluster: shared delegates across views (§3.2)");
  ObjectStore cluster_store;
  ViewCluster cluster(&cluster_store, "CL");
  Check(cluster.Bootstrap());
  auto johns = cluster.AddView(*ViewDefinition::Parse(
      "define mview CJOHN as: SELECT ROOT.* X WHERE X.name = 'John'"));
  auto profs = cluster.AddView(*ViewDefinition::Parse(
      "define mview CPROF as: SELECT ROOT.professor X"));
  Check(johns.status().ok() ? Status::Ok() : johns.status());
  Check(profs.status().ok() ? Status::Ok() : profs.status());
  Check(cluster.InitializeAll(base));
  std::printf("memberships: CJOHN=%zu, CPROF=%zu; distinct delegates=%zu "
              "(P1 shared, refcount %d)\n",
              (*johns)->BaseMembers().size(), (*profs)->BaseMembers().size(),
              cluster.delegate_count(), cluster.RefCount(P1()));

  Section("Live stacked views: OUTER over INNER over the base (§3.1)");
  {
    MaterializedView::Options emit;
    emit.emit_basic_updates = true;
    auto inner_def = ViewDefinition::Parse(
        "define mview INNER as: SELECT ROOT.professor X");
    MaterializedView inner(&base, *inner_def, emit);
    Check(inner.Initialize(base));
    LocalAccessor stack_accessor(&base);
    Algorithm1Maintainer inner_m(&inner, &stack_accessor, *inner_def,
                                 Root());
    base.AddListener(&inner_m);
    auto outer_def = ViewDefinition::Parse(
        "define mview OUT as: SELECT INNER.professor X WHERE X.age <= 45");
    MaterializedView outer(&base, *outer_def);
    Check(outer.Initialize(base));
    Algorithm1Maintainer outer_m(&outer, &stack_accessor, *outer_def,
                                 Oid("INNER"));
    base.AddListener(&outer_m);
    std::printf("OUT = %s\n", Members(outer.BaseMembers()).c_str());
    Check(base.Modify(A1(), Value::Int(80)));
    std::printf("after P1 turns 80: OUT = %s (INNER still has %zu members)\n",
                Members(outer.BaseMembers()).c_str(), inner.size());
    base.RemoveListener(&inner_m);
    base.RemoveListener(&outer_m);
    Check(base.Modify(A1(), Value::Int(45)));  // restore
  }

  Section("Partial materialization: one level of subobjects (§6)");
  ObjectStore pm_store;
  auto pm_def = ViewDefinition::Parse(
      "define mview PM as: SELECT ROOT.professor X WHERE X.name = 'John'");
  MaterializedView pm_view(&pm_store, *pm_def);
  Check(pm_view.Initialize(base));
  PartialMaterialization partial(&pm_view, /*depth=*/1);
  Check(partial.Expand(base));
  std::printf("members=%zu, expanded subobjects=%zu; local query "
              "PM.professor.age -> ",
              pm_view.size(), partial.expanded_count());
  auto ages = EvaluateQueryText(pm_store, "SELECT PM.professor.age");
  Check(ages.status().ok() ? Status::Ok() : ages.status());
  std::printf("%s\n", Members(*ages).c_str());

  std::printf("\nextensions tour complete.\n");
  return 0;
}
