#include <gtest/gtest.h>

#include <memory>

#include "core/aggregate_view.h"
#include "core/consistency.h"
#include "core/materialized_view.h"
#include "core/partial_materialization.h"
#include "core/recompute.h"
#include "core/union_view.h"
#include "core/view_cluster.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "query/evaluator.h"
#include "workload/dag_gen.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"
#include "workload/person_db.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

// ----------------------------------------- GDN listener (standalone §6)

class GdnListenerTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(BuildPersonDb(&store_).ok()); }

  void MakeView(const std::string& definition, const Oid& root) {
    auto def = ViewDefinition::Parse(definition);
    ASSERT_TRUE(def.ok()) << def.status().ToString();
    view_ = std::make_unique<MaterializedView>(&store_, *def);
    ASSERT_TRUE(view_->Initialize(store_).ok());
    maintainer_ =
        std::make_unique<GdnListener>(view_.get(), &store_, *def, root);
    ASSERT_TRUE(maintainer_->Initialize().ok());
    store_.AddListener(maintainer_.get());
  }

  void ExpectConsistent() {
    ASSERT_TRUE(maintainer_->last_status().ok())
        << maintainer_->last_status().ToString();
    ConsistencyReport report = CheckViewConsistency(*view_, store_);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }

  ObjectStore store_;
  std::unique_ptr<MaterializedView> view_;
  std::unique_ptr<GdnListener> maintainer_;
};

// Wildcard select path ("ROOT.*"): §6's first relaxation. An insertion of
// any descendant can change the view.
TEST_F(GdnListenerTest, WildcardSelectPath) {
  MakeView("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John'",
           Root());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P3()}));

  // A new person named John, three levels deep.
  ASSERT_TRUE(store_.PutAtomic(Oid("N9"), "name", Value::Str("John")).ok());
  ASSERT_TRUE(store_.PutSet(Oid("P9"), "advisee", {Oid("N9")}).ok());
  ASSERT_TRUE(store_.Insert(P3(), Oid("P9")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P3(), Oid("P9")}));

  // Rename: P9 leaves, others stay.
  ASSERT_TRUE(store_.Modify(Oid("N9"), Value::Str("Jane")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P3()}));
  ExpectConsistent();
}

TEST_F(GdnListenerTest, WildcardDeleteDisconnectsSubtree) {
  MakeView("define view VJ as: SELECT ROOT.* X WHERE X.name = 'John'",
           Root());
  // Unlink P1 from ROOT: P1 is gone, but P3 stays (direct child of ROOT).
  ASSERT_TRUE(store_.Delete(Root(), P1()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P3()}));
  ExpectConsistent();
}

TEST_F(GdnListenerTest, MultiPredicateConditions) {
  MakeView(
      "define view V as: SELECT ROOT.professor X WHERE "
      "X.age <= 45 AND X.name = 'John'",
      Root());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));

  // Give P2 an age: still fails the name conjunct.
  ASSERT_TRUE(store_.PutAtomic(Oid("A2"), "age", Value::Int(30)).ok());
  ASSERT_TRUE(store_.Insert(P2(), Oid("A2")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));

  // Rename Sally to John: now both conjuncts hold.
  ASSERT_TRUE(store_.Modify(N2(), Value::Str("John")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P2()}));

  // Break the age conjunct.
  ASSERT_TRUE(store_.Modify(Oid("A2"), Value::Int(80)).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

TEST_F(GdnListenerTest, OrConditions) {
  MakeView(
      "define view V as: SELECT ROOT.professor X WHERE "
      "X.name = 'Sally' OR X.age > 44",
      Root());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P2()}));
  // Drop A1 below the bound: P1 leaves (no Sally name either).
  ASSERT_TRUE(store_.Modify(A1(), Value::Int(30)).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P2()}));
  ExpectConsistent();
}

TEST_F(GdnListenerTest, WithinScopedView) {
  // D1 = everything except A1. The view ignores A1 entirely.
  OidSet members;
  store_.ForEach([&](const Object& object) {
    if (object.oid() != A1() && object.oid() != Person()) {
      members.Insert(object.oid());
    }
  });
  ASSERT_TRUE(store_.PutSet(Oid("D1obj"), "database").ok());
  ASSERT_TRUE(store_.SetValueRaw(Oid("D1obj"), Value::Set(members)).ok());
  ASSERT_TRUE(store_.RegisterDatabase("D1", Oid("D1obj")).ok());

  MakeView(
      "define view V as: SELECT ROOT.professor X WHERE X.age > 10 WITHIN D1",
      Root());
  EXPECT_EQ(view_->BaseMembers(), OidSet()) << "A1 is invisible";

  // An in-database age makes P2 qualify... but fresh objects are not in D1,
  // so the view must NOT change until D1 includes them.
  ASSERT_TRUE(store_.PutAtomic(Oid("A2"), "age", Value::Int(30)).ok());
  ASSERT_TRUE(store_.Insert(P2(), Oid("A2")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  ExpectConsistent();
}

// DAG base (§6's second relaxation): multiple derivations per object.
TEST_F(GdnListenerTest, DagBaseMultipleDerivations) {
  ObjectStore store;
  DagGenOptions options;
  options.levels = 3;
  options.width = 6;
  options.min_parents = 1;
  options.max_parents = 3;
  options.seed = 7;
  auto dag = GenerateDag(&store, options);
  ASSERT_TRUE(dag.ok());

  auto def = ViewDefinition::Parse(
      DagViewDefinition("DV", dag->root, /*sel_levels=*/2, /*levels=*/3, 50));
  ASSERT_TRUE(def.ok());
  MaterializedView view(&store, *def);
  ASSERT_TRUE(view.Initialize(store).ok());
  GdnListener maintainer(&view, &store, *def, dag->root);
  ASSERT_TRUE(maintainer.Initialize().ok());
  store.AddListener(&maintainer);

  // Churn: delete and re-insert edges between layer 0 and layer 1, and
  // flip leaf values; the view must track the recomputed truth throughout.
  const auto& layer0 = dag->layers[0];
  const auto& layer1 = dag->layers[1];
  const auto& leaves = dag->layers[2];
  for (int round = 0; round < 10; ++round) {
    const Oid& parent = layer0[round % layer0.size()];
    const Oid& child = layer1[(round * 2) % layer1.size()];
    const Object* parent_obj = store.Get(parent);
    ASSERT_NE(parent_obj, nullptr);
    if (parent_obj->children().Contains(child)) {
      ASSERT_TRUE(store.Delete(parent, child).ok());
    } else {
      ASSERT_TRUE(store.Insert(parent, child).ok());
    }
    const Oid& leaf = leaves[(round * 3) % leaves.size()];
    ASSERT_TRUE(store.Modify(leaf, Value::Int(round * 11 % 100)).ok());

    ASSERT_TRUE(maintainer.last_status().ok());
    auto expected = EvaluateView(store, *def);
    ASSERT_TRUE(expected.ok());
    ASSERT_EQ(view.BaseMembers(), *expected) << "round " << round;
  }
  EXPECT_GT(maintainer.engine().stats().propagations, 0);
}

// --------------------------------------------------------------- Cluster

TEST(ViewClusterTest, SharedDelegatesAreRefCounted) {
  ObjectStore base;
  ASSERT_TRUE(BuildPersonDb(&base).ok());
  ObjectStore warehouse;
  ViewCluster cluster(&warehouse, "CL");
  ASSERT_TRUE(cluster.Bootstrap().ok());

  // Two views sharing P1: all Johns, and all professors.
  auto johns = ViewDefinition::Parse(
      "define mview VJOHN as: SELECT ROOT.* X WHERE X.name = 'John'");
  auto profs =
      ViewDefinition::Parse("define mview VPROF as: SELECT ROOT.professor X");
  ASSERT_TRUE(johns.ok());
  ASSERT_TRUE(profs.ok());
  auto johns_storage = cluster.AddView(*johns);
  auto profs_storage = cluster.AddView(*profs);
  ASSERT_TRUE(johns_storage.ok());
  ASSERT_TRUE(profs_storage.ok());
  ASSERT_TRUE(cluster.InitializeAll(base).ok());

  // Members: VJOHN = {P1, P3}, VPROF = {P1, P2}; delegates: P1,P2,P3 only.
  EXPECT_EQ((*johns_storage)->BaseMembers(), OidSet({P1(), P3()}));
  EXPECT_EQ((*profs_storage)->BaseMembers(), OidSet({P1(), P2()}));
  EXPECT_EQ(cluster.delegate_count(), 3u)
      << "P1 shared: 3 delegates for 4 memberships (§3.2 view cluster)";
  EXPECT_EQ(cluster.RefCount(P1()), 2);
  EXPECT_EQ(cluster.RefCount(P3()), 1);
  EXPECT_TRUE(warehouse.Contains(Oid("CL.P1")));

  // Each view is queryable and lists shared delegates.
  auto result = EvaluateQueryText(warehouse, "SELECT VJOHN.? X");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, OidSet({Oid("CL.P1"), Oid("CL.P3")}));

  // Dropping P1 from one view keeps the shared delegate alive.
  ASSERT_TRUE((*johns_storage)->VDelete(P1()).ok());
  EXPECT_EQ(cluster.RefCount(P1()), 1);
  EXPECT_TRUE(warehouse.Contains(Oid("CL.P1")));
  // Dropping it from the second view frees it.
  ASSERT_TRUE((*profs_storage)->VDelete(P1()).ok());
  EXPECT_EQ(cluster.RefCount(P1()), 0);
  EXPECT_FALSE(warehouse.Contains(Oid("CL.P1")));
  EXPECT_EQ(cluster.delegate_count(), 2u);
}

TEST(ViewClusterTest, SyncIsIdempotentAcrossMembers) {
  ObjectStore base;
  ASSERT_TRUE(BuildPersonDb(&base).ok());
  ObjectStore warehouse;
  ViewCluster cluster(&warehouse, "CL");
  ASSERT_TRUE(cluster.Bootstrap().ok());
  auto a = cluster.AddView(*ViewDefinition::Parse(
      "define mview VA as: SELECT ROOT.professor X"));
  auto b = cluster.AddView(*ViewDefinition::Parse(
      "define mview VB as: SELECT ROOT.professor X WHERE X.age <= 45"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(cluster.InitializeAll(base).ok());

  ASSERT_TRUE(base.Insert(P1(), N4()).ok());
  Update update = Update::Insert(P1(), N4());
  ASSERT_TRUE((*a)->SyncUpdate(update).ok());
  ASSERT_TRUE((*b)->SyncUpdate(update).ok());  // second apply: no-op
  EXPECT_TRUE(warehouse.Get(Oid("CL.P1"))->children().Contains(N4()));
  EXPECT_EQ(warehouse.Get(Oid("CL.P1"))->children().size(), 5u);
}

TEST(ViewClusterTest, BootstrapValidation) {
  ObjectStore warehouse;
  ViewCluster bad(&warehouse, "A.B");
  EXPECT_FALSE(bad.Bootstrap().ok());

  ViewCluster cluster(&warehouse, "CL");
  auto def =
      ViewDefinition::Parse("define mview V as: SELECT ROOT.professor X");
  EXPECT_FALSE(cluster.AddView(*def).ok()) << "AddView before Bootstrap";
  ASSERT_TRUE(cluster.Bootstrap().ok());
  EXPECT_FALSE(cluster.Bootstrap().ok());
}

// ------------------------------------------------ AggregateView (§6)

class AggregateViewTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(BuildPersonDb(&base_).ok()); }

  std::unique_ptr<AggregateView> Make(AggregateView::Kind kind,
                                      const char* agg_path,
                                      const std::string& name = "AG") {
    auto def = ViewDefinition::Parse("define mview " + name +
                                     " as: SELECT ROOT.professor X");
    EXPECT_TRUE(def.ok());
    auto view = std::make_unique<AggregateView>(
        &base_, &warehouse_, name, *def, Root(), *Path::Parse(agg_path),
        kind);
    EXPECT_TRUE(view->Initialize().ok());
    base_.AddListener(view->listener());
    return view;
  }

  ObjectStore base_;
  ObjectStore warehouse_;
};

TEST_F(AggregateViewTest, CountStudentsPerProfessor) {
  auto view = Make(AggregateView::Kind::kCount, "student");
  EXPECT_EQ(view->Members(), OidSet({P1(), P2()}));
  EXPECT_EQ(view->AggregateOf(P1())->AsInt(), 1);
  EXPECT_EQ(view->AggregateOf(P2())->AsInt(), 0);
  // The delegate is a real queryable object.
  const Object* delegate = warehouse_.Get(Oid("AG.P1"));
  ASSERT_NE(delegate, nullptr);
  EXPECT_EQ(delegate->label(), "count");

  // P2 gains a student: its count updates.
  ASSERT_TRUE(base_.PutSet(Oid("P9"), "student").ok());
  ASSERT_TRUE(base_.Insert(P2(), Oid("P9")).ok());
  EXPECT_EQ(view->AggregateOf(P2())->AsInt(), 1);

  // P1 loses its student.
  ASSERT_TRUE(base_.Delete(P1(), P3()).ok());
  EXPECT_EQ(view->AggregateOf(P1())->AsInt(), 0);
  EXPECT_TRUE(view->last_status().ok());
}

TEST_F(AggregateViewTest, SumAndExtremaOfSalaries) {
  auto sum = Make(AggregateView::Kind::kSum, "salary");
  EXPECT_EQ(sum->AggregateOf(P1())->AsInt(), 100000);
  EXPECT_EQ(sum->AggregateOf(P2())->AsInt(), 0);

  // A raise propagates into the aggregate (deep value change).
  ASSERT_TRUE(base_.Modify(S1(), Value::Int(120000)).ok());
  EXPECT_EQ(sum->AggregateOf(P1())->AsInt(), 120000);

  // Second salary for P1: sum adds up; min/max views see both.
  ASSERT_TRUE(base_.PutAtomic(Oid("S1b"), "salary", Value::Int(5000)).ok());
  ASSERT_TRUE(base_.Insert(P1(), Oid("S1b")).ok());
  EXPECT_EQ(sum->AggregateOf(P1())->AsInt(), 125000);
  EXPECT_TRUE(sum->last_status().ok());
}

TEST_F(AggregateViewTest, MinMax) {
  ASSERT_TRUE(base_.PutAtomic(Oid("S2"), "salary", Value::Int(70000)).ok());
  ASSERT_TRUE(base_.Insert(P2(), Oid("S2")).ok());
  auto min = Make(AggregateView::Kind::kMin, "salary", "AGMIN");
  auto max = Make(AggregateView::Kind::kMax, "salary", "AGMAX");
  EXPECT_EQ(min->AggregateOf(P1())->AsInt(), 100000);
  EXPECT_EQ(max->AggregateOf(P2())->AsInt(), 70000);
  ASSERT_TRUE(base_.PutAtomic(Oid("S1b"), "salary", Value::Int(1000)).ok());
  ASSERT_TRUE(base_.Insert(P1(), Oid("S1b")).ok());
  EXPECT_EQ(min->AggregateOf(P1())->AsInt(), 1000);
  EXPECT_EQ(max->AggregateOf(P1())->AsInt(), 100000);
}

TEST_F(AggregateViewTest, MembershipChangesCreateAndDropDelegates) {
  auto view = Make(AggregateView::Kind::kCount, "student");
  // New professor joins with a student already attached.
  ASSERT_TRUE(base_.PutSet(Oid("ST"), "student").ok());
  ASSERT_TRUE(base_.PutSet(Oid("P9"), "professor", {Oid("ST")}).ok());
  ASSERT_TRUE(base_.Insert(Root(), Oid("P9")).ok());
  EXPECT_TRUE(view->Members().Contains(Oid("P9")));
  EXPECT_EQ(view->AggregateOf(Oid("P9"))->AsInt(), 1)
      << "fresh members compute their aggregate on insertion";

  ASSERT_TRUE(base_.Delete(Root(), Oid("P9")).ok());
  EXPECT_FALSE(view->Members().Contains(Oid("P9")));
  EXPECT_FALSE(warehouse_.Contains(Oid("AG.P9")));
  EXPECT_FALSE(view->AggregateOf(Oid("P9")).ok());
  EXPECT_TRUE(view->last_status().ok());
}

// ------------------------------------------------- UnionView (§6)

class UnionViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildPersonDb(&base_).ok());
    accessor_ = std::make_unique<LocalAccessor>(&base_);
    union_view_ =
        std::make_unique<UnionView>(&warehouse_, "UV", accessor_.get());
    ASSERT_TRUE(union_view_->Bootstrap().ok());
  }

  Status AddBranch(const std::string& definition) {
    auto def = ViewDefinition::Parse(definition);
    if (!def.ok()) return def.status();
    return union_view_->AddBranch(*def, base_, Root());
  }

  ObjectStore base_;
  ObjectStore warehouse_;
  std::unique_ptr<LocalAccessor> accessor_;
  std::unique_ptr<UnionView> union_view_;
};

TEST_F(UnionViewTest, MultipleSelectPaths) {
  // §6: "handling views with more than one select path ... is
  // straightforward" — young professors ∪ secretaries of any age.
  ASSERT_TRUE(AddBranch("define mview UVa as: SELECT ROOT.professor X "
                        "WHERE X.age <= 45")
                  .ok());
  ASSERT_TRUE(AddBranch("define mview UVb as: SELECT ROOT.secretary X").ok());
  base_.AddListener(union_view_->listener());

  EXPECT_EQ(union_view_->Members(), OidSet({P1(), P4()}));
  EXPECT_TRUE(warehouse_.Contains(Oid("UV.P1")));
  EXPECT_TRUE(warehouse_.Contains(Oid("UV.P4")));

  // The union view is queryable as a database.
  auto result = EvaluateQueryText(warehouse_, "SELECT UV.? X");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);

  // Branch-local change: P1 ages out of the professor branch.
  ASSERT_TRUE(base_.Modify(A1(), Value::Int(70)).ok());
  EXPECT_EQ(union_view_->Members(), OidSet({P4()}));
  EXPECT_FALSE(warehouse_.Contains(Oid("UV.P1")));
  EXPECT_TRUE(union_view_->last_status().ok());
}

TEST_F(UnionViewTest, SharedMembersAreRefCounted) {
  // Two branches that both select professors (one with, one without a
  // condition): P1 has refcount 2 until the condition branch drops it.
  ASSERT_TRUE(AddBranch("define mview UVa as: SELECT ROOT.professor X "
                        "WHERE X.age <= 45")
                  .ok());
  ASSERT_TRUE(AddBranch("define mview UVb as: SELECT ROOT.professor X").ok());
  base_.AddListener(union_view_->listener());

  EXPECT_EQ(union_view_->RefCount(P1()), 2);
  EXPECT_EQ(union_view_->RefCount(P2()), 1);
  EXPECT_EQ(union_view_->Members(), OidSet({P1(), P2()}));

  ASSERT_TRUE(base_.Modify(A1(), Value::Int(70)).ok());
  EXPECT_EQ(union_view_->RefCount(P1()), 1) << "still a professor";
  EXPECT_TRUE(warehouse_.Contains(Oid("UV.P1")));

  ASSERT_TRUE(base_.Delete(Root(), P1()).ok());
  EXPECT_EQ(union_view_->RefCount(P1()), 0);
  EXPECT_FALSE(warehouse_.Contains(Oid("UV.P1")));
  EXPECT_TRUE(union_view_->last_status().ok());
}

TEST_F(UnionViewTest, Validation) {
  EXPECT_FALSE(AddBranch("define mview B as: SELECT ROOT.* X").ok())
      << "branches must be simple views";
  UnionView bad(&warehouse_, "A.B", accessor_.get());
  EXPECT_FALSE(bad.Bootstrap().ok());
  UnionView unboot(&warehouse_, "OK", accessor_.get());
  auto def =
      ViewDefinition::Parse("define mview B as: SELECT ROOT.professor X");
  EXPECT_FALSE(unboot.AddBranch(*def, base_, Root()).ok())
      << "AddBranch before Bootstrap";
}

// ------------------------------------------- Partial materialization (§6)

TEST(PartialMaterializationTest, ExpandsLevelsAndKeepsFrontierPointers) {
  ObjectStore base;
  ASSERT_TRUE(BuildPersonDb(&base).ok());
  ObjectStore warehouse;
  auto def = ViewDefinition::Parse(
      "define mview PM as: SELECT ROOT.professor X WHERE X.name = 'John'");
  ASSERT_TRUE(def.ok());
  MaterializedView view(&warehouse, *def);
  ASSERT_TRUE(view.Initialize(base).ok());
  EXPECT_EQ(view.BaseMembers(), OidSet({P1()}));

  PartialMaterialization partial(&view, /*depth=*/1);
  ASSERT_TRUE(partial.Expand(base).ok());
  // Level 1 below P1: N1, A1, S1, P3 materialized; P3's own children are
  // NOT (they stay pointers back to base).
  EXPECT_EQ(partial.expanded_count(), 4u);
  EXPECT_TRUE(warehouse.Contains(Oid("PM.N1")));
  EXPECT_TRUE(warehouse.Contains(Oid("PM.P3")));
  EXPECT_FALSE(warehouse.Contains(Oid("PM.N3")));

  // Member edges are swizzled toward materialized children...
  EXPECT_TRUE(warehouse.Get(Oid("PM.P1"))->children().Contains(Oid("PM.N1")));
  // ...while the frontier keeps base OIDs ("pointers back to base data").
  EXPECT_TRUE(warehouse.Get(Oid("PM.P3"))->children().Contains(N3()));

  // A local query can now traverse one level without base access.
  auto ages = EvaluateQueryText(warehouse, "SELECT PM.professor.age");
  ASSERT_TRUE(ages.ok());
  EXPECT_EQ(*ages, OidSet({Oid("PM.A1")}));
}

// Property: after Expand/Refresh, exactly the BFS-truth set of base
// objects within `depth` of a member is materialized, edges between local
// objects are swizzled, and frontier edges keep base OIDs.
TEST(PartialMaterializationTest, ExpansionMatchesBfsTruth) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    ObjectStore base;
    TreeGenOptions options;
    options.levels = 3;
    options.fanout = 3;
    options.seed = seed;
    auto tree = GenerateTree(&base, options);
    ASSERT_TRUE(tree.ok());

    ObjectStore warehouse;
    auto def = ViewDefinition::Parse("define mview PM as: SELECT " +
                                     tree->root.str() + ".n1_0 X");
    MaterializedView view(&warehouse, *def);
    ASSERT_TRUE(view.Initialize(base).ok());
    const size_t depth = 1 + seed % 2;
    PartialMaterialization partial(&view, depth);
    ASSERT_TRUE(partial.Expand(base).ok());

    // Churn the base, then refresh and verify the invariant.
    UpdateGenOptions gen_options;
    gen_options.seed = seed + 100;
    UpdateGenerator generator(&base, tree->root, gen_options);
    ASSERT_TRUE(generator.Run(60).ok());
    // Recompute-style: the member set itself is refreshed by a fresh
    // evaluation before re-expanding.
    RecomputeMaintainer recompute(&view, &base);
    ASSERT_TRUE(recompute.Recompute().ok());
    ASSERT_TRUE(partial.Refresh(base).ok());

    // BFS truth of what should be local.
    OidSet local_truth = view.BaseMembers();
    std::vector<std::pair<Oid, size_t>> frontier;
    const OidSet members = view.BaseMembers();
    for (const Oid& member : members) frontier.emplace_back(member, 0);
    for (size_t i = 0; i < frontier.size(); ++i) {
      auto [oid, level] = frontier[i];
      if (level >= depth) continue;
      const Object* object = base.Get(oid);
      if (object == nullptr || !object->IsSet()) continue;
      for (const Oid& child : object->children()) {
        if (base.Contains(child) && local_truth.Insert(child)) {
          frontier.emplace_back(child, level + 1);
        }
      }
    }
    for (const Oid& oid : local_truth) {
      ASSERT_TRUE(warehouse.Contains(view.DelegateOid(oid)))
          << oid.str() << " seed " << seed;
    }
    // Edge discipline: local targets swizzled, frontier targets base.
    for (const Oid& oid : local_truth) {
      const Object* delegate = warehouse.Get(view.DelegateOid(oid));
      if (!delegate->IsSet()) continue;
      for (const Oid& child : delegate->children()) {
        if (child.IsDelegateOf(view.view_oid())) {
          ASSERT_TRUE(local_truth.Contains(child.BaseIn(view.view_oid())));
        } else {
          ASSERT_FALSE(local_truth.Contains(child))
              << "edge to local object " << child.str() << " not swizzled";
        }
      }
    }
  }
}

TEST(PartialMaterializationTest, DepthTwoAndRefresh) {
  ObjectStore base;
  ASSERT_TRUE(BuildPersonDb(&base).ok());
  ObjectStore warehouse;
  auto def = ViewDefinition::Parse(
      "define mview PM as: SELECT ROOT.professor X WHERE X.name = 'John'");
  MaterializedView view(&warehouse, *def);
  ASSERT_TRUE(view.Initialize(base).ok());
  PartialMaterialization partial(&view, /*depth=*/2);
  ASSERT_TRUE(partial.Expand(base).ok());
  EXPECT_EQ(partial.expanded_count(), 7u);  // +N3, A3, M3
  EXPECT_TRUE(warehouse.Contains(Oid("PM.N3")));

  // Base changes; Refresh re-derives the expansion.
  ASSERT_TRUE(base.PutAtomic(Oid("H1"), "hobby", Value::Str("go")).ok());
  ASSERT_TRUE(base.Insert(P1(), Oid("H1")).ok());
  ASSERT_TRUE(view.SyncUpdate(Update::Insert(P1(), Oid("H1"))).ok());
  ASSERT_TRUE(partial.Refresh(base).ok());
  EXPECT_TRUE(warehouse.Contains(Oid("PM.H1")));
  EXPECT_EQ(partial.expanded_count(), 8u);
  EXPECT_TRUE(
      warehouse.Get(Oid("PM.P1"))->children().Contains(Oid("PM.H1")));
}

}  // namespace
}  // namespace gsv
