// Cross-module integration scenarios: views on views, clusters under live
// maintenance, GC interplay, multi-source warehouses, DataGuide-derived
// knowledge, and query equivalence across view representations.

#include <gtest/gtest.h>

#include <memory>

#include "core/algorithm1.h"
#include "core/consistency.h"
#include "core/materialized_view.h"
#include "core/view_cluster.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "oem/transaction.h"
#include "query/evaluator.h"
#include "util/random.h"
#include "warehouse/path_knowledge.h"
#include "warehouse/source_wrapper_gsdb.h"
#include "warehouse/warehouse.h"
#include "workload/person_db.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

// A materialized view defined over another materialized view: the §3.1
// composition property carried over to stored views. Delegate OIDs nest
// ("OUTER.INNER.P1").
TEST(IntegrationTest, MaterializedViewOverMaterializedView) {
  ObjectStore store;
  ASSERT_TRUE(BuildPersonDb(&store).ok());

  auto inner_def = ViewDefinition::Parse(
      "define mview INNER as: SELECT ROOT.professor X");
  ASSERT_TRUE(inner_def.ok());
  MaterializedView inner(&store, *inner_def);
  ASSERT_TRUE(inner.Initialize(store).ok());

  // The outer view selects, from the inner view's delegates, those with a
  // young age — the inner view is just a database named INNER.
  auto outer_def = ViewDefinition::Parse(
      "define mview OUTER as: SELECT INNER.professor X WHERE X.age <= 45");
  ASSERT_TRUE(outer_def.ok());
  MaterializedView outer(&store, *outer_def);
  ASSERT_TRUE(outer.Initialize(store).ok());

  // INNER.P1 is the qualifying delegate; its own delegate nests the OIDs.
  EXPECT_EQ(outer.BaseMembers(), OidSet({Oid("INNER.P1")}));
  const Object* nested = store.Get(Oid("OUTER.INNER.P1"));
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->label(), "professor");
  EXPECT_EQ(Oid("OUTER.INNER.P1").BaseIn(Oid("OUTER")), Oid("INNER.P1"));

  // Maintain both: base update flows through inner (Algorithm 1), whose
  // delegate-value sync is a raw edit — so the outer view is refreshed
  // with its own maintainer run on the inner store's contents.
  LocalAccessor accessor(&store);
  Algorithm1Maintainer inner_maintainer(&inner, &accessor, *inner_def,
                                        Root());
  store.AddListener(&inner_maintainer);
  ASSERT_TRUE(store.PutSet(Oid("P9"), "professor").ok());
  ASSERT_TRUE(store.Insert(Root(), Oid("P9")).ok());
  EXPECT_TRUE(inner.ContainsBase(Oid("P9")));
  EXPECT_TRUE(CheckViewConsistency(inner, store).consistent);
}

// Live stacked views: the inner view emits its delegate edits as basic
// updates, so the outer view's maintainer keeps up automatically — §3.1's
// views-on-views, materialized end to end.
TEST(IntegrationTest, StackedViewsMaintainLive) {
  ObjectStore store;  // centralized: base, inner and outer share the store
  ASSERT_TRUE(BuildPersonDb(&store).ok());

  auto inner_def = ViewDefinition::Parse(
      "define mview INNER as: SELECT ROOT.professor X");
  MaterializedView::Options inner_options;
  inner_options.emit_basic_updates = true;
  MaterializedView inner(&store, *inner_def, inner_options);
  ASSERT_TRUE(inner.Initialize(store).ok());
  LocalAccessor accessor(&store);
  Algorithm1Maintainer inner_maintainer(&inner, &accessor, *inner_def,
                                        Root());
  store.AddListener(&inner_maintainer);

  auto outer_def = ViewDefinition::Parse(
      "define mview OUTER as: SELECT INNER.professor X WHERE X.age <= 45");
  MaterializedView outer(&store, *outer_def);
  ASSERT_TRUE(outer.Initialize(store).ok());
  Algorithm1Maintainer outer_maintainer(&outer, &accessor, *outer_def,
                                        Oid("INNER"));
  store.AddListener(&outer_maintainer);

  EXPECT_EQ(outer.BaseMembers(), OidSet({Oid("INNER.P1")}));

  // A new young professor flows through both levels on one base insert.
  ASSERT_TRUE(store.PutAtomic(Oid("A9"), "age", Value::Int(30)).ok());
  ASSERT_TRUE(store.PutSet(Oid("P9"), "professor", {Oid("A9")}).ok());
  ASSERT_TRUE(store.Insert(Root(), Oid("P9")).ok());
  EXPECT_TRUE(inner.ContainsBase(Oid("P9")));
  EXPECT_TRUE(outer.ContainsBase(Oid("INNER.P9")));
  EXPECT_TRUE(store.Contains(Oid("OUTER.INNER.P9")));

  // Aging out: P9 leaves the outer view but stays in the inner one.
  ASSERT_TRUE(store.Modify(Oid("A9"), Value::Int(70)).ok());
  EXPECT_TRUE(inner.ContainsBase(Oid("P9")));
  EXPECT_FALSE(outer.ContainsBase(Oid("INNER.P9")));

  // Unlinking from ROOT empties both levels for P9.
  ASSERT_TRUE(store.Delete(Root(), Oid("P9")).ok());
  EXPECT_FALSE(inner.ContainsBase(Oid("P9")));
  EXPECT_FALSE(store.Contains(Oid("INNER.P9")));

  ASSERT_TRUE(inner_maintainer.last_status().ok())
      << inner_maintainer.last_status().ToString();
  ASSERT_TRUE(outer_maintainer.last_status().ok())
      << outer_maintainer.last_status().ToString();

  // Oracle: both levels equal their recomputed truth.
  auto inner_truth = EvaluateView(store, *inner_def);
  auto outer_truth = EvaluateView(store, *outer_def);
  ASSERT_TRUE(inner_truth.ok());
  ASSERT_TRUE(outer_truth.ok());
  EXPECT_EQ(inner.BaseMembers(), *inner_truth);
  EXPECT_EQ(outer.BaseMembers(), *outer_truth);
}

// Stacked views under a random update stream stay equal to recomputation
// at both levels.
TEST(IntegrationTest, StackedViewsSurviveRandomStreams) {
  ObjectStore store;
  TreeGenOptions options;
  options.levels = 3;
  options.fanout = 4;
  options.seed = 19;
  auto tree = GenerateTree(&store, options);
  ASSERT_TRUE(tree.ok());

  // Inner: all depth-1 nodes; outer: those whose depth-2 child has a
  // qualifying age leaf.
  auto inner_def = ViewDefinition::Parse(
      "define mview L1V as: SELECT " + tree->root.str() + ".n1_0 X");
  MaterializedView::Options inner_options;
  inner_options.emit_basic_updates = true;
  MaterializedView inner(&store, *inner_def, inner_options);
  ASSERT_TRUE(inner.Initialize(store).ok());
  LocalAccessor accessor(&store);
  Algorithm1Maintainer inner_maintainer(&inner, &accessor, *inner_def,
                                        tree->root);
  store.AddListener(&inner_maintainer);

  auto outer_def = ViewDefinition::Parse(
      "define mview L2V as: SELECT L1V.n1_0 X WHERE X.n2_0.age <= 50");
  MaterializedView outer(&store, *outer_def);
  ASSERT_TRUE(outer.Initialize(store).ok());
  Algorithm1Maintainer outer_maintainer(&outer, &accessor, *outer_def,
                                        Oid("L1V"));
  store.AddListener(&outer_maintainer);

  UpdateGenOptions gen_options;
  gen_options.seed = 23;
  UpdateGenerator generator(&store, tree->root, gen_options);
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(inner_maintainer.last_status().ok());
    ASSERT_TRUE(outer_maintainer.last_status().ok());
    if (i % 25 != 0) continue;
    auto inner_truth = EvaluateView(store, *inner_def);
    auto outer_truth = EvaluateView(store, *outer_def);
    ASSERT_TRUE(inner_truth.ok());
    ASSERT_TRUE(outer_truth.ok());
    ASSERT_EQ(inner.BaseMembers(), *inner_truth) << "after update " << i;
    ASSERT_EQ(outer.BaseMembers(), *outer_truth) << "after update " << i;
  }
}

// A cluster whose member views are driven by live Algorithm 1 maintainers.
TEST(IntegrationTest, ClusterUnderLiveMaintenance) {
  ObjectStore base;
  ASSERT_TRUE(BuildPersonDb(&base).ok());
  ObjectStore warehouse;
  ViewCluster cluster(&warehouse, "CL");
  ASSERT_TRUE(cluster.Bootstrap().ok());

  auto young_def = ViewDefinition::Parse(
      "define mview YOUNG as: SELECT ROOT.professor X WHERE X.age <= 45");
  auto rich_def = ViewDefinition::Parse(
      "define mview RICH as: SELECT ROOT.professor X WHERE "
      "X.salary >= 100000");
  auto young_storage = cluster.AddView(*young_def);
  auto rich_storage = cluster.AddView(*rich_def);
  ASSERT_TRUE(young_storage.ok());
  ASSERT_TRUE(rich_storage.ok());
  ASSERT_TRUE(cluster.InitializeAll(base).ok());
  EXPECT_EQ(cluster.RefCount(P1()), 2) << "P1 is young and rich";

  LocalAccessor accessor(&base);
  Algorithm1Maintainer young_maintainer(*young_storage, &accessor,
                                        *young_def, Root());
  Algorithm1Maintainer rich_maintainer(*rich_storage, &accessor, *rich_def,
                                       Root());
  base.AddListener(&young_maintainer);
  base.AddListener(&rich_maintainer);

  // P1 ages out of YOUNG: the shared delegate must survive via RICH.
  ASSERT_TRUE(base.Modify(A1(), Value::Int(70)).ok());
  EXPECT_FALSE((*young_storage)->ContainsBase(P1()));
  EXPECT_TRUE((*rich_storage)->ContainsBase(P1()));
  EXPECT_EQ(cluster.RefCount(P1()), 1);
  EXPECT_TRUE(warehouse.Contains(Oid("CL.P1")));

  // And out of RICH too: now the delegate goes away.
  ASSERT_TRUE(base.Modify(S1(), Value::Int(10)).ok());
  EXPECT_EQ(cluster.RefCount(P1()), 0);
  EXPECT_FALSE(warehouse.Contains(Oid("CL.P1")));
  EXPECT_TRUE(young_maintainer.last_status().ok());
  EXPECT_TRUE(rich_maintainer.last_status().ok());
}

// Garbage collection after view-driven deletes: delegates dropped by
// V_delete leave no garbage behind, and GC never touches live delegates.
TEST(IntegrationTest, GarbageCollectionRespectsViews) {
  ObjectStore store;  // centralized: base and view share the store
  ASSERT_TRUE(BuildPersonDb(&store).ok());
  auto def = ViewDefinition::Parse(
      "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  MaterializedView view(&store, *def);
  ASSERT_TRUE(view.Initialize(store).ok());
  LocalAccessor accessor(&store);
  Algorithm1Maintainer maintainer(&view, &accessor, *def, Root());
  store.AddListener(&maintainer);

  // The view object is a registered database, so GC keeps the delegates.
  size_t collected = store.CollectGarbage();
  EXPECT_EQ(collected, 0u);
  EXPECT_TRUE(store.Contains(Oid("YP.P1")));

  // P1 leaves the view; its delegate is removed by V_delete, and a GC
  // sweep finds nothing extra.
  ASSERT_TRUE(store.Modify(A1(), Value::Int(99)).ok());
  EXPECT_FALSE(store.Contains(Oid("YP.P1")));
  EXPECT_EQ(store.CollectGarbage(), 0u);
}

// Query equivalence: virtual view, unswizzled materialized view, and
// swizzled materialized view answer follow-on queries identically (modulo
// the delegate OID mapping), per §3.2/§3.3.
TEST(IntegrationTest, QueryEquivalenceAcrossRepresentations) {
  ObjectStore store;
  ASSERT_TRUE(BuildPersonDb(&store).ok());

  auto vdef = ViewDefinition::Parse(
      "define view V as: SELECT ROOT.* X WHERE X.name = 'John' "
      "WITHIN PERSON");
  ASSERT_TRUE(RegisterVirtualView(store, *vdef).ok());

  auto mdef = ViewDefinition::Parse(
      "define mview MV as: SELECT ROOT.* X WHERE X.name = 'John' "
      "WITHIN PERSON");
  MaterializedView plain(&store, *mdef);
  ASSERT_TRUE(plain.Initialize(store).ok());

  auto sdef = ViewDefinition::Parse(
      "define mview SW as: SELECT ROOT.* X WHERE X.name = 'John' "
      "WITHIN PERSON");
  MaterializedView::Options options;
  options.swizzle = true;
  MaterializedView swizzled(&store, *sdef, options);
  ASSERT_TRUE(swizzled.Initialize(store).ok());

  // Follow-on: the majors of everyone in the view.
  auto via_virtual = EvaluateQueryText(store, "SELECT V.?.major");
  auto via_plain = EvaluateQueryText(store, "SELECT MV.?.major");
  auto via_swizzled = EvaluateQueryText(store, "SELECT SW.?.major");
  ASSERT_TRUE(via_virtual.ok());
  ASSERT_TRUE(via_plain.ok());
  ASSERT_TRUE(via_swizzled.ok());
  EXPECT_EQ(*via_virtual, OidSet({M3()}));
  EXPECT_EQ(*via_plain, OidSet({M3()}))
      << "unswizzled delegates point at base objects";
  // Swizzled: P3's delegate is local, so the traversal finds the base M3
  // through SW.P3's (unswizzled leaf) edge.
  EXPECT_EQ(*via_swizzled, OidSet({M3()}));
}

// Multi-source warehouse (Figure 6 has Source 1..N): independent views on
// independent sources, events routed to the right maintainer.
TEST(IntegrationTest, MultiSourceWarehouse) {
  ObjectStore people;
  ASSERT_TRUE(BuildPersonDb(&people, /*with_database=*/false).ok());

  ObjectStore inventory;
  ASSERT_TRUE(inventory.PutAtomic(Oid("PRICE1"), "price", Value::Int(5)).ok());
  ASSERT_TRUE(inventory.PutSet(Oid("ITEM1"), "item", {Oid("PRICE1")}).ok());
  ASSERT_TRUE(inventory.PutSet(Oid("SHOP"), "shop", {Oid("ITEM1")}).ok());

  ObjectStore warehouse_store;
  Warehouse warehouse(&warehouse_store);
  ASSERT_TRUE(warehouse
                  .ConnectSource(&people, Root(), ReportingLevel::kWithValues,
                                 "people")
                  .ok());
  ASSERT_TRUE(warehouse
                  .ConnectSource(&inventory, Oid("SHOP"),
                                 ReportingLevel::kWithValues, "shop")
                  .ok());
  EXPECT_EQ(warehouse.source_count(), 2u);
  EXPECT_EQ(warehouse.monitor(), nullptr) << "ambiguous with two sources";

  // DefineView must name a source when several are connected.
  EXPECT_FALSE(warehouse
                   .DefineView("define mview YP as: SELECT ROOT.professor X "
                               "WHERE X.age <= 45")
                   .ok());
  ASSERT_TRUE(warehouse
                  .DefineView(
                      "define mview YP as: SELECT ROOT.professor X "
                      "WHERE X.age <= 45",
                      Warehouse::CacheMode::kNone, "people")
                  .ok());
  ASSERT_TRUE(warehouse
                  .DefineView(
                      "define mview CHEAP as: SELECT SHOP.item X "
                      "WHERE X.price <= 10",
                      Warehouse::CacheMode::kFull, "shop")
                  .ok());
  EXPECT_FALSE(warehouse
                   .DefineView("define mview BAD as: SELECT SHOP.item X",
                               Warehouse::CacheMode::kNone, "people")
                   .ok())
      << "entry must match the named source's root";

  // Updates on each source maintain only that source's views.
  ASSERT_TRUE(people.Modify(A1(), Value::Int(99)).ok());
  ASSERT_TRUE(inventory.Modify(Oid("PRICE1"), Value::Int(50)).ok());
  ASSERT_TRUE(warehouse.last_status().ok())
      << warehouse.last_status().ToString();
  EXPECT_EQ(warehouse.view("YP")->BaseMembers(), OidSet());
  EXPECT_EQ(warehouse.view("CHEAP")->BaseMembers(), OidSet());

  ASSERT_TRUE(inventory.Modify(Oid("PRICE1"), Value::Int(3)).ok());
  EXPECT_EQ(warehouse.view("CHEAP")->BaseMembers(), OidSet({Oid("ITEM1")}));
  EXPECT_TRUE(
      CheckViewConsistency(*warehouse.view("YP"), people).consistent);
  EXPECT_TRUE(
      CheckViewConsistency(*warehouse.view("CHEAP"), inventory).consistent);

  // Duplicate names / roots rejected.
  EXPECT_EQ(warehouse
                .ConnectSource(&people, Root(), ReportingLevel::kOidsOnly,
                               "people2")
                .code(),
            StatusCode::kAlreadyExists)
      << "same root";
}

// DataGuide-derived knowledge plugs straight into the warehouse screen.
TEST(IntegrationTest, BuiltPathKnowledgeScreens) {
  ObjectStore source;
  ASSERT_TRUE(BuildPersonDb(&source, /*with_database=*/false).ok());
  PathKnowledge knowledge = BuildPathKnowledge(source, Root());

  // Derived facts from Example 2's data.
  EXPECT_TRUE(knowledge.HasKnowledgeFor("person"));
  EXPECT_TRUE(knowledge.MayHaveChild("professor", "age"));
  EXPECT_FALSE(knowledge.MayHaveChild("student", "salary"));
  EXPECT_EQ(knowledge.FeasiblePrefix("person", *Path::Parse("student.salary")),
            1u);

  ObjectStore warehouse_store;
  Warehouse warehouse(&warehouse_store);
  ASSERT_TRUE(warehouse
                  .ConnectSource(&source, Root(), ReportingLevel::kWithValues)
                  .ok());
  ASSERT_TRUE(warehouse
                  .DefineView(
                      "define mview SS as: SELECT ROOT.student X "
                      "WHERE X.salary > 0")
                  .ok());
  warehouse.SetPathKnowledge(knowledge);
  warehouse.costs().Reset();

  // Salary churn under a professor: impossible below students, screened.
  ASSERT_TRUE(source.Modify(S1(), Value::Int(1)).ok());
  EXPECT_EQ(warehouse.costs().source_queries, 0);
  EXPECT_EQ(warehouse.costs().events_screened_out, 1);
  EXPECT_TRUE(warehouse.last_status().ok());
}

// Kitchen-sink soak: a warehouse over two sources — a native OEM tree fed
// by transactions, and a legacy relational source behind the GSDB adapter —
// with deferred, compacted drains. Everything must converge.
TEST(IntegrationTest, FullStackSoak) {
  // Source 1: a native OEM tree.
  ObjectStore tree_source;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 4;
  tree_options.seed = 47;
  auto tree = GenerateTree(&tree_source, tree_options);
  ASSERT_TRUE(tree.ok());

  // Source 2: a relational database translated to OEM (Figure 6 wrapper).
  RelationalSource relational;
  ASSERT_TRUE(relational.CreateTable("emp", {"name", "salary"}).ok());
  ObjectStore rel_source;
  GsdbSourceAdapter adapter(&rel_source, &relational, "REL");
  ASSERT_TRUE(adapter.Initialize().ok());

  ObjectStore warehouse_store;
  Warehouse warehouse(&warehouse_store);
  ASSERT_TRUE(warehouse
                  .ConnectSource(&tree_source, tree->root,
                                 ReportingLevel::kWithValues, "tree")
                  .ok());
  ASSERT_TRUE(warehouse
                  .ConnectSource(&rel_source, Oid("REL"),
                                 ReportingLevel::kWithValues, "erp")
                  .ok());
  std::string tree_view_def = TreeViewDefinition("TV", tree->root, 2, 3, 50);
  ASSERT_TRUE(warehouse
                  .DefineView(tree_view_def, Warehouse::CacheMode::kFull,
                              "tree")
                  .ok());
  ASSERT_TRUE(warehouse
                  .DefineView(
                      "define mview RICH as: SELECT REL.emp.tuple X "
                      "WHERE X.salary >= 5000",
                      Warehouse::CacheMode::kNone, "erp")
                  .ok());
  warehouse.set_deferred(true);

  UpdateGenOptions gen_options;
  gen_options.seed = 83;
  UpdateGenerator generator(&tree_source, tree->root, gen_options);
  Random rng(7);
  std::vector<int64_t> rows;
  for (int round = 0; round < 8; ++round) {
    // Tree churn, partly through transactions.
    ASSERT_TRUE(generator.Run(20).ok());
    {
      Transaction txn(&tree_source);
      const Oid leaf = tree->leaves[rng.Uniform(tree->leaves.size())];
      if (tree_source.Contains(leaf) && tree_source.Get(leaf)->IsAtomic()) {
        txn.Modify(leaf, Value::Int(rng.UniformInt(0, 99)));
        txn.Modify(leaf, Value::Int(rng.UniformInt(0, 99)));
        ASSERT_TRUE(txn.Commit().ok());
      }
    }
    // Relational churn.
    auto row = relational.InsertRow(
        "emp", {Value::Str("e" + std::to_string(round)),
                Value::Int(rng.UniformInt(1000, 9000))});
    ASSERT_TRUE(row.ok());
    rows.push_back(*row);
    if (rows.size() > 2 && rng.Bernoulli(0.5)) {
      int64_t victim = rows[rng.Uniform(rows.size())];
      (void)relational.DeleteRow("emp", victim);  // may already be gone
    }
    if (!rows.empty()) {
      (void)relational.UpdateRow("emp", rows[rng.Uniform(rows.size())],
                                 "salary",
                                 Value::Int(rng.UniformInt(1000, 9000)));
    }
    ASSERT_TRUE(relational.last_translation_status().ok());

    // Coalesced deferred drain, then both views must equal truth.
    ASSERT_TRUE(warehouse.ProcessPending().ok())
        << warehouse.last_status().ToString();
    auto tree_truth =
        EvaluateView(tree_source, *ViewDefinition::Parse(tree_view_def));
    ASSERT_TRUE(tree_truth.ok());
    ASSERT_EQ(warehouse.view("TV")->BaseMembers(), *tree_truth)
        << "round " << round;
    auto rich_truth = EvaluateView(
        rel_source, *ViewDefinition::Parse(
                        "define mview RICH as: SELECT REL.emp.tuple X "
                        "WHERE X.salary >= 5000"));
    ASSERT_TRUE(rich_truth.ok());
    ASSERT_EQ(warehouse.view("RICH")->BaseMembers(), *rich_truth)
        << "round " << round;
  }
  EXPECT_TRUE(
      CheckViewConsistency(*warehouse.view("TV"), tree_source).consistent);
  EXPECT_TRUE(
      CheckViewConsistency(*warehouse.view("RICH"), rel_source).consistent);
}

// End-to-end: generated tree serialized, reloaded, re-materialized — views
// over the reloaded store equal views over the original.
TEST(IntegrationTest, ViewsSurviveSerializationRoundTrip) {
  ObjectStore original;
  TreeGenOptions options;
  options.levels = 3;
  options.fanout = 3;
  options.seed = 77;
  auto tree = GenerateTree(&original, options);
  ASSERT_TRUE(tree.ok());
  auto def = ViewDefinition::Parse(
      TreeViewDefinition("TV", tree->root, 2, 3, 50));
  auto original_members = EvaluateView(original, *def);
  ASSERT_TRUE(original_members.ok());

  // Round trip through the text format (see serialize_test for details).
  ObjectStore reloaded;
  ASSERT_TRUE(StoreFromString(StoreToString(original), &reloaded).ok());
  auto reloaded_members = EvaluateView(reloaded, *def);
  ASSERT_TRUE(reloaded_members.ok());
  EXPECT_EQ(*reloaded_members, *original_members);
}

}  // namespace
}  // namespace gsv
