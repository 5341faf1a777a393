// Discrimination-network (GDN) engine suite: the generalized incremental
// maintainer for the §6 view classes Algorithm 1 cannot handle. The
// randomized twin property test drives one source through tree- and
// DAG-preserving update streams, plus silently Put() subtrees linked by one
// insert, and demands byte-identity between the GDN warehouse (K=1) and the
// 4-shard warehouse, whose network runs on the view's host shard, each
// deferred and inline, and the §4.4 full-recompute oracle. Durability
// tests kill the warehouse mid-batch and check that recovery rebuilds every
// network from the restored base — at K=4 on the host, reconciled against
// every recovered slice; the concurrency test drains many networks in
// parallel. The engine-seam cases check that a K=4 warehouse counts each
// source event once beside a hosted network, and pin the explain text for
// each engine and for a shard's slice of a network hosted elsewhere. This
// binary carries the `gdn-paged` ctest label: ci.sh re-runs it under ASan,
// TSan, and the paged-engine stages.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/materialized_view.h"
#include "core/recompute.h"
#include "core/virtual_view.h"
#include "core/view_definition.h"
#include "ivm/gdn_network.h"
#include "oem/paged_engine.h"
#include "oem/store.h"
#include "storage/checkpoint.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/warehouse.h"
#include "workload/person_db.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

std::string TempDir(const std::string& tag) {
  std::string path = ::testing::TempDir() + "gsv_ivm_" +
                     std::to_string(::getpid()) + "_" + tag;
  std::filesystem::remove_all(path);
  return path;
}

// CI re-points the GDN warehouses' delegate stores at the paged engine via
// GSV_STORAGE_ENGINE=paged (ci.sh "paged" stages); unset, the factory is
// null and the memory default serves. Twins and oracles stay memory-
// resident on purpose, so under the override every byte-identity assertion
// doubles as a cross-engine check.
ObjectStore::Options DelegateStoreOptions() {
  ObjectStore::Options options;
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

ShardedWarehouse::Options ShardedDelegateOptions() {
  ShardedWarehouse::Options options;
  options.engine_factory = MakeEngineFactoryFromEnv();
  return options;
}

// General (non-simple) view definitions over a generated tree: every shape
// is rejected by Algorithm 1 and exercises a different §6 relaxation.
std::string GeneralDefinition(int shape, const Oid& root,
                              const std::string& name = "GV") {
  const std::string r = root.str();
  const std::string head = "define mview " + name + " as: SELECT " + r;
  switch (shape) {
    case 0:  // '*' select path: any descendant can join or leave
      return head + ".* X WHERE X.age <= 50";
    case 1:  // '?' atoms: label-oblivious two-level select
      return head + ".?.? X WHERE X.age <= 50";
    case 2:  // OR of disjoint ranges
      return head + ".* X WHERE X.age <= 25 OR X.age > 75";
    default:  // AND window on one witness path
      return head + ".?.? X WHERE X.age > 20 AND X.age <= 70";
  }
}

// Silently Put()s a fresh subtree and returns its top in `*top`; no event
// reports any of it. Three levels deep (top, two middle nodes, leaves) with
// a witness (age 22) and non-witnesses (age 72) under every
// GeneralDefinition shape. With `known` valid, the second middle node also
// points at that object, which the network has already absorbed — a DAG
// edge, so tree-mode callers pass an invalid Oid.
void PutFreshSubtree(ObjectStore* source, const std::string& prefix,
                     const Oid& known, Oid* top) {
  const Oid a0(prefix + "a0"), a1(prefix + "a1"), a2(prefix + "a2");
  const Oid n1(prefix + "n1"), m1(prefix + "m1"), m2(prefix + "m2");
  ASSERT_TRUE(source->PutAtomic(a0, "age", Value::Int(72)).ok());
  ASSERT_TRUE(source->PutAtomic(a1, "age", Value::Int(22)).ok());
  ASSERT_TRUE(source->PutAtomic(a2, "age", Value::Int(72)).ok());
  ASSERT_TRUE(source->PutAtomic(n1, "note", Value::Int(7)).ok());
  ASSERT_TRUE(source->PutSet(m1, "person", {a1, n1}).ok());
  std::vector<Oid> m2_children = {a2};
  if (known.valid()) m2_children.push_back(known);
  ASSERT_TRUE(source->PutSet(m2, "person", m2_children).ok());
  *top = Oid(prefix + "t");
  ASSERT_TRUE(source->PutSet(*top, "person", {a0, m1, m2}).ok());
}

// Shards of `warehouse` that run a network for `view`: its host alone.
size_t NetworkShards(ShardedWarehouse& warehouse, const std::string& view) {
  size_t count = 0;
  for (uint32_t i = 0; i < warehouse.shard_count(); ++i) {
    count += warehouse.shard(i).gdn_engine(view) != nullptr;
  }
  return count;
}

// ------------------------------------------------- randomized twin suite

struct GdnParam {
  uint64_t seed;
  UpdateMode mode;
  int shape;
  size_t batches;
  size_t batch_size;
};

std::string GdnParamName(const ::testing::TestParamInfo<GdnParam>& info) {
  const GdnParam& p = info.param;
  return "seed" + std::to_string(p.seed) +
         (p.mode == UpdateMode::kDagPreserving ? "_dag" : "_tree") + "_s" +
         std::to_string(p.shape);
}

const GdnParam kGdnParams[] = {
    {1, UpdateMode::kTreePreserving, 0, 8, 15},
    {2, UpdateMode::kTreePreserving, 1, 8, 15},
    {3, UpdateMode::kTreePreserving, 2, 8, 15},
    {4, UpdateMode::kTreePreserving, 3, 8, 15},
    {5, UpdateMode::kDagPreserving, 0, 8, 15},
    {6, UpdateMode::kDagPreserving, 1, 8, 15},
    {7, UpdateMode::kDagPreserving, 2, 8, 15},
    {8, UpdateMode::kDagPreserving, 3, 8, 15},
};

class GdnPropertyTest : public ::testing::TestWithParam<GdnParam> {};

// One source, five maintainers: the GDN warehouse (level-1 events — the
// network re-reads store truth, so OIDs suffice) and the 4-shard
// warehouse, each once deferred and once inline (every event a drain of
// one), and the §4.4 recompute oracle. All must agree at every batch
// boundary, byte for byte. Every other batch the test links a silently Put
// subtree with one insert; in DAG streams it also points at a known object.
// At K=4 exactly one shard (the host) runs the network, over the same
// coalesced batches as K=1, so its propagation count matches K=1's.
TEST_P(GdnPropertyTest, EnginesMatchOracleAndShardsByteIdentical) {
  const GdnParam& p = GetParam();
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 3;
  tree_options.label_variety = 2;
  tree_options.seed = p.seed;
  tree_options.oid_prefix = "ivm" + std::to_string(p.seed) + "_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());
  const std::string definition = GeneralDefinition(p.shape, tree->root);
  auto def = ViewDefinition::Parse(definition);
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  const std::string prefix = "ivm" + std::to_string(p.seed) + "_";
  const bool dag = p.mode == UpdateMode::kDagPreserving;
  // A witness in the base before any engine starts (unlinked): the first
  // DAG-mode fresh subtree points at it.
  Oid known(prefix + "k");
  ASSERT_TRUE(source.PutAtomic(known, "age", Value::Int(22)).ok());

  ObjectStore w_store(DelegateStoreOptions());
  Warehouse warehouse(&w_store);
  ObjectStore inline_store(DelegateStoreOptions());
  Warehouse inline_warehouse(&inline_store);
  for (Warehouse* w : {&warehouse, &inline_warehouse}) {
    ASSERT_TRUE(
        w->ConnectSource(&source, tree->root, ReportingLevel::kOidsOnly).ok());
    ASSERT_TRUE(w->DefineView(definition).ok());
    ASSERT_EQ(w->view_engine("GV"), Warehouse::EngineKind::kGdn);
  }
  warehouse.set_deferred(true);

  ShardedWarehouse sharded(4, ShardedDelegateOptions());
  ShardedWarehouse inline_sharded(4, ShardedDelegateOptions());
  for (ShardedWarehouse* w : {&sharded, &inline_sharded}) {
    ASSERT_TRUE(w->init_status().ok());
    ASSERT_TRUE(
        w->ConnectSource(&source, tree->root, ReportingLevel::kOidsOnly).ok());
    ASSERT_TRUE(w->DefineView(definition).ok());
    ASSERT_EQ(NetworkShards(*w, "GV"), 1u);
  }
  sharded.set_deferred(true);

  ObjectStore r_store;
  MaterializedView r_view(&r_store, *def);
  ASSERT_TRUE(r_view.Initialize(source).ok());
  RecomputeMaintainer recompute(&r_view, &source);

  UpdateGenOptions gen_options;
  gen_options.mode = p.mode;
  gen_options.seed = p.seed + 77;
  gen_options.oid_prefix = "ivm" + std::to_string(p.seed) + "_u";
  UpdateGenerator gen(&source, tree->root, gen_options);

  for (size_t batch = 0; batch < p.batches; ++batch) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    ASSERT_TRUE(gen.Run(p.batch_size).ok());
    if (batch % 2 == 1) {
      const std::string fresh = prefix + "f" + std::to_string(batch) + "_";
      Oid top;
      ASSERT_NO_FATAL_FAILURE(
          PutFreshSubtree(&source, fresh, dag ? known : Oid(), &top));
      ASSERT_TRUE(source.Insert(tree->root, top).ok());
      known = Oid(fresh + "a1");  // absorbed by the link just made
    }
    ASSERT_TRUE(warehouse.ProcessPendingBatch().ok())
        << warehouse.last_status().ToString();
    ASSERT_TRUE(sharded.ProcessPendingBatch(4).ok());
    ASSERT_TRUE(recompute.Recompute().ok());

    ASSERT_TRUE(inline_warehouse.last_status().ok())
        << inline_warehouse.last_status().ToString();
    // An inline network error surfaces on its host's last_status().
    for (uint32_t i = 0; i < inline_sharded.shard_count(); ++i) {
      ASSERT_TRUE(inline_sharded.shard(i).last_status().ok())
          << "shard " << i << ": "
          << inline_sharded.shard(i).last_status().ToString();
    }

    MaterializedView* w_view = warehouse.view("GV");
    ASSERT_NE(w_view, nullptr);
    const auto expected = ViewContentLines(r_view);
    EXPECT_EQ(ViewContentLines(*w_view), expected);
    EXPECT_EQ(ViewContentLines(*inline_warehouse.view("GV")), expected);
    EXPECT_EQ(sharded.ViewContents("GV"), expected);
    EXPECT_EQ(inline_sharded.ViewContents("GV"), expected);
  }

  // The network actually propagated (no silent recompute fallback), on the
  // 1-shard engine and on the host's, and the host did exactly K=1's work.
  ASSERT_NE(warehouse.gdn_engine("GV"), nullptr);
  const int64_t propagations = warehouse.gdn_engine("GV")->stats().propagations;
  const int64_t inline_propagations =
      inline_warehouse.gdn_engine("GV")->stats().propagations;
  EXPECT_GT(propagations, 0);
  EXPECT_GT(inline_propagations, 0);
  EXPECT_EQ(sharded.ExplainView("GV").gdn_propagations, propagations);
  EXPECT_EQ(inline_sharded.ExplainView("GV").gdn_propagations,
            inline_propagations);
  EXPECT_EQ(NetworkShards(sharded, "GV"), 1u);
  EXPECT_EQ(NetworkShards(inline_sharded, "GV"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Randomized, GdnPropertyTest,
                         ::testing::ValuesIn(kGdnParams), GdnParamName);

// ------------------------------------------------------ engine selection

TEST(GdnEngineSelectionTest, SimpleViewsKeepAlgorithm1) {
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.seed = 11;
  tree_options.oid_prefix = "sel_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  ObjectStore store;
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse.ConnectSource(&source, tree->root, ReportingLevel::kWithValues)
          .ok());
  ASSERT_TRUE(
      warehouse.DefineView(TreeViewDefinition("SV", tree->root, 2, 4, 50))
          .ok());
  EXPECT_EQ(warehouse.view_engine("SV"), Warehouse::EngineKind::kAlgorithm1);
  const ShardedViewExplanation explanation = warehouse.ExplainView("SV");
  EXPECT_EQ(explanation.engine, "algorithm1");
  EXPECT_NE(explanation.ToString().find("engine: algorithm1"),
            std::string::npos);
}

TEST(GdnEngineSelectionTest, GeneralViewsGetTheNetworkAndExplainIt) {
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.seed = 12;
  tree_options.oid_prefix = "sel2_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  ObjectStore store;
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse.ConnectSource(&source, tree->root, ReportingLevel::kOidsOnly)
          .ok());
  ASSERT_TRUE(warehouse.DefineView(GeneralDefinition(0, tree->root)).ok());
  EXPECT_EQ(warehouse.view_engine("GV"), Warehouse::EngineKind::kGdn);
  const GdnEngine* engine = warehouse.gdn_engine("GV");
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->node_count(), 0u);

  const ShardedViewExplanation explanation = warehouse.ExplainView("GV");
  EXPECT_EQ(explanation.engine, "gdn");
  EXPECT_GT(explanation.gdn_nodes, 0u);
  EXPECT_NE(explanation.ToString().find("engine: gdn"), std::string::npos);
}

TEST(GdnEngineSelectionTest, AuxCachesRejectedForGeneralViews) {
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.seed = 14;
  tree_options.oid_prefix = "sel4_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  ObjectStore store;
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse.ConnectSource(&source, tree->root, ReportingLevel::kOidsOnly)
          .ok());
  Status status = warehouse.DefineView(GeneralDefinition(0, tree->root),
                                       Warehouse::CacheMode::kFull);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
      << status.ToString();
}

// ----------------------------------------------------- engine-level units

TEST(GdnEngineTest, PropagationBudgetPoisonsAndRebuildHeals) {
  ObjectStore store;
  ASSERT_TRUE(BuildPersonDb(&store).ok());
  auto def = ViewDefinition::Parse(
      "define mview V as: SELECT ROOT.* X WHERE X.name = 'John'");
  ASSERT_TRUE(def.ok());

  GdnEngine::Options tiny;
  tiny.max_propagations_per_update = 1;
  GdnEngine engine(&store, *def, Root(), tiny);
  // Rebuilds are exempt from the budget.
  ASSERT_TRUE(engine.Initialize().ok());

  ObjectStore view_store;
  MaterializedView view(&view_store, *def);
  ASSERT_TRUE(view.Initialize(store).ok());

  // A fresh John two levels deep touches far more than one support edge.
  ASSERT_TRUE(store.PutAtomic(Oid("N9"), "name", Value::Str("John")).ok());
  ASSERT_TRUE(store.PutSet(Oid("P9"), "advisee", {Oid("N9")}).ok());
  ASSERT_TRUE(store.Insert(P3(), Oid("P9")).ok());
  Status status =
      engine.Apply(Update::Insert(P3(), Oid("P9")), &view);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(engine.poisoned());
  // Once poisoned, every Apply refuses.
  EXPECT_EQ(engine.Apply(Update::Insert(P3(), Oid("P9")), &view).code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(engine.Rebuild().ok());
  EXPECT_FALSE(engine.poisoned());
  ASSERT_TRUE(engine.Reconcile(&view).ok());
  EXPECT_EQ(view.BaseMembers(), OidSet({P1(), P3(), Oid("P9")}));
}

// ---------------------------------------------------------- fresh subtrees

// Objects Put silently, then linked by a single insert event: the network
// must absorb the whole region below the event's child, including an edge
// from a fresh node to an object it already knows. K=1 and K=4 both.
TEST(GdnFreshSubtreeTest, OneInsertLinksASilentlyPutSubtree) {
  ObjectStore source;
  ASSERT_TRUE(source.PutAtomic(Oid("FA1"), "age", Value::Int(45)).ok());
  ASSERT_TRUE(source.PutSet(Oid("FP1"), "person", {Oid("FA1")}).ok());
  ASSERT_TRUE(source.PutSet(Oid("FR"), "root", {Oid("FP1")}).ok());
  const std::string definition =
      "define mview FV as: SELECT FR.* X WHERE X.age > 40";
  auto def = ViewDefinition::Parse(definition);
  ASSERT_TRUE(def.ok());

  ObjectStore store(DelegateStoreOptions());
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse.ConnectSource(&source, Oid("FR"), ReportingLevel::kOidsOnly)
          .ok());
  ASSERT_TRUE(warehouse.DefineView(definition).ok());
  warehouse.set_deferred(true);
  ShardedWarehouse sharded(4, ShardedDelegateOptions());
  ASSERT_TRUE(sharded.init_status().ok());
  ASSERT_TRUE(
      sharded.ConnectSource(&source, Oid("FR"), ReportingLevel::kOidsOnly)
          .ok());
  ASSERT_TRUE(sharded.DefineView(definition).ok());
  sharded.set_deferred(true);

  auto expect_truth = [&](const OidSet& want) {
    ASSERT_TRUE(warehouse.ProcessPendingBatch().ok())
        << warehouse.last_status().ToString();
    ASSERT_TRUE(sharded.ProcessPendingBatch(4).ok());
    auto truth = EvaluateView(source, *def);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(*truth, want);
    EXPECT_EQ(warehouse.view("FV")->BaseMembers(), *truth);
    EXPECT_EQ(sharded.ViewContents("FV"),
              ViewContentLines(*warehouse.view("FV")));
  };

  ASSERT_TRUE(source.PutAtomic(Oid("FA3"), "age", Value::Int(60)).ok());
  ASSERT_TRUE(source.PutSet(Oid("FP3"), "person", {Oid("FA3")}).ok());
  ASSERT_TRUE(source.Insert(Oid("FR"), Oid("FP3")).ok());
  ASSERT_NO_FATAL_FAILURE(expect_truth(OidSet({Oid("FP1"), Oid("FP3")})));

  // A fresh node whose only witness is an object the network knows.
  ASSERT_TRUE(source.PutSet(Oid("FP4"), "person", {Oid("FA1")}).ok());
  ASSERT_TRUE(source.Insert(Oid("FR"), Oid("FP4")).ok());
  ASSERT_NO_FATAL_FAILURE(
      expect_truth(OidSet({Oid("FP1"), Oid("FP3"), Oid("FP4")})));
}

// ------------------------------------------------------------ WITHIN flips

// Scope-database membership changes are ordinary basic updates on the
// database object; the network's filter refresh must flip members in and
// out without a recompute.
TEST(GdnWithinTest, ScopeFlipsPropagateThroughTheNetwork) {
  ObjectStore source;
  ASSERT_TRUE(source.PutSet(Oid("WR"), "root").ok());
  ASSERT_TRUE(source.PutSet(Oid("WP1"), "person").ok());
  ASSERT_TRUE(source.PutSet(Oid("WP2"), "person").ok());
  ASSERT_TRUE(source.PutAtomic(Oid("WA1"), "age", Value::Int(30)).ok());
  ASSERT_TRUE(source.PutAtomic(Oid("WA2"), "age", Value::Int(40)).ok());
  ASSERT_TRUE(source.Insert(Oid("WR"), Oid("WP1")).ok());
  ASSERT_TRUE(source.Insert(Oid("WR"), Oid("WP2")).ok());
  ASSERT_TRUE(source.Insert(Oid("WP1"), Oid("WA1")).ok());
  ASSERT_TRUE(source.Insert(Oid("WP2"), Oid("WA2")).ok());
  // D covers everything except WA2.
  ASSERT_TRUE(
      source.PutSet(Oid("WD"), "database",
                    {Oid("WR"), Oid("WP1"), Oid("WP2"), Oid("WA1")})
          .ok());
  ASSERT_TRUE(source.RegisterDatabase("D", Oid("WD")).ok());

  ObjectStore store;
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse.ConnectSource(&source, Oid("WR"), ReportingLevel::kOidsOnly)
          .ok());
  ASSERT_TRUE(warehouse
                  .DefineView(
                      "define mview WV as: SELECT WR.person X "
                      "WHERE X.age <= 100 WITHIN D")
                  .ok());
  ASSERT_EQ(warehouse.view_engine("WV"), Warehouse::EngineKind::kGdn);
  MaterializedView* view = warehouse.view("WV");
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->BaseMembers(), OidSet({Oid("WP1")}))
      << "WA2 is outside the scope";

  // WA2 joins the scope: WP2's condition witness becomes visible.
  ASSERT_TRUE(source.Insert(Oid("WD"), Oid("WA2")).ok());
  ASSERT_TRUE(warehouse.last_status().ok())
      << warehouse.last_status().ToString();
  EXPECT_EQ(view->BaseMembers(), OidSet({Oid("WP1"), Oid("WP2")}));

  // WA1 leaves the scope: WP1 drops out.
  ASSERT_TRUE(source.Delete(Oid("WD"), Oid("WA1")).ok());
  EXPECT_EQ(view->BaseMembers(), OidSet({Oid("WP2")}));
}

// ----------------------------------------------------------- durability

struct GdnTwinRig {
  ObjectStore source_durable;
  ObjectStore source_twin;
  Oid root;
  std::string definition;
  ObjectStore twin_store;
  std::unique_ptr<Warehouse> twin;
  std::unique_ptr<UpdateGenerator> gen_durable;
  std::unique_ptr<UpdateGenerator> gen_twin;

  void Init(uint64_t tree_seed, uint64_t update_seed) {
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 3;
    tree_options.label_variety = 2;
    tree_options.seed = tree_seed;
    tree_options.oid_prefix = "ivmk_";
    auto tree_d = GenerateTree(&source_durable, tree_options);
    auto tree_t = GenerateTree(&source_twin, tree_options);
    ASSERT_TRUE(tree_d.ok());
    ASSERT_TRUE(tree_t.ok());
    root = tree_d->root;
    definition = GeneralDefinition(0, root);

    twin = std::make_unique<Warehouse>(&twin_store);
    ASSERT_TRUE(
        twin->ConnectSource(&source_twin, root, ReportingLevel::kOidsOnly)
            .ok());
    ASSERT_TRUE(twin->DefineView(definition).ok());
    twin->set_deferred(true);

    UpdateGenOptions gen_options;
    gen_options.seed = update_seed;
    gen_options.oid_prefix = "ivmk_u";
    gen_durable =
        std::make_unique<UpdateGenerator>(&source_durable, root, gen_options);
    gen_twin =
        std::make_unique<UpdateGenerator>(&source_twin, root, gen_options);
  }
};

// Kill the warehouse at arbitrary WAL bytes mid-batch; recovery must
// rebuild the network from the restored base, replay the tail
// convergently, and finish the workload byte-identical to the live twin.
TEST(GdnDurabilityTest, RandomizedKillMidBatchConvergesByteIdentical) {
  constexpr size_t kUpdates = 100;
  constexpr size_t kDrainEvery = 5;

  int64_t total_bytes = 0;
  {
    std::string dir = TempDir("kill_probe");
    GdnTwinRig rig;
    ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/31, /*update_seed=*/601));
    ObjectStore store_d(DelegateStoreOptions());
    Warehouse durable(&store_d);
    ASSERT_TRUE(durable
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kOidsOnly)
                    .ok());
    durable.set_deferred(true);
    Warehouse::DurabilityOptions options;
    options.dir = dir;
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(durable.DefineView(rig.definition).ok());
    for (size_t i = 0; i < kUpdates; ++i) {
      ASSERT_TRUE(rig.gen_durable->Step().ok());
      if ((i + 1) % kDrainEvery == 0) {
        ASSERT_TRUE(durable.ProcessPendingBatch().ok());
      }
    }
    ASSERT_TRUE(durable.ProcessPendingBatch().ok());
    total_bytes = durable.wal()->bytes_written();
    std::filesystem::remove_all(dir);
  }
  ASSERT_GT(total_bytes, 0);

  for (int iteration = 0; iteration < 6; ++iteration) {
    SCOPED_TRACE("iteration " + std::to_string(iteration));
    int64_t budget =
        total_bytes * (2 * iteration + 1) / 12 + 3 * iteration + 1;
    std::string dir = TempDir("kill_" + std::to_string(iteration));

    GdnTwinRig rig;
    ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/31, /*update_seed=*/601));

    Warehouse::DurabilityOptions options;
    options.dir = dir;
    options.fsync = FsyncPolicy::kCommit;
    options.checkpoint_interval_events = 30;

    size_t applied = 0;
    {
      ObjectStore store_d(DelegateStoreOptions());
      Warehouse durable(&store_d);
      ASSERT_TRUE(durable
                      .ConnectSource(&rig.source_durable, rig.root,
                                     ReportingLevel::kOidsOnly)
                      .ok());
      durable.set_deferred(true);
      ASSERT_TRUE(durable.EnableDurability(options).ok());
      ASSERT_TRUE(durable.DefineView(rig.definition).ok());
      durable.wal()->set_crash_after_bytes(budget);
      while (applied < kUpdates) {
        ASSERT_TRUE(rig.gen_durable->Step().ok());
        ++applied;
        if (durable.wal()->crashed()) break;
        if (applied % kDrainEvery == 0) {
          durable.ProcessPendingBatch();  // errors surface via last_status_
          if (durable.wal()->crashed()) break;
        }
      }
      // Abandoned exactly as a process death would leave it.
    }

    for (size_t i = 0; i < kUpdates; ++i) {
      ASSERT_TRUE(rig.gen_twin->Step().ok());
      if ((i + 1) % kDrainEvery == 0) {
        ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
      }
    }
    ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());

    ObjectStore store_r(DelegateStoreOptions());
    Warehouse recovered(&store_r);
    ASSERT_TRUE(recovered
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kOidsOnly)
                    .ok());
    recovered.set_deferred(true);
    ASSERT_TRUE(recovered.EnableDurability(options).ok())
        << recovered.last_status().ToString();
    EXPECT_EQ(recovered.view_engine("GV"), Warehouse::EngineKind::kGdn);
    while (applied < kUpdates) {
      ASSERT_TRUE(rig.gen_durable->Step().ok());
      ++applied;
      if (applied % kDrainEvery == 0) {
        ASSERT_TRUE(recovered.ProcessPendingBatch().ok())
            << recovered.last_status().ToString();
      }
    }
    ASSERT_TRUE(recovered.ProcessPendingBatch().ok());
    ASSERT_EQ(recovered.stale_view_count(), 0u);

    MaterializedView* recovered_view = recovered.view("GV");
    MaterializedView* twin_view = rig.twin->view("GV");
    ASSERT_NE(recovered_view, nullptr);
    ASSERT_NE(twin_view, nullptr);
    EXPECT_EQ(ViewContentLines(*recovered_view), ViewContentLines(*twin_view));
  }
}

// A restart rebuilds the network from the checkpointed base and the
// warehouse keeps maintaining correctly from it — including a committed WAL
// tail past the checkpoint, which must replay convergently over the rebuilt
// network.
TEST(GdnDurabilityTest, CheckpointRestoresNetworkStateAcrossRestart) {
  const std::string dir = TempDir("ckpt");
  GdnTwinRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/37, /*update_seed=*/701));

  Warehouse::DurabilityOptions options;
  options.dir = dir;

  {
    ObjectStore store_d(DelegateStoreOptions());
    Warehouse durable(&store_d);
    ASSERT_TRUE(durable
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kOidsOnly)
                    .ok());
    durable.set_deferred(true);
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(durable.DefineView(rig.definition).ok());
    for (int burst = 0; burst < 3; ++burst) {
      ASSERT_TRUE(rig.gen_durable->Run(20).ok());
      ASSERT_TRUE(durable.ProcessPendingBatch().ok());
      ASSERT_TRUE(rig.gen_twin->Run(20).ok());
      ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
    }
    ASSERT_TRUE(durable.WriteCheckpoint().ok());
    // Committed tail past the checkpoint.
    ASSERT_TRUE(rig.gen_durable->Run(15).ok());
    ASSERT_TRUE(durable.ProcessPendingBatch().ok());
    ASSERT_TRUE(rig.gen_twin->Run(15).ok());
    ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
  }

  ObjectStore store_r(DelegateStoreOptions());
  Warehouse recovered(&store_r);
  ASSERT_TRUE(recovered
                  .ConnectSource(&rig.source_durable, rig.root,
                                 ReportingLevel::kOidsOnly)
                  .ok());
  recovered.set_deferred(true);
  ASSERT_TRUE(recovered.EnableDurability(options).ok())
      << recovered.last_status().ToString();
  EXPECT_TRUE(recovered.recovery_report().recovered_checkpoint);
  EXPECT_EQ(recovered.view_engine("GV"), Warehouse::EngineKind::kGdn);

  MaterializedView* recovered_view = recovered.view("GV");
  MaterializedView* twin_view = rig.twin->view("GV");
  ASSERT_NE(recovered_view, nullptr);
  ASSERT_NE(twin_view, nullptr);
  EXPECT_EQ(ViewContentLines(*recovered_view), ViewContentLines(*twin_view));

  // The restored network must keep maintaining, not just read back.
  ASSERT_TRUE(rig.gen_durable->Run(20).ok());
  ASSERT_TRUE(recovered.ProcessPendingBatch().ok());
  ASSERT_TRUE(rig.gen_twin->Run(20).ok());
  ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
  EXPECT_EQ(ViewContentLines(*recovered.view("GV")),
            ViewContentLines(*rig.twin->view("GV")));
}

// A clean restart rebuilds the network from the whole base, including a
// subtree that sat unlinked in the store at checkpoint time: linking it
// after the restart, and a subtree Put after the restart, must both be
// absorbed.
TEST(GdnDurabilityTest, FreshSubtreesLinkedAfterCleanRestart) {
  const std::string dir = TempDir("fresh");
  GdnTwinRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/43, /*update_seed=*/901));
  Warehouse::DurabilityOptions options;
  options.dir = dir;

  // Puts the same fresh subtree into both sources; links it when asked.
  auto fresh = [&](const std::string& tag, bool link) {
    for (ObjectStore* source : {&rig.source_durable, &rig.source_twin}) {
      Oid top;
      ASSERT_NO_FATAL_FAILURE(
          PutFreshSubtree(source, "ivmk_" + tag + "_", Oid(), &top));
      if (link) {
        ASSERT_TRUE(source->Insert(rig.root, top).ok());
      }
    }
  };
  {
    ObjectStore store_d(DelegateStoreOptions());
    Warehouse durable(&store_d);
    ASSERT_TRUE(durable
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kOidsOnly)
                    .ok());
    durable.set_deferred(true);
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(durable.DefineView(rig.definition).ok());
    ASSERT_TRUE(rig.gen_durable->Run(20).ok());
    ASSERT_TRUE(rig.gen_twin->Run(20).ok());
    ASSERT_NO_FATAL_FAILURE(fresh("linked", /*link=*/true));
    ASSERT_TRUE(durable.ProcessPendingBatch().ok());
    ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());
    ASSERT_NO_FATAL_FAILURE(fresh("pending", /*link=*/false));
    ASSERT_TRUE(durable.WriteCheckpoint().ok());
  }

  ObjectStore store_r(DelegateStoreOptions());
  Warehouse recovered(&store_r);
  ASSERT_TRUE(recovered
                  .ConnectSource(&rig.source_durable, rig.root,
                                 ReportingLevel::kOidsOnly)
                  .ok());
  recovered.set_deferred(true);
  ASSERT_TRUE(recovered.EnableDurability(options).ok())
      << recovered.last_status().ToString();
  ASSERT_NE(recovered.gdn_engine("GV"), nullptr);
  EXPECT_EQ(recovered.gdn_engine("GV")->stats().rebuilds, 1)
      << "recovery rebuilds the network once, even on a clean restart";

  for (ObjectStore* source : {&rig.source_durable, &rig.source_twin}) {
    ASSERT_TRUE(source->Insert(rig.root, Oid("ivmk_pending_t")).ok());
  }
  ASSERT_NO_FATAL_FAILURE(fresh("after", /*link=*/true));
  ASSERT_TRUE(recovered.ProcessPendingBatch().ok())
      << recovered.last_status().ToString();
  ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());

  auto def = ViewDefinition::Parse(rig.definition);
  ASSERT_TRUE(def.ok());
  auto truth = EvaluateView(rig.source_durable, *def);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(recovered.view("GV")->BaseMembers(), *truth);
  EXPECT_EQ(ViewContentLines(*recovered.view("GV")),
            ViewContentLines(*rig.twin->view("GV")));
}

// A home written before networks stopped carrying images: its newest
// checkpoint lists a gdn-GV.gsv memo image with a correct CRC. The image is
// stale on purpose (no members), so adopting it would show. Recovery still
// verifies the file, then ignores it and rebuilds; wal_inspect audits the
// home without error.
TEST(GdnDurabilityTest, LegacyHomeWithNetworkImageRecovers) {
  const std::string dir = TempDir("legacy");
  GdnTwinRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Init(/*tree_seed=*/47, /*update_seed=*/911));
  Warehouse::DurabilityOptions options;
  options.dir = dir;
  {
    ObjectStore store_d(DelegateStoreOptions());
    Warehouse durable(&store_d);
    ASSERT_TRUE(durable
                    .ConnectSource(&rig.source_durable, rig.root,
                                   ReportingLevel::kOidsOnly)
                    .ok());
    durable.set_deferred(true);
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(durable.DefineView(rig.definition).ok());
    ASSERT_TRUE(rig.gen_durable->Run(30).ok());
    ASSERT_TRUE(durable.ProcessPendingBatch().ok());
    ASSERT_TRUE(durable.WriteCheckpoint().ok());
    ASSERT_FALSE(durable.view("GV")->BaseMembers().empty());
  }
  ASSERT_TRUE(rig.gen_twin->Run(30).ok());
  ASSERT_TRUE(rig.twin->ProcessPendingBatch().ok());

  // Re-list the newest checkpoint's files with the legacy image added.
  auto list = ListCheckpoints(dir);
  ASSERT_TRUE(list.ok());
  ASSERT_FALSE(list->empty());
  const std::string newest = list->back().path;
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  std::vector<std::pair<std::string, std::pair<uint32_t, uint64_t>>> listed;
  auto manifest =
      DecodeCheckpointManifest(read_file(newest + "/MANIFEST"), &listed);
  ASSERT_TRUE(manifest.ok());
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : listed) {
    files.emplace_back(entry.first, read_file(newest + "/" + entry.first));
  }
  const std::string image =
      "gdn-memo v1 GV\nmembers 0\nnode reach 0\nnode sat0 0\nend\n";
  files.emplace_back("gdn-GV.gsv", image);
  auto write_file = [](const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    out.close();
    return !out.fail();
  };
  ASSERT_TRUE(write_file(newest + "/gdn-GV.gsv", image));
  ASSERT_TRUE(write_file(newest + "/MANIFEST",
                         EncodeCheckpointManifest(*manifest, files)));
  auto latest = LoadLatestCheckpoint(dir);
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->dir_name, list->back().name)
      << "the legacy image must pass the CRC and size check";

  const std::string audit = std::string(GSV_WAL_INSPECT_PATH) +
                            " checkpoints " + dir + " > /dev/null";
  const int rc = std::system(audit.c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 0);

  ObjectStore store_r(DelegateStoreOptions());
  Warehouse recovered(&store_r);
  ASSERT_TRUE(recovered
                  .ConnectSource(&rig.source_durable, rig.root,
                                 ReportingLevel::kOidsOnly)
                  .ok());
  recovered.set_deferred(true);
  ASSERT_TRUE(recovered.EnableDurability(options).ok())
      << recovered.last_status().ToString();
  EXPECT_TRUE(recovered.recovery_report().recovered_checkpoint);
  ASSERT_NE(recovered.gdn_engine("GV"), nullptr);
  EXPECT_EQ(recovered.gdn_engine("GV")->stats().rebuilds, 1);

  auto def = ViewDefinition::Parse(rig.definition);
  ASSERT_TRUE(def.ok());
  auto truth = EvaluateView(rig.source_durable, *def);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(recovered.view("GV")->BaseMembers(), *truth);
  EXPECT_EQ(ViewContentLines(*recovered.view("GV")),
            ViewContentLines(*rig.twin->view("GV")));
}

// Sharded durability with a hosted network: restart rebuilds the network
// on the view's host shard alone, reconciles it against every recovered
// slice, and the fleet keeps converging with a live 1-shard twin.
TEST(GdnDurabilityTest, ShardedRestartRebuildsCoordinatorEngine) {
  const std::string dir = TempDir("sharded");
  constexpr uint32_t kShards = 4;

  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 3;
  tree_options.label_variety = 2;
  tree_options.seed = 41;
  tree_options.oid_prefix = "ivms_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());
  const std::string definition = GeneralDefinition(2, tree->root);

  ObjectStore twin_store;
  Warehouse twin(&twin_store);
  ASSERT_TRUE(
      twin.ConnectSource(&source, tree->root, ReportingLevel::kOidsOnly).ok());
  ASSERT_TRUE(twin.DefineView(definition).ok());
  twin.set_deferred(true);

  UpdateGenOptions gen_options;
  gen_options.seed = 811;
  gen_options.oid_prefix = "ivms_u";
  UpdateGenerator gen(&source, tree->root, gen_options);

  {
    ShardedWarehouse durable(kShards, ShardedDelegateOptions());
    ASSERT_TRUE(durable.init_status().ok());
    ASSERT_TRUE(durable
                    .ConnectSource(&source, tree->root,
                                   ReportingLevel::kOidsOnly)
                    .ok());
    durable.set_deferred(true);
    ShardedWarehouse::DurabilityOptions options;
    options.dir = dir;
    ASSERT_TRUE(durable.EnableDurability(options).ok());
    ASSERT_TRUE(durable.DefineView(definition).ok());
    EXPECT_EQ(durable.ExplainView("GV").engine, "gdn");
    EXPECT_EQ(NetworkShards(durable, "GV"), 1u);

    for (int burst = 0; burst < 3; ++burst) {
      ASSERT_TRUE(gen.Run(25).ok());
      ASSERT_TRUE(twin.ProcessPendingBatch().ok());
      ASSERT_TRUE(durable.ProcessPendingBatch(kShards).ok());
    }
    MaterializedView* view = twin.view("GV");
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(durable.ViewContents("GV"), ViewContentLines(*view));
  }

  ShardedWarehouse recovered(kShards, ShardedDelegateOptions());
  ASSERT_TRUE(recovered.init_status().ok());
  ASSERT_TRUE(
      recovered.ConnectSource(&source, tree->root, ReportingLevel::kOidsOnly)
          .ok());
  recovered.set_deferred(true);
  ShardedWarehouse::DurabilityOptions options;
  options.dir = dir;
  ASSERT_TRUE(recovered.EnableDurability(options).ok());
  EXPECT_EQ(recovered.ExplainView("GV").engine, "gdn");
  EXPECT_EQ(NetworkShards(recovered, "GV"), 1u);
  EXPECT_EQ(recovered.ViewContents("GV"), ViewContentLines(*twin.view("GV")));

  ASSERT_TRUE(gen.Run(30).ok());
  ASSERT_TRUE(twin.ProcessPendingBatch().ok());
  ASSERT_TRUE(recovered.ProcessPendingBatch(kShards).ok());
  EXPECT_EQ(recovered.stale_view_count(), 0u);
  EXPECT_EQ(recovered.ViewContents("GV"), ViewContentLines(*twin.view("GV")));
}

// ----------------------------------------------------------- concurrency

// Many networks, one frozen source, parallel batch workers: engines of
// different views run concurrently during a drain (the TSan stage vets
// this binary). Every view must still match its recompute oracle.
TEST(GdnConcurrencyTest, ParallelDrainMaintainsManyNetworksRaceFree) {
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 4;
  tree_options.label_variety = 2;
  tree_options.seed = 53;
  tree_options.oid_prefix = "ivmc_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  ObjectStore store;
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse.ConnectSource(&source, tree->root, ReportingLevel::kOidsOnly)
          .ok());
  warehouse.set_deferred(true);

  constexpr int kViews = 4;
  std::vector<std::unique_ptr<ObjectStore>> oracle_stores;
  std::vector<std::unique_ptr<MaterializedView>> oracle_views;
  std::vector<std::unique_ptr<RecomputeMaintainer>> oracles;
  for (int shape = 0; shape < kViews; ++shape) {
    const std::string name = "GV" + std::to_string(shape);
    ASSERT_TRUE(
        warehouse.DefineView(GeneralDefinition(shape, tree->root, name)).ok());
    ASSERT_EQ(warehouse.view_engine(name), Warehouse::EngineKind::kGdn);
    auto def = ViewDefinition::Parse(GeneralDefinition(shape, tree->root, name));
    ASSERT_TRUE(def.ok());
    oracle_stores.push_back(std::make_unique<ObjectStore>());
    oracle_views.push_back(std::make_unique<MaterializedView>(
        oracle_stores.back().get(), *def));
    ASSERT_TRUE(oracle_views.back()->Initialize(source).ok());
    oracles.push_back(std::make_unique<RecomputeMaintainer>(
        oracle_views.back().get(), &source));
  }

  UpdateGenOptions gen_options;
  gen_options.seed = 907;
  gen_options.oid_prefix = "ivmc_u";
  UpdateGenerator gen(&source, tree->root, gen_options);

  Warehouse::BatchOptions batch;
  batch.threads = 4;
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_TRUE(gen.Run(40).ok());
    ASSERT_TRUE(warehouse.ProcessPendingBatch(batch).ok())
        << warehouse.last_status().ToString();
    for (int shape = 0; shape < kViews; ++shape) {
      ASSERT_TRUE(oracles[shape]->Recompute().ok());
      MaterializedView* view = warehouse.view("GV" + std::to_string(shape));
      ASSERT_NE(view, nullptr);
      EXPECT_EQ(view->BaseMembers(), oracle_views[shape]->BaseMembers())
          << "view GV" << shape;
    }
  }
}

// ------------------------------------------- one count per source event

// A deferred stream of N source events into a K=4 warehouse counts each
// event once across the shards — received or coalesced — on the shard the
// router sends it to. A host shard's forwarded copies for its network are
// not counted again, neither as received nor as local-only.
enum class CountedViews { kAlgorithm1Only, kAlgorithm1AndNetwork, kNetworkOnly };

void ExpectEachEventCountedOnce(CountedViews views) {
  const bool with_algorithm1 = views != CountedViews::kNetworkOnly;
  const bool with_network = views != CountedViews::kAlgorithm1Only;
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.seed = 61;
  tree_options.oid_prefix = !with_algorithm1 ? "cnt_net_"
                            : with_network   ? "cnt_gdn_"
                                             : "cnt_a1_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  ShardedWarehouse sharded(4);
  ASSERT_TRUE(
      sharded.ConnectSource(&source, tree->root, ReportingLevel::kWithValues)
          .ok());
  if (with_algorithm1) {
    ASSERT_TRUE(
        sharded.DefineView(TreeViewDefinition("SV", tree->root, 2, 4, 50))
            .ok());
  }
  if (with_network) {
    ASSERT_TRUE(sharded.DefineView(GeneralDefinition(0, tree->root)).ok());
    ASSERT_EQ(NetworkShards(sharded, "GV"), 1u);
  }
  sharded.set_deferred(true);
  UpdateGenOptions gen_options;
  gen_options.seed = 67;
  UpdateGenerator generator(&source, tree->root, gen_options);
  auto updates = generator.Run(300);
  ASSERT_TRUE(updates.ok());
  ASSERT_TRUE(sharded.ProcessPendingBatch(1).ok());

  const WarehouseCosts costs = sharded.MergedCosts();
  EXPECT_EQ(costs.events_received.load() + costs.events_coalesced.load(),
            static_cast<int64_t>(updates->size()));
  EXPECT_LE(costs.events_local_only.load(), costs.events_received.load());
  if (!with_algorithm1) {
    // The network reads its host shard's store and asks no source, so
    // every received event is local-only, on whichever shard it landed.
    EXPECT_EQ(costs.events_local_only.load(), costs.events_received.load());
  }
}

TEST(ShardedEventCountTest, EachEventCountsOnceWithAHostedNetwork) {
  ExpectEachEventCountedOnce(CountedViews::kAlgorithm1AndNetwork);
}

TEST(ShardedEventCountTest, EachEventCountsOnceWithAlgorithm1Only) {
  ExpectEachEventCountedOnce(CountedViews::kAlgorithm1Only);
}

TEST(ShardedEventCountTest, EachEventCountsOnceWithANetworkOnly) {
  ExpectEachEventCountedOnce(CountedViews::kNetworkOnly);
}

// ------------------------------------------------------- explain golden

// Replaces each "{key}" in `text` with its value.
std::string Fill(std::string text,
                 const std::vector<std::pair<std::string, std::string>>& vars) {
  for (const auto& [key, value] : vars) {
    const std::string marker = "{" + key + "}";
    for (size_t at = text.find(marker); at != std::string::npos;
         at = text.find(marker, at + value.size())) {
      text.replace(at, marker.size(), value);
    }
  }
  return text;
}

std::string Traffic(const WarehouseCosts& costs) {
  return std::to_string(costs.cross_shard_exports.load()) + " exported, " +
         std::to_string(costs.cross_shard_applies.load()) + " applied, " +
         std::to_string(costs.cross_shard_probes.load()) +
         " membership probes";
}

// ExplainView text for an Algorithm 1 view, a §6 view and an unknown name,
// at K=1, at K=4, and on a K=4 shard that does not host the §6 network.
// Which shard owns a member follows the process-wide OID interner's
// first-sight ids, so the K=4 slice sizes and cross-shard traffic are read
// from the shards; every other byte is golden.
TEST(ExplainGoldenTest, AlgorithmOneNetworkAndUnknownAtKOneAndKFour) {
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.seed = 71;
  tree_options.oid_prefix = "xg_";
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  ObjectStore store;
  Warehouse single(&store);
  ShardedWarehouse sharded(4);
  ASSERT_TRUE(
      single.ConnectSource(&source, tree->root, ReportingLevel::kWithValues)
          .ok());
  ASSERT_TRUE(
      sharded.ConnectSource(&source, tree->root, ReportingLevel::kWithValues)
          .ok());
  const std::string sv = TreeViewDefinition("SV", tree->root, 2, 4, 50);
  const std::string gv = GeneralDefinition(0, tree->root);
  ASSERT_TRUE(single.DefineView(sv).ok());
  ASSERT_TRUE(single.DefineView(gv).ok());
  ASSERT_TRUE(sharded.DefineView(sv).ok());
  ASSERT_TRUE(sharded.DefineView(gv).ok());
  single.set_deferred(true);
  sharded.set_deferred(true);
  UpdateGenOptions gen_options;
  gen_options.seed = 73;
  UpdateGenerator generator(&source, tree->root, gen_options);
  ASSERT_TRUE(generator.Run(200).ok());
  ASSERT_TRUE(single.ProcessPendingBatch().ok());
  ASSERT_TRUE(sharded.ProcessPendingBatch(1).ok());

  const std::string kNetwork =
      "  engine: gdn (2 memo nodes, 777 partial matches, 1724 propagations, "
      "1 rebuild)\n";
  EXPECT_EQ(single.ExplainView("SV").ToString(),
            "sharded view 'SV': 13 members across 1 shard\n"
            "  fan-out: per-shard slices [13], k-way merged in lexicographic "
            "OID order\n"
            "  cross-shard traffic: 0 exported, 0 applied, 0 membership "
            "probes\n"
            "  engine: algorithm1\n");
  EXPECT_EQ(single.ExplainView("GV").ToString(),
            "sharded view 'GV': 49 members across 1 shard\n"
            "  fan-out: per-shard slices [49], k-way merged in lexicographic "
            "OID order\n"
            "  cross-shard traffic: 0 exported, 0 applied, 0 membership "
            "probes\n" +
                kNetwork);
  EXPECT_EQ(single.ExplainView("NOPE").ToString(),
            "sharded view 'NOPE': 0 members across 1 shard\n"
            "  fan-out: per-shard slices [], k-way merged in lexicographic "
            "OID order\n"
            "  cross-shard traffic: 0 exported, 0 applied, 0 membership "
            "probes\n");

  // K=4: the same totals and network counters (the host does K=1's work).
  auto slices = [&sharded](const std::string& name) {
    std::string out;
    for (uint32_t i = 0; i < sharded.shard_count(); ++i) {
      if (i != 0) out += ", ";
      MaterializedView* slice = sharded.shard(i).view(name);
      out += std::to_string(slice != nullptr ? slice->size() : 0);
    }
    return out;
  };
  const std::string kFour =
      "sharded view '{name}': {n} members across 4 shards\n"
      "  fan-out: per-shard slices [{slices}], k-way merged in lexicographic "
      "OID order\n"
      "  cross-shard traffic: {traffic}\n";
  const std::string traffic = Traffic(sharded.MergedCosts());
  EXPECT_EQ(sharded.ExplainView("SV").ToString(),
            Fill(kFour, {{"name", "SV"},
                         {"n", "13"},
                         {"slices", slices("SV")},
                         {"traffic", traffic}}) +
                "  engine: algorithm1\n");
  EXPECT_EQ(sharded.ExplainView("GV").ToString(),
            Fill(kFour, {{"name", "GV"},
                         {"n", "49"},
                         {"slices", slices("GV")},
                         {"traffic", traffic}}) +
                kNetwork);
  EXPECT_EQ(sharded.ExplainView("NOPE").ToString(),
            Fill(kFour, {{"name", "NOPE"},
                         {"n", "0"},
                         {"slices", "0, 0, 0, 0"},
                         {"traffic", traffic}}));

  // A shard that does not host GV: its slice, engine gdn, no network.
  uint32_t peer = 0;
  while (sharded.shard(peer).gdn_engine("GV") != nullptr) ++peer;
  Warehouse& shard = sharded.shard(peer);
  const std::string n = std::to_string(shard.view("GV")->size());
  EXPECT_EQ(shard.ExplainView("GV").ToString(),
            "sharded view 'GV': " + n + " member" + (n == "1" ? "" : "s") +
                " across 1 shard\n"
                "  fan-out: per-shard slices [" +
                n +
                "], k-way merged in lexicographic OID order\n"
                "  cross-shard traffic: " +
                Traffic(shard.costs()) +
                "\n"
                "  engine: gdn (0 memo nodes, 0 partial matches, 0 "
                "propagations, 0 rebuilds)\n");
}

}  // namespace
}  // namespace gsv
