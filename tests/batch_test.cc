#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/buffered_view.h"
#include "core/consistency.h"
#include "core/virtual_view.h"
#include "oem/store.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "warehouse/fault_injector.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/update_batch.h"
#include "warehouse/warehouse.h"
#include "workload/dag_gen.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { ++counter; });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // no workers: Submit executes inline
  int counter = 0;
  pool.Submit([&counter] { ++counter; });
  EXPECT_EQ(counter, 1);
  pool.Wait();
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&counter] { ++counter; });
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

// ------------------------------------------------------------- UpdateBatch

UpdateEvent Insert(const std::string& parent, const std::string& child) {
  UpdateEvent event;
  event.kind = UpdateKind::kInsert;
  event.parent = Oid(parent);
  event.child = Oid(child);
  return event;
}

UpdateEvent Delete(const std::string& parent, const std::string& child) {
  UpdateEvent event = Insert(parent, child);
  event.kind = UpdateKind::kDelete;
  return event;
}

UpdateEvent Modify(const std::string& target, int64_t old_value,
                   int64_t new_value) {
  UpdateEvent event;
  event.kind = UpdateKind::kModify;
  event.parent = Oid(target);
  event.old_value = Value::Int(old_value);
  event.new_value = Value::Int(new_value);
  return event;
}

TEST(UpdateBatchTest, InsertThenDeleteCancels) {
  UpdateBatch batch;
  batch.Add(0, Insert("P", "C"));
  batch.Add(0, Modify("X", 1, 2));  // unrelated event in between
  batch.Add(0, Delete("P", "C"));
  EXPECT_EQ(batch.Coalesce(), 2u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.events()[0].second.kind, UpdateKind::kModify);
}

TEST(UpdateBatchTest, DeleteThenInsertCancels) {
  UpdateBatch batch;
  batch.Add(0, Delete("P", "C"));
  batch.Add(0, Insert("P", "C"));
  EXPECT_EQ(batch.Coalesce(), 2u);
  EXPECT_TRUE(batch.empty());
}

TEST(UpdateBatchTest, DifferentEdgesDoNotCancel) {
  UpdateBatch batch;
  batch.Add(0, Insert("P", "C1"));
  batch.Add(0, Delete("P", "C2"));
  EXPECT_EQ(batch.Coalesce(), 0u);
  EXPECT_EQ(batch.size(), 2u);
}

TEST(UpdateBatchTest, ModifiesMergeLastWriterWins) {
  UpdateBatch batch;
  batch.Add(0, Modify("X", 1, 2));
  batch.Add(0, Insert("P", "C"));
  batch.Add(0, Modify("X", 2, 3));
  batch.Add(0, Modify("X", 3, 4));
  EXPECT_EQ(batch.Coalesce(), 2u);
  ASSERT_EQ(batch.size(), 2u);
  // The survivor sits where the last modify sat, after the insert.
  EXPECT_EQ(batch.events()[0].second.kind, UpdateKind::kInsert);
  const UpdateEvent& merged = batch.events()[1].second;
  EXPECT_EQ(merged.kind, UpdateKind::kModify);
  ASSERT_TRUE(merged.old_value.has_value());
  ASSERT_TRUE(merged.new_value.has_value());
  EXPECT_EQ(*merged.old_value, Value::Int(1));  // earliest old value
  EXPECT_EQ(*merged.new_value, Value::Int(4));  // latest new value
}

TEST(UpdateBatchTest, CrossSourceEventsNeverInteract) {
  UpdateBatch batch;
  batch.Add(0, Insert("P", "C"));
  batch.Add(1, Delete("P", "C"));
  batch.Add(0, Modify("X", 1, 2));
  batch.Add(1, Modify("X", 2, 3));
  EXPECT_EQ(batch.Coalesce(), 0u);
  EXPECT_EQ(batch.size(), 4u);
}

TEST(UpdateBatchTest, SurvivorOrderIsPreserved) {
  UpdateBatch batch;
  batch.Add(0, Insert("A", "B"));
  batch.Add(0, Insert("P", "C"));
  batch.Add(0, Insert("D", "E"));
  batch.Add(0, Delete("P", "C"));
  batch.Add(0, Insert("F", "G"));
  EXPECT_EQ(batch.Coalesce(), 2u);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.events()[0].second.child, Oid("B"));
  EXPECT_EQ(batch.events()[1].second.child, Oid("E"));
  EXPECT_EQ(batch.events()[2].second.child, Oid("G"));
}

TEST(UpdateBatchTest, ReinsertedEdgeCancelsPairwise) {
  // insert, delete, insert: the first pair cancels, the last insert stays —
  // the net effect (edge present) is preserved.
  UpdateBatch batch;
  batch.Add(0, Insert("P", "C"));
  batch.Add(0, Delete("P", "C"));
  batch.Add(0, Insert("P", "C"));
  EXPECT_EQ(batch.Coalesce(), 2u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.events()[0].second.kind, UpdateKind::kInsert);
}

TEST(UpdateBatchTest, PairAroundAnEventNamingTheParentSurvives) {
  // The middle events name P (as parent, then as child) and may carry a
  // snapshot of P holding the transient edge, so neither pair cancels.
  UpdateBatch batch;
  batch.Add(0, Insert("P", "N"));
  batch.Add(0, Insert("P", "A"));
  batch.Add(0, Delete("P", "N"));
  batch.Add(0, Delete("Q", "C"));
  batch.Add(0, Insert("R", "Q"));
  batch.Add(0, Insert("Q", "C"));
  EXPECT_EQ(batch.Coalesce(), 0u);
  EXPECT_EQ(batch.size(), 6u);
}

TEST(UpdateBatchTest, EventsNamingOnlyTheChildDoNotBlockTheCancel) {
  // No snapshot of C holds the edge (P,C): only P's children do.
  UpdateBatch batch;
  batch.Add(0, Insert("P", "C"));
  batch.Add(0, Insert("C", "D"));
  batch.Add(0, Delete("P", "C"));
  EXPECT_EQ(batch.Coalesce(), 2u);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.events()[0].second.parent, Oid("C"));
}

// ------------------------------------------------- batched == sequential

struct DeterminismConfig {
  std::string name;
  ReportingLevel level = ReportingLevel::kWithValues;
  Warehouse::CacheMode cache = Warehouse::CacheMode::kNone;
  size_t threads = 4;
};

// The batch warehouse's view must be byte-identical to the inline one —
// same members, same delegate labels and values, same view object value —
// and equal the truth over the batch warehouse's current source.
void ExpectBatchMatchesInline(Warehouse& inline_wh, Warehouse& batch_wh,
                              const ObjectStore& source_b,
                              const std::string& definition,
                              const std::string& view_name) {
  MaterializedView* view_a = inline_wh.view(view_name);
  MaterializedView* view_b = batch_wh.view(view_name);
  ASSERT_NE(view_a, nullptr);
  ASSERT_NE(view_b, nullptr);
  OidSet members_a = view_a->BaseMembers();
  ASSERT_EQ(members_a, view_b->BaseMembers());

  // Delegate-for-delegate equality of the two warehouse stores.
  const Object* object_a = inline_wh.store().Get(view_a->view_oid());
  const Object* object_b = batch_wh.store().Get(view_b->view_oid());
  ASSERT_NE(object_a, nullptr);
  ASSERT_NE(object_b, nullptr);
  ASSERT_EQ(object_a->value(), object_b->value());
  for (const Oid& member : members_a) {
    Oid delegate = Oid::Delegate(view_a->view_oid(), member);
    const Object* delegate_a = inline_wh.store().Get(delegate);
    const Object* delegate_b = batch_wh.store().Get(delegate);
    ASSERT_NE(delegate_a, nullptr) << delegate.str();
    ASSERT_NE(delegate_b, nullptr) << delegate.str();
    ASSERT_EQ(delegate_a->label(), delegate_b->label()) << delegate.str();
    ASSERT_EQ(delegate_a->value(), delegate_b->value()) << delegate.str();
  }

  // Both must also equal the truth over the current source.
  auto def = ViewDefinition::Parse(definition);
  ASSERT_TRUE(def.ok());
  auto truth = EvaluateView(source_b, *def);
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(view_b->BaseMembers(), *truth);
  ConsistencyReport report = CheckViewConsistency(*view_b, source_b);
  ASSERT_TRUE(report.consistent) << report.ToString();
}

// Drives two warehouses over identical sources with the identical update
// stream: one inline (per-event Maintain, the §4.3 baseline), one deferred
// through the batch engine. After every drain the views must be
// byte-identical — same members, same delegate labels and values, same view
// object value.
void RunDeterminismCheck(const DeterminismConfig& config) {
  SCOPED_TRACE(config.name);
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 4;
  tree_options.seed = 101;

  ObjectStore source_a;
  ObjectStore source_b;
  auto tree_a = GenerateTree(&source_a, tree_options);
  auto tree_b = GenerateTree(&source_b, tree_options);
  ASSERT_TRUE(tree_a.ok());
  ASSERT_TRUE(tree_b.ok());
  ASSERT_EQ(tree_a->root, tree_b->root);

  const std::string definition =
      TreeViewDefinition("WV", tree_a->root, 2, 3, 50);

  ObjectStore store_a;
  Warehouse inline_wh(&store_a);
  ASSERT_TRUE(
      inline_wh.ConnectSource(&source_a, tree_a->root, config.level).ok());
  ASSERT_TRUE(inline_wh.DefineView(definition, config.cache).ok());

  ObjectStore store_b;
  Warehouse batch_wh(&store_b);
  ASSERT_TRUE(
      batch_wh.ConnectSource(&source_b, tree_b->root, config.level).ok());
  ASSERT_TRUE(batch_wh.DefineView(definition, config.cache).ok());
  batch_wh.set_deferred(true);

  Warehouse::BatchOptions options;
  options.threads = config.threads;

  UpdateGenOptions gen_options;
  gen_options.seed = 211;
  UpdateGenerator gen_a(&source_a, tree_a->root, gen_options);
  UpdateGenerator gen_b(&source_b, tree_b->root, gen_options);

  const size_t kUpdates = 1000;
  const size_t kDrainEvery = 64;
  for (size_t applied = 0; applied < kUpdates; applied += kDrainEvery) {
    size_t burst = std::min(kDrainEvery, kUpdates - applied);
    ASSERT_TRUE(gen_a.Run(burst).ok());
    ASSERT_TRUE(gen_b.Run(burst).ok());
    ASSERT_TRUE(batch_wh.ProcessPendingBatch(options).ok())
        << batch_wh.last_status().ToString();
    ASSERT_NO_FATAL_FAILURE(
        ExpectBatchMatchesInline(inline_wh, batch_wh, source_b, definition,
                                 "WV"))
        << "after " << applied + burst;
  }
}

// The 3-event straddle: insert(P,N), insert(P,A{age 30}), delete(P,N) in
// one drain. The middle insert's snapshot of P still holds N, and P joins
// the view through it; had the outer pair cancelled, P's delegate would
// keep N with no sync left to take it out. Level 1 events carry no
// snapshot (the warehouse fetches P), so the case matters at levels 2, 3.
void RunTransientEdgeCheck(ReportingLevel level, const std::string& prefix) {
  SCOPED_TRACE(ReportingLevelName(level));
  const Oid root(prefix + "R");
  const Oid p(prefix + "P");
  const Oid n(prefix + "N");
  const Oid a(prefix + "A");
  const std::string definition = "define mview TV as: SELECT " + root.str() +
                                 ".p X WHERE X.age <= 50";
  ObjectStore source_a;
  ObjectStore source_b;
  for (ObjectStore* source : {&source_a, &source_b}) {
    ASSERT_TRUE(source->PutSet(p, "p").ok());
    ASSERT_TRUE(source->PutSet(root, "r", {p}).ok());
  }
  ObjectStore store_a;
  Warehouse inline_wh(&store_a);
  ASSERT_TRUE(inline_wh.ConnectSource(&source_a, root, level).ok());
  ASSERT_TRUE(inline_wh.DefineView(definition).ok());
  ObjectStore store_b;
  Warehouse batch_wh(&store_b);
  ASSERT_TRUE(batch_wh.ConnectSource(&source_b, root, level).ok());
  ASSERT_TRUE(batch_wh.DefineView(definition).ok());
  batch_wh.set_deferred(true);

  for (ObjectStore* source : {&source_a, &source_b}) {
    ASSERT_TRUE(source->PutAtomic(n, "note", Value::Str("n")).ok());
    ASSERT_TRUE(source->PutAtomic(a, "age", Value::Int(30)).ok());
    ASSERT_TRUE(source->Insert(p, n).ok());
    ASSERT_TRUE(source->Insert(p, a).ok());
    ASSERT_TRUE(source->Delete(p, n).ok());
  }
  ASSERT_TRUE(batch_wh.ProcessPendingBatch().ok())
      << batch_wh.last_status().ToString();
  EXPECT_EQ(batch_wh.view("TV")->BaseMembers(), OidSet({p}));
  ASSERT_NO_FATAL_FAILURE(
      ExpectBatchMatchesInline(inline_wh, batch_wh, source_b, definition,
                               "TV"));
}

TEST(BatchDeterminismTest, TransientEdgeAroundParentSnapshotLevel2) {
  RunTransientEdgeCheck(ReportingLevel::kWithValues, "te2_");
}

TEST(BatchDeterminismTest, TransientEdgeAroundParentSnapshotLevel3) {
  RunTransientEdgeCheck(ReportingLevel::kWithRootPath, "te3_");
}

// One drain over a whole default-mix stream must land on a consistent view
// for every seed: delegate values included, not just membership.
TEST(BatchDeterminismTest, SingleDrainStaysConsistentAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 4;
    tree_options.seed = 101;
    ObjectStore source;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());
    ObjectStore store;
    Warehouse warehouse(&store);
    ASSERT_TRUE(warehouse
                    .ConnectSource(&source, tree->root,
                                   ReportingLevel::kWithValues)
                    .ok());
    ASSERT_TRUE(
        warehouse.DefineView(TreeViewDefinition("WV", tree->root, 2, 3, 50))
            .ok());
    warehouse.set_deferred(true);
    UpdateGenOptions gen_options;
    gen_options.seed = seed;
    UpdateGenerator generator(&source, tree->root, gen_options);
    ASSERT_TRUE(generator.Run(256).ok());
    ASSERT_TRUE(warehouse.ProcessPendingBatch().ok())
        << warehouse.last_status().ToString();
    ConsistencyReport report =
        CheckViewConsistency(*warehouse.view("WV"), source);
    ASSERT_TRUE(report.consistent) << report.ToString();
  }
}

TEST(BatchDeterminismTest, Level2NoCache) {
  RunDeterminismCheck({"level2_nocache", ReportingLevel::kWithValues,
                       Warehouse::CacheMode::kNone, 4});
}

TEST(BatchDeterminismTest, Level2FullCache) {
  RunDeterminismCheck({"level2_full", ReportingLevel::kWithValues,
                       Warehouse::CacheMode::kFull, 4});
}

TEST(BatchDeterminismTest, Level3FullCache) {
  RunDeterminismCheck({"level3_full", ReportingLevel::kWithRootPath,
                       Warehouse::CacheMode::kFull, 4});
}

TEST(BatchDeterminismTest, Level1NoCache) {
  RunDeterminismCheck({"level1_nocache", ReportingLevel::kOidsOnly,
                       Warehouse::CacheMode::kNone, 4});
}

// One worker: no subtree split, the drain evaluates inline.
TEST(BatchDeterminismTest, SingleThread) {
  RunDeterminismCheck({"single_thread", ReportingLevel::kWithValues,
                       Warehouse::CacheMode::kNone, 1});
}

TEST(BatchDeterminismTest, EightThreads) {
  RunDeterminismCheck({"threads8", ReportingLevel::kWithValues,
                       Warehouse::CacheMode::kLabelsOnly, 8});
}

// Thread counts must not change the outcome: run the same stream at 1, 2
// and 4 workers and require identical members.
TEST(BatchDeterminismTest, ThreadCountInvariant) {
  std::vector<OidSet> results;
  for (size_t threads : {1u, 2u, 4u}) {
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 3;
    tree_options.seed = 7;
    ObjectStore source;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());
    ObjectStore store;
    Warehouse warehouse(&store);
    ASSERT_TRUE(warehouse
                    .ConnectSource(&source, tree->root,
                                   ReportingLevel::kWithValues)
                    .ok());
    ASSERT_TRUE(
        warehouse.DefineView(TreeViewDefinition("WV", tree->root, 2, 3, 50))
            .ok());
    warehouse.set_deferred(true);
    UpdateGenOptions gen_options;
    gen_options.seed = 17;
    UpdateGenerator generator(&source, tree->root, gen_options);
    ASSERT_TRUE(generator.Run(400).ok());
    Warehouse::BatchOptions options;
    options.threads = threads;
    ASSERT_TRUE(warehouse.ProcessPendingBatch(options).ok());
    results.push_back(warehouse.view("WV")->BaseMembers());
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(BatchDeterminismTest, CoalescingIsCounted) {
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 3;
  tree_options.seed = 23;
  ObjectStore source;
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());
  ObjectStore store;
  Warehouse warehouse(&store);
  ASSERT_TRUE(
      warehouse
          .ConnectSource(&source, tree->root, ReportingLevel::kWithValues)
          .ok());
  ASSERT_TRUE(
      warehouse.DefineView(TreeViewDefinition("WV", tree->root, 2, 3, 50))
          .ok());
  warehouse.set_deferred(true);
  UpdateGenOptions gen_options;
  gen_options.seed = 31;
  gen_options.p_modify = 0.7;  // modify-heavy: plenty to merge
  gen_options.p_insert = 0.15;
  gen_options.p_delete = 0.15;
  UpdateGenerator generator(&source, tree->root, gen_options);
  ASSERT_TRUE(generator.Run(500).ok());
  ASSERT_TRUE(warehouse.ProcessPendingBatch().ok());
  EXPECT_GT(warehouse.costs().events_coalesced.load(), 0);
}

// ------------------------------------------------- fault tolerance

namespace {

struct BatchFaultRig {
  ObjectStore source;
  ObjectStore store;
  std::unique_ptr<Warehouse> warehouse;
  std::string definition;
  Oid root;

  void Build(ReportingLevel level,
             Warehouse::CacheMode cache = Warehouse::CacheMode::kNone) {
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 4;
    tree_options.seed = 101;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());
    root = tree->root;
    definition = TreeViewDefinition("WV", root, 2, 3, 50);
    warehouse = std::make_unique<Warehouse>(&store);
    ASSERT_TRUE(warehouse->ConnectSource(&source, root, level).ok());
    ASSERT_TRUE(warehouse->DefineView(definition, cache).ok());
    warehouse->set_deferred(true);
  }

  void ExpectMatchesTruth() {
    auto def = ViewDefinition::Parse(definition);
    ASSERT_TRUE(def.ok());
    auto truth = EvaluateView(source, *def);
    ASSERT_TRUE(truth.ok());
    MaterializedView* view = warehouse->view("WV");
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->BaseMembers(), *truth);
    ConsistencyReport report = CheckViewConsistency(*view, source);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }
};

}  // namespace

TEST(BatchFaultToleranceTest, DuplicateDeliveriesAreIdempotentInBatchDrain) {
  BatchFaultRig rig;
  rig.Build(ReportingLevel::kWithValues);
  FaultInjector injector(FaultProfile{});
  ASSERT_TRUE(rig.warehouse->SetFaultInjector("source1", &injector).ok());
  injector.DuplicateNextEvents(1000);  // every delivery arrives twice

  UpdateGenOptions gen_options;
  gen_options.seed = 211;
  UpdateGenerator gen(&rig.source, rig.root, gen_options);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(gen.Run(100).ok());
    ASSERT_TRUE(rig.warehouse->ProcessPendingBatch().ok())
        << rig.warehouse->last_status().ToString();
  }
  EXPECT_GT(rig.warehouse->costs().events_duplicate_dropped, 0);
  EXPECT_EQ(rig.warehouse->costs().events_gap_detected, 0);
  EXPECT_EQ(rig.warehouse->stale_view_count(), 0u);
  rig.ExpectMatchesTruth();
}

TEST(BatchFaultToleranceTest, GapQuarantinesAndBatchLeavesViewUntouched) {
  BatchFaultRig rig;
  rig.Build(ReportingLevel::kWithValues, Warehouse::CacheMode::kFull);
  FaultInjector injector(FaultProfile{});
  ASSERT_TRUE(rig.warehouse->SetFaultInjector("source1", &injector).ok());

  // Healthy warm-up drain, then snapshot the consistent state.
  UpdateGenOptions gen_options;
  gen_options.seed = 211;
  UpdateGenerator gen(&rig.source, rig.root, gen_options);
  ASSERT_TRUE(gen.Run(50).ok());
  ASSERT_TRUE(rig.warehouse->ProcessPendingBatch().ok());
  const OidSet before = rig.warehouse->view("WV")->BaseMembers();

  // Lose the next delivery while the source is unreachable: the gap
  // quarantines the view and the drain must not half-apply the batch.
  injector.DropNextEvents(1);
  injector.set_down(true);
  ASSERT_TRUE(gen.Run(60).ok());
  ASSERT_TRUE(rig.warehouse->ProcessPendingBatch().ok())
      << "quarantine is graceful";
  EXPECT_GE(rig.warehouse->costs().events_gap_detected, 1);
  EXPECT_EQ(rig.warehouse->view_health("WV"), Warehouse::ViewHealth::kStale);
  EXPECT_GT(rig.warehouse->buffered_stale_events(), 0u);
  EXPECT_EQ(rig.warehouse->view("WV")->BaseMembers(), before)
      << "stale view must keep its last consistent contents";

  // Recovery: once the channel heals, the next drain's prologue resyncs.
  injector.Heal();
  ASSERT_TRUE(rig.warehouse->ProcessPendingBatch().ok());
  EXPECT_EQ(rig.warehouse->stale_view_count(), 0u);
  EXPECT_EQ(rig.warehouse->buffered_stale_events(), 0u);
  EXPECT_GE(rig.warehouse->costs().view_resyncs, 1);
  rig.ExpectMatchesTruth();
}

TEST(BatchFaultToleranceTest, MidBatchSourceOutageBuffersTheWholeSlice) {
  // kOidsOnly makes every relevant event query back, so an outage that
  // starts after delivery but before the drain is guaranteed to surface
  // inside phase 2 — the all-or-nothing replay path.
  BatchFaultRig rig;
  rig.Build(ReportingLevel::kOidsOnly);
  FaultInjector injector(FaultProfile{});
  ASSERT_TRUE(rig.warehouse->SetFaultInjector("source1", &injector).ok());

  UpdateGenOptions gen_options;
  gen_options.seed = 211;
  UpdateGenerator gen(&rig.source, rig.root, gen_options);
  ASSERT_TRUE(gen.Run(50).ok());
  ASSERT_TRUE(rig.warehouse->ProcessPendingBatch().ok());
  const OidSet before = rig.warehouse->view("WV")->BaseMembers();

  ASSERT_TRUE(gen.Run(40).ok());   // delivered in full, sequence intact
  injector.set_down(true);         // ...but the source dies before the drain
  ASSERT_TRUE(rig.warehouse->ProcessPendingBatch().ok());
  EXPECT_EQ(rig.warehouse->view_health("WV"), Warehouse::ViewHealth::kStale);
  EXPECT_EQ(rig.warehouse->view("WV")->BaseMembers(), before)
      << "a failed batch must not half-apply";
  EXPECT_GT(rig.warehouse->buffered_stale_events(), 0u);
  EXPECT_GT(rig.warehouse->costs().wrapper_failures, 0);

  // The outage tripped the circuit breaker, so the gentle drain-prologue
  // probe fails fast; the explicit resync forces through it.
  injector.Heal();
  ASSERT_TRUE(rig.warehouse->ResyncStaleViews().ok());
  EXPECT_EQ(rig.warehouse->stale_view_count(), 0u);
  rig.ExpectMatchesTruth();
}

// ----------------------------------------------- sharded == single shard

namespace {

// Twin rig: one source store feeds both a plain warehouse and a K-shard
// ShardedWarehouse, each through its own monitor, so both observe the
// identical update stream. After every drain the sharded read path
// (fan-out + K-way merge) must reproduce the plain warehouse's view byte
// for byte — same members in the same order, same delegate content lines.
struct ShardedTwinConfig {
  std::string name;
  uint32_t shards = 4;
  size_t threads = 4;
  bool dag = false;         // §6 DAG workload instead of a tree
  uint64_t seed = 1;
  size_t updates = 300;
  size_t drain_every = 50;
};

void ExpectShardedMatchesPlain(ShardedWarehouse& sharded, Warehouse& plain,
                               const std::string& view_name) {
  MaterializedView* view = plain.view(view_name);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(sharded.ViewMembers(view_name), view->BaseMembers().elements());
  const auto plain_lines = ViewContentLines(*view);
  const auto sharded_lines = sharded.ViewContents(view_name);
  ASSERT_EQ(sharded_lines.size(), plain_lines.size());
  for (size_t i = 0; i < plain_lines.size(); ++i) {
    ASSERT_EQ(sharded_lines[i].first, plain_lines[i].first) << "member " << i;
    ASSERT_EQ(sharded_lines[i].second, plain_lines[i].second)
        << sharded_lines[i].first.str();
  }
}

void RunShardedTwinCheck(const ShardedTwinConfig& config) {
  SCOPED_TRACE(config.name);
  ObjectStore source;
  Oid root;
  std::string definition;
  UpdateGenOptions gen_options;
  gen_options.seed = config.seed + 7;
  // Distinct OID prefixes per config keep the interned id assignment (and
  // hence the shard split) independent of test execution order.
  const std::string prefix = "tw_" + config.name + "_";
  if (config.dag) {
    DagGenOptions dag_options;
    dag_options.levels = 4;
    dag_options.width = 12;
    dag_options.max_parents = 3;
    dag_options.seed = config.seed;
    dag_options.oid_prefix = prefix;
    auto dag = GenerateDag(&source, dag_options);
    ASSERT_TRUE(dag.ok());
    root = dag->root;
    definition = DagViewDefinition("WV", root, 2, 4, 60);
    gen_options.mode = UpdateMode::kDagPreserving;
  } else {
    TreeGenOptions tree_options;
    tree_options.levels = 4;
    tree_options.fanout = 4;
    tree_options.seed = config.seed;
    tree_options.oid_prefix = prefix;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());
    root = tree->root;
    definition = TreeViewDefinition("WV", root, 2, 4, 60);
  }
  gen_options.oid_prefix = prefix + "u";

  ObjectStore plain_store;
  Warehouse plain(&plain_store);
  ASSERT_TRUE(
      plain.ConnectSource(&source, root, ReportingLevel::kWithValues).ok());
  ASSERT_TRUE(plain.DefineView(definition).ok());
  plain.set_deferred(true);

  ShardedWarehouse sharded(config.shards);
  ASSERT_TRUE(sharded.init_status().ok());
  ASSERT_TRUE(
      sharded.ConnectSource(&source, root, ReportingLevel::kWithValues).ok());
  ASSERT_TRUE(sharded.DefineView(definition).ok());
  sharded.set_deferred(true);

  // The initial materializations must already agree.
  ExpectShardedMatchesPlain(sharded, plain, "WV");

  UpdateGenerator gen(&source, root, gen_options);
  for (size_t applied = 0; applied < config.updates;
       applied += config.drain_every) {
    size_t burst = std::min(config.drain_every, config.updates - applied);
    ASSERT_TRUE(gen.Run(burst).ok());
    ASSERT_TRUE(plain.ProcessPendingBatch().ok())
        << plain.last_status().ToString();
    ASSERT_TRUE(sharded.ProcessPendingBatch(config.threads).ok());
    ExpectShardedMatchesPlain(sharded, plain, "WV");

    // Both twins must equal the query over current source state.
    auto def = ViewDefinition::Parse(definition);
    ASSERT_TRUE(def.ok());
    auto truth = EvaluateView(source, *def);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(sharded.ViewMembers("WV"), truth->elements())
        << "after " << applied + burst;
  }

  if (config.shards > 1) {
    // The split is real: members land on more than one shard, and the
    // maintenance ran through the cross-shard machinery.
    const ShardedViewExplanation explain = sharded.ExplainView("WV");
    size_t populated = 0;
    for (size_t count : explain.members_per_shard) populated += count > 0;
    EXPECT_GT(populated, 1u) << explain.ToString();
    const WarehouseCosts costs = sharded.MergedCosts();
    EXPECT_GT(costs.cross_shard_exports + costs.cross_shard_applies +
                  costs.cross_shard_probes,
              0)
        << "twin never exercised a cross-shard edge";
  }
}

}  // namespace

TEST(ShardedTwinTest, TreeOneShardDegenerate) {
  RunShardedTwinCheck({"tree_k1", 1, 1, false, 11});
}

TEST(ShardedTwinTest, TreeTwoShards) {
  RunShardedTwinCheck({"tree_k2", 2, 2, false, 12});
}

TEST(ShardedTwinTest, TreeFourShards) {
  RunShardedTwinCheck({"tree_k4", 4, 4, false, 13});
}

TEST(ShardedTwinTest, TreeEightShardsEightThreads) {
  RunShardedTwinCheck({"tree_k8", 8, 8, false, 14});
}

TEST(ShardedTwinTest, DagTwoShards) {
  RunShardedTwinCheck({"dag_k2", 2, 2, true, 15});
}

TEST(ShardedTwinTest, DagFourShards) {
  RunShardedTwinCheck({"dag_k4", 4, 4, true, 16});
}

TEST(ShardedTwinTest, RandomSeedsStayByteIdentical) {
  for (uint64_t seed = 20; seed < 24; ++seed) {
    RunShardedTwinCheck({"tree_rand" + std::to_string(seed), 4, 4, false,
                         seed, 150, 30});
    RunShardedTwinCheck({"dag_rand" + std::to_string(seed), 4, 4, true, seed,
                         150, 30});
  }
}

TEST(ShardedTwinTest, ThreadCountDoesNotChangeResults) {
  // Same events, different drain parallelism: contents must not depend on
  // how many workers the coordinator uses.
  RunShardedTwinCheck({"tree_k4_t1", 4, 1, false, 31});
  RunShardedTwinCheck({"tree_k4_t8", 4, 8, false, 31});
}

// Fault-free K=4 content lines — members, delegate labels and values —
// equal K=1's and the §4.4 recompute's after every drain, at reporting
// levels 2 and 3. A peer's V_insert lands at the owner after the owner's
// own ops of the same batch, so an insert carrying an event's snapshot of
// the object would lose the updates whose syncs the owner dropped while
// the member was not yet in its slice.
TEST(ShardedTwinTest, FourShardsValuesMatchRecomputeEveryDrain) {
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 4;
  tree_options.seed = 101;
  tree_options.oid_prefix = "drift_";
  for (ReportingLevel level :
       {ReportingLevel::kWithValues, ReportingLevel::kWithRootPath}) {
    for (uint64_t stream_seed = 301; stream_seed <= 340; ++stream_seed) {
      SCOPED_TRACE("level " + std::to_string(static_cast<int>(level)) +
                   " stream seed " + std::to_string(stream_seed));
      ObjectStore source;
      auto tree = GenerateTree(&source, tree_options);
      ASSERT_TRUE(tree.ok());
      const std::string definition =
          TreeViewDefinition("WV", tree->root, 2, 3, 50);

      ObjectStore plain_store;
      Warehouse plain(&plain_store);
      ASSERT_TRUE(plain.ConnectSource(&source, tree->root, level).ok());
      ASSERT_TRUE(plain.DefineView(definition).ok());
      plain.set_deferred(true);
      ShardedWarehouse sharded(4);
      ASSERT_TRUE(sharded.ConnectSource(&source, tree->root, level).ok());
      ASSERT_TRUE(sharded.DefineView(definition).ok());
      sharded.set_deferred(true);

      UpdateGenOptions gen_options;
      gen_options.seed = stream_seed;
      gen_options.oid_prefix = "drift_u";
      UpdateGenerator gen(&source, tree->root, gen_options);
      for (int drain = 1; drain <= 10; ++drain) {
        ASSERT_TRUE(gen.Run(50).ok());
        ASSERT_TRUE(plain.ProcessPendingBatch().ok());
        ASSERT_TRUE(sharded.ProcessPendingBatch(4).ok());
        ObjectStore recompute_store;
        Warehouse recompute(&recompute_store);
        ASSERT_TRUE(
            recompute.ConnectSource(&source, tree->root, level).ok());
        ASSERT_TRUE(recompute.DefineView(definition).ok());
        const auto truth = ViewContentLines(*recompute.view("WV"));
        ASSERT_EQ(ViewContentLines(*plain.view("WV")), truth)
            << "K=1 after drain " << drain;
        ASSERT_EQ(sharded.ViewContents("WV"), truth)
            << "K=4 after drain " << drain;
      }
    }
  }
}

}  // namespace
}  // namespace gsv
