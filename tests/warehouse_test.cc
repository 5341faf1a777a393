#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/consistency.h"
#include "core/virtual_view.h"
#include "query/evaluator.h"
#include "oem/store.h"
#include "warehouse/aux_cache.h"
#include "warehouse/fault_injector.h"
#include "warehouse/monitor.h"
#include "warehouse/path_knowledge.h"
#include "warehouse/update_event.h"
#include "warehouse/sharded_warehouse.h"
#include "warehouse/sharding.h"
#include "warehouse/source_wrapper_gsdb.h"
#include "warehouse/warehouse.h"
#include "warehouse/wrapper.h"
#include "workload/person_db.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

// ---------------------------------------------------------------- Monitor

class MonitorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildPersonDb(&source_, /*with_database=*/false).ok());
  }

  std::vector<UpdateEvent> Capture(ReportingLevel level,
                                   const std::function<void()>& mutate) {
    std::vector<UpdateEvent> events;
    SourceMonitor monitor(level, Root(),
                          [&](const UpdateEvent& e) { events.push_back(e); });
    source_.AddListener(&monitor);
    mutate();
    source_.RemoveListener(&monitor);
    return events;
  }

  ObjectStore source_;
};

TEST_F(MonitorTest, Level1CarriesOidsOnly) {
  auto events = Capture(ReportingLevel::kOidsOnly, [&] {
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, UpdateKind::kModify);
  EXPECT_EQ(events[0].parent, A1());
  EXPECT_FALSE(events[0].parent_object.has_value());
  EXPECT_FALSE(events[0].new_value.has_value());
  EXPECT_FALSE(events[0].root_path.has_value());
}

TEST_F(MonitorTest, Level2CarriesSnapshotsAndValues) {
  ASSERT_TRUE(source_.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
  auto events = Capture(ReportingLevel::kWithValues, [&] {
    ASSERT_TRUE(source_.Insert(P2(), Oid("A2")).ok());
    ASSERT_TRUE(source_.Modify(Oid("A2"), Value::Int(41)).ok());
  });
  ASSERT_EQ(events.size(), 2u);
  ASSERT_TRUE(events[0].child_object.has_value());
  EXPECT_EQ(events[0].child_object->label(), "age");
  ASSERT_TRUE(events[0].parent_object.has_value());
  EXPECT_TRUE(events[0].parent_object->children().Contains(Oid("A2")))
      << "snapshot taken after the update";
  ASSERT_TRUE(events[1].old_value.has_value());
  EXPECT_EQ(events[1].old_value->AsInt(), 40);
  EXPECT_EQ(events[1].new_value->AsInt(), 41);
}

TEST_F(MonitorTest, Level3CarriesRootPath) {
  auto events = Capture(ReportingLevel::kWithRootPath, [&] {
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());
  });
  ASSERT_EQ(events.size(), 1u);
  ASSERT_TRUE(events[0].root_path.has_value());
  EXPECT_EQ(events[0].root_path->labels.ToString(), "professor.age");
  ASSERT_EQ(events[0].root_path->oids.size(), 3u);
  EXPECT_EQ(events[0].root_path->oids[0], Root());
  EXPECT_EQ(events[0].root_path->oids[1], P1());
  EXPECT_EQ(events[0].root_path->oids[2], A1());
}

TEST_F(MonitorTest, Level3PathAbsentForUnreachableObject) {
  ASSERT_TRUE(source_.PutSet(Oid("ORPHAN"), "loose").ok());
  ASSERT_TRUE(source_.PutAtomic(Oid("L1"), "x", Value::Int(1)).ok());
  auto events = Capture(ReportingLevel::kWithRootPath, [&] {
    ASSERT_TRUE(source_.Insert(Oid("ORPHAN"), Oid("L1")).ok());
  });
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].root_path.has_value());
}

TEST_F(MonitorTest, LevelCanBeSwitchedLive) {
  std::vector<UpdateEvent> events;
  SourceMonitor monitor(ReportingLevel::kOidsOnly, Root(),
                        [&](const UpdateEvent& e) { events.push_back(e); });
  source_.AddListener(&monitor);
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(46)).ok());
  monitor.set_level(ReportingLevel::kWithValues);
  EXPECT_EQ(monitor.level(), ReportingLevel::kWithValues);
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(47)).ok());
  source_.RemoveListener(&monitor);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_FALSE(events[0].new_value.has_value());
  ASSERT_TRUE(events[1].new_value.has_value());
  EXPECT_EQ(events[1].new_value->AsInt(), 47);
}

TEST_F(MonitorTest, EventAndCostFormatting) {
  auto events = Capture(ReportingLevel::kWithRootPath, [&] {
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());
    ASSERT_TRUE(source_.Delete(Root(), P4()).ok());
  });
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ToString(),
            "modify(A1) [with-root-path] path=professor.age");
  // N1 is ROOT itself: its root path is the empty path, still reported.
  EXPECT_EQ(events[1].ToString(), "delete(ROOT, P4) [with-root-path] path=");

  // The base group always prints; the health and cross-shard groups stay
  // off the line while all of their counters are zero.
  WarehouseCosts costs;
  costs.events_received = 3;
  costs.source_queries = 2;
  EXPECT_EQ(costs.ToString(),
            "events=3 screened=0 local_only=0 coalesced=0 queries=2 "
            "objects_shipped=0 values_shipped=0 cache_queries=0 cache_hits=0 "
            "cache_misses=0");
}

// ---------------------------------------------------------------- Wrapper

TEST(WrapperTest, MetersEveryInteraction) {
  ObjectStore source;
  ASSERT_TRUE(BuildPersonDb(&source, /*with_database=*/false).ok());
  WarehouseCosts costs;
  SourceWrapper wrapper(&source, &costs);

  auto object = wrapper.FetchObject(A1());
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object->value().AsInt(), 45);
  EXPECT_EQ(costs.source_queries, 1);
  EXPECT_EQ(costs.objects_shipped, 1);
  EXPECT_EQ(costs.values_shipped, 1);

  EXPECT_FALSE(wrapper.FetchObject(Oid("missing")).ok());
  EXPECT_EQ(costs.source_queries, 2);

  auto ancestors = wrapper.FetchAncestors(A1(), *Path::Parse("age"));
  ASSERT_TRUE(ancestors.ok());
  EXPECT_EQ(*ancestors, std::vector<Oid>{P1()});
  EXPECT_EQ(costs.source_queries, 3);

  auto objects = wrapper.FetchPathObjects(Root(), *Path::Parse("professor"));
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ(objects->size(), 2u);
  EXPECT_EQ(costs.objects_shipped, 1 + 1 + 2);

  auto paths = wrapper.FetchPathsFromRoot(Root(), A1());
  ASSERT_TRUE(paths.ok());
  EXPECT_EQ(paths->size(), 1u);
  auto verified = wrapper.VerifyPath(Root(), P1(), *Path::Parse("professor"));
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(*verified);
  EXPECT_EQ(costs.source_queries, 6);
}

// ----------------------------------------------------------- PathKnowledge

TEST(PathKnowledgeTest, OpenAndClosedWorlds) {
  PathKnowledge knowledge;
  EXPECT_TRUE(knowledge.MayHaveChild("student", "salary")) << "open world";
  knowledge.SetChildLabels("student", {"name", "age", "major"});
  EXPECT_TRUE(knowledge.HasKnowledgeFor("student"));
  EXPECT_FALSE(knowledge.MayHaveChild("student", "salary"));
  EXPECT_TRUE(knowledge.MayHaveChild("student", "age"));
}

TEST(PathKnowledgeTest, FeasiblePrefix) {
  PathKnowledge knowledge;
  knowledge.SetChildLabels("person", {"professor", "student"});
  knowledge.SetChildLabels("student", {"name", "age", "major"});
  EXPECT_EQ(knowledge.FeasiblePrefix("person", *Path::Parse("student.age")),
            2u);
  EXPECT_EQ(
      knowledge.FeasiblePrefix("person", *Path::Parse("student.salary")), 1u);
  EXPECT_EQ(knowledge.FeasiblePrefix("person", *Path::Parse("secretary")),
            0u);
  // Unknown labels stay open.
  EXPECT_EQ(
      knowledge.FeasiblePrefix("person", *Path::Parse("professor.salary")),
      2u);
}

// ----------------------------------------------------------- AuxiliaryCache

class AuxCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildPersonDb(&source_, /*with_database=*/false).ok());
    wrapper_ = std::make_unique<SourceWrapper>(&source_, &costs_);
  }

  UpdateEvent MakeEvent(const Update& update, ReportingLevel level) {
    UpdateEvent event;
    SourceMonitor monitor(level, Root(),
                          [&](const UpdateEvent& e) { event = e; });
    // Build the event the way a monitor would, from the post-update state.
    monitor.OnUpdate(source_, update);
    return event;
  }

  ObjectStore source_;
  WarehouseCosts costs_;
  std::unique_ptr<SourceWrapper> wrapper_;
};

TEST_F(AuxCacheTest, InitializeLoadsCorridor) {
  // Corridor for YP: professor.age.
  AuxiliaryCache cache(AuxiliaryCache::Mode::kFull, Root(),
                       *Path::Parse("professor.age"));
  ASSERT_TRUE(cache.Initialize(wrapper_.get()).ok());
  // ROOT, P1, P2, A1 are on the corridor; P3/P4/names are not.
  EXPECT_TRUE(cache.OnCorridor(Root()));
  EXPECT_TRUE(cache.OnCorridor(P1()));
  EXPECT_TRUE(cache.OnCorridor(P2()));
  EXPECT_TRUE(cache.OnCorridor(A1()));
  EXPECT_FALSE(cache.OnCorridor(P3()));
  EXPECT_FALSE(cache.OnCorridor(N1()));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_GT(costs_.cache_maintenance_queries, 0);

  // Corridor answers.
  auto paths = cache.CorridorPathsFromRoot(P1());
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].ToString(), "professor");
  EXPECT_TRUE(cache.VerifyPath(P1(), *Path::Parse("professor")));
  EXPECT_FALSE(cache.VerifyPath(P1(), *Path::Parse("professor.age")));
  EXPECT_EQ(cache.Ancestors(A1(), *Path::Parse("age")),
            std::vector<Oid>{P1()});

  // Full mode: values cached.
  auto objects = cache.EvalObjects(P1(), *Path::Parse("age"));
  ASSERT_TRUE(objects.has_value());
  ASSERT_EQ(objects->size(), 1u);
  EXPECT_EQ((*objects)[0].value().AsInt(), 45);
  ASSERT_TRUE(cache.Fetch(P1()).ok());
  ASSERT_TRUE(cache.Fetch(A1()).ok());
}

TEST_F(AuxCacheTest, LabelsOnlyModeWithholdsValues) {
  AuxiliaryCache cache(AuxiliaryCache::Mode::kLabelsOnly, Root(),
                       *Path::Parse("professor.age"));
  ASSERT_TRUE(cache.Initialize(wrapper_.get()).ok());
  EXPECT_TRUE(cache.OnCorridor(A1()));
  EXPECT_FALSE(cache.EvalObjects(P1(), *Path::Parse("age")).has_value())
      << "atomic value not cached: caller must query the source";
  EXPECT_FALSE(cache.Fetch(A1()).ok());
  EXPECT_TRUE(cache.Fetch(P1()).ok()) << "set values are always tracked";
}

TEST_F(AuxCacheTest, InsertExtendsCorridorViaEventOrQuery) {
  AuxiliaryCache cache(AuxiliaryCache::Mode::kFull, Root(),
                       *Path::Parse("professor.age"));
  ASSERT_TRUE(cache.Initialize(wrapper_.get()).ok());

  // Example 10's case: a new professor P9 (with an age child) under ROOT.
  ASSERT_TRUE(source_.PutAtomic(Oid("A9"), "age", Value::Int(30)).ok());
  ASSERT_TRUE(source_.PutSet(Oid("P9"), "professor", {Oid("A9")}).ok());
  ASSERT_TRUE(source_.Insert(Root(), Oid("P9")).ok());
  UpdateEvent event = MakeEvent(Update::Insert(Root(), Oid("P9")),
                                ReportingLevel::kWithValues);
  int64_t queries_before = costs_.cache_maintenance_queries;
  ASSERT_TRUE(cache.OnEvent(event, wrapper_.get()).ok());
  EXPECT_TRUE(cache.OnCorridor(Oid("P9")));
  EXPECT_TRUE(cache.OnCorridor(Oid("A9")));
  EXPECT_GT(costs_.cache_maintenance_queries, queries_before)
      << "the subobjects of P9 had to be pulled from the source";
  auto objects = cache.EvalObjects(Oid("P9"), *Path::Parse("age"));
  ASSERT_TRUE(objects.has_value());
  EXPECT_EQ((*objects)[0].value().AsInt(), 30);
}

TEST_F(AuxCacheTest, DeletePrunesAndModifyRefreshes) {
  AuxiliaryCache cache(AuxiliaryCache::Mode::kFull, Root(),
                       *Path::Parse("professor.age"));
  ASSERT_TRUE(cache.Initialize(wrapper_.get()).ok());

  // Modify A1 with a level-2 event: value refreshed locally, no query.
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());
  UpdateEvent modify_event =
      MakeEvent(Update::Modify(A1(), Value::Int(45), Value::Int(50)),
                ReportingLevel::kWithValues);
  int64_t queries_before = costs_.cache_maintenance_queries;
  ASSERT_TRUE(cache.OnEvent(modify_event, wrapper_.get()).ok());
  EXPECT_EQ(costs_.cache_maintenance_queries, queries_before);
  EXPECT_EQ(cache.Fetch(A1())->value().AsInt(), 50);

  // Delete P1 from ROOT: P1 and A1 leave the corridor.
  ASSERT_TRUE(source_.Delete(Root(), P1()).ok());
  UpdateEvent delete_event =
      MakeEvent(Update::Delete(Root(), P1()), ReportingLevel::kWithValues);
  ASSERT_TRUE(cache.OnEvent(delete_event, wrapper_.get()).ok());
  EXPECT_FALSE(cache.OnCorridor(P1()));
  EXPECT_FALSE(cache.OnCorridor(A1()));
  EXPECT_TRUE(cache.OnCorridor(P2()));
  // Until Prune() the detached objects stay readable (the maintainer's
  // delete case evaluates them); afterwards they are gone.
  EXPECT_TRUE(cache.Fetch(P1()).ok());
  cache.Prune();
  EXPECT_FALSE(cache.Fetch(P1()).ok());
  EXPECT_TRUE(cache.Fetch(P2()).ok());
}

TEST_F(AuxCacheTest, OffCorridorEventsAreFreeNoOps) {
  AuxiliaryCache cache(AuxiliaryCache::Mode::kFull, Root(),
                       *Path::Parse("professor.age"));
  ASSERT_TRUE(cache.Initialize(wrapper_.get()).ok());
  int64_t queries_before = costs_.cache_maintenance_queries;
  size_t size_before = cache.size();

  ASSERT_TRUE(source_.Modify(N3(), Value::Str("Jon")).ok());
  UpdateEvent event =
      MakeEvent(Update::Modify(N3(), Value::Str("John"), Value::Str("Jon")),
                ReportingLevel::kWithValues);
  ASSERT_TRUE(cache.OnEvent(event, wrapper_.get()).ok());
  EXPECT_EQ(costs_.cache_maintenance_queries, queries_before);
  EXPECT_EQ(cache.size(), size_before);
}

// ---------------------------------------------------------- Warehouse e2e

class WarehouseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(BuildPersonDb(&source_, /*with_database=*/false).ok());
  }

  void Connect(ReportingLevel level,
               Warehouse::CacheMode cache = Warehouse::CacheMode::kNone) {
    warehouse_ = std::make_unique<Warehouse>(&warehouse_store_);
    ASSERT_TRUE(warehouse_->ConnectSource(&source_, Root(), level).ok());
    ASSERT_TRUE(
        warehouse_
            ->DefineView(
                "define mview YP as: SELECT ROOT.professor X "
                "WHERE X.age <= 45",
                cache)
            .ok());
    warehouse_->costs().Reset();  // exclude setup from maintenance costs
  }

  void ExpectViewCorrect() {
    ASSERT_TRUE(warehouse_->last_status().ok())
        << warehouse_->last_status().ToString();
    MaterializedView* view = warehouse_->view("YP");
    ASSERT_NE(view, nullptr);
    ConsistencyReport report = CheckViewConsistency(*view, source_);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }

  void RunExample5Workload() {
    ASSERT_TRUE(source_.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
    ASSERT_TRUE(source_.Insert(P2(), Oid("A2")).ok());       // P2 joins
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());  // P1 leaves
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(40)).ok());  // P1 returns
    ASSERT_TRUE(source_.Delete(Root(), P2()).ok());          // P2 leaves
    ASSERT_TRUE(source_.Insert(Root(), P2()).ok());          // P2 returns
    // Irrelevant noise: names, a student insert.
    ASSERT_TRUE(source_.Modify(N1(), Value::Str("Jon")).ok());
    ASSERT_TRUE(source_.PutAtomic(Oid("H"), "hobby", Value::Str("go")).ok());
    ASSERT_TRUE(source_.Insert(P1(), Oid("H")).ok());
  }

  ObjectStore source_;
  ObjectStore warehouse_store_;
  std::unique_ptr<Warehouse> warehouse_;
};

TEST_F(WarehouseTest, RequiresSourceBeforeViews) {
  Warehouse warehouse(&warehouse_store_);
  EXPECT_EQ(warehouse.DefineView("define mview V as: SELECT ROOT.professor X")
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(warehouse.ConnectSource(&source_, Oid("nope"),
                                    ReportingLevel::kOidsOnly)
                .code(),
            StatusCode::kNotFound);
}

TEST_F(WarehouseTest, RejectsNonRootEntryButAcceptsGeneralViews) {
  Connect(ReportingLevel::kWithValues);
  EXPECT_FALSE(
      warehouse_->DefineView("define mview V2 as: SELECT P1.student X").ok());
  // Non-simple definitions are no longer rejected: they bypass Algorithm 1
  // and get the discrimination-network engine instead.
  ASSERT_TRUE(
      warehouse_
          ->DefineView("define mview V3 as: SELECT ROOT.* X WHERE X.age > 1")
          .ok());
  EXPECT_EQ(warehouse_->view_engine("V3"), Warehouse::EngineKind::kGdn);
}

TEST_F(WarehouseTest, MaintainsCorrectlyAtEveryLevel) {
  for (ReportingLevel level :
       {ReportingLevel::kOidsOnly, ReportingLevel::kWithValues,
        ReportingLevel::kWithRootPath}) {
    SCOPED_TRACE(ReportingLevelName(level));
    ObjectStore fresh_source;
    ASSERT_TRUE(BuildPersonDb(&fresh_source, false).ok());
    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(warehouse.ConnectSource(&fresh_source, Root(), level).ok());
    ASSERT_TRUE(warehouse
                    .DefineView(
                        "define mview YP as: SELECT ROOT.professor X "
                        "WHERE X.age <= 45")
                    .ok());

    ASSERT_TRUE(fresh_source.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
    ASSERT_TRUE(fresh_source.Insert(P2(), Oid("A2")).ok());
    ASSERT_TRUE(fresh_source.Modify(A1(), Value::Int(50)).ok());
    ASSERT_TRUE(fresh_source.Delete(Root(), P2()).ok());
    ASSERT_TRUE(fresh_source.Insert(Root(), P2()).ok());
    ASSERT_TRUE(fresh_source.Modify(Oid("A2"), Value::Int(99)).ok());

    ASSERT_TRUE(warehouse.last_status().ok())
        << warehouse.last_status().ToString();
    MaterializedView* view = warehouse.view("YP");
    ASSERT_NE(view, nullptr);
    ConsistencyReport report = CheckViewConsistency(*view, fresh_source);
    EXPECT_TRUE(report.consistent) << report.ToString();
    EXPECT_EQ(view->BaseMembers(), OidSet());
  }
}

TEST_F(WarehouseTest, HigherReportingLevelsCostFewerQueries) {
  int64_t queries[4] = {0, 0, 0, 0};
  for (int level = 1; level <= 3; ++level) {
    ObjectStore fresh_source;
    ASSERT_TRUE(BuildPersonDb(&fresh_source, false).ok());
    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(warehouse
                    .ConnectSource(&fresh_source, Root(),
                                   static_cast<ReportingLevel>(level))
                    .ok());
    ASSERT_TRUE(warehouse
                    .DefineView(
                        "define mview YP as: SELECT ROOT.professor X "
                        "WHERE X.age <= 45")
                    .ok());
    warehouse.costs().Reset();

    ASSERT_TRUE(fresh_source.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
    ASSERT_TRUE(fresh_source.Insert(P2(), Oid("A2")).ok());
    ASSERT_TRUE(fresh_source.Modify(A1(), Value::Int(50)).ok());
    ASSERT_TRUE(fresh_source.Modify(N1(), Value::Str("Jon")).ok());
    ASSERT_TRUE(warehouse.last_status().ok());
    queries[level] = warehouse.costs().source_queries;
  }
  EXPECT_GT(queries[1], queries[2])
      << "level 2 screens the name modify locally";
  EXPECT_GE(queries[2], queries[3]);
}

TEST_F(WarehouseTest, ScreeningCountsIrrelevantEvents) {
  Connect(ReportingLevel::kWithValues);
  ASSERT_TRUE(source_.Modify(N1(), Value::Str("Jon")).ok());
  ASSERT_TRUE(source_.Modify(M3(), Value::Str("math")).ok());
  EXPECT_EQ(warehouse_->costs().events_screened_out, 2);
  EXPECT_EQ(warehouse_->costs().source_queries, 0);
  EXPECT_EQ(warehouse_->costs().events_local_only, 2);
  ExpectViewCorrect();

  // Deferred: one drain of two screened modifies asks the source nothing
  // while it evaluates, so both of its events are local too.
  warehouse_->costs().Reset();
  warehouse_->set_deferred(true);
  ASSERT_TRUE(source_.Modify(N1(), Value::Str("Jo")).ok());
  ASSERT_TRUE(source_.Modify(M3(), Value::Str("art")).ok());
  ASSERT_TRUE(warehouse_->ProcessPendingBatch().ok());
  EXPECT_EQ(warehouse_->costs().events_screened_out, 2);
  EXPECT_EQ(warehouse_->costs().events_local_only, 2);
  ExpectViewCorrect();
}

TEST_F(WarehouseTest, FullCacheMakesMaintenanceLocal) {
  Connect(ReportingLevel::kWithValues, Warehouse::CacheMode::kFull);
  RunExample5Workload();
  EXPECT_EQ(warehouse_->costs().source_queries,
            warehouse_->costs().cache_maintenance_queries)
      << "all non-cache-upkeep work is local (§5.2 Example 10)";
  EXPECT_EQ(warehouse_->view("YP")->BaseMembers(), OidSet({P1(), P2()}));
  ExpectViewCorrect();
}

TEST_F(WarehouseTest, PartialCacheQueriesOnlyForValues) {
  Connect(ReportingLevel::kWithValues, Warehouse::CacheMode::kLabelsOnly);
  RunExample5Workload();
  ExpectViewCorrect();
  // Structure questions were answered locally, some value fetches remain.
  EXPECT_GT(warehouse_->costs().cache_hits, 0);
}

TEST_F(WarehouseTest, CacheModesAgreeWithNoCache) {
  for (auto mode :
       {Warehouse::CacheMode::kNone, Warehouse::CacheMode::kLabelsOnly,
        Warehouse::CacheMode::kFull}) {
    ObjectStore fresh_source;
    ASSERT_TRUE(BuildPersonDb(&fresh_source, false).ok());
    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(warehouse
                    .ConnectSource(&fresh_source, Root(),
                                   ReportingLevel::kWithValues)
                    .ok());
    ASSERT_TRUE(warehouse
                    .DefineView(
                        "define mview YP as: SELECT ROOT.professor X "
                        "WHERE X.age <= 45",
                        mode)
                    .ok());
    ASSERT_TRUE(fresh_source.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
    ASSERT_TRUE(fresh_source.Insert(P2(), Oid("A2")).ok());
    ASSERT_TRUE(fresh_source.Modify(A1(), Value::Int(50)).ok());
    ASSERT_TRUE(fresh_source.Delete(P2(), Oid("A2")).ok());
    ASSERT_TRUE(warehouse.last_status().ok())
        << warehouse.last_status().ToString();
    EXPECT_EQ(warehouse.view("YP")->BaseMembers(), OidSet());
  }
}

TEST_F(WarehouseTest, PathKnowledgeSkipsImpossibleUpdates) {
  // The paper's example: students have no salary children. A view on
  // ROOT.secretary.salary can never be affected by updates below students.
  Connect(ReportingLevel::kWithValues);
  ASSERT_TRUE(warehouse_
                  ->DefineView(
                      "define mview SS as: SELECT ROOT.secretary X "
                      "WHERE X.salary > 0")
                  .ok());
  warehouse_->costs().Reset();

  // Without knowledge: a salary insert under a student matches the label
  // filter of SS (salary is on its corridor) and triggers queries.
  ASSERT_TRUE(source_.PutAtomic(Oid("SAL"), "salary", Value::Int(1)).ok());
  ASSERT_TRUE(source_.Insert(P3(), Oid("SAL")).ok());
  int64_t queries_without = warehouse_->costs().source_queries;
  EXPECT_GT(queries_without, 0);
  ASSERT_TRUE(source_.Delete(P3(), Oid("SAL")).ok());

  PathKnowledge knowledge;
  knowledge.SetChildLabels("person", {"professor", "student", "secretary"});
  knowledge.SetChildLabels("student", {"name", "age", "major"});
  knowledge.SetChildLabels("secretary", {"name", "age", "salary"});
  warehouse_->SetPathKnowledge(knowledge);
  warehouse_->costs().Reset();

  // With knowledge, modifying a salary under a student... the event label
  // is still "salary" which IS feasible under secretary — so insert events
  // under students still pass label screening. The decisive case from the
  // paper: a view over students can never see salary events at all.
  ASSERT_TRUE(warehouse_
                  ->DefineView(
                      "define mview ST as: SELECT ROOT.student X "
                      "WHERE X.salary > 0")
                  .ok());
  warehouse_->costs().Reset();
  ASSERT_TRUE(source_.Insert(P3(), Oid("SAL")).ok());
  ASSERT_TRUE(source_.Modify(Oid("SAL"), Value::Int(2)).ok());
  // ST screened both events without queries (salary impossible below
  // student), SS still processed them.
  EXPECT_GT(warehouse_->costs().events_screened_out, 0);
  ASSERT_TRUE(warehouse_->last_status().ok());
  EXPECT_EQ(warehouse_->view("ST")->BaseMembers(), OidSet());
}

TEST_F(WarehouseTest, Level1ModifyRecheckHandlesBothDirections) {
  Connect(ReportingLevel::kOidsOnly);
  // P1 leaves on modify (45 -> 50) even though the event carries no values.
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());
  EXPECT_EQ(warehouse_->view("YP")->BaseMembers(), OidSet());
  // And returns on 50 -> 45.
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(45)).ok());
  EXPECT_EQ(warehouse_->view("YP")->BaseMembers(), OidSet({P1()}));
  ExpectViewCorrect();
}

// Deferred processing: events queue while the source races ahead; after a
// drain the view converges to the source's current state.
TEST_F(WarehouseTest, DeferredProcessingConverges) {
  Connect(ReportingLevel::kWithValues);
  warehouse_->set_deferred(true);

  // The source changes several times before the warehouse looks at any
  // event; some intermediate states contradict the final one.
  ASSERT_TRUE(source_.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
  ASSERT_TRUE(source_.Insert(P2(), Oid("A2")).ok());      // P2 would join
  ASSERT_TRUE(source_.Modify(Oid("A2"), Value::Int(99)).ok());  // ...but ages
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok()); // P1 leaves
  ASSERT_TRUE(source_.Delete(Root(), P2()).ok());
  ASSERT_TRUE(source_.Insert(Root(), P2()).ok());
  EXPECT_EQ(warehouse_->pending_events(), 5u);
  EXPECT_EQ(warehouse_->view("YP")->BaseMembers(), OidSet({P1()}))
      << "nothing applied yet";

  ASSERT_TRUE(warehouse_->ProcessPending().ok());
  EXPECT_EQ(warehouse_->pending_events(), 0u);
  EXPECT_EQ(warehouse_->view("YP")->BaseMembers(), OidSet());
  ExpectViewCorrect();

  // A second batch that reverses everything.
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(45)).ok());
  ASSERT_TRUE(source_.Modify(Oid("A2"), Value::Int(30)).ok());
  ASSERT_TRUE(warehouse_->ProcessPending().ok());
  EXPECT_EQ(warehouse_->view("YP")->BaseMembers(), OidSet({P1(), P2()}));
  ExpectViewCorrect();
}

// Drain coalescing: cancelling pairs vanish, modify chains merge, and the
// coalesced drain lands on the same view.
TEST_F(WarehouseTest, DrainCoalescingPreservesNetEffect) {
  Connect(ReportingLevel::kWithValues);
  warehouse_->set_deferred(true);

  ASSERT_TRUE(source_.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
  ASSERT_TRUE(source_.Insert(P2(), Oid("A2")).ok());   // insert ...
  ASSERT_TRUE(source_.Delete(P2(), Oid("A2")).ok());   // ...cancelled
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(60)).ok());
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(44)).ok());  // merge to one
  ASSERT_TRUE(source_.Delete(Root(), P4()).ok());      // delete ...
  ASSERT_TRUE(source_.Insert(Root(), P4()).ok());      // ...cancelled
  EXPECT_EQ(warehouse_->pending_events(), 7u);

  warehouse_->costs().Reset();
  ASSERT_TRUE(warehouse_->ProcessPending().ok());
  EXPECT_EQ(warehouse_->costs().events_coalesced, 6);
  EXPECT_EQ(warehouse_->costs().events_received, 1)
      << "only the merged modify chain survives";
  EXPECT_EQ(warehouse_->view("YP")->BaseMembers(), OidSet({P1()}));
  ExpectViewCorrect();
}

// Coalesced deferred drains converge on random streams.
TEST_F(WarehouseTest, CompactedDeferredStreamsConverge) {
  ObjectStore source;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 3;
  tree_options.seed = 53;
  auto tree = GenerateTree(&source, tree_options);
  ASSERT_TRUE(tree.ok());

  ObjectStore warehouse_store;
  Warehouse warehouse(&warehouse_store);
  ASSERT_TRUE(warehouse
                  .ConnectSource(&source, tree->root,
                                 ReportingLevel::kWithValues)
                  .ok());
  ASSERT_TRUE(
      warehouse.DefineView(TreeViewDefinition("TV", tree->root, 2, 3, 50))
          .ok());
  warehouse.set_deferred(true);

  UpdateGenOptions gen_options;
  gen_options.seed = 59;
  gen_options.p_modify = 0.6;  // modify-heavy: plenty to merge
  gen_options.p_insert = 0.2;
  gen_options.p_delete = 0.2;
  UpdateGenerator generator(&source, tree->root, gen_options);
  for (int batch = 0; batch < 10; ++batch) {
    ASSERT_TRUE(generator.Run(30).ok());
    ASSERT_TRUE(warehouse.ProcessPending().ok());
    auto def = ViewDefinition::Parse(
        TreeViewDefinition("TV", tree->root, 2, 3, 50));
    auto truth = EvaluateView(source, *def);
    ASSERT_TRUE(truth.ok());
    ASSERT_EQ(warehouse.view("TV")->BaseMembers(), *truth)
        << "batch " << batch;
  }
  EXPECT_GT(warehouse.costs().events_coalesced, 0)
      << "the modify-heavy stream must coalesce";
  ConsistencyReport report =
      CheckViewConsistency(*warehouse.view("TV"), source);
  EXPECT_TRUE(report.consistent) << report.ToString();
}

// Deferred drains converge on random streams at every level / cache mode.
// Long drains over wide, modify-heavy streams are exactly what exposed the
// two staleness holes this suite pins down (witness-based deletes and
// path-broken skips); keep the shapes aggressive.
TEST_F(WarehouseTest, DeferredRandomStreamsConverge) {
  struct Config {
    ReportingLevel level;
    Warehouse::CacheMode cache;
    uint64_t tree_seed;
    uint64_t stream_seed;
    size_t fanout;
  };
  const Config configs[] = {
      {ReportingLevel::kOidsOnly, Warehouse::CacheMode::kNone, 29, 71, 3},
      {ReportingLevel::kWithValues, Warehouse::CacheMode::kNone, 61, 67, 5},
      {ReportingLevel::kWithValues, Warehouse::CacheMode::kFull, 61, 67, 5},
      {ReportingLevel::kWithValues, Warehouse::CacheMode::kLabelsOnly, 13,
       91, 4},
      {ReportingLevel::kWithRootPath, Warehouse::CacheMode::kFull, 17, 37,
       4},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(std::string(ReportingLevelName(config.level)) + "/seed" +
                 std::to_string(config.tree_seed));
    ObjectStore source;
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = config.fanout;
    tree_options.seed = config.tree_seed;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());

    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(
        warehouse.ConnectSource(&source, tree->root, config.level).ok());
    ASSERT_TRUE(warehouse
                    .DefineView(TreeViewDefinition("TV", tree->root, 2, 3, 50),
                                config.cache)
                    .ok());
    warehouse.set_deferred(true);

    UpdateGenOptions gen_options;
    gen_options.seed = config.stream_seed;
    gen_options.p_modify = 0.6;
    gen_options.p_insert = 0.2;
    gen_options.p_delete = 0.2;
    UpdateGenerator generator(&source, tree->root, gen_options);
    Random batch_rng(5);
    for (int batch = 0; batch < 12; ++batch) {
      size_t burst = 1 + batch_rng.Uniform(100);
      ASSERT_TRUE(generator.Run(burst).ok());
      ASSERT_TRUE(warehouse.ProcessPending().ok())
          << warehouse.last_status().ToString();
      auto truth = EvaluateView(source, *ViewDefinition::Parse(TreeViewDefinition(
                                            "TV", tree->root, 2, 3, 50)));
      ASSERT_TRUE(truth.ok());
      ASSERT_EQ(warehouse.view("TV")->BaseMembers(), *truth)
          << "batch " << batch;
      ConsistencyReport report =
          CheckViewConsistency(*warehouse.view("TV"), source);
      ASSERT_TRUE(report.consistent) << report.ToString();
    }
  }
}

TEST_F(WarehouseTest, RandomStreamStaysConsistentAcrossConfigs) {
  struct Config {
    ReportingLevel level;
    Warehouse::CacheMode cache;
  };
  const Config configs[] = {
      {ReportingLevel::kOidsOnly, Warehouse::CacheMode::kNone},
      {ReportingLevel::kWithValues, Warehouse::CacheMode::kNone},
      {ReportingLevel::kWithValues, Warehouse::CacheMode::kLabelsOnly},
      {ReportingLevel::kWithValues, Warehouse::CacheMode::kFull},
      {ReportingLevel::kWithRootPath, Warehouse::CacheMode::kFull},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(ReportingLevelName(config.level));
    ObjectStore source;
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 3;
    tree_options.seed = 17;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());

    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(
        warehouse.ConnectSource(&source, tree->root, config.level).ok());
    ASSERT_TRUE(warehouse
                    .DefineView(TreeViewDefinition("TV", tree->root, 2, 3, 50),
                                config.cache)
                    .ok());

    UpdateGenOptions gen_options;
    gen_options.seed = 23;
    UpdateGenerator generator(&source, tree->root, gen_options);
    ASSERT_TRUE(generator.Run(120).ok());

    ASSERT_TRUE(warehouse.last_status().ok())
        << warehouse.last_status().ToString();
    MaterializedView* view = warehouse.view("TV");
    ASSERT_NE(view, nullptr);
    ConsistencyReport report = CheckViewConsistency(*view, source);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }
}

// ------------------------------------------------- Sequenced delivery

TEST_F(MonitorTest, EventsCarryMonotoneSequence) {
  auto events = Capture(ReportingLevel::kOidsOnly, [&] {
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(40)).ok());
    ASSERT_TRUE(source_.Modify(A1(), Value::Int(30)).ok());
  });
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].sequence, 1u);
  EXPECT_EQ(events[1].sequence, 2u);
  EXPECT_EQ(events[2].sequence, 3u);
}

TEST_F(WarehouseTest, DuplicateDeliveriesAreIdempotentAtEveryLevel) {
  for (ReportingLevel level :
       {ReportingLevel::kOidsOnly, ReportingLevel::kWithValues,
        ReportingLevel::kWithRootPath}) {
    SCOPED_TRACE(ReportingLevelName(level));
    ObjectStore fresh_source;
    ASSERT_TRUE(BuildPersonDb(&fresh_source, false).ok());
    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(warehouse.ConnectSource(&fresh_source, Root(), level).ok());
    ASSERT_TRUE(warehouse
                    .DefineView(
                        "define mview YP as: SELECT ROOT.professor X "
                        "WHERE X.age <= 45")
                    .ok());

    FaultInjector injector(FaultProfile{});
    ASSERT_TRUE(warehouse.SetFaultInjector("source1", &injector).ok());
    injector.DuplicateNextEvents(100);  // every delivery arrives twice

    ASSERT_TRUE(fresh_source.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
    ASSERT_TRUE(fresh_source.Insert(P2(), Oid("A2")).ok());
    ASSERT_TRUE(fresh_source.Modify(A1(), Value::Int(50)).ok());
    ASSERT_TRUE(fresh_source.Delete(Root(), P2()).ok());

    // PutAtomic does not notify: three monitored updates, each duplicated.
    EXPECT_EQ(warehouse.costs().events_duplicate_dropped, 3);
    EXPECT_EQ(warehouse.costs().events_gap_detected, 0);
    EXPECT_EQ(warehouse.stale_view_count(), 0u);
    ASSERT_TRUE(warehouse.last_status().ok())
        << warehouse.last_status().ToString();
    ConsistencyReport report =
        CheckViewConsistency(*warehouse.view("YP"), fresh_source);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }
}

TEST_F(WarehouseTest, LostDeliveryQuarantinesThenResyncsAtEveryLevel) {
  for (ReportingLevel level :
       {ReportingLevel::kOidsOnly, ReportingLevel::kWithValues,
        ReportingLevel::kWithRootPath}) {
    SCOPED_TRACE(ReportingLevelName(level));
    ObjectStore fresh_source;
    ASSERT_TRUE(BuildPersonDb(&fresh_source, false).ok());
    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(warehouse.ConnectSource(&fresh_source, Root(), level).ok());
    ASSERT_TRUE(warehouse
                    .DefineView(
                        "define mview YP as: SELECT ROOT.professor X "
                        "WHERE X.age <= 45")
                    .ok());

    FaultInjector injector(FaultProfile{});
    ASSERT_TRUE(warehouse.SetFaultInjector("source1", &injector).ok());
    injector.DropNextEvents(1);
    injector.set_down(true);  // query-backs fail too: no immediate resync

    // This update's delivery is lost; nothing observable yet.
    ASSERT_TRUE(fresh_source.Modify(A1(), Value::Int(50)).ok());
    EXPECT_EQ(warehouse.stale_view_count(), 0u);

    // The next delivery reveals the gap and quarantines the view; with the
    // source down, the resync attempt fails and the event buffers.
    ASSERT_TRUE(fresh_source.Modify(A1(), Value::Int(40)).ok());
    EXPECT_EQ(warehouse.costs().events_gap_detected, 1);
    EXPECT_EQ(warehouse.stale_view_count(), 1u);
    EXPECT_EQ(warehouse.view_health("YP"), Warehouse::ViewHealth::kStale);
    EXPECT_EQ(warehouse.buffered_stale_events(), 1u);
    ASSERT_TRUE(warehouse.last_status().ok())
        << "quarantine is graceful: " << warehouse.last_status().ToString();

    // Reads are still served from the last consistent state.
    MaterializedView* view = warehouse.view("YP");
    ASSERT_NE(view, nullptr);
    EXPECT_TRUE(view->BaseMembers().Contains(P1()));

    // Recovery: heal the channel and resync explicitly.
    injector.Heal();
    ASSERT_TRUE(warehouse.ResyncStaleViews().ok());
    EXPECT_EQ(warehouse.stale_view_count(), 0u);
    EXPECT_EQ(warehouse.view_health("YP"), Warehouse::ViewHealth::kFresh);
    EXPECT_EQ(warehouse.buffered_stale_events(), 0u);
    EXPECT_GE(warehouse.costs().view_resyncs, 1);
    ConsistencyReport report = CheckViewConsistency(*view, fresh_source);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }
}

TEST_F(WarehouseTest, RecoveredSourceResyncsOnNextEventWithoutExplicitCall) {
  Connect(ReportingLevel::kWithValues);
  FaultInjector injector(FaultProfile{});
  ASSERT_TRUE(warehouse_->SetFaultInjector("source1", &injector).ok());

  injector.DropNextEvents(1);
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());  // lost
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(44)).ok());  // reveals the gap
  // The channel is healthy apart from the drop, so the dispatch of the
  // gap-revealing event resyncs inline: quarantine lasted one delivery.
  EXPECT_EQ(warehouse_->costs().events_gap_detected, 1);
  EXPECT_GE(warehouse_->costs().views_quarantined, 1);
  EXPECT_GE(warehouse_->costs().view_resyncs, 1);
  EXPECT_EQ(warehouse_->stale_view_count(), 0u);
  ExpectViewCorrect();
}

TEST_F(WarehouseTest, UnsequencedEventsBypassGapDetection) {
  Connect(ReportingLevel::kWithValues);
  // Events constructed directly (sequence 0) — the pre-sequencing pattern
  // used by tests and batch helpers — must not trip duplicate/gap logic.
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(50)).ok());  // sequence 1
  UpdateEvent manual;
  manual.kind = UpdateKind::kModify;
  manual.parent = A1();
  manual.level = ReportingLevel::kOidsOnly;
  // Not delivered through the monitor, so no sequence stamp.
  EXPECT_EQ(manual.sequence, 0u);
  ASSERT_TRUE(source_.Modify(A1(), Value::Int(40)).ok());  // sequence 2
  EXPECT_EQ(warehouse_->costs().events_gap_detected, 0);
  EXPECT_EQ(warehouse_->costs().events_duplicate_dropped, 0);
  EXPECT_EQ(warehouse_->stale_view_count(), 0u);
  ExpectViewCorrect();
}

// ------------------------------------------- non-OEM source translation

// Figure 6's wrapper role: a relational source is translated into the OEM
// model, and the whole warehouse stack runs over it unchanged.
TEST(SourceWrapperGsdbTest, RelationalSourceBecomesGsdb) {
  RelationalSource relational;
  ASSERT_TRUE(relational.CreateTable("emp", {"name", "salary"}).ok());
  auto joe = relational.InsertRow(
      "emp", {Value::Str("Joe"), Value::Int(50000)});
  ASSERT_TRUE(joe.ok());

  ObjectStore store;
  GsdbSourceAdapter adapter(&store, &relational, "REL");
  ASSERT_TRUE(adapter.Initialize().ok());

  // The §2 record example: <name:'Joe', salary:50k> as an OEM subtree.
  const Object* tuple = store.Get(adapter.TupleOid("emp", *joe));
  ASSERT_NE(tuple, nullptr);
  EXPECT_EQ(tuple->label(), "tuple");
  auto answer = EvaluateQueryText(
      store, "SELECT REL.emp.tuple X WHERE X.name = 'Joe'");
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*answer, OidSet({adapter.TupleOid("emp", *joe)}));
}

TEST(SourceWrapperGsdbTest, RowOperationsBecomeBasicUpdates) {
  RelationalSource relational;
  ASSERT_TRUE(relational.CreateTable("emp", {"name", "salary"}).ok());
  ObjectStore store;
  GsdbSourceAdapter adapter(&store, &relational, "REL");
  ASSERT_TRUE(adapter.Initialize().ok());

  // Record the basic updates the translation produces.
  struct Recorder : UpdateListener {
    void OnUpdate(const ObjectStore&, const Update& update) override {
      kinds.push_back(update.kind);
    }
    std::vector<UpdateKind> kinds;
  } recorder;
  store.AddListener(&recorder);

  auto row = relational.InsertRow("emp", {Value::Str("Ada"), Value::Int(1)});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(relational.UpdateRow("emp", *row, "salary", Value::Int(2)).ok());
  ASSERT_TRUE(relational.DeleteRow("emp", *row).ok());
  ASSERT_TRUE(relational.last_translation_status().ok());
  EXPECT_EQ(recorder.kinds,
            (std::vector<UpdateKind>{UpdateKind::kInsert, UpdateKind::kModify,
                                     UpdateKind::kDelete}));
}

TEST(SourceWrapperGsdbTest, WarehouseOverWrappedRelationalSource) {
  RelationalSource relational;
  ASSERT_TRUE(relational.CreateTable("emp", {"name", "salary"}).ok());
  ObjectStore source;
  GsdbSourceAdapter adapter(&source, &relational, "REL");
  ASSERT_TRUE(adapter.Initialize().ok());

  ObjectStore warehouse_store;
  Warehouse warehouse(&warehouse_store);
  ASSERT_TRUE(warehouse
                  .ConnectSource(&source, Oid("REL"),
                                 ReportingLevel::kWithValues)
                  .ok());
  ASSERT_TRUE(warehouse
                  .DefineView(
                      "define mview RICH as: SELECT REL.emp.tuple X "
                      "WHERE X.salary >= 100000")
                  .ok());

  auto low = relational.InsertRow("emp", {Value::Str("Lo"), Value::Int(1)});
  auto high = relational.InsertRow(
      "emp", {Value::Str("Hi"), Value::Int(150000)});
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(warehouse.view("RICH")->BaseMembers(),
            OidSet({adapter.TupleOid("emp", *high)}));

  // A raise promotes Lo into the view; a row delete evicts Hi.
  ASSERT_TRUE(
      relational.UpdateRow("emp", *low, "salary", Value::Int(200000)).ok());
  ASSERT_TRUE(relational.DeleteRow("emp", *high).ok());
  ASSERT_TRUE(warehouse.last_status().ok())
      << warehouse.last_status().ToString();
  EXPECT_EQ(warehouse.view("RICH")->BaseMembers(),
            OidSet({adapter.TupleOid("emp", *low)}));
  EXPECT_TRUE(
      CheckViewConsistency(*warehouse.view("RICH"), source).consistent);
}

TEST(SourceWrapperGsdbTest, Validation) {
  RelationalSource relational;
  EXPECT_FALSE(relational.CreateTable("a.b", {"x"}).ok());
  EXPECT_FALSE(relational.CreateTable("t", {"x", "x"}).ok());
  ASSERT_TRUE(relational.CreateTable("t", {"x"}).ok());
  EXPECT_FALSE(relational.CreateTable("t", {"y"}).ok());
  EXPECT_FALSE(relational.InsertRow("nope", {Value::Int(1)}).ok());
  EXPECT_FALSE(relational.InsertRow("t", {}).ok()) << "arity";
  EXPECT_FALSE(relational.InsertRow("t", {Value::SetOf({})}).ok());
  EXPECT_FALSE(relational.DeleteRow("t", 99).ok());
  EXPECT_FALSE(relational.UpdateRow("t", 0, "x", Value::Int(1)).ok());
}

// ------------------------------------------------------ sharded warehouse

// Small twin rig for the sharded tests: one source tree observed by both a
// plain warehouse and a K-shard coordinator. `prefix` keeps the interned
// OIDs (and so the shard split) unique per test.
struct ShardedRig {
  ObjectStore source;
  ObjectStore plain_store;
  std::unique_ptr<Warehouse> plain;
  std::unique_ptr<ShardedWarehouse> sharded;
  std::unique_ptr<UpdateGenerator> gen;
  Oid root;
  std::string definition;

  void Build(uint32_t shards, const std::string& prefix, bool deferred) {
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 4;
    tree_options.seed = 101;
    tree_options.oid_prefix = prefix;
    auto tree = GenerateTree(&source, tree_options);
    ASSERT_TRUE(tree.ok());
    root = tree->root;
    definition = TreeViewDefinition("SWV", root, 2, 3, 50);

    plain = std::make_unique<Warehouse>(&plain_store);
    ASSERT_TRUE(
        plain->ConnectSource(&source, root, ReportingLevel::kWithValues).ok());
    ASSERT_TRUE(plain->DefineView(definition).ok());
    plain->set_deferred(deferred);

    sharded = std::make_unique<ShardedWarehouse>(shards);
    ASSERT_TRUE(sharded->init_status().ok());
    ASSERT_TRUE(
        sharded->ConnectSource(&source, root, ReportingLevel::kWithValues)
            .ok());
    ASSERT_TRUE(sharded->DefineView(definition).ok());
    sharded->set_deferred(deferred);

    UpdateGenOptions gen_options;
    gen_options.seed = 211;
    gen_options.oid_prefix = prefix + "u";
    gen = std::make_unique<UpdateGenerator>(&source, root, gen_options);
  }

  void ExpectTwinsIdentical() {
    MaterializedView* view = plain->view("SWV");
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(sharded->ViewMembers("SWV"), view->BaseMembers().elements());
    EXPECT_EQ(sharded->ViewContents("SWV"), ViewContentLines(*view));
  }
};

TEST(ShardedWarehouseTest, RejectsNonPowerOfTwoShardCounts) {
  ShardedWarehouse bad(3);
  EXPECT_FALSE(bad.init_status().ok());
  ShardedWarehouse good(4);
  EXPECT_TRUE(good.init_status().ok());
  EXPECT_EQ(good.shard_count(), 4u);
}

TEST(ShardedWarehouseTest, ShardsRejectAuxCaches) {
  // The §5.2 corridor cuts across the partition, so a bound shard only
  // accepts cache-less views; the coordinator always defines them that way.
  ShardedRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Build(2, "shc_", /*deferred=*/false));
  Status status = rig.sharded->shard(0).DefineView(
      TreeViewDefinition("SWV2", rig.root, 2, 3, 50),
      Warehouse::CacheMode::kFull);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("CacheMode::kNone"), std::string::npos)
      << status.ToString();
}

TEST(ShardedWarehouseTest, InlineModeConvergesAfterEveryEvent) {
  ShardedRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Build(4, "shi_", /*deferred=*/false));
  ASSERT_NO_FATAL_FAILURE(rig.ExpectTwinsIdentical());
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(rig.gen->Step().ok());
    // Inline dispatch maintains on arrival and redistributes cross-shard
    // ops per event — the twins may never drift, even between drains.
    ASSERT_NO_FATAL_FAILURE(rig.ExpectTwinsIdentical()) << "event " << i;
  }
  const WarehouseCosts costs = rig.sharded->MergedCosts();
  EXPECT_GT(costs.cross_shard_exports + costs.cross_shard_applies +
                costs.cross_shard_probes,
            0);
}

TEST(ShardedWarehouseTest, DroppedShardDeliveryQuarantinesAndResyncHeals) {
  ShardedRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Build(4, "shq_", /*deferred=*/true));

  // Healthy warm-up drain.
  ASSERT_TRUE(rig.gen->Run(40).ok());
  ASSERT_TRUE(rig.plain->ProcessPendingBatch().ok());
  ASSERT_TRUE(rig.sharded->ProcessPendingBatch(4).ok());
  ASSERT_NO_FATAL_FAILURE(rig.ExpectTwinsIdentical());

  // Lose one delivery on shard 1's channel while its wrapper is down, so
  // the gap quarantines that shard's slice and the drain cannot resync it.
  FaultInjector injector(FaultProfile{});
  ASSERT_TRUE(rig.sharded->SetFaultInjector("source1", 1, &injector).ok());
  injector.DropNextEvents(1);
  injector.set_down(true);
  ASSERT_TRUE(rig.gen->Run(60).ok());
  ASSERT_TRUE(rig.plain->ProcessPendingBatch().ok());
  ASSERT_TRUE(rig.sharded->ProcessPendingBatch(4).ok());
  EXPECT_GT(rig.sharded->stale_view_count(), 0u);

  // Heal the channel: the coordinated resync recomputes the quarantined
  // slice, re-exports its foreign members, and sweeps the peers, so the
  // twins are byte-identical again.
  injector.Heal();
  ASSERT_TRUE(rig.sharded->ResyncStaleViews().ok());
  EXPECT_EQ(rig.sharded->stale_view_count(), 0u);
  ASSERT_NO_FATAL_FAILURE(rig.ExpectTwinsIdentical());

  // The healed coordinator keeps converging on later drains.
  ASSERT_TRUE(rig.gen->Run(40).ok());
  ASSERT_TRUE(rig.plain->ProcessPendingBatch().ok());
  ASSERT_TRUE(rig.sharded->ProcessPendingBatch(4).ok());
  ASSERT_NO_FATAL_FAILURE(rig.ExpectTwinsIdentical());
}

TEST(ShardedWarehouseTest, ExplainReportsSlicesAndMergedTotals) {
  ShardedRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Build(4, "she_", /*deferred=*/true));
  ASSERT_TRUE(rig.gen->Run(60).ok());
  ASSERT_TRUE(rig.sharded->ProcessPendingBatch(4).ok());

  const ShardedViewExplanation explain = rig.sharded->ExplainView("SWV");
  EXPECT_EQ(explain.view, "SWV");
  EXPECT_EQ(explain.shards, 4u);
  ASSERT_EQ(explain.members_per_shard.size(), 4u);
  size_t total = 0;
  for (size_t count : explain.members_per_shard) total += count;
  EXPECT_EQ(explain.total_members, total);
  EXPECT_EQ(explain.total_members, rig.sharded->ViewMembers("SWV").size());
  const std::string text = explain.ToString();
  EXPECT_NE(text.find("sharded view 'SWV'"), std::string::npos) << text;
  EXPECT_NE(text.find("cross-shard traffic"), std::string::npos) << text;
}

TEST(ShardedWarehouseTest, DrainTimingsDecomposeTheCriticalPath) {
  ShardedRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Build(4, "sht_", /*deferred=*/true));
  ASSERT_TRUE(rig.gen->Run(50).ok());
  ASSERT_TRUE(rig.sharded->ProcessPendingBatch(4).ok());
  ASSERT_EQ(rig.sharded->drain_timings().size(), 1u);
  const ShardedWarehouse::DrainTiming& timing =
      rig.sharded->drain_timings()[0];
  EXPECT_GE(timing.serial_micros, 0);
  EXPECT_EQ(timing.eval_micros.size(), 4u);
  rig.sharded->clear_drain_timings();
  EXPECT_TRUE(rig.sharded->drain_timings().empty());
}

// One delivery per event: with only Algorithm 1 views the router forwards
// nothing, so the shards' sequence domains together number exactly the
// source's events — the traffic serve-k4-replica sees. A §6 view adds its
// host, the one shard that runs a network, and the router forwards it
// every later event; the host's Algorithm 1 slices ignore the forwards.
TEST(ShardedWarehouseTest, RouterForwardsEveryEventOnlyToANetworkHost) {
  ShardedRig rig;
  ASSERT_NO_FATAL_FAILURE(rig.Build(4, "shf_", /*deferred=*/true));
  ShardedWarehouse& sharded = *rig.sharded;
  auto delivered = [&sharded](uint32_t shard) {
    return sharded.shard(shard).last_delivered_sequence("source1");
  };
  auto drain = [&rig] {
    ASSERT_TRUE(rig.plain->ProcessPendingBatch().ok());
    ASSERT_TRUE(rig.sharded->ProcessPendingBatch(4).ok());
  };

  ASSERT_TRUE(rig.gen->Run(80).ok());
  ASSERT_NO_FATAL_FAILURE(drain());
  const uint64_t events = rig.plain->last_delivered_sequence("source1");
  ASSERT_GT(events, 0u);
  uint64_t sum = 0;
  for (uint32_t i = 0; i < sharded.shard_count(); ++i) sum += delivered(i);
  EXPECT_EQ(sum, events);

  const std::string general = "define mview SGV as: SELECT " +
                              rig.root.str() + ".* X WHERE X.age <= 50";
  ASSERT_TRUE(sharded.DefineView(general).ok());
  ASSERT_TRUE(rig.plain->DefineView(general).ok());
  std::vector<uint32_t> hosts;
  for (uint32_t i = 0; i < sharded.shard_count(); ++i) {
    if (sharded.shard(i).gdn_engine("SGV") != nullptr) hosts.push_back(i);
  }
  ASSERT_EQ(hosts.size(), 1u);
  const uint64_t host_before = delivered(hosts[0]);

  ASSERT_TRUE(rig.gen->Run(60).ok());
  ASSERT_NO_FATAL_FAILURE(drain());
  const uint64_t later = rig.plain->last_delivered_sequence("source1") - events;
  ASSERT_GT(later, 0u);
  EXPECT_EQ(delivered(hosts[0]) - host_before, later);
  ASSERT_NO_FATAL_FAILURE(rig.ExpectTwinsIdentical());
  EXPECT_EQ(sharded.ViewContents("SGV"),
            ViewContentLines(*rig.plain->view("SGV")));
  auto def = ViewDefinition::Parse(general);
  ASSERT_TRUE(def.ok());
  auto truth = EvaluateView(rig.source, *def);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(sharded.ViewMembers("SGV"), truth->elements());
}

TEST(WarehouseCostsTest, MergeAddsEveryCounterIntoTheTarget) {
  WarehouseCosts a;
  WarehouseCosts b;
  a.events_received = 3;
  b.events_received = 4;
  b.source_queries = 7;
  a.view_resyncs = 2;
  b.cross_shard_exports = 5;
  a.cross_shard_probes = 1;
  b.cross_shard_probes = 2;
  a.Merge(b);
  EXPECT_EQ(a.events_received.load(), 7);
  EXPECT_EQ(a.source_queries.load(), 7);
  EXPECT_EQ(a.view_resyncs.load(), 2);
  EXPECT_EQ(a.cross_shard_exports.load(), 5);
  EXPECT_EQ(a.cross_shard_probes.load(), 3);
  EXPECT_EQ(b.events_received.load(), 4) << "merge must not mutate source";
}

TEST(WarehouseCostsTest, ToStringPrintsAGroupOnceOneOfItsCountersIsLive) {
  const std::string base =
      "events=0 screened=0 local_only=0 coalesced=0 queries=0 "
      "objects_shipped=0 values_shipped=0 cache_queries=0 cache_hits=0 "
      "cache_misses=0";
  WarehouseCosts health;
  health.wrapper_retries = 2;
  EXPECT_EQ(health.ToString(),
            base +
                " dup_dropped=0 gaps=0 buffered_stale=0 retries=2 "
                "wrapper_failures=0 breaker_trips=0 breaker_rejections=0 "
                "quarantined=0 resyncs=0 resync_failures=0");
  WarehouseCosts cross_shard;
  cross_shard.cross_shard_probes = 4;
  EXPECT_EQ(cross_shard.ToString(),
            base + " xshard_exports=0 xshard_applies=0 xshard_probes=4");
}

TEST(WarehouseCostsTest, CopyAndResetCoverEveryField) {
  WarehouseCosts costs;
  int64_t next = 0;
#define GSV_SET_ROW(field, key, group, merge) costs.field = ++next;
  GSV_WAREHOUSE_COSTS(GSV_SET_ROW)
#undef GSV_SET_ROW
  const WarehouseCosts copied(costs);
  WarehouseCosts assigned;
  assigned = costs;
  int64_t expected = 0;
#define GSV_CHECK_ROW(field, key, group, merge)          \
  ++expected;                                            \
  EXPECT_EQ(copied.field.load(), expected) << #field;    \
  EXPECT_EQ(assigned.field.load(), expected) << #field;
  GSV_WAREHOUSE_COSTS(GSV_CHECK_ROW)
#undef GSV_CHECK_ROW
  costs.Reset();
#define GSV_CHECK_ZERO(field, key, group, merge) \
  EXPECT_EQ(costs.field.load(), 0) << #field;
  GSV_WAREHOUSE_COSTS(GSV_CHECK_ZERO)
#undef GSV_CHECK_ZERO
}

TEST(StoreMetricsTest, MergeAddsEveryCounterIntoTheTarget) {
  StoreMetrics a;
  StoreMetrics b;
  a.edges_traversed = 10;
  b.edges_traversed = 5;
  b.parent_lookups = 3;
  a.objects_scanned = 1;
  b.lookups = 8;
  a.index_probes = 2;
  b.index_fallbacks = 6;
  a.pages_pinned_peak = 5;
  b.pages_pinned_peak = 3;
  a.Merge(b);
  EXPECT_EQ(a.edges_traversed.load(), 15);
  EXPECT_EQ(a.parent_lookups.load(), 3);
  EXPECT_EQ(a.objects_scanned.load(), 1);
  EXPECT_EQ(a.lookups.load(), 8);
  EXPECT_EQ(a.index_probes.load(), 2);
  EXPECT_EQ(a.index_fallbacks.load(), 6);
  // A high-water mark merges as a max, in either direction.
  EXPECT_EQ(a.pages_pinned_peak.load(), 5);
  b.pages_pinned_peak = 9;
  a.Merge(b);
  EXPECT_EQ(a.pages_pinned_peak.load(), 9);
  EXPECT_EQ(b.edges_traversed.load(), 5) << "merge must not mutate source";
  // One live paging counter brings the whole paging group onto the line.
  EXPECT_EQ(b.ToString(),
            "edges_traversed=5 parent_lookups=3 lookups=8 scanned=0 "
            "index_probes=0 index_fallbacks=6 page_faults=0 page_evictions=0 "
            "writeback_bytes=0 pinned_peak=9 swizzle_hits=0 swizzle_misses=0");
}

}  // namespace
}  // namespace gsv
