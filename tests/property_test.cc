#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "core/aggregate_view.h"
#include "core/algorithm1.h"
#include "core/consistency.h"
#include "core/materialized_view.h"
#include "core/recompute.h"
#include "core/swizzle.h"
#include "core/union_view.h"
#include "core/view_cluster.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "relational/counting.h"
#include "relational/flatten.h"
#include "relational/spj_view.h"
#include "warehouse/warehouse.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace gsv {
namespace {

// Shared parameter space: RNG seed × tree shape × view shape.
struct PropertyParam {
  uint64_t seed;
  size_t levels;
  size_t fanout;
  size_t label_variety;
  size_t sel_levels;
  int64_t bound;
  size_t updates;
};

std::string ParamName(const ::testing::TestParamInfo<PropertyParam>& info) {
  const PropertyParam& p = info.param;
  return "seed" + std::to_string(p.seed) + "_l" + std::to_string(p.levels) +
         "_f" + std::to_string(p.fanout) + "_v" +
         std::to_string(p.label_variety) + "_s" +
         std::to_string(p.sel_levels) + "_b" + std::to_string(p.bound);
}

const PropertyParam kParams[] = {
    {1, 3, 3, 1, 1, 50, 150},  {2, 3, 3, 1, 2, 50, 150},
    {3, 4, 2, 1, 2, 30, 150},  {4, 4, 2, 1, 3, 70, 150},
    {5, 3, 4, 2, 1, 50, 150},  {6, 3, 4, 2, 2, 20, 150},
    {7, 2, 5, 1, 1, 90, 200},  {8, 4, 3, 2, 2, 50, 120},
    {9, 5, 2, 1, 3, 40, 120},  {10, 3, 3, 3, 2, 60, 150},
};

class MaintainerPropertyTest : public ::testing::TestWithParam<PropertyParam> {
 protected:
  // Builds two identical base stores (subject + oracle) from the param.
  void BuildBases() {
    const PropertyParam& p = GetParam();
    TreeGenOptions options;
    options.levels = p.levels;
    options.fanout = p.fanout;
    options.label_variety = p.label_variety;
    options.seed = p.seed;
    auto subject_tree = GenerateTree(&subject_base_, options);
    auto oracle_tree = GenerateTree(&oracle_base_, options);
    ASSERT_TRUE(subject_tree.ok());
    ASSERT_TRUE(oracle_tree.ok());
    root_ = subject_tree->root;
    definition_ = TreeViewDefinition("PV", root_, GetParam().sel_levels,
                                     GetParam().levels, GetParam().bound);
  }

  ViewDefinition Def() {
    auto def = ViewDefinition::Parse(definition_);
    EXPECT_TRUE(def.ok()) << def.status().ToString();
    return *def;
  }

  // §3.2 value consistency for shared delegates: the delegate
  // "<owner>.<oid>" of every object in `bases` has its base object's label
  // and value.
  void ExpectDelegatesMirrorBase(const ObjectStore& view_store,
                                 const Oid& owner, const OidSet& bases,
                                 size_t update_index) {
    for (const Oid& oid : bases) {
      const Object* delegate = view_store.Get(Oid::Delegate(owner, oid));
      const Object* base = subject_base_.Get(oid);
      ASSERT_NE(delegate, nullptr) << oid.str() << " after " << update_index;
      ASSERT_NE(base, nullptr) << oid.str() << " after " << update_index;
      EXPECT_EQ(delegate->label(), base->label())
          << oid.str() << " after update " << update_index;
      EXPECT_EQ(delegate->value(), base->value())
          << oid.str() << " after update " << update_index << ": "
          << delegate->value().ToString() << " vs "
          << base->value().ToString();
    }
  }

  ObjectStore subject_base_;
  ObjectStore oracle_base_;
  Oid root_;
  std::string definition_;
};

// Algorithm 1 equals full recomputation after every update of a random
// tree-preserving stream (the §4.3 correctness criterion).
TEST_P(MaintainerPropertyTest, Algorithm1MatchesRecomputeOracle) {
  BuildBases();
  ViewDefinition def = Def();

  ObjectStore subject_store;
  MaterializedView subject_view(&subject_store, def);
  ASSERT_TRUE(subject_view.Initialize(subject_base_).ok());
  LocalAccessor accessor(&subject_base_);
  Algorithm1Maintainer maintainer(&subject_view, &accessor, def, root_);
  subject_base_.AddListener(&maintainer);

  ObjectStore oracle_store;
  MaterializedView oracle_view(&oracle_store, def);
  ASSERT_TRUE(oracle_view.Initialize(oracle_base_).ok());
  RecomputeMaintainer oracle(&oracle_view, &oracle_base_);
  oracle_base_.AddListener(&oracle);

  UpdateGenOptions gen_options;
  gen_options.seed = GetParam().seed + 1000;
  UpdateGenerator subject_gen(&subject_base_, root_, gen_options);
  UpdateGenerator oracle_gen(&oracle_base_, root_, gen_options);

  for (size_t i = 0; i < GetParam().updates; ++i) {
    auto subject_update = subject_gen.Step();
    auto oracle_update = oracle_gen.Step();
    ASSERT_TRUE(subject_update.ok());
    ASSERT_TRUE(oracle_update.ok());
    ASSERT_EQ(subject_update->ToString(), oracle_update->ToString())
        << "generators must stay in lockstep";
    ASSERT_TRUE(maintainer.last_status().ok());
    ASSERT_TRUE(oracle.last_status().ok());
    ASSERT_EQ(subject_view.BaseMembers(), oracle_view.BaseMembers())
        << "diverged after " << subject_update->ToString();
  }
  ConsistencyReport report =
      CheckViewConsistency(subject_view, subject_base_);
  EXPECT_TRUE(report.consistent) << report.ToString();
}

// The discrimination network agrees with Algorithm 1 on simple views (they
// implement the same specification).
TEST_P(MaintainerPropertyTest, GdnMatchesAlgorithm1) {
  BuildBases();
  ViewDefinition def = Def();

  ObjectStore a1_store;
  MaterializedView a1_view(&a1_store, def);
  ASSERT_TRUE(a1_view.Initialize(subject_base_).ok());
  LocalAccessor accessor(&subject_base_);
  Algorithm1Maintainer algo1(&a1_view, &accessor, def, root_);
  subject_base_.AddListener(&algo1);

  ObjectStore gdn_store;
  MaterializedView gdn_view(&gdn_store, def);
  ASSERT_TRUE(gdn_view.Initialize(subject_base_).ok());
  GdnListener gdn(&gdn_view, &subject_base_, def, root_);
  ASSERT_TRUE(gdn.Initialize().ok());
  subject_base_.AddListener(&gdn);

  UpdateGenOptions gen_options;
  gen_options.seed = GetParam().seed + 2000;
  UpdateGenerator generator(&subject_base_, root_, gen_options);
  for (size_t i = 0; i < GetParam().updates; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(algo1.last_status().ok());
    ASSERT_TRUE(gdn.last_status().ok());
    ASSERT_EQ(a1_view.BaseMembers(), gdn_view.BaseMembers());
  }
}

// On DAG-shaped streams (multiple parents), the network tracks the
// recomputed truth (§6's DAG relaxation).
TEST_P(MaintainerPropertyTest, GdnHandlesDagStreams) {
  BuildBases();
  ViewDefinition def = Def();

  ObjectStore view_store;
  MaterializedView view(&view_store, def);
  ASSERT_TRUE(view.Initialize(subject_base_).ok());
  GdnListener gdn(&view, &subject_base_, def, root_);
  ASSERT_TRUE(gdn.Initialize().ok());
  subject_base_.AddListener(&gdn);

  UpdateGenOptions gen_options;
  gen_options.mode = UpdateMode::kDagPreserving;
  gen_options.seed = GetParam().seed + 3000;
  UpdateGenerator generator(&subject_base_, root_, gen_options);
  for (size_t i = 0; i < GetParam().updates; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(gdn.last_status().ok());
    if (i % 10 == 0) {
      auto truth = EvaluateView(subject_base_, def);
      ASSERT_TRUE(truth.ok());
      ASSERT_EQ(view.BaseMembers(), *truth) << "after update " << i;
    }
  }
  auto truth = EvaluateView(subject_base_, def);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(view.BaseMembers(), *truth);
}

// The relational counting maintainer over the flattened representation
// computes the same view as the GSDB machinery (§4.4's equivalence).
TEST_P(MaintainerPropertyTest, CountingMatchesGsdbTruth) {
  BuildBases();
  ViewDefinition def = Def();

  RelationalMirror mirror;
  ASSERT_TRUE(mirror.SyncFromStore(subject_base_).ok());
  subject_base_.AddListener(&mirror);
  auto spec = ChainSpec::FromDefinition(def);
  ASSERT_TRUE(spec.ok());
  CountingViewMaintainer counting(&mirror, *spec);
  ASSERT_TRUE(counting.Initialize().ok());

  UpdateGenOptions gen_options;
  gen_options.seed = GetParam().seed + 4000;
  UpdateGenerator generator(&subject_base_, root_, gen_options);
  for (size_t i = 0; i < GetParam().updates; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(mirror.last_status().ok());
    ASSERT_TRUE(counting.last_status().ok());
    if (i % 25 == 0) {
      auto truth = EvaluateView(subject_base_, def);
      ASSERT_TRUE(truth.ok());
      ASSERT_EQ(counting.Members(), *truth) << "after update " << i;
      // Counts must also equal a fresh bag evaluation (not just support).
      auto recomputed = EvaluateChain(mirror, *spec);
      for (const auto& [y, count] : recomputed) {
        ASSERT_EQ(counting.CountOf(Oid(y)), count);
      }
    }
  }
  auto truth = EvaluateView(subject_base_, def);
  ASSERT_TRUE(truth.ok());
  EXPECT_EQ(counting.Members(), *truth);
}

// Swizzling must never affect view consistency or maintenance (§3.2:
// "swizzling should not affect the results of queries").
TEST_P(MaintainerPropertyTest, SwizzledViewsStayConsistent) {
  BuildBases();
  ViewDefinition def = Def();

  MaterializedView::Options options;
  options.swizzle = true;
  ObjectStore view_store;
  MaterializedView view(&view_store, def, options);
  ASSERT_TRUE(view.Initialize(subject_base_).ok());
  LocalAccessor accessor(&subject_base_);
  Algorithm1Maintainer maintainer(&view, &accessor, def, root_);
  subject_base_.AddListener(&maintainer);

  UpdateGenOptions gen_options;
  gen_options.seed = GetParam().seed + 5000;
  UpdateGenerator generator(&subject_base_, root_, gen_options);
  for (size_t i = 0; i < GetParam().updates; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(maintainer.last_status().ok());
  }
  ConsistencyReport report = CheckViewConsistency(view, subject_base_);
  EXPECT_TRUE(report.consistent) << report.ToString();

  // Every swizzled edge must point at a live delegate of this view.
  const Oid& view_oid = view.view_oid();
  for (const Oid& member : view.BaseMembers()) {
    const Object* delegate = view_store.Get(view.DelegateOid(member));
    ASSERT_NE(delegate, nullptr);
    if (!delegate->IsSet()) continue;
    for (const Oid& child : delegate->children()) {
      if (child.IsDelegateOf(view_oid)) {
        EXPECT_TRUE(view.ContainsBase(child.BaseIn(view_oid)))
            << "dangling swizzled edge " << child.str();
      } else {
        EXPECT_FALSE(view.ContainsBase(child))
            << "unswizzled edge to in-view object " << child.str();
      }
    }
  }
}

// The warehouse, at every reporting level and cache mode, converges to the
// same view as centralized maintenance.
TEST_P(MaintainerPropertyTest, WarehouseMatchesTruthAcrossConfigs) {
  struct Config {
    ReportingLevel level;
    Warehouse::CacheMode cache;
  };
  const Config configs[] = {
      {ReportingLevel::kOidsOnly, Warehouse::CacheMode::kNone},
      {ReportingLevel::kWithValues, Warehouse::CacheMode::kLabelsOnly},
      {ReportingLevel::kWithRootPath, Warehouse::CacheMode::kFull},
  };
  for (const Config& config : configs) {
    SCOPED_TRACE(ReportingLevelName(config.level));
    ObjectStore source;
    TreeGenOptions options;
    options.levels = GetParam().levels;
    options.fanout = GetParam().fanout;
    options.label_variety = GetParam().label_variety;
    options.seed = GetParam().seed;
    auto tree = GenerateTree(&source, options);
    ASSERT_TRUE(tree.ok());
    std::string definition =
        TreeViewDefinition("PV", tree->root, GetParam().sel_levels,
                           GetParam().levels, GetParam().bound);

    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    ASSERT_TRUE(
        warehouse.ConnectSource(&source, tree->root, config.level).ok());
    ASSERT_TRUE(warehouse.DefineView(definition, config.cache).ok());

    UpdateGenOptions gen_options;
    gen_options.seed = GetParam().seed + 6000;
    UpdateGenerator generator(&source, tree->root, gen_options);
    ASSERT_TRUE(generator.Run(GetParam().updates).ok());

    ASSERT_TRUE(warehouse.last_status().ok())
        << warehouse.last_status().ToString();
    MaterializedView* view = warehouse.view("PV");
    ASSERT_NE(view, nullptr);
    ConsistencyReport report = CheckViewConsistency(*view, source);
    EXPECT_TRUE(report.consistent) << report.ToString();
  }
}

// Union views: membership always equals the union of the branch queries'
// answers, delegates exist exactly for the union, refcounts = #selecting
// branches.
TEST_P(MaintainerPropertyTest, UnionViewMatchesBranchUnion) {
  BuildBases();
  // Branch A: the parameterized view; branch B: a shallower one.
  std::string def_a_text = definition_;
  std::string def_b_text =
      TreeViewDefinition("UVb", root_, 1, GetParam().levels,
                         GetParam().bound / 2);
  auto def_a = ViewDefinition::Parse(def_a_text);
  auto def_b = ViewDefinition::Parse(def_b_text);
  ASSERT_TRUE(def_a.ok());
  ASSERT_TRUE(def_b.ok());

  ObjectStore view_store;
  LocalAccessor accessor(&subject_base_);
  UnionView union_view(&view_store, "UV", &accessor);
  ASSERT_TRUE(union_view.Bootstrap().ok());
  ASSERT_TRUE(union_view.AddBranch(*def_a, subject_base_, root_).ok());
  ASSERT_TRUE(union_view.AddBranch(*def_b, subject_base_, root_).ok());
  subject_base_.AddListener(union_view.listener());

  UpdateGenOptions gen_options;
  gen_options.seed = GetParam().seed + 7000;
  UpdateGenerator generator(&subject_base_, root_, gen_options);
  for (size_t i = 0; i < GetParam().updates; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(union_view.last_status().ok());
    if (i % 25 != 0) continue;
    auto truth_a = EvaluateView(subject_base_, *def_a);
    auto truth_b = EvaluateView(subject_base_, *def_b);
    ASSERT_TRUE(truth_a.ok());
    ASSERT_TRUE(truth_b.ok());
    OidSet expected = OidSet::Union(*truth_a, *truth_b);
    ASSERT_EQ(union_view.Members(), expected) << "after update " << i;
    for (const Oid& member : expected) {
      int expected_refs = (truth_a->Contains(member) ? 1 : 0) +
                          (truth_b->Contains(member) ? 1 : 0);
      ASSERT_EQ(union_view.RefCount(member), expected_refs);
      ASSERT_TRUE(view_store.Contains(Oid::Delegate(Oid("UV"), member)));
    }
    ExpectDelegatesMirrorBase(view_store, Oid("UV"), expected, i);
    std::vector<Oid> delegates;
    for (const Oid& member : expected) {
      delegates.push_back(Oid::Delegate(Oid("UV"), member));
    }
    ASSERT_EQ(view_store.Get(Oid("UV"))->children(), OidSet(delegates))
        << "the view object holds exactly the union's delegates, after "
           "update "
        << i;
  }
}

// View clusters (§3.2): two member views, each maintained by its own
// Algorithm 1 instance, share one delegate per base object. Each member
// equals its recompute, refcounts count the selecting members, and the
// cluster holds one delegate per object of the members' union.
TEST_P(MaintainerPropertyTest, ViewClusterMatchesMemberRecompute) {
  BuildBases();
  auto def_a = ViewDefinition::Parse(definition_);
  auto def_b = ViewDefinition::Parse(TreeViewDefinition(
      "CLb", root_, 1, GetParam().levels, GetParam().bound / 2));
  ASSERT_TRUE(def_a.ok());
  ASSERT_TRUE(def_b.ok());

  ObjectStore view_store;
  ViewCluster cluster(&view_store, "CL");
  ASSERT_TRUE(cluster.Bootstrap().ok());
  auto storage_a = cluster.AddView(*def_a);
  auto storage_b = cluster.AddView(*def_b);
  ASSERT_TRUE(storage_a.ok());
  ASSERT_TRUE(storage_b.ok());
  ASSERT_TRUE(cluster.InitializeAll(subject_base_).ok());
  LocalAccessor accessor(&subject_base_);
  Algorithm1Maintainer maintainer_a(*storage_a, &accessor, *def_a, root_);
  Algorithm1Maintainer maintainer_b(*storage_b, &accessor, *def_b, root_);
  subject_base_.AddListener(&maintainer_a);
  subject_base_.AddListener(&maintainer_b);

  UpdateGenOptions gen_options;
  gen_options.seed = GetParam().seed + 9000;
  UpdateGenerator generator(&subject_base_, root_, gen_options);
  for (size_t i = 0; i < GetParam().updates; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(maintainer_a.last_status().ok());
    ASSERT_TRUE(maintainer_b.last_status().ok());
    if (i % 25 != 0) continue;
    auto truth_a = EvaluateView(subject_base_, *def_a);
    auto truth_b = EvaluateView(subject_base_, *def_b);
    ASSERT_TRUE(truth_a.ok());
    ASSERT_TRUE(truth_b.ok());
    ASSERT_EQ((*storage_a)->BaseMembers(), *truth_a) << "after update " << i;
    ASSERT_EQ((*storage_b)->BaseMembers(), *truth_b) << "after update " << i;
    OidSet expected = OidSet::Union(*truth_a, *truth_b);
    ASSERT_EQ(cluster.delegate_count(), expected.size())
        << "after update " << i;
    for (const Oid& member : expected) {
      int expected_refs = (truth_a->Contains(member) ? 1 : 0) +
                          (truth_b->Contains(member) ? 1 : 0);
      ASSERT_EQ(cluster.RefCount(member), expected_refs)
          << member.str() << " after update " << i;
    }
    ExpectDelegatesMirrorBase(view_store, Oid("CL"), expected, i);
  }
}

// Aggregate views: every member's delegate equals a from-scratch aggregate
// over the current base.
TEST_P(MaintainerPropertyTest, AggregateViewTracksTruth) {
  BuildBases();
  // Members: level-1 nodes (no condition); aggregate: count of their "age"
  // leaves when the tree is 2 levels deep, else count of next-level nodes.
  std::string agg_label = GetParam().levels >= 3 ? "n2_0" : "age";
  std::string member_def_text =
      "define mview AGV as: SELECT " + root_.str() + ".n1_0 X";
  auto member_def = ViewDefinition::Parse(member_def_text);
  ASSERT_TRUE(member_def.ok());

  ObjectStore view_store;
  AggregateView aggregate(&subject_base_, &view_store, "AGV", *member_def,
                          root_, *Path::Parse(agg_label),
                          AggregateView::Kind::kCount);
  ASSERT_TRUE(aggregate.Initialize().ok());
  subject_base_.AddListener(aggregate.listener());

  UpdateGenOptions gen_options;
  gen_options.seed = GetParam().seed + 8000;
  UpdateGenerator generator(&subject_base_, root_, gen_options);
  for (size_t i = 0; i < GetParam().updates; ++i) {
    ASSERT_TRUE(generator.Step().ok());
    ASSERT_TRUE(aggregate.last_status().ok());
    if (i % 25 != 0) continue;
    auto truth = EvaluateView(subject_base_, *member_def);
    ASSERT_TRUE(truth.ok());
    ASSERT_EQ(aggregate.Members(), *truth) << "after update " << i;
    for (const Oid& member : *truth) {
      int64_t expected = static_cast<int64_t>(
          EvalPath(subject_base_, member, *Path::Parse(agg_label)).size());
      auto actual = aggregate.AggregateOf(member);
      ASSERT_TRUE(actual.ok());
      ASSERT_EQ(actual->AsInt(), expected)
          << member.str() << " after update " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaintainerPropertyTest,
                         ::testing::ValuesIn(kParams), ParamName);

}  // namespace
}  // namespace gsv
