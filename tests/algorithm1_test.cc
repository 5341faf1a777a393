#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/algorithm1.h"
#include "core/consistency.h"
#include "core/materialized_view.h"
#include "core/recompute.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "oem/store.h"
#include "path/navigate.h"
#include "workload/person_db.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

// Fixture owning a base store, a centralized materialized view over it, and
// an Algorithm 1 maintainer wired as a store listener.
class Algorithm1Test : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(BuildPersonDb(&store_).ok()); }

  void MakeView(const std::string& definition) {
    auto def = ViewDefinition::Parse(definition);
    ASSERT_TRUE(def.ok()) << def.status().ToString();
    ASSERT_TRUE(Algorithm1Maintainer::ValidateDefinition(*def).ok());
    view_ = std::make_unique<MaterializedView>(&store_, *def);
    ASSERT_TRUE(view_->Initialize(store_).ok());
    accessor_ = std::make_unique<LocalAccessor>(&store_);
    maintainer_ = std::make_unique<Algorithm1Maintainer>(
        view_.get(), accessor_.get(), *def, Root());
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
  std::unique_ptr<LocalAccessor> accessor_;
  std::unique_ptr<Algorithm1Maintainer> maintainer_;
};

TEST_F(Algorithm1Test, ValidateDefinitionRejectsNonSimple) {
  auto wild = ViewDefinition::Parse(
      "define mview V as: SELECT ROOT.* X WHERE X.name = 'John'");
  ASSERT_TRUE(wild.ok());
  EXPECT_EQ(Algorithm1Maintainer::ValidateDefinition(*wild).code(),
            StatusCode::kInvalidArgument);
}

// Example 5 / Example 6 / Figure 4: insert(P2, A2) with A2 = <age, 40>
// brings P2 into YP = professors with age <= 45.
TEST_F(Algorithm1Test, PaperExample5InsertBringsP2In) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));

  ASSERT_TRUE(store_.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
  ASSERT_TRUE(store_.Insert(P2(), Oid("A2")).ok());

  // Figure 4 (right): YP now holds YP.P1 and YP.P2. (The paper's Example 6
  // step 4 prints "YP.N2" — a typo for YP.P2, per Figure 4.)
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P2()}));
  EXPECT_TRUE(store_.Contains(Oid("YP.P2")));
  EXPECT_EQ(maintainer_->stats().matched, 1);
  ExpectConsistent();
}

// Example 6 continued: delete(ROOT, P1) removes YP.P1 (select-region case).
TEST_F(Algorithm1Test, PaperExample6DeleteRemovesP1) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.Delete(Root(), P1()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  EXPECT_FALSE(store_.Contains(Oid("YP.P1")));
  ExpectConsistent();
}

// Label mismatch screening: inserting a non-age child of P2 is irrelevant.
TEST_F(Algorithm1Test, IrrelevantLabelIsScreenedOut) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.PutAtomic(Oid("H2"), "hobby", Value::Str("golf")).ok());
  ASSERT_TRUE(store_.Insert(P2(), Oid("H2")).ok());
  EXPECT_EQ(maintainer_->stats().matched, 0)
      << "path test fails on label(N2) != age (§5.1 screening)";
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

// Inserting a whole subtree at the select level: a new professor object
// with a satisfying age arrives with one edge insert.
TEST_F(Algorithm1Test, InsertSubtreeAtSelectLevel) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.PutAtomic(Oid("A9"), "age", Value::Int(30)).ok());
  ASSERT_TRUE(store_.PutSet(Oid("P9"), "professor", {Oid("A9")}).ok());
  ASSERT_TRUE(store_.Insert(Root(), Oid("P9")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), Oid("P9")}));
  ExpectConsistent();
}

// Condition-region delete with a second witness: P1 has two age children;
// deleting one must NOT remove P1 (the paper's non-unique-label point).
TEST_F(Algorithm1Test, ConditionRegionDeleteKeepsSecondWitness) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.PutAtomic(Oid("A1b"), "age", Value::Int(44)).ok());
  ASSERT_TRUE(store_.Insert(P1(), Oid("A1b")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));

  // Delete the original witness A1: A1b still satisfies, P1 stays.
  ASSERT_TRUE(store_.Delete(P1(), A1()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  EXPECT_GT(maintainer_->stats().rechecks, 0)
      << "the algorithm must re-examine eval(Y, cond_path, cond)";

  // Delete the second witness too: P1 leaves.
  ASSERT_TRUE(store_.Delete(P1(), Oid("A1b")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  ExpectConsistent();
}

// Modify flips the condition both ways (the modify() case of Algorithm 1).
TEST_F(Algorithm1Test, ModifyTogglesMembership) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  // 45 -> 50: P1 leaves.
  ASSERT_TRUE(store_.Modify(A1(), Value::Int(50)).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  // 50 -> 45: P1 returns.
  ASSERT_TRUE(store_.Modify(A1(), Value::Int(45)).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

TEST_F(Algorithm1Test, ModifyIrrelevantValueDoesNothing) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  int64_t matched_before = maintainer_->stats().matched;
  ASSERT_TRUE(store_.Modify(N1(), Value::Str("Johnny")).ok());
  EXPECT_EQ(maintainer_->stats().matched, matched_before)
      << "name is not on professor.age";
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

TEST_F(Algorithm1Test, ModifyWithSecondWitnessDoesNotDelete) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.PutAtomic(Oid("A1b"), "age", Value::Int(44)).ok());
  ASSERT_TRUE(store_.Insert(P1(), Oid("A1b")).ok());
  // Flip A1 to violating: A1b still supports P1.
  ASSERT_TRUE(store_.Modify(A1(), Value::Int(99)).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

// A two-label condition path: deletes can land at either depth of the
// condition region, exercising both q-prefix lengths of the delete case.
TEST_F(Algorithm1Test, DeepConditionRegion) {
  // Professors with a young student: cond path student.age.
  MakeView(
      "define mview YS as: SELECT ROOT.professor X "
      "WHERE X.student.age <= 21");
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));

  // Delete at condition depth 2 (edge P3 -> A3, q = "student"): P1 loses
  // its only witness.
  ASSERT_TRUE(store_.Delete(P3(), A3()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  // Reinsert: witness returns.
  ASSERT_TRUE(store_.Insert(P3(), A3()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));

  // Delete at condition depth 1 (edge P1 -> P3, q = empty): same result,
  // different sub-case.
  ASSERT_TRUE(store_.Delete(P1(), P3()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  ASSERT_TRUE(store_.Insert(P1(), P3()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

// Inserting a subtree into the middle of the condition region: the new
// child carries the witness below it.
TEST_F(Algorithm1Test, InsertSubtreeIntoConditionRegion) {
  MakeView(
      "define mview YS as: SELECT ROOT.professor X "
      "WHERE X.student.age <= 21");
  // P2 has no student; give it one (with a qualifying age) in one insert.
  ASSERT_TRUE(store_.PutAtomic(Oid("A8"), "age", Value::Int(19)).ok());
  ASSERT_TRUE(store_.PutSet(Oid("P8"), "student", {Oid("A8")}).ok());
  ASSERT_TRUE(store_.Insert(P2(), Oid("P8")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P2()}));
  ExpectConsistent();
}

// An edge insert that is a silent no-op (duplicate) must not notify and
// must leave the view untouched.
TEST_F(Algorithm1Test, DuplicateEdgeInsertIsInvisible) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  int64_t updates_before = maintainer_->stats().updates;
  ASSERT_TRUE(store_.Insert(Root(), P1()).ok());  // already a child
  EXPECT_EQ(maintainer_->stats().updates, updates_before);
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

// Equal-value modifies still notify (the store cannot know whether the
// value is observationally different) but must not change membership.
TEST_F(Algorithm1Test, NoOpModifyKeepsView) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.Modify(A1(), Value::Int(45)).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1()}));
  ExpectConsistent();
}

// Views with no WHERE clause: membership tracks reachability only.
TEST_F(Algorithm1Test, TrivialConditionViews) {
  MakeView("define mview PROFS as: SELECT ROOT.professor X");
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P2()}));

  ASSERT_TRUE(store_.PutSet(Oid("P9"), "professor").ok());
  ASSERT_TRUE(store_.Insert(Root(), Oid("P9")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P2(), Oid("P9")}));

  ASSERT_TRUE(store_.Delete(Root(), P2()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), Oid("P9")}));

  // Modifying any atomic value never changes membership.
  ASSERT_TRUE(store_.Modify(A1(), Value::Int(99)).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), Oid("P9")}));
  ExpectConsistent();
}

// Two-level select path: the select-region cases of insert/delete.
TEST_F(Algorithm1Test, TwoLevelSelectPath) {
  MakeView(
      "define mview YS as: SELECT ROOT.professor.student X "
      "WHERE X.age <= 21");
  EXPECT_EQ(view_->BaseMembers(), OidSet({P3()}));

  // Unlink P1 from ROOT: P3 is no longer reachable via professor.student.
  ASSERT_TRUE(store_.Delete(Root(), P1()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());

  // Relink: P3 returns (insert in the select region, witness deep below).
  ASSERT_TRUE(store_.Insert(Root(), P1()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P3()}));
  ExpectConsistent();
}

// The same object selected through the edge that is deleted, while another
// derivation remains: P3 is a student under ROOT.professor.student via P1.
// Give it a second professor parent, then unlink one.
TEST_F(Algorithm1Test, AlternateDerivationSurvivesDelete) {
  MakeView(
      "define mview YS as: SELECT ROOT.professor.student X "
      "WHERE X.age <= 21");
  ASSERT_TRUE(store_.PutSet(Oid("P8"), "professor", {P3()}).ok());
  ASSERT_TRUE(store_.Insert(Root(), Oid("P8")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P3()}));

  // Remove P3 from P1: still a student of P8.
  ASSERT_TRUE(store_.Delete(P1(), P3()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({P3()}))
      << "candidate verification must notice the surviving derivation";

  // Remove the second derivation too.
  ASSERT_TRUE(store_.Delete(Oid("P8"), P3()).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  ExpectConsistent();
}

// The PERSON grouping object gives every node a second parent; the
// maintainer must not be fooled into selecting it (candidate verification).
TEST_F(Algorithm1Test, GroupingObjectIsNeverSelected) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
  ASSERT_TRUE(store_.Insert(P2(), Oid("A2")).ok());
  EXPECT_FALSE(view_->ContainsBase(Person()))
      << "PERSON is an ancestor of A2 via path 'age' but fails "
         "path(ROOT,Y)=sel_path";
  EXPECT_EQ(view_->BaseMembers(), OidSet({P1(), P2()}));
  ExpectConsistent();
}

// Example 7 / Figure 5: the relational-style GSDB.
TEST_F(Algorithm1Test, PaperExample7RelationalStyleInsert) {
  ObjectStore store;
  ASSERT_TRUE(store.PutSet(Oid("REL"), "relations").ok());
  ASSERT_TRUE(store.PutSet(Oid("R"), "r").ok());
  ASSERT_TRUE(store.PutSet(Oid("S"), "s").ok());
  ASSERT_TRUE(store.Insert(Oid("REL"), Oid("R")).ok());
  ASSERT_TRUE(store.Insert(Oid("REL"), Oid("S")).ok());

  auto def = ViewDefinition::Parse(
      "define mview SEL as: SELECT REL.r.tuple X WHERE X.age > 30");
  ASSERT_TRUE(def.ok());
  MaterializedView view(&store, *def);
  ASSERT_TRUE(view.Initialize(store).ok());
  LocalAccessor accessor(&store);
  Algorithm1Maintainer maintainer(&view, &accessor, *def, Oid("REL"));
  store.AddListener(&maintainer);

  // Insert tuple T = <tuple, {A}>, A = <age, 40> into R.
  ASSERT_TRUE(store.PutAtomic(Oid("A"), "age", Value::Int(40)).ok());
  ASSERT_TRUE(store.PutSet(Oid("T"), "tuple", {Oid("A")}).ok());
  ASSERT_TRUE(store.Insert(Oid("R"), Oid("T")).ok());
  EXPECT_EQ(view.BaseMembers(), OidSet({Oid("T")}));
  EXPECT_TRUE(store.Contains(Oid("SEL.T")));

  // Example 7's second update: a tuple inserted into relation s — the
  // algorithm "stops processing after it finds out that path(REL,S) does
  // not match the first label in sel_path".
  ASSERT_TRUE(store.PutAtomic(Oid("A2"), "age", Value::Int(50)).ok());
  ASSERT_TRUE(store.PutSet(Oid("T2"), "tuple", {Oid("A2")}).ok());
  int64_t matched_before = maintainer.stats().matched;
  ASSERT_TRUE(store.Insert(Oid("S"), Oid("T2")).ok());
  EXPECT_EQ(maintainer.stats().matched, matched_before);
  EXPECT_EQ(view.BaseMembers(), OidSet({Oid("T")}));
  EXPECT_TRUE(maintainer.last_status().ok());
  EXPECT_TRUE(CheckViewConsistency(view, store).consistent);
}

// A DAG base where N1 = DN has 17 root paths: sixteen g.g.g.g.p paths
// through a four-layer diamond lattice, climbed first (DG4a and DG4b sort
// before DR), and the one direct path "p" that matches sel_path. The
// insert/delete cases must find that one path however many others there are.
class Algorithm1DeepDagTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.PutSet(Oid("DR"), "root").ok());
    ASSERT_TRUE(store_.PutSet(Oid("DN"), "p").ok());
    ASSERT_TRUE(store_.AddChildRaw(Oid("DR"), Oid("DN")).ok());
    std::vector<Oid> layer{Oid("DR")};
    for (int depth = 1; depth <= 4; ++depth) {
      std::vector<Oid> next;
      for (const char* side : {"a", "b"}) {
        Oid node("DG" + std::to_string(depth) + side);
        ASSERT_TRUE(store_.PutSet(node, "g").ok());
        for (const Oid& parent : layer) {
          ASSERT_TRUE(store_.AddChildRaw(parent, node).ok());
        }
        next.push_back(node);
      }
      layer = std::move(next);
    }
    for (const Oid& parent : layer) {
      ASSERT_TRUE(store_.AddChildRaw(parent, Oid("DN")).ok());
    }
    ASSERT_TRUE(store_.PutAtomic(Oid("DW"), "v", Value::Int(3)).ok());
  }

  void StartView() {
    view_ = std::make_unique<MaterializedView>(&store_, def_);
    ASSERT_TRUE(view_->Initialize(store_).ok());
    accessor_ = std::make_unique<LocalAccessor>(&store_);
    maintainer_ = std::make_unique<Algorithm1Maintainer>(
        view_.get(), accessor_.get(), def_, Oid("DR"));
    store_.AddListener(maintainer_.get());
  }

  void ExpectEqualsEvaluation() {
    ASSERT_TRUE(maintainer_->last_status().ok());
    auto truth = EvaluateView(store_, def_);
    ASSERT_TRUE(truth.ok());
    EXPECT_EQ(view_->BaseMembers(), *truth);
  }

  ObjectStore store_;
  const ViewDefinition def_ = *ViewDefinition::Parse(
      "define mview DV as: SELECT DR.p X WHERE X.v <= 5");
  std::unique_ptr<MaterializedView> view_;
  std::unique_ptr<LocalAccessor> accessor_;
  std::unique_ptr<Algorithm1Maintainer> maintainer_;
};

TEST_F(Algorithm1DeepDagTest, InsertFindsTheMatchingRootPathPastSixteen) {
  EXPECT_EQ(PathsFromTo(store_, Oid("DR"), Oid("DN"), 64).size(), 17u);
  StartView();
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  ASSERT_TRUE(store_.Insert(Oid("DN"), Oid("DW")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet({Oid("DN")}));
  ExpectEqualsEvaluation();
}

TEST_F(Algorithm1DeepDagTest, DeleteFindsTheMatchingRootPathPastSixteen) {
  ASSERT_TRUE(store_.AddChildRaw(Oid("DN"), Oid("DW")).ok());
  StartView();
  EXPECT_EQ(view_->BaseMembers(), OidSet({Oid("DN")}));
  ASSERT_TRUE(store_.Delete(Oid("DN"), Oid("DW")).ok());
  EXPECT_EQ(view_->BaseMembers(), OidSet());
  ExpectEqualsEvaluation();
}

// Sync keeps delegate values fresh while membership is maintained.
TEST_F(Algorithm1Test, DelegateValuesStaySynced) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ASSERT_TRUE(store_.PutAtomic(Oid("H1"), "hobby", Value::Str("chess")).ok());
  ASSERT_TRUE(store_.Insert(P1(), Oid("H1")).ok());
  EXPECT_TRUE(store_.Get(Oid("YP.P1"))->children().Contains(Oid("H1")));
  ASSERT_TRUE(store_.Modify(Oid("H1"), Value::Str("go")).ok());
  // H1 itself has no delegate; only membership-relevant values copy.
  ASSERT_TRUE(store_.Delete(P1(), Oid("H1")).ok());
  EXPECT_FALSE(store_.Get(Oid("YP.P1"))->children().Contains(Oid("H1")));
  ExpectConsistent();
}

// Algorithm 1 against the recompute oracle over a scripted update sequence.
TEST_F(Algorithm1Test, AgreesWithRecomputeOverScriptedSequence) {
  MakeView("define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");

  ObjectStore oracle_base;
  ASSERT_TRUE(BuildPersonDb(&oracle_base).ok());
  auto def = ViewDefinition::Parse(
      "define mview YP as: SELECT ROOT.professor X WHERE X.age <= 45");
  ObjectStore oracle_store;
  MaterializedView oracle_view(&oracle_store, *def);
  ASSERT_TRUE(oracle_view.Initialize(oracle_base).ok());
  RecomputeMaintainer oracle(&oracle_view, &oracle_base);
  oracle_base.AddListener(&oracle);

  auto apply_both = [&](const Update& update) {
    ASSERT_TRUE(store_.Apply(update).ok());
    ASSERT_TRUE(oracle_base.Apply(update).ok());
  };

  ASSERT_TRUE(store_.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
  ASSERT_TRUE(oracle_base.PutAtomic(Oid("A2"), "age", Value::Int(40)).ok());
  apply_both(Update::Insert(P2(), Oid("A2")));
  apply_both(Update::Modify(A1(), Value::Int(45), Value::Int(50)));
  apply_both(Update::Delete(Root(), P2()));
  apply_both(Update::Modify(A1(), Value::Int(50), Value::Int(20)));
  apply_both(Update::Insert(Root(), P2()));
  apply_both(Update::Delete(P2(), Oid("A2")));

  ASSERT_TRUE(oracle.last_status().ok());
  EXPECT_EQ(view_->BaseMembers(), oracle_view.BaseMembers());
  ExpectConsistent();
}

}  // namespace
}  // namespace gsv
