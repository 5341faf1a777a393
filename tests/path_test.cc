#include <gtest/gtest.h>

#include "oem/store.h"
#include "path/navigate.h"
#include "path/path.h"
#include "path/path_expression.h"
#include "workload/person_db.h"

namespace gsv {
namespace {

using namespace person_db;  // NOLINT(build/namespaces): OID helpers

// ---------------------------------------------------------------- Path

TEST(PathTest, ParseBasics) {
  Result<Path> path = Path::Parse("professor.student");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->size(), 2u);
  EXPECT_EQ(path->label(0), "professor");
  EXPECT_EQ(path->label(1), "student");
  EXPECT_EQ(path->ToString(), "professor.student");
}

TEST(PathTest, EmptyPathIsValid) {
  Result<Path> path = Path::Parse("");
  ASSERT_TRUE(path.ok());
  EXPECT_TRUE(path->empty());
  EXPECT_EQ(path->ToString(), "");
}

TEST(PathTest, ParseRejectsBadLabels) {
  EXPECT_FALSE(Path::Parse("a..b").ok());
  EXPECT_FALSE(Path::Parse(".a").ok());
  EXPECT_FALSE(Path::Parse("a.").ok());
  EXPECT_FALSE(Path::Parse("a.*").ok()) << "wildcards are not plain paths";
  EXPECT_FALSE(Path::Parse("a.?").ok());
  EXPECT_FALSE(Path::Parse("a b").ok());
}

TEST(PathTest, PrefixSuffixConcat) {
  Path path = *Path::Parse("a.b.c");
  EXPECT_EQ(path.Prefix(2).ToString(), "a.b");
  EXPECT_EQ(path.Suffix(1).ToString(), "b.c");
  EXPECT_EQ(path.Prefix(0).ToString(), "");
  EXPECT_EQ(path.Suffix(3).ToString(), "");
  EXPECT_EQ(path.Prefix(99).ToString(), "a.b.c") << "clamped";
  EXPECT_EQ(path.Prefix(1).Concat(path.Suffix(1)).ToString(), "a.b.c");
}

TEST(PathTest, StartsEndsWith) {
  Path path = *Path::Parse("a.b.c");
  EXPECT_TRUE(path.StartsWith(*Path::Parse("a.b")));
  EXPECT_TRUE(path.StartsWith(Path()));
  EXPECT_TRUE(path.StartsWith(path));
  EXPECT_FALSE(path.StartsWith(*Path::Parse("b")));
  EXPECT_TRUE(path.EndsWith(*Path::Parse("b.c")));
  EXPECT_FALSE(path.EndsWith(*Path::Parse("a.c")));
  EXPECT_FALSE(Path().StartsWith(path));
}

// ------------------------------------------------------ PathExpression

TEST(PathExpressionTest, ParseForms) {
  EXPECT_TRUE(PathExpression::Parse("*").ok());
  EXPECT_TRUE(PathExpression::Parse("professor.*").ok());
  EXPECT_TRUE(PathExpression::Parse("professor.?").ok());
  EXPECT_TRUE(PathExpression::Parse("a.?.b.*").ok());
  EXPECT_TRUE(PathExpression::Parse("").ok());
  EXPECT_FALSE(PathExpression::Parse("a..b").ok());
}

TEST(PathExpressionTest, ConstantDetection) {
  EXPECT_TRUE(PathExpression::Parse("a.b")->IsConstant());
  EXPECT_FALSE(PathExpression::Parse("a.*")->IsConstant());
  EXPECT_FALSE(PathExpression::Parse("a.?")->IsConstant());
  EXPECT_EQ(PathExpression::Parse("a.b")->ToPath().ToString(), "a.b");
}

TEST(PathExpressionTest, RoundTripToString) {
  for (const char* text : {"*", "a.*.b", "a.?.b", "", "x"}) {
    EXPECT_EQ(PathExpression::Parse(text)->ToString(), text);
  }
}

TEST(PathExpressionTest, MatchesConstant) {
  PathExpression expr = *PathExpression::Parse("a.b");
  EXPECT_TRUE(expr.Matches(*Path::Parse("a.b")));
  EXPECT_FALSE(expr.Matches(*Path::Parse("a")));
  EXPECT_FALSE(expr.Matches(*Path::Parse("a.b.c")));
}

TEST(PathExpressionTest, MatchesAnyLabel) {
  PathExpression expr = *PathExpression::Parse("a.?");
  EXPECT_TRUE(expr.Matches(*Path::Parse("a.b")));
  EXPECT_TRUE(expr.Matches(*Path::Parse("a.z")));
  EXPECT_FALSE(expr.Matches(*Path::Parse("a")));
  EXPECT_FALSE(expr.Matches(*Path::Parse("a.b.c")));
}

TEST(PathExpressionTest, MatchesAnyPath) {
  PathExpression star = *PathExpression::Parse("*");
  EXPECT_TRUE(star.Matches(Path()));
  EXPECT_TRUE(star.Matches(*Path::Parse("a.b.c")));

  PathExpression expr = *PathExpression::Parse("a.*.c");
  EXPECT_TRUE(expr.Matches(*Path::Parse("a.c")));
  EXPECT_TRUE(expr.Matches(*Path::Parse("a.b.c")));
  EXPECT_TRUE(expr.Matches(*Path::Parse("a.x.y.c")));
  EXPECT_FALSE(expr.Matches(*Path::Parse("a.b")));
  EXPECT_FALSE(expr.Matches(*Path::Parse("b.c")));
}

TEST(PathExpressionTest, EmptyExpressionMatchesOnlyEmptyPath) {
  PathExpression expr = *PathExpression::Parse("");
  EXPECT_TRUE(expr.Matches(Path()));
  EXPECT_FALSE(expr.Matches(*Path::Parse("a")));
}

TEST(PathExpressionTest, MinMaxLength) {
  EXPECT_EQ(PathExpression::Parse("a.?.b")->MinLength(), 3u);
  EXPECT_EQ(PathExpression::Parse("a.?.b")->MaxLength(), 3);
  EXPECT_EQ(PathExpression::Parse("a.*.b")->MinLength(), 2u);
  EXPECT_EQ(PathExpression::Parse("a.*.b")->MaxLength(), -1);
  EXPECT_EQ(PathExpression::Parse("*")->MinLength(), 0u);
}

TEST(PathExpressionTest, ContainmentBasics) {
  auto star = *PathExpression::Parse("*");
  auto a = *PathExpression::Parse("a");
  auto a_star = *PathExpression::Parse("a.*");
  auto a_q = *PathExpression::Parse("a.?");
  auto a_b = *PathExpression::Parse("a.b");

  // * contains everything (§6: "any path p is contained in *").
  EXPECT_TRUE(star.Contains(a));
  EXPECT_TRUE(star.Contains(a_star));
  EXPECT_TRUE(star.Contains(star));
  EXPECT_FALSE(a.Contains(star));

  EXPECT_TRUE(a_star.Contains(a_b));
  EXPECT_TRUE(a_star.Contains(a)) << "* matches the empty path";
  EXPECT_TRUE(a_star.Contains(a_q));
  EXPECT_FALSE(a_q.Contains(a_star));
  EXPECT_TRUE(a_q.Contains(a_b));
  EXPECT_FALSE(a_b.Contains(a_q));
  EXPECT_TRUE(a_b.Contains(a_b));
  EXPECT_FALSE(a_b.Contains(a));
}

TEST(PathExpressionTest, ContainmentTricky) {
  auto star_a_star = *PathExpression::Parse("*.a.*");
  auto b_a = *PathExpression::Parse("b.a");
  auto a = *PathExpression::Parse("a");
  auto b = *PathExpression::Parse("b");
  EXPECT_TRUE(star_a_star.Contains(b_a));
  EXPECT_TRUE(star_a_star.Contains(a));
  EXPECT_FALSE(star_a_star.Contains(b));

  auto q_q = *PathExpression::Parse("?.?");
  auto star_star = *PathExpression::Parse("*.*");
  EXPECT_TRUE(star_star.Contains(q_q));
  EXPECT_FALSE(q_q.Contains(star_star));
  // *.* is equivalent to *.
  auto star = *PathExpression::Parse("*");
  EXPECT_TRUE(star.Contains(star_star));
  EXPECT_TRUE(star_star.Contains(star));
}

// ------------------------------------------------------------ Navigate

class NavigateTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(BuildPersonDb(&store_).ok()); }
  ObjectStore store_;
};

TEST_F(NavigateTest, EvalPathFollowsLabels) {
  // A1 ∈ ROOT.professor.age (paper §2 example).
  OidSet ages = EvalPath(store_, Root(), *Path::Parse("professor.age"));
  EXPECT_TRUE(ages.Contains(A1()));
  EXPECT_EQ(ages.size(), 1u);

  OidSet profs = EvalPath(store_, Root(), *Path::Parse("professor"));
  EXPECT_EQ(profs, OidSet({P1(), P2()}));
}

TEST_F(NavigateTest, EvalEmptyPathIsSelf) {
  EXPECT_EQ(EvalPath(store_, P1(), Path()), OidSet({P1()}));
  EXPECT_TRUE(EvalPath(store_, Oid("missing"), Path()).empty());
}

TEST_F(NavigateTest, EvalPathHonorsFilter) {
  // Hide A1: the professor.age path then finds nothing.
  auto filter = [](const Oid& oid) { return oid != A1(); };
  OidSet ages =
      EvalPath(store_, Root(), *Path::Parse("professor.age"), filter);
  EXPECT_TRUE(ages.empty());
}

TEST_F(NavigateTest, EvalExpressionStar) {
  // ROOT.* reaches every descendant (and ROOT itself via the empty path).
  OidSet all = EvalExpression(store_, Root(), *PathExpression::Parse("*"));
  EXPECT_TRUE(all.Contains(Root()));
  EXPECT_TRUE(all.Contains(P1()));
  EXPECT_TRUE(all.Contains(A3()));
  EXPECT_EQ(all.size(), 15u);
}

TEST_F(NavigateTest, EvalExpressionDotted) {
  // ROOT.*.professor = professors at any depth = {P1, P2} (§3.1 PROF view).
  OidSet profs =
      EvalExpression(store_, Root(), *PathExpression::Parse("*.professor"));
  EXPECT_EQ(profs, OidSet({P1(), P2()}));

  // professor.? = all direct children of professors.
  OidSet children =
      EvalExpression(store_, Root(), *PathExpression::Parse("professor.?"));
  EXPECT_EQ(children,
            OidSet({N1(), A1(), S1(), P3(), N2(), Add2()}));
}

TEST_F(NavigateTest, EvalExpressionOnCycleTerminates) {
  ObjectStore store;
  ASSERT_TRUE(store.PutSet(Oid("X"), "node").ok());
  ASSERT_TRUE(store.PutSet(Oid("Y"), "node").ok());
  ASSERT_TRUE(store.Insert(Oid("X"), Oid("Y")).ok());
  ASSERT_TRUE(store.Insert(Oid("Y"), Oid("X")).ok());
  OidSet all = EvalExpression(store, Oid("X"), *PathExpression::Parse("*"));
  EXPECT_EQ(all, OidSet({Oid("X"), Oid("Y")}));
}

TEST_F(NavigateTest, AncestorsByPath) {
  // ancestor(A1, "age") = P1 plus the PERSON grouping object (A1 is a
  // direct child of both and has label age).
  std::vector<Oid> ancestors =
      AncestorsByPath(store_, A1(), *Path::Parse("age"));
  EXPECT_EQ(OidSet(ancestors), OidSet({P1(), Person()}));

  // ancestor(A3, "student.age") = ROOT and P1 (P3 is a child of both),
  // plus PERSON (P3 is also a member of the database object).
  ancestors = AncestorsByPath(store_, A3(), *Path::Parse("student.age"));
  EXPECT_EQ(OidSet(ancestors), OidSet({Root(), P1(), Person()}));

  // Label mismatch at the target: no ancestors.
  EXPECT_TRUE(AncestorsByPath(store_, A1(), *Path::Parse("name")).empty());
  // Empty path: the object itself.
  EXPECT_EQ(AncestorsByPath(store_, A1(), Path()), std::vector<Oid>{A1()});
}

TEST_F(NavigateTest, PathsFromTo) {
  std::vector<Path> paths = PathsFromTo(store_, Root(), A1(), 16);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].ToString(), "professor.age");

  // P3 is reachable from ROOT directly and through P1.
  paths = PathsFromTo(store_, Root(), P3(), 16);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].ToString(), "professor.student");
  EXPECT_EQ(paths[1].ToString(), "student");

  // Self path.
  paths = PathsFromTo(store_, Root(), Root(), 16);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_TRUE(paths[0].empty());

  EXPECT_TRUE(PathsFromTo(store_, A1(), Root(), 16).empty()) << "wrong direction";
}

TEST_F(NavigateTest, HasPathFromTo) {
  EXPECT_TRUE(HasPathFromTo(store_, Root(), A1(), *Path::Parse("professor.age")));
  EXPECT_FALSE(HasPathFromTo(store_, Root(), A1(), *Path::Parse("age")));
  EXPECT_TRUE(HasPathFromTo(store_, Root(), P3(), *Path::Parse("student")));
  EXPECT_TRUE(
      HasPathFromTo(store_, Root(), P3(), *Path::Parse("professor.student")));
  EXPECT_TRUE(HasPathFromTo(store_, Root(), Root(), Path()));
  EXPECT_FALSE(HasPathFromTo(store_, Root(), P1(), Path()));
}

TEST_F(NavigateTest, PathsFromToRespectsMaxPaths) {
  std::vector<Path> paths = PathsFromTo(store_, Root(), P3(), /*max_paths=*/1);
  EXPECT_EQ(paths.size(), 1u);
}

TEST_F(NavigateTest, PathsFromToHonorsFilter) {
  // Hide P1: the professor.student derivation of P3 disappears, the direct
  // one remains (WITHIN-scoped reverse navigation).
  auto filter = [](const Oid& oid) { return oid != P1(); };
  std::vector<Path> paths =
      PathsFromTo(store_, Root(), P3(), 16, 256, filter);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].ToString(), "student");

  // Hiding the target itself yields nothing.
  auto hide_target = [](const Oid& oid) { return oid != P3(); };
  EXPECT_TRUE(PathsFromTo(store_, Root(), P3(), 16, 256, hide_target).empty());
}

TEST_F(NavigateTest, EvalExpressionHonorsFilter) {
  auto filter = [](const Oid& oid) { return oid != P1(); };
  OidSet reachable =
      EvalExpression(store_, Root(), *PathExpression::Parse("*"), filter);
  EXPECT_FALSE(reachable.Contains(P1()));
  EXPECT_FALSE(reachable.Contains(A1())) << "A1 only reachable through P1";
  EXPECT_TRUE(reachable.Contains(P3())) << "still a direct child of ROOT";
}

}  // namespace
}  // namespace gsv
