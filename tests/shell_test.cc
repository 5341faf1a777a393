#include <gtest/gtest.h>

#include "shell/shell.h"
#include "workload/person_db.h"

namespace gsv {
namespace {

std::string Must(Shell& shell, const std::string& line) {
  Result<std::string> result = shell.ProcessLine(line);
  EXPECT_TRUE(result.ok()) << line << " -> " << result.status().ToString();
  return result.ok() ? *result : std::string();
}

TEST(ShellTest, PutShowInsertModify) {
  Shell shell;
  EXPECT_EQ(Must(shell, "put atomic A1 age int 45"),
            "created <A1, age, integer, 45>");
  Must(shell, "put set P1 professor A1");
  Must(shell, "put set ROOT person P1");
  EXPECT_EQ(Must(shell, "show P1"), "<P1, professor, set, {A1}>");
  EXPECT_EQ(Must(shell, "modify A1 int 30"),
            "modified <A1, age, integer, 30>");
  Must(shell, "put atomic N1 name string John");
  EXPECT_EQ(Must(shell, "insert P1 N1"), "insert(P1, N1) ok");
  EXPECT_EQ(Must(shell, "delete P1 N1"), "delete(P1, N1) ok");
}

TEST(ShellTest, QueryAndViews) {
  Shell shell;
  Must(shell, "put atomic A1 age int 45");
  Must(shell, "put atomic A2 age int 20");
  Must(shell, "put set P1 professor A1");
  Must(shell, "put set P2 professor A2");
  Must(shell, "put set ROOT person P1 P2");

  EXPECT_EQ(Must(shell, "query SELECT ROOT.professor X WHERE X.age > 30"),
            "<ANS1, answer, set, {P1}>");

  std::string defined = Must(
      shell, "define mview YOUNG as: SELECT ROOT.professor X WHERE "
             "X.age <= 30");
  EXPECT_NE(defined.find("{P2}"), std::string::npos);
  EXPECT_NE(defined.find("[Algorithm 1]"), std::string::npos);

  // The view maintains itself through shell updates.
  Must(shell, "modify A1 int 25");
  EXPECT_NE(Must(shell, "views").find("{P1, P2}"), std::string::npos);
  Must(shell, "modify A1 int 60");
  Must(shell, "modify A2 int 70");
  EXPECT_NE(Must(shell, "views").find("YOUNG = {}"), std::string::npos);
}

TEST(ShellTest, WildcardViewsUseGdn) {
  Shell shell;
  Must(shell, "put atomic N1 name string John");
  Must(shell, "put set P1 professor N1");
  Must(shell, "put set ROOT person P1");
  std::string defined = Must(
      shell, "define mview VJ as: SELECT ROOT.* X WHERE X.name = 'John'");
  EXPECT_NE(defined.find("[gdn]"), std::string::npos);
  EXPECT_NE(defined.find("{P1}"), std::string::npos);
  Must(shell, "modify N1 string Jane");
  EXPECT_NE(Must(shell, "views").find("VJ = {}"), std::string::npos);

  // A fresh subtree linked by one insert: its witness is absorbed too.
  Must(shell, "put atomic N2 name string John");
  Must(shell, "put set P2 professor N2");
  Must(shell, "insert ROOT P2");
  EXPECT_NE(Must(shell, "views").find("VJ = {P2}"), std::string::npos);
}

// ANS INT intersects with a database no update event describes, so no
// engine can keep a materialized ANS INT view current: the shell refuses
// it (as the warehouse does) instead of letting it drift from the query.
TEST(ShellTest, MaterializedAnsIntViewsAreRejected) {
  Shell shell;
  Must(shell, "put atomic A1 age int 45");
  Must(shell, "put atomic A3 age int 60");
  Must(shell, "put set P1 person A1");
  Must(shell, "put set P3 person A3");
  Must(shell, "put set ROOT root P1");
  Must(shell, "put set S1 club P1");
  Must(shell, "register D1 S1");
  const std::string query =
      "SELECT ROOT.person X WHERE X.age > 40 ANS INT D1";
  Result<std::string> defined =
      shell.ProcessLine("define mview W as: " + query);
  EXPECT_EQ(defined.status().code(), StatusCode::kInvalidArgument);

  Must(shell, "insert ROOT P3");
  EXPECT_EQ(Must(shell, "query " + query), "<ANS1, answer, set, {P1}>");
  EXPECT_EQ(Must(shell, "views"), "no materialized views");
  // Virtual ANS INT views are evaluated on demand and stay available.
  EXPECT_EQ(Must(shell, "define view WV as: " + query),
            "virtual view WV = {P1}");
}

TEST(ShellTest, VirtualViewsAndDatabases) {
  Shell shell;
  Must(shell, "put atomic A1 age int 45");
  Must(shell, "put set P1 professor A1");
  Must(shell, "put set ROOT person P1");
  EXPECT_EQ(Must(shell, "register DB ROOT"), "database DB -> ROOT");
  EXPECT_NE(Must(shell, "databases").find("DB -> ROOT"), std::string::npos);
  std::string defined =
      Must(shell, "define view OLD as: SELECT ROOT.professor X WHERE "
                  "X.age > 40");
  EXPECT_NE(defined.find("virtual view OLD = {P1}"), std::string::npos);
}

TEST(ShellTest, SaveAndLoad) {
  const std::string path = "/tmp/gsv_shell_test.gsv";
  {
    Shell shell;
    Must(shell, "put atomic A1 age int 45");
    Must(shell, "put set ROOT person A1");
    EXPECT_EQ(Must(shell, "save " + path), "saved 2 objects");
  }
  Shell shell;
  EXPECT_EQ(Must(shell, "load " + path), "loaded 2 objects");
  EXPECT_EQ(Must(shell, "show A1"), "<A1, age, integer, 45>");
}

TEST(ShellTest, GcAndStats) {
  Shell shell;
  Must(shell, "put atomic A1 age int 45");
  Must(shell, "put set ROOT person A1");
  Must(shell, "put atomic ORPHAN x int 1");
  EXPECT_EQ(Must(shell, "gc ROOT"), "collected 1 objects");
  // The memory engine never pages, so the paging group stays off the line.
  EXPECT_EQ(Must(shell, "stats"),
            "objects=2 edges_traversed=1 parent_lookups=0 lookups=11 "
            "scanned=0 index_probes=0 index_fallbacks=0");
}

TEST(ShellTest, UnionAndAggregateViews) {
  Shell shell;
  Must(shell, "put atomic A1 age int 45");
  Must(shell, "put atomic A2 age int 20");
  Must(shell, "put set S1 student");
  Must(shell, "put set P1 professor A1 S1");
  Must(shell, "put set P2 secretary A2");
  Must(shell, "put set ROOT person P1 P2");

  // Union view: young people of either label.
  std::string defined = Must(
      shell,
      "define union UV as: SELECT ROOT.professor X WHERE X.age <= 50");
  EXPECT_NE(defined.find("1 branches"), std::string::npos);
  EXPECT_NE(defined.find("{P1}"), std::string::npos);
  defined = Must(shell, "branch UV as: SELECT ROOT.secretary X");
  EXPECT_NE(defined.find("2 branches"), std::string::npos);
  EXPECT_NE(defined.find("{P1, P2}"), std::string::npos);
  EXPECT_FALSE(shell.ProcessLine("branch NOPE as: SELECT ROOT.person X").ok());

  // Live maintenance across branches.
  Must(shell, "modify A1 int 99");
  EXPECT_NE(Must(shell, "views").find("UV = {P2}"), std::string::npos);

  // Aggregate view: students per professor-or-secretary.
  defined = Must(shell,
                 "define agg NSTUD count student as: SELECT ROOT.professor X");
  EXPECT_NE(defined.find("aggregate view NSTUD"), std::string::npos);
  EXPECT_EQ(Must(shell, "show NSTUD.P1"), "<NSTUD.P1, count, integer, 1>");
  Must(shell, "delete P1 S1");
  EXPECT_EQ(Must(shell, "show NSTUD.P1"), "<NSTUD.P1, count, integer, 0>");

  EXPECT_FALSE(
      shell.ProcessLine("define agg X avg student as: SELECT ROOT.person X")
          .ok())
      << "unknown aggregate kind";
  EXPECT_FALSE(shell.ProcessLine("define agg X count").ok());
}

TEST(ShellTest, Transactions) {
  Shell shell;
  Must(shell, "put atomic A1 age int 45");
  Must(shell, "put atomic A2 age int 20");
  Must(shell, "put set P1 professor A1");
  Must(shell, "put set ROOT person P1");
  Must(shell,
       "define mview YOUNG as: SELECT ROOT.professor X WHERE X.age <= 30");

  EXPECT_EQ(Must(shell, "begin"), "transaction started");
  EXPECT_EQ(Must(shell, "modify A1 int 25"), "buffered modify(A1)");
  EXPECT_EQ(Must(shell, "insert P1 A2"), "buffered insert(P1, A2)");
  // Nothing applied yet: the view is still empty.
  EXPECT_NE(Must(shell, "views").find("YOUNG = {}"), std::string::npos);
  EXPECT_FALSE(shell.ProcessLine("begin").ok()) << "no nesting";

  EXPECT_EQ(Must(shell, "commit"), "committed 2 updates");
  EXPECT_NE(Must(shell, "views").find("YOUNG = {P1}"), std::string::npos);
  EXPECT_EQ(Must(shell, "show A1"), "<A1, age, integer, 25>");

  // Abort discards.
  Must(shell, "begin");
  Must(shell, "modify A1 int 99");
  EXPECT_EQ(Must(shell, "abort"), "aborted 1 buffered updates");
  EXPECT_EQ(Must(shell, "show A1"), "<A1, age, integer, 25>");

  // A failing commit rolls back and reports the error.
  Must(shell, "begin");
  Must(shell, "modify A1 int 99");
  Must(shell, "insert P1 MISSING");
  EXPECT_FALSE(shell.ProcessLine("commit").ok());
  EXPECT_EQ(Must(shell, "show A1"), "<A1, age, integer, 25>")
      << "prefix rolled back";
  EXPECT_FALSE(shell.ProcessLine("commit").ok()) << "transaction consumed";
}

TEST(ShellTest, ErrorsAndQuit) {
  Shell shell;
  EXPECT_FALSE(shell.ProcessLine("bogus").ok());
  EXPECT_FALSE(shell.ProcessLine("show MISSING").ok());
  EXPECT_FALSE(shell.ProcessLine("put atomic").ok());
  EXPECT_FALSE(shell.ProcessLine("modify X int").ok());
  EXPECT_FALSE(shell.ProcessLine("query SELECT").ok());
  EXPECT_TRUE(shell.ProcessLine("").ok()) << "blank lines are no-ops";
  EXPECT_TRUE(shell.ProcessLine("# comment").ok());
  Result<std::string> quit = shell.ProcessLine("quit");
  EXPECT_FALSE(quit.ok());
  EXPECT_EQ(quit.status().message(), "quit");
}

TEST(ShellTest, RunScript) {
  Shell shell;
  Result<std::string> out = shell.RunScript(
      "put atomic A1 age int 45\n"
      "put set ROOT person A1\n"
      "# a comment\n"
      "query SELECT ROOT.person X\n"
      "quit\n"
      "show A1\n");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("{A1}"), std::string::npos);
  // "<A1, age" appears once (from put); the `show` after quit never ran.
  size_t first = out->find("<A1, age");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out->find("<A1, age", first + 1), std::string::npos)
      << "nothing runs after quit";

  Shell fresh;
  Result<std::string> bad =
      fresh.RunScript("put atomic A1 age int 45\nbogus\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace gsv
