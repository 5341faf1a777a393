#ifndef GSV_QUERY_AST_H_
#define GSV_QUERY_AST_H_

#include <optional>
#include <string>

#include "path/path_expression.h"
#include "query/condition.h"

namespace gsv {

// A parsed query (paper syntax 2.1):
//
//   SELECT OBJ.sel_path_exp X
//   WHERE cond(X.cond_path_exp)
//   [WITHIN DB1]
//   [ANS INT DB2]
//
// `entry` is an OID or a database name; the evaluator resolves database
// names first (paper: "A database name DB can also be used as the entry
// point"), so `DB.?` starts at all objects in DB.
struct Query {
  std::string entry;
  PathExpression select_path;
  std::string binder = "X";
  Condition where;                       // trivial when no WHERE clause
  std::optional<std::string> within_db;  // WITHIN DB1
  std::optional<std::string> ans_int_db; // ANS INT DB2

  // True if the query has the "simple view" shape that Algorithm 1
  // maintains (§4.2): constant select path, a WHERE that is a single
  // predicate over a constant path (or absent), and no scoping clause —
  // WITHIN/ANS INT are §6 relaxations Algorithm 1 never consults, so a
  // scoped view must run on the GDN engine or stay virtual.
  bool IsSimple() const {
    return select_path.IsConstant() &&
           (where.IsTrivial() || where.IsSimple()) &&
           !within_db.has_value() && !ans_int_db.has_value();
  }

  std::string ToString() const;
};

// A parsed `define view NAME as: <query>` / `define mview NAME as: <query>`
// statement (paper §3.1–3.2).
struct DefineStatement {
  std::string name;
  bool materialized = false;
  Query query;

  std::string ToString() const;
};

}  // namespace gsv

#endif  // GSV_QUERY_AST_H_
