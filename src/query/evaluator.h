#ifndef GSV_QUERY_EVALUATOR_H_
#define GSV_QUERY_EVALUATOR_H_

#include <functional>
#include <string_view>

#include "oem/store.h"
#include "path/navigate.h"
#include "query/ast.h"
#include "util/status.h"

namespace gsv {

// Evaluates `query` against `store` and returns the answer OID set
// (paper §2): all objects X in entry.sel_path for which the condition
// holds, scoped by WITHIN and intersected per ANS INT.
//
// Entry resolution: a registered database name resolves to its database
// object; otherwise the entry is taken as an OID. An unknown entry is an
// error (the paper requires the user to provide a valid entry point).
// WITHIN/ANS INT naming an unregistered database is an error.
//
// How one query evaluation was answered. The select stage is an index
// probe when the store's label index is enabled and the select path is a
// constant label sequence; otherwise it is a traversal. Condition paths
// route through the same machinery per candidate, so the probe/fallback
// deltas cover them too.
struct QueryPlan {
  enum class Select { kIndexProbe, kTraversal };
  Select select = Select::kTraversal;
  int64_t index_probes = 0;     // StoreMetrics delta during this query
  int64_t index_fallbacks = 0;  // primitives that had to traverse

  const char* SelectName() const {
    return select == Select::kIndexProbe ? "index-probe" : "traversal";
  }
};

// What one evaluation did besides producing its answer: how the entry
// resolved, what each stage kept, and the store counter deltas from entry
// resolution to the end. ExplainQuery's account extends it.
struct QueryTrace {
  Oid entry_oid;
  bool entry_was_database = false;
  bool scoped = false;         // WITHIN present
  size_t candidates = 0;       // objects reaching the end of the select path
  size_t passed_condition = 0;
  QueryPlan plan;              // chosen select plan + index counter deltas
  int64_t total_edges = 0;
  int64_t total_lookups = 0;
  // Paged engine only (0 on the memory engine): buffer-pool faults, and
  // point reads served from the swizzle table vs the routed slow path.
  int64_t total_page_faults = 0;
  int64_t total_swizzle_hits = 0;
  int64_t total_swizzle_misses = 0;
};

// The select stage: the candidates the select path reaches from `entry`,
// hidden objects excluded by `filter`.
using QuerySelect =
    std::function<OidSet(const Oid& entry, const OidFilter& filter)>;

// The stages every evaluation shares around its select stage: resolves the
// entry, builds the WITHIN filter, runs `select`, keeps the candidates the
// condition holds for and intersects per ANS INT, filling `trace`.
Result<OidSet> RunQuery(const ObjectStore& store, const Query& query,
                        const QuerySelect& select, QueryTrace* trace);

// The WITHIN filter hides out-of-database objects from both the select
// traversal and condition traversals; the entry object itself is exempt
// (it is the explicitly supplied starting point).
// When `plan` is non-null it receives the chosen plan and the per-query
// index counter deltas.
Result<OidSet> EvaluateQuery(const ObjectStore& store, const Query& query,
                             QueryPlan* plan = nullptr);

// Parses and evaluates in one step.
Result<OidSet> EvaluateQueryText(const ObjectStore& store,
                                 std::string_view text);

// K-way merge of individually sorted (lexicographic, duplicate-free) OID
// runs into one sorted, duplicate-free answer — the merge half of a
// sharded view read, where each shard contributes the slice of members it
// owns. Slices of a partitioned view are disjoint, so the merge of K runs
// is byte-identical to the single run a 1-shard warehouse produces.
std::vector<Oid> MergeSortedOidRuns(std::vector<std::vector<Oid>> runs);

// Wraps an answer set as the paper's answer object
// <ans_oid, answer, set, value(ANS)> (§2). Does not insert it anywhere.
Object MakeAnswerObject(const Oid& ans_oid, const OidSet& answer);

// Convenience for the common pattern of storing a query answer: builds the
// answer object, puts it in the store, and registers it as a database under
// `name` so follow-on queries can use it as an entry point or in
// WITHIN / ANS INT clauses (§3.1: views are query answers usable this way).
Status StoreAnswerAs(ObjectStore& store, const std::string& name,
                     const Oid& ans_oid, const OidSet& answer);

}  // namespace gsv

#endif  // GSV_QUERY_EVALUATOR_H_
