#ifndef GSV_QUERY_EXPLAIN_H_
#define GSV_QUERY_EXPLAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "oem/store.h"
#include "query/ast.h"
#include "query/evaluator.h"
#include "util/status.h"

namespace gsv {

// A step-by-step account of one query evaluation: how the entry resolved,
// how the frontier evolved along the select path, what the condition
// filtered, and what the scoping clauses did. Debugging/tooling aid — the
// shell's `explain` command prints it.
struct QueryExplanation {
  struct SelectStep {
    std::string atom;          // the path component ("professor", "*", "?")
    size_t frontier_before = 0;
    size_t frontier_after = 0;
    int64_t edges_examined = 0;
    int64_t probes_examined = 0;  // index posting scans for this wave
  };

  std::string entry;           // as written
  Oid entry_oid;               // what it resolved to
  bool entry_was_database = false;
  bool scoped = false;         // WITHIN present
  std::vector<SelectStep> steps;
  size_t candidates = 0;       // objects reaching the end of the select path
  size_t passed_condition = 0;
  size_t after_ans_int = 0;    // == passed_condition when no ANS INT
  OidSet answer;
  QueryPlan plan;              // chosen select plan + index counter deltas
  int64_t total_edges = 0;
  int64_t total_lookups = 0;
  // Buffer-pool faults this evaluation caused (paged storage engine only;
  // always 0 on the memory engine, and then omitted from ToString).
  int64_t total_page_faults = 0;
  // Point reads served straight from the swizzle table vs the routed slow
  // path (paged engine only; both 0 — and omitted — on the memory engine).
  int64_t total_swizzle_hits = 0;
  int64_t total_swizzle_misses = 0;

  std::string ToString() const;
};

// Evaluates `query` while recording the explanation. The answer equals
// EvaluateQuery's for the same store and query.
Result<QueryExplanation> ExplainQuery(const ObjectStore& store,
                                      const Query& query);
Result<QueryExplanation> ExplainQueryText(const ObjectStore& store,
                                          std::string_view text);

// Fan-out account of one sharded view read: how many members each shard's
// slice contributed to the k-way merge, plus the warehouse's cumulative
// cross-shard traffic. ShardedWarehouse::ExplainView fills it; the bench
// and the shell print it.
struct ShardedViewExplanation {
  std::string view;
  uint32_t shards = 0;
  size_t total_members = 0;
  std::vector<size_t> members_per_shard;
  // Cumulative cross-shard maintenance traffic (merged WarehouseCosts).
  int64_t cross_shard_exports = 0;
  int64_t cross_shard_applies = 0;
  int64_t cross_shard_probes = 0;

  // Maintenance engine ("algorithm1" or "gdn"; empty when the view is
  // unknown). The GDN counters describe the view's discrimination network.
  std::string engine;
  size_t gdn_nodes = 0;        // memo nodes (reach + one per predicate)
  size_t gdn_matches = 0;      // live partial matches across the network
  int64_t gdn_propagations = 0;
  int64_t gdn_rebuilds = 0;

  std::string ToString() const;
};

}  // namespace gsv

#endif  // GSV_QUERY_EXPLAIN_H_
