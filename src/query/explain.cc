#include "query/explain.h"

#include <sstream>

#include "path/navigate.h"
#include "query/parser.h"

namespace gsv {

std::string QueryExplanation::ToString() const {
  std::ostringstream out;
  out << "entry " << entry << " -> " << entry_oid.str()
      << (entry_was_database ? " (database)" : " (object)")
      << (scoped ? ", WITHIN scope active" : "") << "\n";
  out << "plan: " << plan.SelectName() << "\n";
  for (const SelectStep& step : steps) {
    out << "  ." << step.atom << ": " << step.frontier_before << " -> "
        << step.frontier_after << " objects (" << step.edges_examined
        << " edges, " << step.probes_examined << " probes)\n";
  }
  out << "  candidates: " << candidates
      << ", passed condition: " << passed_condition;
  if (after_ans_int != passed_condition) {
    out << ", after ANS INT: " << after_ans_int;
  }
  out << "\n  answer size " << answer.size() << "; " << total_edges
      << " edges, " << total_lookups << " lookups, " << plan.index_probes
      << " index probes, " << plan.index_fallbacks << " fallbacks";
  // Paging appears only when the store's engine actually faulted, so the
  // memory-engine output (and its golden tests) is unchanged.
  if (total_page_faults > 0) {
    out << ", " << total_page_faults << " page faults";
  }
  if (total_swizzle_hits > 0 || total_swizzle_misses > 0) {
    out << ", swizzle " << total_swizzle_hits << "/"
        << (total_swizzle_hits + total_swizzle_misses) << " hits";
  }
  return out.str();
}

Result<QueryExplanation> ExplainQuery(const ObjectStore& store,
                                      const Query& query) {
  QueryExplanation explanation;
  explanation.entry = query.entry;

  Oid entry_oid = store.DatabaseOid(query.entry);
  explanation.entry_was_database = entry_oid.valid();
  if (!entry_oid.valid()) entry_oid = Oid(query.entry);
  if (!store.Contains(entry_oid)) {
    return Status::NotFound("query entry point '" + query.entry +
                            "' is neither a database nor an object");
  }
  explanation.entry_oid = entry_oid;

  OidFilter filter;
  if (query.within_db.has_value()) {
    const std::string& within = *query.within_db;
    if (!store.DatabaseOid(within).valid()) {
      return Status::NotFound("WITHIN database '" + within +
                              "' is not registered");
    }
    explanation.scoped = true;
    filter = [&store, &within, &entry_oid](const Oid& oid) {
      return oid == entry_oid || store.InDatabase(within, oid);
    };
  }

  const StoreMetrics& metrics = store.metrics();
  int64_t edges_base = metrics.edges_traversed;
  int64_t lookups_base = metrics.lookups;
  int64_t probes_base = metrics.index_probes;
  int64_t fallbacks_base = metrics.index_fallbacks;
  int64_t faults_base = metrics.page_faults;
  int64_t swizzle_hits_base = metrics.swizzle_hits;
  int64_t swizzle_misses_base = metrics.swizzle_misses;
  explanation.plan.select =
      store.options().enable_label_index && query.select_path.IsConstant()
          ? QueryPlan::Select::kIndexProbe
          : QueryPlan::Select::kTraversal;

  OidSet frontier;
  frontier.Insert(entry_oid);
  if (query.select_path.IsConstant()) {
    // Step the frontier one label at a time, recording each wave.
    const Path path = query.select_path.ToPath();
    for (size_t i = 0; i < path.size(); ++i) {
      QueryExplanation::SelectStep step;
      step.atom = path.label(i);
      step.frontier_before = frontier.size();
      int64_t edges_before = metrics.edges_traversed;
      int64_t probes_before = metrics.index_probes;
      OidSet next;
      Path single(std::vector<std::string>{path.label(i)});
      for (const Oid& oid : frontier) {
        next = OidSet::Union(next, EvalPath(store, oid, single, filter));
      }
      frontier = std::move(next);
      step.frontier_after = frontier.size();
      step.edges_examined = metrics.edges_traversed - edges_before;
      step.probes_examined = metrics.index_probes - probes_before;
      explanation.steps.push_back(std::move(step));
    }
  } else {
    // Wildcard expressions run the NFA in one wave; report it as a single
    // step over the whole expression.
    QueryExplanation::SelectStep step;
    step.atom = query.select_path.ToString();
    step.frontier_before = frontier.size();
    int64_t edges_before = metrics.edges_traversed;
    int64_t probes_before = metrics.index_probes;
    frontier = EvalExpression(store, entry_oid, query.select_path, filter);
    step.frontier_after = frontier.size();
    step.edges_examined = metrics.edges_traversed - edges_before;
    step.probes_examined = metrics.index_probes - probes_before;
    explanation.steps.push_back(std::move(step));
  }
  explanation.candidates = frontier.size();

  for (const Oid& x : frontier) {
    if (query.where.Evaluate(store, x, filter)) {
      explanation.answer.Insert(x);
    }
  }
  explanation.passed_condition = explanation.answer.size();
  explanation.after_ans_int = explanation.passed_condition;

  if (query.ans_int_db.has_value()) {
    Oid db_oid = store.DatabaseOid(*query.ans_int_db);
    if (!db_oid.valid()) {
      return Status::NotFound("ANS INT database '" + *query.ans_int_db +
                              "' is not registered");
    }
    const Object* db = store.Get(db_oid);
    if (db == nullptr || !db->IsSet()) {
      return Status::FailedPrecondition("ANS INT database object " +
                                        db_oid.str() + " is not a set object");
    }
    explanation.answer = OidSet::Intersect(explanation.answer, db->children());
    explanation.after_ans_int = explanation.answer.size();
  }

  explanation.total_edges = metrics.edges_traversed - edges_base;
  explanation.total_lookups = metrics.lookups - lookups_base;
  explanation.plan.index_probes = metrics.index_probes - probes_base;
  explanation.plan.index_fallbacks = metrics.index_fallbacks - fallbacks_base;
  explanation.total_page_faults = metrics.page_faults - faults_base;
  explanation.total_swizzle_hits = metrics.swizzle_hits - swizzle_hits_base;
  explanation.total_swizzle_misses =
      metrics.swizzle_misses - swizzle_misses_base;
  return explanation;
}

Result<QueryExplanation> ExplainQueryText(const ObjectStore& store,
                                          std::string_view text) {
  GSV_ASSIGN_OR_RETURN(Query query, ParseQuery(text));
  return ExplainQuery(store, query);
}

std::string ShardedViewExplanation::ToString() const {
  std::ostringstream out;
  out << "sharded view '" << view << "': " << total_members << " member"
      << (total_members == 1 ? "" : "s") << " across " << shards << " shard"
      << (shards == 1 ? "" : "s") << "\n";
  out << "  fan-out: per-shard slices [";
  for (size_t i = 0; i < members_per_shard.size(); ++i) {
    if (i != 0) out << ", ";
    out << members_per_shard[i];
  }
  out << "], k-way merged in lexicographic OID order\n";
  out << "  cross-shard traffic: " << cross_shard_exports << " exported, "
      << cross_shard_applies << " applied, " << cross_shard_probes
      << " membership probes\n";
  if (!engine.empty()) {
    out << "  engine: " << engine;
    if (engine == "gdn") {
      out << " (" << gdn_nodes << " memo node" << (gdn_nodes == 1 ? "" : "s")
          << ", " << gdn_matches << " partial match"
          << (gdn_matches == 1 ? "" : "es") << ", " << gdn_propagations
          << " propagations, " << gdn_rebuilds << " rebuild"
          << (gdn_rebuilds == 1 ? "" : "s") << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace gsv
