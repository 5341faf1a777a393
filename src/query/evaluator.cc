#include "query/evaluator.h"

#include "path/navigate.h"
#include "query/parser.h"

namespace gsv {

Result<OidSet> RunQuery(const ObjectStore& store, const Query& query,
                        const QuerySelect& select, QueryTrace* trace) {
  trace->plan.select =
      store.options().enable_label_index && query.select_path.IsConstant()
          ? QueryPlan::Select::kIndexProbe
          : QueryPlan::Select::kTraversal;

  // Resolve the entry point: database name first, then literal OID.
  Oid entry = store.DatabaseOid(query.entry);
  trace->entry_was_database = entry.valid();
  if (!entry.valid()) entry = Oid(query.entry);
  if (!store.Contains(entry)) {
    return Status::NotFound("query entry point '" + query.entry +
                            "' is neither a database nor an object");
  }
  trace->entry_oid = entry;

  OidFilter filter;
  if (query.within_db.has_value()) {
    const std::string& within = *query.within_db;
    if (!store.DatabaseOid(within).valid()) {
      return Status::NotFound("WITHIN database '" + within +
                              "' is not registered");
    }
    trace->scoped = true;
    filter = [&store, &within, entry](const Oid& oid) {
      return oid == entry || store.InDatabase(within, oid);
    };
  }

  const StoreMetrics& metrics = store.metrics();
  const int64_t edges_base = metrics.edges_traversed;
  const int64_t lookups_base = metrics.lookups;
  const int64_t probes_base = metrics.index_probes;
  const int64_t fallbacks_base = metrics.index_fallbacks;
  const int64_t faults_base = metrics.page_faults;
  const int64_t swizzle_hits_base = metrics.swizzle_hits;
  const int64_t swizzle_misses_base = metrics.swizzle_misses;

  OidSet candidates = select(entry, filter);
  trace->candidates = candidates.size();
  OidSet answer;
  for (const Oid& x : candidates) {
    if (query.where.Evaluate(store, x, filter)) answer.Insert(x);
  }
  trace->passed_condition = answer.size();

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
    answer = OidSet::Intersect(answer, db->children());
  }

  trace->total_edges = metrics.edges_traversed - edges_base;
  trace->total_lookups = metrics.lookups - lookups_base;
  trace->plan.index_probes = metrics.index_probes - probes_base;
  trace->plan.index_fallbacks = metrics.index_fallbacks - fallbacks_base;
  trace->total_page_faults = metrics.page_faults - faults_base;
  trace->total_swizzle_hits = metrics.swizzle_hits - swizzle_hits_base;
  trace->total_swizzle_misses = metrics.swizzle_misses - swizzle_misses_base;
  return answer;
}

Result<OidSet> EvaluateQuery(const ObjectStore& store, const Query& query,
                             QueryPlan* plan) {
  QueryTrace trace;
  Result<OidSet> answer = RunQuery(
      store, query,
      [&store, &query](const Oid& entry, const OidFilter& filter) {
        return query.select_path.IsConstant()
                   ? EvalPath(store, entry, query.select_path.ToPath(), filter)
                   : EvalExpression(store, entry, query.select_path, filter);
      },
      &trace);
  if (plan != nullptr) *plan = trace.plan;
  return answer;
}

Result<OidSet> EvaluateQueryText(const ObjectStore& store,
                                 std::string_view text) {
  GSV_ASSIGN_OR_RETURN(Query query, ParseQuery(text));
  return EvaluateQuery(store, query);
}

std::vector<Oid> MergeSortedOidRuns(std::vector<std::vector<Oid>> runs) {
  std::vector<Oid> merged;
  size_t total = 0;
  for (const std::vector<Oid>& run : runs) total += run.size();
  merged.reserve(total);
  // K stays tiny (shard counts), so a linear scan over the run heads beats
  // a heap and keeps the merge allocation-free past the reserve.
  std::vector<size_t> heads(runs.size(), 0);
  for (;;) {
    size_t best = runs.size();
    for (size_t i = 0; i < runs.size(); ++i) {
      if (heads[i] >= runs[i].size()) continue;
      if (best == runs.size() || runs[i][heads[i]] < runs[best][heads[best]]) {
        best = i;
      }
    }
    if (best == runs.size()) break;
    const Oid& next = runs[best][heads[best]++];
    if (merged.empty() || merged.back() != next) merged.push_back(next);
  }
  return merged;
}

Object MakeAnswerObject(const Oid& ans_oid, const OidSet& answer) {
  return Object(ans_oid, "answer", Value::Set(answer));
}

Status StoreAnswerAs(ObjectStore& store, const std::string& name,
                     const Oid& ans_oid, const OidSet& answer) {
  GSV_RETURN_IF_ERROR(store.Put(MakeAnswerObject(ans_oid, answer)));
  return store.RegisterDatabase(name, ans_oid);
}

}  // namespace gsv
