#include "query/explain.h"

#include <sstream>
#include <utility>

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
  const StoreMetrics& metrics = store.metrics();
  auto select = [&](const Oid& entry, const OidFilter& filter) {
    OidSet frontier;
    frontier.Insert(entry);
    // Advances the frontier by one wave and records it as a step.
    auto wave = [&](std::string atom, const auto& next) {
      QueryExplanation::SelectStep step;
      step.atom = std::move(atom);
      step.frontier_before = frontier.size();
      const int64_t edges_before = metrics.edges_traversed;
      const int64_t probes_before = metrics.index_probes;
      frontier = next();
      step.frontier_after = frontier.size();
      step.edges_examined = metrics.edges_traversed - edges_before;
      step.probes_examined = metrics.index_probes - probes_before;
      explanation.steps.push_back(std::move(step));
    };
    if (query.select_path.IsConstant()) {
      // Step the frontier one label at a time.
      const Path path = query.select_path.ToPath();
      for (size_t i = 0; i < path.size(); ++i) {
        wave(path.label(i), [&] {
          OidSet next;
          Path single(std::vector<std::string>{path.label(i)});
          for (const Oid& oid : frontier) {
            next = OidSet::Union(next, EvalPath(store, oid, single, filter));
          }
          return next;
        });
      }
    } else {
      // Wildcard expressions run the NFA in one wave; report it as a single
      // step over the whole expression.
      wave(query.select_path.ToString(), [&] {
        return EvalExpression(store, entry, query.select_path, filter);
      });
    }
    return frontier;
  };
  GSV_ASSIGN_OR_RETURN(explanation.answer,
                       RunQuery(store, query, select, &explanation));
  explanation.after_ans_int = explanation.answer.size();
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
