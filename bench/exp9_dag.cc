// E9 — DAG bases (§6, second relaxation).
//
// Paper claim: on DAGs "there may be more than one path between two
// objects. Therefore, the actual implementation of the algorithm, e.g.,
// computing ancestor(X,p), is more difficult."
//
// Comparison: identical layer structure built as a tree (min_parents =
// max_parents = 1) vs as a DAG (1..3 parents); the discrimination network
// (GDN) tracks both, and we report per-update cost, its support-edge
// propagations, and the average number of derivation paths per object.
// Exits 1 when a maintained view differs from the §4.4 recomputation.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "path/navigate.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "workload/dag_gen.h"

int main() {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  const size_t kRounds = 200;
  std::printf(
      "E9: maintenance on tree vs DAG bases (GDN)\n"
      "layered graph, levels=3, width=24; %zu edge/value updates\n\n",
      kRounds);

  TablePrinter table({"base", "edges", "avg paths", "us/update",
                      "propagations", "correct"});
  bool all_correct = true;

  for (bool dag : {false, true}) {
    ObjectStore store;
    DagGenOptions options;
    options.levels = 3;
    options.width = 24;
    options.min_parents = 1;
    options.max_parents = dag ? 3 : 1;
    options.seed = 21;
    auto generated = GenerateDag(&store, options);
    bench::Check(generated.status().ok() ? Status::Ok()
                                         : generated.status());

    // Average number of derivation paths of the leaves.
    double total_paths = 0;
    for (const Oid& leaf : generated->layers[2]) {
      total_paths +=
          static_cast<double>(PathsFromTo(store, generated->root, leaf, 64).size());
    }
    double avg_paths =
        total_paths / static_cast<double>(generated->layers[2].size());

    auto def = ViewDefinition::Parse(
        DagViewDefinition("DV", generated->root, 2, 3, 50));
    bench::Check(def.status().ok() ? Status::Ok() : def.status());
    ObjectStore view_store;
    MaterializedView view(&view_store, *def);
    bench::Check(view.Initialize(store));
    GdnListener maintainer(&view, &store, *def, generated->root);
    bench::Check(maintainer.Initialize());
    store.AddListener(&maintainer);
    const int64_t built = maintainer.engine().stats().propagations;

    Random rng(5);
    const auto& layer0 = generated->layers[0];
    const auto& layer1 = generated->layers[1];
    const auto& leaves = generated->layers[2];
    Stopwatch watch;
    for (size_t round = 0; round < kRounds; ++round) {
      if (round % 2 == 0) {
        const Oid& parent = layer0[rng.Uniform(layer0.size())];
        const Oid& child = layer1[rng.Uniform(layer1.size())];
        const Object* parent_obj = store.Get(parent);
        if (parent_obj->children().Contains(child)) {
          // Keep every node derivable: skip deleting a node's last parent.
          if (store.Parents(child).size() > 1) {
            bench::Check(store.Delete(parent, child));
          }
        } else {
          bench::Check(store.Insert(parent, child));
        }
      } else {
        const Oid& leaf = leaves[rng.Uniform(leaves.size())];
        bench::Check(store.Modify(leaf, Value::Int(rng.UniformInt(0, 99))));
      }
    }
    double us = static_cast<double>(watch.ElapsedMicros()) / kRounds;
    bench::Check(maintainer.last_status());

    auto truth = EvaluateView(store, *def);
    bool correct = truth.ok() && view.BaseMembers() == *truth;
    all_correct = all_correct && correct;
    char avg_buffer[32];
    std::snprintf(avg_buffer, sizeof(avg_buffer), "%.2f", avg_paths);
    table.Row({dag ? "DAG" : "tree", Num(generated->edge_count), avg_buffer,
               Micros(us),
               Num(maintainer.engine().stats().propagations - built),
               correct ? "yes" : "NO"});
  }

  std::printf(
      "\nExpected shape (paper §6): the DAG carries several derivations per\n"
      "object, so each edge update moves more support edges and costs\n"
      "more per update than the tree of identical layer structure.\n");
  return all_correct ? 0 : 1;
}
