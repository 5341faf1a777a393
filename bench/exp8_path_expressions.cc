// E8 — Path-expression views (§6, first relaxation).
//
// Paper claim: allowing wildcards in sel/cond paths requires testing "path
// containment for general path expressions" and makes maintenance costlier
// — e.g. under SELECT ROOT.*, "any insertion of a ROOT's descendant node
// will cause delegate objects to be inserted into the view."
//
// Comparison: the same base and update stream maintained under
//   (a) a constant-path view by Algorithm 1, and
//   (b) a wildcard view ("ROOT.*" select) by the discrimination network
//       (GDN), whose work is counted in support-edge propagations.
// Also reports the path-containment decision cost itself. Exits 1 when a
// maintained view differs from the §4.4 recomputation.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/algorithm1.h"
#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "ivm/gdn_network.h"
#include "oem/store.h"
#include "path/path_expression.h"
#include "util/stopwatch.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

int main() {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  const size_t kUpdates = 300;
  std::printf(
      "E8: simple views (Algorithm 1) vs path-expression views (GDN);\n"
      "same tree and update stream, %zu updates\n\n",
      kUpdates);

  TablePrinter table(
      {"view", "us/update", "propagations", "view size", "correct"});
  bool all_correct = true;

  for (int variant = 0; variant < 2; ++variant) {
    ObjectStore store;
    TreeGenOptions options;
    options.levels = 3;
    options.fanout = 4;
    options.seed = 9;
    auto tree = GenerateTree(&store, options);
    bench::Check(tree.status().ok() ? Status::Ok() : tree.status());

    std::string definition =
        variant == 0
            ? TreeViewDefinition("PV", tree->root, 2, 3, 50)
            : "define mview PV as: SELECT " + tree->root.str() +
                  ".* X WHERE X.age <= 50";
    auto def = ViewDefinition::Parse(definition);
    bench::Check(def.status().ok() ? Status::Ok() : def.status());

    ObjectStore view_store;
    MaterializedView view(&view_store, *def);
    bench::Check(view.Initialize(store));

    LocalAccessor accessor(&store);
    std::unique_ptr<Algorithm1Maintainer> algo;
    std::unique_ptr<GdnListener> gdn;
    if (variant == 0) {
      algo = std::make_unique<Algorithm1Maintainer>(&view, &accessor, *def,
                                                    tree->root);
      store.AddListener(algo.get());
    } else {
      gdn = std::make_unique<GdnListener>(&view, &store, *def, tree->root);
      bench::Check(gdn->Initialize());
      store.AddListener(gdn.get());
    }
    const int64_t built =
        gdn != nullptr ? gdn->engine().stats().propagations : 0;

    UpdateGenOptions gen_options;
    gen_options.seed = 13;
    UpdateGenerator generator(&store, tree->root, gen_options);
    Stopwatch watch;
    bench::Check(generator.Run(kUpdates).status().ok()
                     ? Status::Ok()
                     : Status::Internal("stream failed"));
    double us = static_cast<double>(watch.ElapsedMicros()) / kUpdates;

    auto truth = EvaluateView(store, *def);
    bool correct = truth.ok() && view.BaseMembers() == *truth;
    all_correct = all_correct && correct;
    int64_t propagations =
        gdn != nullptr ? gdn->engine().stats().propagations - built : 0;
    table.Row({variant == 0 ? "constant path" : "ROOT.* wildcard",
               Micros(us), Num(propagations), Num(view.size()),
               correct ? "yes" : "NO"});
  }

  // The §6 containment test in isolation.
  {
    auto star = *PathExpression::Parse("*");
    auto mid = *PathExpression::Parse("a.*.b.?");
    auto concrete = *PathExpression::Parse("a.x.y.b.c");
    Stopwatch watch;
    const int kIters = 20000;
    int truths = 0;
    for (int i = 0; i < kIters; ++i) {
      truths += star.Contains(mid) ? 1 : 0;
      truths += mid.Contains(concrete) ? 1 : 0;
      truths += concrete.Contains(mid) ? 0 : 1;
    }
    std::printf(
        "\npath containment (§6's required test): %.3f us per decision "
        "(%d decisions, %d expected truths)\n",
        static_cast<double>(watch.ElapsedMicros()) / (kIters * 3.0),
        kIters * 3, truths);
  }

  std::printf(
      "\nExpected shape (paper §6): the wildcard view selects far more\n"
      "objects and every update propagates through a larger network, so\n"
      "per-update cost is higher than Algorithm 1's.\n");
  return all_correct ? 0 : 1;
}
