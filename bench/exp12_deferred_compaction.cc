// E12 — Deferred event processing and drain coalescing.
//
// Sources are autonomous (§5.1): events arrive asynchronously while the
// source keeps changing. This experiment measures (a) that a deferred
// warehouse converges to the same view as an inline one, and (b) what the
// drain's coalescing (merging modify chains, cancelling insert/delete
// pairs) saves in events processed and query-backs. The "compacted" column
// reads the events_coalesced counter. Exits 1 when a view is inconsistent
// with its source.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/consistency.h"
#include "oem/store.h"
#include "util/stopwatch.h"
#include "warehouse/warehouse.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

int main() {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  const size_t kBatches = 20;
  const size_t kBatchSize = 100;
  std::printf(
      "E12: inline maintenance vs coalescing deferred drains\n"
      "modify-heavy stream, %zu batches of %zu updates, level-2 events\n\n",
      kBatches, kBatchSize);

  TablePrinter table({"mode", "events", "compacted", "queries", "us/batch",
                      "correct"});

  bool all_consistent = true;
  for (int mode = 0; mode < 3; ++mode) {
    const char* name = mode == 0   ? "inline"
                       : mode == 1 ? "deferred"
                                   : "deferred+cache";
    ObjectStore source;
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 5;
    tree_options.seed = 61;
    auto tree = GenerateTree(&source, tree_options);
    bench::Check(tree.status().ok() ? Status::Ok() : tree.status());

    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    bench::Check(warehouse.ConnectSource(&source, tree->root,
                                         ReportingLevel::kWithValues));
    bench::Check(warehouse.DefineView(
        TreeViewDefinition("WV", tree->root, 2, 3, 50),
        mode == 2 ? Warehouse::CacheMode::kFull : Warehouse::CacheMode::kNone));
    warehouse.costs().Reset();
    warehouse.set_deferred(mode > 0);

    UpdateGenOptions gen_options;
    gen_options.seed = 67;
    gen_options.p_modify = 0.7;
    gen_options.p_insert = 0.15;
    gen_options.p_delete = 0.15;
    UpdateGenerator generator(&source, tree->root, gen_options);

    Stopwatch watch;
    for (size_t batch = 0; batch < kBatches; ++batch) {
      bench::Check(generator.Run(kBatchSize).status().ok()
                       ? Status::Ok()
                       : Status::Internal("stream failed"));
      if (mode > 0) bench::Check(warehouse.ProcessPending());
    }
    double us_per_batch =
        static_cast<double>(watch.ElapsedMicros()) / kBatches;
    bench::Check(warehouse.last_status());

    ConsistencyReport report =
        CheckViewConsistency(*warehouse.view("WV"), source);
    all_consistent = all_consistent && report.consistent;
    table.Row({name, Num(warehouse.costs().events_received),
               Num(warehouse.costs().events_coalesced),
               Num(warehouse.costs().source_queries), Micros(us_per_batch),
               report.consistent ? "yes" : "NO"});
  }

  std::printf(
      "\nExpected shape: every mode converges to the correct view. Each\n"
      "drain coalesces its batch, so deferral processes fewer events than\n"
      "inline maintenance; the member-verification sweep costs uncached\n"
      "deferral query-backs, and the full auxiliary cache answers both\n"
      "events and the sweep locally.\n");
  if (!all_consistent) {
    std::fprintf(stderr, "\nFAIL: a view diverged from its source\n");
    return 1;
  }
  return 0;
}
