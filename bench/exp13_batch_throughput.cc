// E13 — Batched parallel maintenance throughput.
//
// Sweeps drain batch size x worker threads over a modify-heavy tree stream
// fanned across several views and reports maintenance throughput
// (updates/second). Batch size is the dominant axis: one drain pays its
// fixed setup once, coalesces redundant events, and resolves §5.1
// screening once per distinct label instead of once per event (its sweep
// already follows the batch, not the view). Threads fan
// independent views / root subtrees across the pool (a wash on a single
// hardware core, a gain on real ones).
//
// Emits one newline-delimited JSON record per configuration; --json=PATH
// redirects the records to a file. The acceptance bar for this experiment:
// batch=256/threads=4 must clear 3x the batch=1/threads=1 throughput.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "core/consistency.h"
#include "oem/store.h"
#include "util/stopwatch.h"
#include "warehouse/warehouse.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

int main(int argc, char** argv) {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }

  const size_t kTotalUpdates = 4096;
  const size_t kViews = 8;
  const size_t kBatchSizes[] = {1, 16, 256, 4096};
  const size_t kThreadCounts[] = {1, 2, 4, 8};

  std::printf(
      "E13: batched parallel maintenance throughput\n"
      "%zu updates, %zu views, level-2 events, drain every <batch> updates\n\n",
      kTotalUpdates, kViews);

  JsonLines json(json_path, "gsv.exp13.v1", /*seed=*/131);
  TablePrinter table({"batch", "threads", "drain_us", "upd/sec", "coalesced",
                      "screened", "speedup"});

  double baseline_rate = 0.0;
  double target_rate = 0.0;
  for (size_t batch_size : kBatchSizes) {
    for (size_t threads : kThreadCounts) {
      // Fresh, identically-seeded world per configuration.
      ObjectStore source;
      TreeGenOptions tree_options;
      tree_options.levels = 4;
      tree_options.fanout = 5;
      tree_options.seed = 131;
      auto tree = GenerateTree(&source, tree_options);
      Check(tree.status());

      ObjectStore warehouse_store;
      Warehouse warehouse(&warehouse_store);
      Check(warehouse.ConnectSource(&source, tree->root,
                                    ReportingLevel::kWithValues));
      // Views share the corridor but differ by bound, so every event fans
      // out to all of them and the drains have real per-view work.
      for (size_t v = 0; v < kViews; ++v) {
        Check(warehouse.DefineView(TreeViewDefinition(
            "WV" + std::to_string(v), tree->root, 2, 4,
            static_cast<int64_t>(10 + v * 10))));
      }
      warehouse.costs().Reset();
      warehouse.set_deferred(true);

      Warehouse::BatchOptions options;
      options.threads = threads;

      UpdateGenOptions gen_options;
      gen_options.seed = 137;
      gen_options.p_modify = 0.6;
      gen_options.p_insert = 0.2;
      gen_options.p_delete = 0.2;
      UpdateGenerator generator(&source, tree->root, gen_options);

      int64_t drain_micros = 0;
      for (size_t applied = 0; applied < kTotalUpdates;
           applied += batch_size) {
        size_t burst = std::min(batch_size, kTotalUpdates - applied);
        Check(generator.Run(burst).status());
        Stopwatch drain;
        Check(warehouse.ProcessPendingBatch(options));
        drain_micros += drain.ElapsedMicros();
      }

      // The drains must have produced the correct views.
      for (size_t v = 0; v < kViews; ++v) {
        ConsistencyReport report = CheckViewConsistency(
            *warehouse.view("WV" + std::to_string(v)), source);
        if (!report.consistent) {
          std::fprintf(stderr, "WV%zu inconsistent: %s\n", v,
                       report.ToString().c_str());
          return 1;
        }
      }

      double rate = drain_micros > 0
                        ? kTotalUpdates * 1e6 / static_cast<double>(drain_micros)
                        : 0.0;
      if (batch_size == 1 && threads == 1) baseline_rate = rate;
      if (batch_size == 256 && threads == 4) target_rate = rate;
      double speedup = baseline_rate > 0 ? rate / baseline_rate : 1.0;
      int64_t coalesced = warehouse.costs().events_coalesced;
      int64_t screened = warehouse.costs().events_screened_out;

      table.Row({Num(batch_size), Num(threads), Num(drain_micros),
                 Num(static_cast<int64_t>(rate)), Num(coalesced),
                 Num(screened), Ratio(speedup)});
      json.Record({{"exp", Quoted("exp13_batch_throughput")},
                   {"batch", Num(batch_size)},
                   {"threads", Num(threads)},
                   {"updates", Num(kTotalUpdates)},
                   {"views", Num(kViews)},
                   {"drain_micros", Num(drain_micros)},
                   {"updates_per_sec", Micros(rate)},
                   {"events_coalesced", Num(coalesced)},
                   {"events_screened_out", Num(screened)},
                   {"speedup_vs_serial", Micros(speedup)}});
    }
  }

  std::printf("\nbatch=256/threads=4 vs batch=1/threads=1: %s\n",
              Ratio(baseline_rate > 0 ? target_rate / baseline_rate : 0.0)
                  .c_str());
  return 0;
}
