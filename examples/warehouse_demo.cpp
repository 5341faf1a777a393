// The §5 warehousing architecture end to end: an autonomous source exports
// update events at a configurable reporting level; the warehouse maintains
// a materialized view, optionally with the §5.2 auxiliary cache, and the
// demo prints what each configuration costs in query-backs.
//
//   $ ./examples/warehouse_demo

#include <cstdio>
#include <cstdlib>

#include "core/consistency.h"
#include "oem/store.h"
#include "util/random.h"
#include "warehouse/source_wrapper_gsdb.h"
#include "warehouse/warehouse.h"
#include "workload/tree_gen.h"
#include "workload/update_gen.h"

namespace {

void Check(const gsv::Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  using namespace gsv;  // NOLINT(build/namespaces)

  struct Config {
    const char* name;
    ReportingLevel level;
    Warehouse::CacheMode cache;
  };
  const Config configs[] = {
      {"level 1 (OIDs only), no cache", ReportingLevel::kOidsOnly,
       Warehouse::CacheMode::kNone},
      {"level 2 (+values),   no cache", ReportingLevel::kWithValues,
       Warehouse::CacheMode::kNone},
      {"level 3 (+path),     no cache", ReportingLevel::kWithRootPath,
       Warehouse::CacheMode::kNone},
      {"level 2, labels-only cache   ", ReportingLevel::kWithValues,
       Warehouse::CacheMode::kLabelsOnly},
      {"level 2, full corridor cache ", ReportingLevel::kWithValues,
       Warehouse::CacheMode::kFull},
  };

  std::printf("source: random tree, view: depth-2 selection with an age "
              "condition, 400 random updates\n\n");
  std::printf("%-32s %9s %9s %9s %9s %9s\n", "configuration", "queries",
              "shipped", "screened", "local", "cacheq");

  for (const Config& config : configs) {
    // Fresh, identically-seeded source per configuration.
    ObjectStore source;
    TreeGenOptions tree_options;
    tree_options.levels = 3;
    tree_options.fanout = 4;
    tree_options.seed = 99;
    auto tree = GenerateTree(&source, tree_options);
    Check(tree.ok() ? Status::Ok() : tree.status());

    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    Check(warehouse.ConnectSource(&source, tree->root, config.level));
    Check(warehouse.DefineView(
        TreeViewDefinition("WV", tree->root, /*sel_levels=*/2, /*levels=*/3,
                           /*bound=*/50),
        config.cache));
    warehouse.costs().Reset();

    UpdateGenOptions gen_options;
    gen_options.seed = 123;
    UpdateGenerator generator(&source, tree->root, gen_options);
    auto run = generator.Run(400);
    Check(run.ok() ? Status::Ok() : run.status());
    Check(warehouse.last_status());

    const WarehouseCosts& costs = warehouse.costs();
    std::printf("%-32s %9lld %9lld %9lld %9lld %9lld\n", config.name,
                static_cast<long long>(costs.source_queries),
                static_cast<long long>(costs.objects_shipped),
                static_cast<long long>(costs.events_screened_out),
                static_cast<long long>(costs.events_local_only),
                static_cast<long long>(costs.cache_maintenance_queries));

    ConsistencyReport report =
        CheckViewConsistency(*warehouse.view("WV"), source);
    if (!report.consistent) {
      std::fprintf(stderr, "INCONSISTENT: %s\n", report.ToString().c_str());
      return 1;
    }
  }
  std::printf("\nall configurations converged to the same correct view.\n");

  // ---- Part 2: two sources, one of them a legacy relational database ----
  std::printf(
      "\npart 2: multi-source warehouse — an OEM tree plus a relational\n"
      "source behind the Figure-6 wrapper, drained deferred+coalesced\n\n");

  ObjectStore tree_source;
  TreeGenOptions tree_options;
  tree_options.levels = 3;
  tree_options.fanout = 4;
  tree_options.seed = 7;
  auto tree = GenerateTree(&tree_source, tree_options);
  Check(tree.status().ok() ? Status::Ok() : tree.status());

  RelationalSource relational;
  Check(relational.CreateTable("emp", {"name", "salary"}));
  ObjectStore erp_source;
  GsdbSourceAdapter adapter(&erp_source, &relational, "REL");
  Check(adapter.Initialize());

  ObjectStore warehouse_store;
  Warehouse warehouse(&warehouse_store);
  Check(warehouse.ConnectSource(&tree_source, tree->root,
                                ReportingLevel::kWithValues, "tree"));
  Check(warehouse.ConnectSource(&erp_source, Oid("REL"),
                                ReportingLevel::kWithValues, "erp"));
  Check(warehouse.DefineView(TreeViewDefinition("TV", tree->root, 2, 3, 50),
                             Warehouse::CacheMode::kFull, "tree"));
  Check(warehouse.DefineView(
      "define mview RICH as: SELECT REL.emp.tuple X WHERE X.salary >= 5000",
      Warehouse::CacheMode::kNone, "erp"));
  warehouse.costs().Reset();
  warehouse.set_deferred(true);

  UpdateGenOptions gen_options;
  gen_options.seed = 11;
  UpdateGenerator generator(&tree_source, tree->root, gen_options);
  Random rng(3);
  for (int round = 0; round < 5; ++round) {
    Check(generator.Run(40).status().ok() ? Status::Ok()
                                          : Status::Internal("stream"));
    for (int i = 0; i < 6; ++i) {
      auto row = relational.InsertRow(
          "emp", {Value::Str("e" + std::to_string(round * 6 + i)),
                  Value::Int(rng.UniformInt(1000, 9000))});
      Check(row.status().ok() ? Status::Ok() : row.status());
    }
    size_t pending = warehouse.pending_events();
    int64_t coalesced_before = warehouse.costs().events_coalesced;
    Check(warehouse.ProcessPending());
    std::printf("round %d: drained %zu events (%lld coalesced away); "
                "TV=%zu members, RICH=%zu members\n",
                round, pending,
                static_cast<long long>(warehouse.costs().events_coalesced -
                                       coalesced_before),
                warehouse.view("TV")->size(), warehouse.view("RICH")->size());
  }
  Check(warehouse.last_status());
  std::printf("costs: %s\n", warehouse.costs().ToString().c_str());
  bool consistent =
      CheckViewConsistency(*warehouse.view("TV"), tree_source).consistent &&
      CheckViewConsistency(*warehouse.view("RICH"), erp_source).consistent;
  std::printf("both views consistent with their sources: %s\n",
              consistent ? "yes" : "NO");
  return consistent ? 0 : 1;
}
