// E15 — Label/path index speedup on navigation-heavy maintenance.
//
// Sweeps two tree shapes — deep (levels=9, the ancestor/eval-heavy regime
// the index targets) and high-fanout (wide frontiers, many siblings per
// label) — and runs the identical pre-generated update stream through an
// Algorithm 1 maintainer twice: once with the label index enabled (postings
// probes) and once disabled (pure graph traversal). The stream removes and
// restores condition witnesses (bound-crossing modifies, leaf-edge
// delete/insert churn), so every event triggers the §4.3 primitives:
// ancestor() climbs from the touched leaf and eval() re-checks the WHERE
// subtree of each candidate.
//
// Reported per shape: maintenance wall time, query (full re-evaluation)
// latency, and the traversal/probe counter split. Each time is the minimum
// over kRepetitions runs of its variant, alternating off and on, so one run
// a scheduler stall slowed cannot move the ratio; the counters are the
// same in every run. The final view members must be identical between the
// two variants — the index is only a speedup, never an answer change.
//
// Acceptance bar: on the deep shape, index-on maintenance must clear 5x
// index-off. `--smoke` runs a scaled-down sweep with a loose 1.5x bar and a
// nonzero exit below it (wired into ci.sh as the perf-smoke stage).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "core/algorithm1.h"
#include "core/base_accessor.h"
#include "core/materialized_view.h"
#include "core/view_definition.h"
#include "core/virtual_view.h"
#include "oem/store.h"
#include "util/stopwatch.h"
#include "workload/tree_gen.h"

namespace {

struct Shape {
  const char* name;
  size_t levels;
  size_t fanout;
  size_t label_variety;
  size_t sel_levels;
  int64_t bound;
  size_t updates;
  size_t query_reps;
};

// Runs of each variant whose fastest time is reported.
constexpr int kRepetitions = 5;

struct RunResult {
  int64_t maint_micros = 0;
  int64_t query_micros = 0;
  int64_t edges_traversed = 0;
  int64_t index_probes = 0;
  int64_t index_fallbacks = 0;
  std::vector<std::string> members;
};

// Pre-generates a replayable stream against the scratch tree: pairs of
// events on a currently-satisfying "age" leaf — either a modify that flips
// it across the condition bound and a modify that flips it back, or a
// delete of its edge followed by the re-insert. The first event of every
// pair is a satisfying -> violating (or witness-removing) transition, the
// case where Algorithm 1 must re-evaluate the candidate's whole condition
// subtree; the second restores the scratch state so the stream replays
// identically on any store built from the same seed.
std::vector<gsv::Update> MakeStream(gsv::ObjectStore* scratch,
                                    const gsv::GeneratedTree& tree,
                                    size_t updates, int64_t bound,
                                    uint64_t seed) {
  using namespace gsv;  // NOLINT(build/namespaces)
  std::mt19937_64 rng(seed);
  std::vector<Update> stream;
  stream.reserve(updates);
  while (stream.size() + 1 < updates) {
    const Oid& leaf = tree.leaves[rng() % tree.leaves.size()];
    const Object* object = scratch->Get(leaf);
    if (object == nullptr || !object->IsAtomic()) continue;
    if (object->value().AsInt() > bound) continue;  // want a current witness
    if (rng() % 10 < 7) {
      Value out = Value::Int(bound + 1 + static_cast<int64_t>(rng() % 10));
      Value back = Value::Int(static_cast<int64_t>(rng() % (bound + 1)));
      stream.push_back(Update::Modify(leaf, object->value(), out));
      bench::Check(scratch->Apply(stream.back()));
      stream.push_back(Update::Modify(leaf, out, back));
      bench::Check(scratch->Apply(stream.back()));
    } else {
      std::vector<Oid> parents = scratch->Parents(leaf);
      if (parents.empty()) continue;
      const Oid& parent = parents[rng() % parents.size()];
      stream.push_back(Update::Delete(parent, leaf));
      bench::Check(scratch->Apply(stream.back()));
      stream.push_back(Update::Insert(parent, leaf));
      bench::Check(scratch->Apply(stream.back()));
    }
  }
  return stream;
}

RunResult RunVariant(const Shape& shape, bool enable_index,
                     const std::vector<gsv::Update>& stream) {
  using namespace gsv;  // NOLINT(build/namespaces)
  ObjectStore::Options options;
  options.enable_label_index = enable_index;
  ObjectStore base(options);
  TreeGenOptions tree_options;
  tree_options.levels = shape.levels;
  tree_options.fanout = shape.fanout;
  tree_options.label_variety = shape.label_variety;
  tree_options.seed = 151;
  auto tree = GenerateTree(&base, tree_options);
  bench::Check(tree.status());

  std::string definition = TreeViewDefinition(
      "E15", tree->root, shape.sel_levels, shape.levels, shape.bound);
  auto def = ViewDefinition::Parse(definition);
  bench::Check(def.status());

  ObjectStore view_store;
  MaterializedView view(&view_store, *def);
  bench::Check(view.Initialize(base));
  LocalAccessor accessor(&base);
  Algorithm1Maintainer maintainer(&view, &accessor, *def, tree->root);
  base.AddListener(&maintainer);

  base.metrics().Reset();
  RunResult result;
  Stopwatch maint;
  for (const Update& update : stream) {
    bench::Check(base.Apply(update));
  }
  result.maint_micros = maint.ElapsedMicros();
  bench::Check(maintainer.last_status());

  Stopwatch query;
  for (size_t i = 0; i < shape.query_reps; ++i) {
    auto members = EvaluateView(base, *def);
    bench::Check(members.status());
  }
  result.query_micros = query.ElapsedMicros();

  result.edges_traversed = base.metrics().edges_traversed.load();
  result.index_probes = base.metrics().index_probes.load();
  result.index_fallbacks = base.metrics().index_fallbacks.load();
  for (const Oid& member : view.BaseMembers()) {
    result.members.push_back(member.str());
  }
  return result;
}

// Keeps the faster maintenance and query times of `best` and `run`.
void KeepFastest(RunResult* best, RunResult run, bool first) {
  if (first) {
    *best = std::move(run);
    return;
  }
  best->maint_micros = std::min(best->maint_micros, run.maint_micros);
  best->query_micros = std::min(best->query_micros, run.query_micros);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  std::string json_path;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  // The deep shape is the acceptance target: condition paths of length 8
  // over ~2k-leaf condition subtrees make every witness-removing event an
  // ancestor climb plus a full subtree re-evaluation.
  const Shape kFull[] = {
      {"deep", 9, 3, 1, 1, 50, 1200, 100},
      {"fanout", 3, 24, 1, 1, 50, 800, 100},
  };
  const Shape kSmoke[] = {
      {"deep", 8, 2, 1, 1, 50, 300, 20},
      {"fanout", 3, 12, 1, 1, 50, 300, 20},
  };
  const Shape* shapes = smoke ? kSmoke : kFull;
  const double bar = smoke ? 1.5 : 5.0;

  std::printf(
      "E15: label/path index speedup (maintenance + query), %s sweep\n\n",
      smoke ? "smoke" : "full");

  JsonLines json(json_path, "gsv.exp15.v1", /*seed=*/151);
  TablePrinter table({"shape", "index", "maint_us", "query_us", "edges",
                      "probes", "fallbacks", "speedup"});

  bool ok = true;
  for (int s = 0; s < 2; ++s) {
    const Shape& shape = shapes[s];
    // One scratch world generates the stream both variants replay.
    ObjectStore scratch;
    TreeGenOptions tree_options;
    tree_options.levels = shape.levels;
    tree_options.fanout = shape.fanout;
    tree_options.label_variety = shape.label_variety;
    tree_options.seed = 151;
    auto tree = GenerateTree(&scratch, tree_options);
    Check(tree.status());
    std::vector<Update> stream =
        MakeStream(&scratch, *tree, shape.updates, shape.bound, 157);

    RunResult off;
    RunResult on;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      KeepFastest(&off, RunVariant(shape, /*enable_index=*/false, stream),
                  rep == 0);
      KeepFastest(&on, RunVariant(shape, /*enable_index=*/true, stream),
                  rep == 0);
    }

    if (on.members != off.members) {
      std::fprintf(stderr, "%s: view members diverged (on=%zu, off=%zu)\n",
                   shape.name, on.members.size(), off.members.size());
      return 1;
    }

    double maint_speedup =
        on.maint_micros > 0
            ? static_cast<double>(off.maint_micros) / on.maint_micros
            : 0.0;
    double query_speedup =
        on.query_micros > 0
            ? static_cast<double>(off.query_micros) / on.query_micros
            : 0.0;

    table.Row({shape.name, "off", Num(off.maint_micros), Num(off.query_micros),
               Num(off.edges_traversed), Num(off.index_probes),
               Num(off.index_fallbacks), Ratio(1.0)});
    table.Row({shape.name, "on", Num(on.maint_micros), Num(on.query_micros),
               Num(on.edges_traversed), Num(on.index_probes),
               Num(on.index_fallbacks), Ratio(maint_speedup)});
    json.Record({{"exp", Quoted("exp15_index_speedup")},
                 {"shape", Quoted(shape.name)},
                 {"levels", Num(shape.levels)},
                 {"fanout", Num(shape.fanout)},
                 {"updates", Num(stream.size())},
                 {"maint_micros_off", Num(off.maint_micros)},
                 {"maint_micros_on", Num(on.maint_micros)},
                 {"query_micros_off", Num(off.query_micros)},
                 {"query_micros_on", Num(on.query_micros)},
                 {"edges_off", Num(off.edges_traversed)},
                 {"edges_on", Num(on.edges_traversed)},
                 {"index_probes_on", Num(on.index_probes)},
                 {"maint_speedup", Micros(maint_speedup)},
                 {"query_speedup", Micros(query_speedup)}});

    std::printf("%s: maintenance %s, query %s (bar %.1fx on deep)\n",
                shape.name, Ratio(maint_speedup).c_str(),
                Ratio(query_speedup).c_str(), bar);
    if (std::strcmp(shape.name, "deep") == 0 && maint_speedup < bar) {
      std::fprintf(stderr, "deep maintenance speedup %s below the %.1fx bar\n",
                   Ratio(maint_speedup).c_str(), bar);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
