// E7 — Path knowledge ("schema") screening (§5.2 closing remark).
//
// Paper claim: knowing that certain label chains can never occur at the
// source lets the warehouse skip updates without any query — e.g. if
// student objects never have salary children, a view over students is
// unaffected by all salary updates.
//
// Workload: a personnel tree where most churn happens on salary fields
// below secretaries; the maintained view watches students. Without
// knowledge the salary events pass label screening (salary is on the
// view's corridor); with knowledge they are dropped immediately. Exits 1
// when the maintained view differs from its query over the final source.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/consistency.h"
#include "oem/store.h"
#include "util/random.h"
#include "warehouse/warehouse.h"

namespace gsv {
namespace {

// people: half students (name, age, major), half secretaries (name, age,
// salary). View: students with small salaries — never satisfiable, but the
// warehouse cannot know that without schema knowledge.
Result<Oid> BuildPersonnel(ObjectStore* store, size_t people,
                           std::vector<Oid>* salaries) {
  Oid root("ROOT");
  GSV_RETURN_IF_ERROR(store->PutSet(root, "person"));
  Random rng(3);
  for (size_t i = 0; i < people; ++i) {
    std::string id = std::to_string(i);
    bool student = i % 2 == 0;
    Oid person(std::string(student ? "st" : "se") + id);
    Oid name("n" + id);
    Oid age("a" + id);
    GSV_RETURN_IF_ERROR(
        store->PutAtomic(name, "name", Value::Str("p" + id)));
    GSV_RETURN_IF_ERROR(
        store->PutAtomic(age, "age", Value::Int(rng.UniformInt(20, 60))));
    std::vector<Oid> children{name, age};
    if (!student) {
      Oid salary("s" + id);
      GSV_RETURN_IF_ERROR(store->PutAtomic(
          salary, "salary", Value::Int(rng.UniformInt(1000, 9000))));
      children.push_back(salary);
      salaries->push_back(salary);
    } else {
      Oid major("m" + id);
      GSV_RETURN_IF_ERROR(
          store->PutAtomic(major, "major", Value::Str("cs")));
      children.push_back(major);
    }
    GSV_RETURN_IF_ERROR(
        store->PutSet(person, student ? "student" : "secretary", children));
    GSV_RETURN_IF_ERROR(store->AddChildRaw(root, person));
  }
  return root;
}

}  // namespace
}  // namespace gsv

int main() {
  using namespace gsv;         // NOLINT(build/namespaces)
  using namespace gsv::bench;  // NOLINT(build/namespaces)

  const size_t kPeople = 200;
  const size_t kUpdates = 1000;
  std::printf(
      "E7: path-knowledge screening (view over students, churn on\n"
      "secretary salaries); %zu salary modifies\n\n",
      kUpdates);

  TablePrinter table(
      {"knowledge", "queries", "screened", "local evts", "q/update"});

  for (bool with_knowledge : {false, true}) {
    ObjectStore source;
    std::vector<Oid> salaries;
    auto root = BuildPersonnel(&source, kPeople, &salaries);
    bench::Check(root.status().ok() ? Status::Ok() : root.status());

    ObjectStore warehouse_store;
    Warehouse warehouse(&warehouse_store);
    bench::Check(warehouse.ConnectSource(&source, *root,
                                         ReportingLevel::kWithValues));
    bench::Check(warehouse.DefineView(
        "define mview ST as: SELECT ROOT.student X WHERE X.salary > 0"));
    if (with_knowledge) {
      PathKnowledge knowledge;
      knowledge.SetChildLabels("person", {"student", "secretary"});
      knowledge.SetChildLabels("student", {"name", "age", "major"});
      knowledge.SetChildLabels("secretary", {"name", "age", "salary"});
      warehouse.SetPathKnowledge(knowledge);
    }
    warehouse.costs().Reset();

    Random rng(17);
    for (size_t i = 0; i < kUpdates; ++i) {
      const Oid& salary = salaries[rng.Uniform(salaries.size())];
      bench::Check(
          source.Modify(salary, Value::Int(rng.UniformInt(1000, 9000))));
    }
    bench::Check(warehouse.last_status());

    ConsistencyReport report =
        CheckViewConsistency(*warehouse.view("ST"), source);
    if (!report.consistent) {
      std::fprintf(stderr, "INCONSISTENT with knowledge=%s: %s\n",
                   with_knowledge ? "yes" : "no", report.ToString().c_str());
      return 1;
    }

    const WarehouseCosts& costs = warehouse.costs();
    table.Row({with_knowledge ? "yes" : "no", Num(costs.source_queries),
               Num(costs.events_screened_out), Num(costs.events_local_only),
               Micros(static_cast<double>(costs.source_queries) /
                      static_cast<double>(kUpdates))});
  }

  std::printf(
      "\nExpected shape (paper §5.2): with the schema knowledge every\n"
      "salary event is screened without a query; without it, each one\n"
      "costs query-backs because 'salary' lies on the view's corridor.\n");
  return 0;
}
