#include "warehouse/sharding.h"

#include <utility>

namespace gsv {

std::vector<std::pair<Oid, std::string>> ViewContentLines(
    const MaterializedView& view) {
  std::vector<std::pair<Oid, std::string>> lines;
  const OidSet members = view.BaseMembers();
  lines.reserve(members.size());
  // OidSet iterates in lexicographic OID order, so the slice comes out
  // pre-sorted for the k-way merge.
  for (const Oid& base : members) {
    const Object* delegate = view.store().Get(view.DelegateOid(base));
    std::string text = delegate == nullptr
                           ? std::string("<missing delegate>")
                           : delegate->label() + " " +
                                 delegate->value().ToString();
    lines.emplace_back(base, std::move(text));
  }
  return lines;
}

std::vector<std::pair<Oid, std::string>> MergeContentLineRuns(
    std::vector<std::vector<std::pair<Oid, std::string>>> runs) {
  std::vector<std::pair<Oid, std::string>> merged;
  size_t total = 0;
  for (const auto& run : runs) total += run.size();
  merged.reserve(total);
  // K is a shard count, so a linear scan over the run heads suffices (the
  // MergeSortedOidRuns discipline).
  std::vector<size_t> heads(runs.size(), 0);
  for (;;) {
    size_t best = runs.size();
    for (size_t i = 0; i < runs.size(); ++i) {
      if (heads[i] >= runs[i].size()) continue;
      if (best == runs.size() ||
          runs[i][heads[i]].first < runs[best][heads[best]].first) {
        best = i;
      }
    }
    if (best == runs.size()) break;
    merged.push_back(std::move(runs[best][heads[best]++]));
  }
  return merged;
}

}  // namespace gsv
