#ifndef GSV_UTIL_COUNTERS_H_
#define GSV_UTIL_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace gsv {

// Counter sheets declared once. A sheet is an X-macro list of rows
//
//   X(field, "ToString key", print group, merge kind)
//
// and GSV_COUNTER_SHEET(Sheet, LIST) expands that one list into the
// std::atomic<int64_t> members plus copy/assignment (relaxed loads), Reset,
// Merge and ToString, so adding a counter is adding a row.

// ToString prints the kBase group always; every other group only when one
// of its counters is non-zero, so the common string stays short. Rows of
// one group are contiguous and listed in print order.
enum class CounterGroup { kBase, kHealth, kCrossShard, kPaging, kCount };

// How Merge folds another sheet's counter in: a total adds, a high-water
// mark keeps the larger value (the fleet's peak is the worst member's).
enum class CounterMerge { kSum, kMax };

inline void MergeCounter(CounterMerge kind, std::atomic<int64_t>* into,
                         const std::atomic<int64_t>& from) {
  const int64_t value = from.load(std::memory_order_relaxed);
  if (kind == CounterMerge::kSum) {
    into->fetch_add(value, std::memory_order_relaxed);
    return;
  }
  int64_t mine = into->load(std::memory_order_relaxed);
  while (value > mine && !into->compare_exchange_weak(
                             mine, value, std::memory_order_relaxed)) {
  }
}

// Collects one reading per row, then prints the visible groups as
// space-separated key=value pairs.
class CounterPrinter {
 public:
  void Add(CounterGroup group, const char* key,
           const std::atomic<int64_t>& counter) {
    const int64_t value = counter.load(std::memory_order_relaxed);
    rows_.push_back({group, key, value});
    if (value != 0) live_[static_cast<size_t>(group)] = true;
  }

  std::string str() const {
    std::string out;
    for (const Row& row : rows_) {
      if (row.group != CounterGroup::kBase &&
          !live_[static_cast<size_t>(row.group)]) {
        continue;
      }
      if (!out.empty()) out += ' ';
      out += row.key;
      out += '=';
      out += std::to_string(row.value);
    }
    return out;
  }

 private:
  struct Row {
    CounterGroup group;
    const char* key;
    int64_t value;
  };
  std::vector<Row> rows_;
  bool live_[static_cast<size_t>(CounterGroup::kCount)] = {};
};

#define GSV_COUNTER_MEMBER(field, key, group, merge)                           \
  std::atomic<int64_t> field{0};
#define GSV_COUNTER_COPY(field, key, group, merge)                             \
  field = other.field.load(std::memory_order_relaxed);
#define GSV_COUNTER_MERGE(field, key, group, merge)                            \
  ::gsv::MergeCounter(::gsv::CounterMerge::merge, &field, other.field);
#define GSV_COUNTER_PRINT(field, key, group, merge)                            \
  printer.Add(::gsv::CounterGroup::group, key, field);

// Expands inside the struct body of `Sheet`.
#define GSV_COUNTER_SHEET(Sheet, LIST)                                         \
  LIST(GSV_COUNTER_MEMBER)                                                     \
  Sheet() = default;                                                           \
  Sheet(const Sheet& other) { *this = other; }                                 \
  Sheet& operator=(const Sheet& other) {                                       \
    LIST(GSV_COUNTER_COPY)                                                     \
    return *this;                                                              \
  }                                                                            \
  void Reset() { *this = Sheet(); }                                            \
  /* Folds `other` into this sheet (relaxed). */                               \
  Sheet& Merge(const Sheet& other) {                                           \
    LIST(GSV_COUNTER_MERGE)                                                    \
    return *this;                                                              \
  }                                                                            \
  std::string ToString() const {                                               \
    ::gsv::CounterPrinter printer;                                             \
    LIST(GSV_COUNTER_PRINT)                                                    \
    return printer.str();                                                      \
  }

}  // namespace gsv

#endif  // GSV_UTIL_COUNTERS_H_
