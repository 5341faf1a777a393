// OID interner suite: one id per spelling, lexicographic Oid order, the
// delegate form, and the flat table under concurrent growth. Carries the
// `tsan` label: Intern's shared-lock hit path races inserts that grow the
// table, and String() reads block storage without any lock.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "oem/oid.h"
#include "oem/oid_table.h"

namespace gsv {
namespace {

TEST(OidInterningTest, SameSpellingSameId) {
  Oid a("batch_intern_x");
  Oid b(std::string("batch_intern_x"));
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.str(), "batch_intern_x");
}

TEST(OidInterningTest, OrderingIsLexicographic) {
  // Intern deliberately out of order: ids ascend, spellings do not.
  Oid z("batch_order_z");
  Oid a("batch_order_a");
  EXPECT_LT(a, z);
  EXPECT_FALSE(z < a);
  EXPECT_FALSE(a < a);
}

TEST(OidInterningTest, DelegateAndBaseView) {
  Oid view("MV_intern");
  Oid base("B_intern7");
  Oid delegate = Oid::Delegate(view, base);
  EXPECT_EQ(delegate.str(), "MV_intern.B_intern7");
  EXPECT_TRUE(delegate.IsDelegateOf(view));
  EXPECT_EQ(delegate.BaseView(view), "B_intern7");
  EXPECT_EQ(delegate.BaseIn(view), base);
  EXPECT_FALSE(base.IsDelegateOf(view));
}

TEST(OidInterningTest, ConcurrentInterningIsConsistent) {
  constexpr int kThreads = 8;
  constexpr int kStrings = 500;
  std::vector<std::vector<uint32_t>> ids(kThreads,
                                         std::vector<uint32_t>(kStrings));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int i = 0; i < kStrings; ++i) {
        // Every thread interns the same kStrings spellings.
        Oid oid("batch_conc_" + std::to_string(i));
        ids[t][i] = oid.id();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(ids[t], ids[0]) << "thread " << t;
  }
  for (int i = 0; i < kStrings; ++i) {
    EXPECT_EQ(OidTable::Global().String(ids[0][i]),
              "batch_conc_" + std::to_string(i));
  }
}

// Four threads intern overlapping ranges of fresh spellings, in opposite
// directions, enough of them to grow the table several times over. Each
// thread reads String() back right after every Intern, while the others
// are inserting.
TEST(OidInterningTest, ConcurrentGrowthKeepsOneIdPerSpelling) {
  constexpr int kThreads = 4;
  constexpr int kSpan = 12000;
  constexpr int kStride = 6000;  // neighbours share half their range
  auto spelling = [](int i) { return "oidtab_grow_" + std::to_string(i); };
  std::vector<std::unordered_map<std::string, uint32_t>> seen(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &mismatches, &spelling] {
      OidTable& table = OidTable::Global();
      for (int k = 0; k < kSpan; ++k) {
        const int i = t * kStride + (t % 2 == 0 ? k : kSpan - 1 - k);
        const std::string text = spelling(i);
        const uint32_t id = table.Intern(text);
        if (id == 0 || table.String(id) != text) ++mismatches[t];
        seen[t].emplace(text, id);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::unordered_map<std::string, uint32_t> ids;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    for (const auto& [text, id] : seen[t]) {
      auto [it, inserted] = ids.emplace(text, id);
      if (!inserted) EXPECT_EQ(it->second, id) << text;
    }
  }
  const size_t distinct = (kThreads - 1) * kStride + kSpan;
  ASSERT_EQ(ids.size(), distinct);
  std::unordered_set<uint32_t> unique_ids;
  for (const auto& [text, id] : ids) {
    unique_ids.insert(id);
    EXPECT_EQ(OidTable::Global().String(id), text);
    EXPECT_EQ(OidTable::Global().Intern(text), id);
  }
  EXPECT_EQ(unique_ids.size(), distinct);  // no two spellings share an id
}

// ShardOfOid and every on-disk byte depend on ids being handed out in
// first-sight order: a single-threaded run interning fresh spellings gets
// consecutive ids in exactly that order, across table growths.
TEST(OidInterningTest, SingleThreadAssignsIdsInFirstSightOrder) {
  OidTable& table = OidTable::Global();
  constexpr int kCount = 5000;
  const uint32_t first = static_cast<uint32_t>(table.size());
  for (int i = 0; i < kCount; ++i) {
    // Spellings whose lexicographic order differs from first-sight order.
    const std::string text = "oidtab_order_" + std::to_string(kCount - i);
    ASSERT_EQ(table.Intern(text), first + static_cast<uint32_t>(i)) << text;
  }
  EXPECT_EQ(table.size(), first + static_cast<size_t>(kCount));
  for (int i = kCount - 1; i >= 0; --i) {
    EXPECT_EQ(table.Intern("oidtab_order_" + std::to_string(kCount - i)),
              first + static_cast<uint32_t>(i));
  }
  EXPECT_EQ(table.Intern(""), 0u);
  EXPECT_EQ(table.String(0), "");
}

}  // namespace
}  // namespace gsv
