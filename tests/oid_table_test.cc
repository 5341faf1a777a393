// OID interner suite: one id per spelling, lexicographic Oid order, the
// delegate form, and the flat table under concurrent growth. Carries the
// `tsan` label: Intern's shared-lock hit path races inserts that grow the
// table, and String() reads block storage without any lock.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
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

// InternMany is a batch of Intern calls: fresh spellings get consecutive
// ids at their first position, repeats and known spellings their
// existing id, "" the reserved 0.
TEST(OidInterningTest, InternManyMatchesSequentialIntern) {
  OidTable& table = OidTable::Global();
  const uint32_t known = table.Intern("oidtab_many_known");
  const uint32_t first = static_cast<uint32_t>(table.size());
  const std::vector<std::string_view> texts = {
      "oidtab_many_z", "oidtab_many_known", "oidtab_many_a", "",
      "oidtab_many_z", "oidtab_many_m",     "oidtab_many_a"};
  std::vector<uint32_t> ids(texts.size(), 99);
  table.InternMany(texts, ids);
  EXPECT_EQ(ids, (std::vector<uint32_t>{first, known, first + 1, 0, first,
                                        first + 2, first + 1}));
  EXPECT_EQ(table.size(), first + 3u);
  EXPECT_EQ(table.String(first + 2), "oidtab_many_m");
  table.InternMany({}, {});  // an empty batch is a no-op
  EXPECT_EQ(table.size(), first + 3u);
}

// Four threads mix InternMany batches and single Interns over overlapping
// spelling ranges while the table grows. Each batch also carries spellings
// private to its thread, so they are certain misses of that call: their
// ids must ascend in spelling order, and a repeat within the batch must
// get its first occurrence's id.
TEST(OidInterningTest, ConcurrentInternManyKeepsOneIdPerSpelling) {
  constexpr int kThreads = 4;
  constexpr int kSpan = 8000;
  constexpr int kStride = 4000;
  constexpr int kBatch = 48;
  auto shared = [](int i) { return "oidtab_many_shared_" + std::to_string(i); };
  std::vector<std::unordered_map<std::string, uint32_t>> seen(kThreads);
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &failures, &shared] {
      OidTable& table = OidTable::Global();
      int k = 0;
      int batch_number = 0;
      while (k < kSpan) {
        std::vector<std::string> owned;
        std::vector<size_t> private_at;
        for (int j = 0; j < kBatch && k < kSpan; ++j, ++k) {
          const int i = t * kStride + (t % 2 == 0 ? k : kSpan - 1 - k);
          owned.push_back(shared(i));
          if (j % 6 == 0) {
            private_at.push_back(owned.size());
            owned.push_back("oidtab_many_private_" + std::to_string(t) + "_" +
                            std::to_string(k));
          }
          if (j % 10 == 3) owned.push_back(owned[owned.size() / 2]);
        }
        if (t % 2 == 1 && batch_number++ % 2 == 1) {
          // Odd threads alternate batches with one Intern per spelling.
          for (const std::string& text : owned) {
            const uint32_t id = table.Intern(text);
            if (id == 0 || table.String(id) != text) ++failures[t];
            seen[t].emplace(text, id);
          }
          continue;
        }
        std::vector<std::string_view> texts(owned.begin(), owned.end());
        std::vector<uint32_t> ids(texts.size());
        table.InternMany(texts, ids);
        std::unordered_map<std::string_view, uint32_t> in_batch;
        for (size_t x = 0; x < texts.size(); ++x) {
          if (ids[x] == 0 || table.String(ids[x]) != texts[x]) ++failures[t];
          auto [it, inserted] = in_batch.emplace(texts[x], ids[x]);
          if (!inserted && it->second != ids[x]) ++failures[t];
          seen[t].emplace(owned[x], ids[x]);
        }
        for (size_t p = 1; p < private_at.size(); ++p) {
          if (ids[private_at[p]] <= ids[private_at[p - 1]]) ++failures[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::unordered_map<std::string, uint32_t> ids;
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
    for (const auto& [text, id] : seen[t]) {
      auto [it, inserted] = ids.emplace(text, id);
      if (!inserted) EXPECT_EQ(it->second, id) << text;
    }
  }
  std::unordered_set<uint32_t> unique_ids;
  for (const auto& [text, id] : ids) {
    unique_ids.insert(id);
    EXPECT_EQ(OidTable::Global().String(id), text);
    EXPECT_EQ(OidTable::Global().Intern(text), id);
  }
  EXPECT_EQ(unique_ids.size(), ids.size());  // no two spellings share an id
}

}  // namespace
}  // namespace gsv
