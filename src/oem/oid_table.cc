#include "oem/oid_table.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace gsv {

namespace {

constexpr size_t kInitialSlots = 1024;

uint32_t HashSpelling(std::string_view text) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a, 64-bit
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return static_cast<uint32_t>(h ^ (h >> 32));
}

}  // namespace

OidTable& OidTable::Global() {
  static OidTable table;
  return table;
}

OidTable::OidTable() {
  // Reserve id 0 for the empty (invalid) OID.
  auto* block = new std::string[kBlockSize];
  blocks_[0].store(block, std::memory_order_release);
  slots_.resize(kInitialSlots);
  size_ = 1;
}

uint32_t OidTable::Find(std::string_view text, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == 0) return 0;
    if (slot.hash == hash && String(slot.id) == text) return slot.id;
  }
}

void OidTable::Place(std::vector<Slot>* slots, Slot entry) {
  const size_t mask = slots->size() - 1;
  size_t i = entry.hash & mask;
  while ((*slots)[i].id != 0) i = (i + 1) & mask;
  (*slots)[i] = entry;
}

uint32_t OidTable::InsertLocked(std::string_view text, uint32_t hash) {
  const uint32_t id = size_;
  if ((id >> kBlockBits) >= kMaxBlocks) {
    std::fprintf(stderr, "OidTable: interned-OID capacity exhausted\n");
    std::abort();
  }
  std::string* block = blocks_[id >> kBlockBits].load(std::memory_order_relaxed);
  if (block == nullptr) {
    block = new std::string[kBlockSize];
    blocks_[id >> kBlockBits].store(block, std::memory_order_release);
  }
  std::string& spelling = block[id & (kBlockSize - 1)];
  spelling.assign(text.data(), text.size());
  ++size_;
  // size_ - 1 spellings are in the table (id 0 is never probed).
  if (2 * static_cast<size_t>(size_ - 1) > slots_.size()) {
    std::vector<Slot> grown(2 * slots_.size());
    for (const Slot& entry : slots_) {
      if (entry.id != 0) Place(&grown, entry);
    }
    slots_.swap(grown);
  }
  Place(&slots_, Slot{hash, id});
  return id;
}

uint32_t OidTable::Intern(std::string_view text) {
  if (text.empty()) return 0;
  const uint32_t hash = HashSpelling(text);
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    if (const uint32_t id = Find(text, hash)) return id;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (const uint32_t id = Find(text, hash)) return id;
  return InsertLocked(text, hash);
}

void OidTable::InternMany(std::span<const std::string_view> texts,
                          std::span<uint32_t> ids) {
  // How many spellings ahead a probe's first slot is prefetched: far
  // enough for the line to arrive, near enough to stay cached.
  constexpr size_t kPrefetchAhead = 8;
  const size_t n = texts.size();
  std::vector<uint32_t> hashes(n);
  for (size_t i = 0; i < n; ++i) hashes[i] = HashSpelling(texts[i]);
  bool missed = false;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const size_t mask = slots_.size() - 1;
    for (size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        __builtin_prefetch(&slots_[hashes[i + kPrefetchAhead] & mask]);
      }
      ids[i] = texts[i].empty() ? 0 : Find(texts[i], hashes[i]);
      missed |= ids[i] == 0 && !texts[i].empty();
    }
  }
  if (!missed) return;
  // Misses in spelling order; a repeat of an earlier miss, or a spelling
  // another thread added since the shared pass, is found by the re-probe.
  std::unique_lock<std::shared_mutex> lock(mutex_);
  for (size_t i = 0; i < n; ++i) {
    if (ids[i] != 0 || texts[i].empty()) continue;
    ids[i] = Find(texts[i], hashes[i]);
    if (ids[i] == 0) ids[i] = InsertLocked(texts[i], hashes[i]);
  }
}

uint32_t OidTable::InternDelegate(uint32_t view_id, uint32_t base_id) {
  const std::string& view = String(view_id);
  const std::string& base = String(base_id);
  std::string repr;
  repr.reserve(view.size() + 1 + base.size());
  repr += view;
  repr += '.';
  repr += base;
  return Intern(repr);
}

size_t OidTable::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return size_;
}

}  // namespace gsv
