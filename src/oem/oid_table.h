#ifndef GSV_OEM_OID_TABLE_H_
#define GSV_OEM_OID_TABLE_H_

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace gsv {

// Process-wide OID interner. Every distinct OID string is stored exactly
// once and mapped to a dense uint32_t id; Oid holds the id and all equality
// and hashing throughout the library become integer operations. Id 0 is
// reserved for the empty (invalid) OID.
//
// Lookup is a flat, power-of-two, linear-probing array of {hash, id} slots
// (FNV-1a folded to 32 bits; grown at load factor 1/2). A probe compares a
// spelling only when the stored hash matches. Ids are assigned in
// first-sight order, which ShardOfOid and every on-disk byte depend on.
//
// Thread-safe: Intern takes a shared lock on the hit path and an exclusive
// lock only when a new string is added; InternMany does the same once for
// a whole batch of spellings; String() is lock-free. Interned
// strings are immortal and never move, so references returned by String()
// remain valid for the life of the process (string_views into them are safe
// to hand out — see Oid::BaseView).
class OidTable {
 public:
  static OidTable& Global();

  OidTable(const OidTable&) = delete;
  OidTable& operator=(const OidTable&) = delete;

  // Returns the id of `text`, interning it on first sight. "" -> 0.
  uint32_t Intern(std::string_view text);

  // Interns every spelling of `texts` into the matching slot of `ids`, as
  // if by one Intern call per spelling in order: a spelling not yet in the
  // table gets the next id at its first position in `texts`, so batching
  // leaves first-sight id order unchanged. One shared lock covers the
  // probes (each prefetches a later spelling's slot), and one exclusive
  // lock the misses. `ids` must hold texts.size() entries.
  void InternMany(std::span<const std::string_view> texts,
                  std::span<uint32_t> ids);

  // Interns the delegate form "<view>.<base>" with a single allocation.
  uint32_t InternDelegate(uint32_t view_id, uint32_t base_id);

  // The string for an id previously returned by Intern. Lock-free.
  const std::string& String(uint32_t id) const {
    return blocks_[id >> kBlockBits].load(std::memory_order_acquire)
        [id & (kBlockSize - 1)];
  }

  // Number of interned strings (including the reserved empty slot).
  size_t size() const;

 private:
  // 4096 strings per block; blocks are allocated on demand and never freed,
  // so String() can read without taking the lock.
  static constexpr uint32_t kBlockBits = 12;
  static constexpr uint32_t kBlockSize = 1u << kBlockBits;
  static constexpr uint32_t kMaxBlocks = 1u << 15;  // ~134M distinct OIDs

  // A lookup slot; id 0 marks an empty slot (the empty OID is never probed).
  struct Slot {
    uint32_t hash = 0;
    uint32_t id = 0;
  };

  OidTable();

  // The id of `text` (whose hash is `hash`), or 0 when absent. Requires
  // mutex_ held in either mode.
  uint32_t Find(std::string_view text, uint32_t hash) const;
  // Adds `text` (absent, hash `hash`) under the next id, growing the
  // table at load factor 1/2. Requires mutex_ held exclusively.
  uint32_t InsertLocked(std::string_view text, uint32_t hash);
  // Stores `entry` in the first free slot of its probe sequence.
  static void Place(std::vector<Slot>* slots, Slot entry);

  mutable std::shared_mutex mutex_;
  std::vector<Slot> slots_;  // guarded by mutex_; size is a power of two
  uint32_t size_ = 0;        // guarded by mutex_
  std::atomic<std::string*> blocks_[kMaxBlocks] = {};
};

}  // namespace gsv

#endif  // GSV_OEM_OID_TABLE_H_
