#ifndef GSV_OEM_PAGED_ENGINE_H_
#define GSV_OEM_PAGED_ENGINE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "oem/storage_engine.h"
#include "util/status.h"

namespace gsv {

// The beyond-RAM storage engine (DESIGN.md §4h/§4i): objects live in
// fixed-size on-disk pages under a bounded buffer pool, so a store's
// footprint is capped by `pool_pages * page_bytes` of RAM no matter how
// large the graph grows.
//
// ## Page format
//
// A page's logical payload is a run of canonical checkpoint record lines
// (serialize.h EncodeObjectRecord, '\n'-terminated) for a contiguous
// lexicographic OID range — the checkpoint encoding IS the page image,
// so an in-order page walk reproduces the checkpoint's object lines
// byte-for-byte. A fault parses the payload in place with the same
// codec's DecodeObjectRecords, interning the page's OID spellings in one
// batch; checkpoint import shares that decoder. Before a payload reaches
// disk it passes through the engine's PageCodec (oem/page_codec.h):
// identity stores the text verbatim; the "gsvz" codec LZSS-compresses it
// to well under 0.6x. The per-page CRC is always computed over the
// *stored* bytes, so cold files audit without decoding. All pages live in
// one file (`pages.gsp`) carved into `page_bytes` slots; a page whose
// stored payload outgrows one slot occupies a multi-slot extent. Freed
// extents return to an address-ordered, coalescing first-fit free list:
// adjacent extents merge on free, and runs that reach the file tail
// shrink it, so long-lived homes stop fragmenting.
//
// ## Background writeback (§4i)
//
// With `background_writeback` (the default), dirty pages never serialize,
// compress, or write on the caller's path. Evicting a dirty frame moves
// its object map into a writeback job on a bounded queue and returns; a
// dedicated thread serializes, encodes, CRCs, and writes the job. A fault
// on a page whose job is still queued *steals the map back* (the job is
// canceled, the frame is dirty again — no I/O at all); a fault on a
// running job copies the job's content (jobs are immutable once started).
// Flush() enqueues every remaining dirty page and blocks on a ticket
// watermark until the queue drains, then writes PAGEDIR — so the on-disk
// image after Flush is byte-identical with synchronous writeback, and the
// PR 4 checkpoint/recovery contract is untouched (durable truth is the
// WAL + checkpoints; the home stays scratch). When the queue is full the
// enqueuer falls back to a synchronous inline write instead of blocking,
// which bounds both memory and latency without a deadlock-prone wait.
//
// ## Pointer swizzling (§4i)
//
// Steady-state point reads skip the page-route (string-keyed map probe) +
// per-frame hash pair: a resident object's OID maps straight to its
// Object* (and owning frame) in a swizzle table keyed by the 4-byte
// interned OID. Entries are created on first access and unswizzled when
// the clock evicts the frame (or the object is erased / its frame
// splits). Hits and misses are metered in StoreMetrics and surface
// through WarehouseCosts and `explain`.
//
// ## Caching & eviction
//
// Resident pages form a pool with pin counts and second-chance (clock)
// eviction. Two rules keep the store's pointer contract honest — a
// pointer from Get() stays valid until the object's own erase/re-put or
// the next SafePoint():
//   1. a frame touched since the last SafePoint() is never evicted
//      mid-epoch (only "cold" frames — untouched since before the last
//      safe point, whose pointers are already invalid — may be dropped
//      when a fault overflows the pool);
//   2. SafePoint() advances the epoch and runs the clock back down to
//      budget; dirty victims enqueue for background writeback.
// The pool may therefore overshoot its budget between safe points by the
// epoch's working set; callers bound that by placing safe points at their
// natural quiescent boundaries (drain ends, checkpoint writes, bulk-load
// strides). Scans pin the frame under the cursor and release pages they
// themselves faulted, so a full scan of a beyond-RAM store stays within
// budget.
//
// The engine's home directory is scratch: opening always starts empty
// (durable truth is the WAL + checkpoints; recovery re-seeds through the
// same bulk-load path as a fresh store).
struct PagedEngineOptions {
  std::string dir;                      // home (created; contents replaced)
  uint64_t page_bytes = 64 * 1024;      // slot size = split target
  uint64_t pool_pages = 64;             // buffer-pool budget, in slots
  bool wipe_on_close = false;           // delete the home in the destructor
  // Page payload codec: "identity" (store raw text) or "compressed"/"gsvz"
  // (LZSS, oem/page_codec.h). Unknown names surface as a sticky engine
  // error on first use; ParseStorageEngineSpec rejects them up front.
  std::string codec = "identity";
  // Drain dirty pages on a dedicated writeback thread (see above). False
  // restores the PR 7 synchronous write-inside-eviction/Flush behavior
  // (E20 measures the difference; twin tests prove equivalence).
  bool background_writeback = true;
  // Cache resident objects' addresses keyed by OID so steady-state Get
  // skips the route+hash probe pair. False restores PR 7 routing.
  bool enable_swizzle = true;
  // Writeback queue bound (jobs). 0 = auto (max(4, pool_pages)). A full
  // queue makes the enqueuer write synchronously instead of blocking.
  uint64_t writeback_queue = 0;
  // Test hook: drop still-queued writeback jobs on destruction instead of
  // draining them — simulates a process kill mid-writeback. The home is
  // scratch, so recovery must not (and does not) depend on those writes.
  bool abandon_queue_on_close = false;
};

std::unique_ptr<StorageEngine> MakePagedEngine(PagedEngineOptions options);

// A factory stamping out independent engines (one per shard / aux cache):
// call n gets `<options.dir>/eng-<n>` as its home.
StorageEngineFactory MakePagedEngineFactory(PagedEngineOptions options);

// Parses a GSV_STORAGE_ENGINE spec:
//   "" | "memory"                          -> null factory (in-memory default)
//   "paged[:<pool>[:<bytes>[:<codec>]]]"   -> paged factory over a fresh
//                                             mkdtemp scratch root (wiped on
//                                             engine close)
// Strict: a malformed spec — unknown engine name, non-positive or
// non-numeric pool/bytes, unknown codec, trailing fields — is
// kInvalidArgument with a message naming the offending component, never a
// silent fall-back to defaults.
Result<StorageEngineFactory> ParseStorageEngineSpec(std::string_view spec);

// Reads GSV_STORAGE_ENGINE through ParseStorageEngineSpec. A malformed
// value prints the parse error to stderr and exits (a typo'd CI override
// must never silently run the wrong engine). Unset behaves like "".
StorageEngineFactory MakeEngineFactoryFromEnv();

// ---- Introspection (exp19/exp20, wal_inspect) ----

struct PagedEngineStatus {
  std::string dir;
  uint64_t page_bytes = 0;
  uint64_t pool_pages = 0;        // budget
  uint64_t pages_total = 0;       // pages that exist (resident or not)
  uint64_t pages_resident = 0;    // loaded frames right now
  uint64_t pages_pinned = 0;
  uint64_t objects = 0;
  uint64_t disk_slots = 0;        // slots allocated in pages.gsp
  uint64_t disk_payload_bytes = 0;  // sum of on-disk *stored* page payloads
  uint64_t disk_raw_bytes = 0;      // sum of pre-codec payload sizes
  std::string codec;              // codec name ("identity", "gsvz")
  // Free-list health (coalescing satellite).
  uint64_t free_slots = 0;          // slots on the free list right now
  uint64_t extent_merges = 0;       // adjacent free extents merged
  uint64_t slots_reclaimed = 0;     // slots trimmed off the file tail
  // Writeback-path health.
  uint64_t writeback_queue_peak = 0;  // deepest the job queue has been
  uint64_t writeback_steals = 0;      // faults served by canceling a job
  uint64_t writeback_sync_fallbacks = 0;  // inline writes on a full queue
  uint64_t swizzle_entries = 0;       // live swizzle-table entries
  Status io_error;                // sticky first I/O failure, if any
};

// Fills `status` when `engine` is a PagedEngine; false otherwise.
bool QueryPagedEngineStatus(const StorageEngine* engine,
                            PagedEngineStatus* status);

// One PAGEDIR line, as read back by tooling.
struct PageDirEntry {
  uint64_t page_id = 0;
  std::string min_key;     // routing lower bound ("" on the first page)
  uint64_t slot_start = 0;
  uint32_t slot_count = 0;
  uint32_t payload_bytes = 0;  // stored (post-codec) size; CRC covers this
  uint32_t raw_bytes = 0;      // pre-codec payload size
  uint32_t codec_id = 0;       // PageCodec::id() the payload was stored with
  uint32_t crc = 0;            // Crc32 over the stored bytes
  uint64_t lsn = 0;
  uint64_t objects = 0;
  std::string first_oid;   // "" when the page is empty
  std::string last_oid;
  bool resident = false;   // was the frame pooled when PAGEDIR was written
};

struct PageDirectory {
  uint64_t page_bytes = 0;
  uint64_t eof_slots = 0;
  std::string codec;             // engine-level codec name
  std::vector<PageDirEntry> pages;
};

// Parses `<dir>/PAGEDIR` (validating its trailer CRC).
Result<PageDirectory> ReadPageDirectory(const std::string& dir);

// Dumps the page directory to `out` (when non-null) and audits every page
// against pages.gsp: CRC over the stored bytes, then — when the codec is
// known — a decode check that the payload expands to exactly `raw_bytes`,
// then a parse of the page's records through the fault path's decoder
// (serialize.h DecodeObjectRecords) that must match the directory's
// `objects` count and first/last OID. Per-page lines include the codec id
// and the stored/raw ratio. kDataLoss naming the page on any CRC, decode
// or record mismatch, and on a codec id this build does not recognize (a
// cold file must never be silently misread).
Status VerifyPagedImage(const std::string& dir, std::ostream* out);

}  // namespace gsv

#endif  // GSV_OEM_PAGED_ENGINE_H_
