#ifndef GSV_STORAGE_WAL_H_
#define GSV_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/view_delta.h"
#include "util/status.h"
#include "warehouse/update_event.h"

namespace gsv {

// Binary write-ahead log for the warehouse durability subsystem.
//
// The log records, in integration order:
//
//   * every UpdateEvent the warehouse accepted from a source channel
//     (after duplicate dropping), tagged with the source name — enough to
//     re-run maintenance from scratch;
//   * every view-maintenance delta actually applied to a materialized view
//     (V_insert / V_delete / value sync / delegate refresh) — enough to
//     redo maintenance *without* re-running Algorithm 1 or querying any
//     source;
//   * commit records marking group boundaries. The warehouse appends one
//     per drain (a ProcessPendingBatch slice, or one inline event drained
//     alone), carrying the per-source sequence watermarks as of
//     that instant. Everything between two commits is one group: either
//     all of a group's deltas are redone on recovery, or (for the
//     uncommitted tail) the events are replayed through live maintenance
//     instead;
//   * view-definition records, so recovery knows which views existed even
//     without a checkpoint.
//
// On-disk format. A log is a directory of segment files named
// `wal-<first-lsn, 12 digits>.log`; LSNs increase by exactly 1 per record,
// so segment boundaries are recoverable from the names alone. Each record
// is framed as
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//   payload = [u8 type][u64 lsn][type-specific body]
//
// with all integers little-endian and every OID written as its string (the
// dense interned ids are process-local and do not survive a restart). A
// record is written with a single write(2) call, so a crash tears at most
// the final record; ScanWal detects the torn tail by length/CRC and reports
// the byte offset to truncate back to.
//
// Fsync policy trade-offs (see DESIGN.md §4e): kAlways makes every record
// durable before Append returns (one fsync per record — safest, slowest);
// kCommit syncs once per commit record, i.e. once per drained batch, so a
// crash can lose at most the uncommitted tail of the current group (which
// recovery re-derives from the sources' current state anyway — the
// convergence argument of the deferred drain); kNever leaves syncing to the
// OS (benchmarks, bulk loads).

// CRC-32 (IEEE 802.3 polynomial, reflected). `seed` chains incremental
// computations: pass the previous return value to continue a running CRC.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

enum class FsyncPolicy {
  kNever = 0,   // never fsync (OS decides)
  kCommit = 1,  // fsync on commit records (group commit)
  kAlways = 2,  // fsync after every record
};
const char* FsyncPolicyName(FsyncPolicy policy);

enum class WalRecordType : uint8_t {
  kEvent = 1,      // accepted source UpdateEvent
  kViewDelta = 2,  // applied view-maintenance delta
  kCommit = 3,     // group boundary + source watermarks
  kViewDef = 4,    // DefineView
  kEpoch = 5,      // writer-epoch segment header (replication fencing)
};

// Per-source sequence watermark carried by commit records: the sequence of
// the last event integrated from that source (SourceMonitor numbering).
struct WalWatermark {
  std::string source;
  uint64_t last_sequence = 0;
  bool operator==(const WalWatermark& other) const {
    return source == other.source && last_sequence == other.last_sequence;
  }
};

// One decoded log record. Which fields are meaningful depends on `type`;
// unused fields keep their defaults. The builders below fill exactly the
// fields their record type owns.
struct WalRecord {
  WalRecordType type = WalRecordType::kCommit;
  uint64_t lsn = 0;  // assigned by Wal::Append

  // kEvent
  std::string source;
  UpdateEvent event;

  // kViewDelta: a delta applied to the view named `view`
  std::string view;
  ViewDelta delta;

  // kCommit
  std::vector<WalWatermark> watermarks;

  // kViewDef
  std::string definition;
  int cache_mode = 0;  // Warehouse::CacheMode as int
  bool deferred = false;

  // kEpoch: the writer's fencing epoch and an informational owner id. A
  // writer opening or rolling a segment stamps one of these first, so a
  // reader (crash recovery, a replication follower) can tell which primary
  // generation produced every byte that follows — the segment-header half
  // of the split-brain fence.
  uint64_t epoch = 0;
  std::string owner;

  // Reader-side provenance (not serialized): where the record starts and
  // ends inside its segment file. Recovery truncates at these offsets.
  std::string segment;
  uint64_t offset = 0;
  uint64_t end_offset = 0;

  static WalRecord Event(std::string source, UpdateEvent event);
  static WalRecord Epoch(uint64_t epoch, std::string owner);
  static WalRecord Delta(std::string view, ViewDelta delta);
  static WalRecord Commit(std::vector<WalWatermark> watermarks);
  static WalRecord ViewDef(std::string definition, int cache_mode,
                           std::string source);
};

// ---- Epoch fence (replication failover) ----
//
// A durability directory may carry a FENCE file naming the minimum writer
// epoch allowed to append. Promotion of a read replica bumps the fence in
// the old primary's home; the old primary's next append observes the higher
// fence and is rejected (kFailedPrecondition), so two writers can never
// both commit into one log — the no-split-brain guarantee. Writers that
// never set a writer_epoch (plain single-node durability) skip the check
// entirely and behave exactly as before.
struct FenceInfo {
  uint64_t epoch = 0;   // minimum epoch allowed to write; 0 = unfenced
  std::string owner;    // informational: who holds the fence
};

// Reads <dir>/FENCE. A missing file yields epoch 0 (unfenced); a malformed
// file is a corruption error.
Result<FenceInfo> ReadFence(const std::string& dir);
// Atomically (tmp + rename) writes <dir>/FENCE.
Status WriteFence(const std::string& dir, uint64_t epoch,
                  const std::string& owner);
// True when `status` is a fence rejection from Wal::Append/Roll.
bool IsFencedStatus(const Status& status);

// Append side. Thread-compatible: callers hold the warehouse's external
// synchronization (the same discipline as every other mutation).
class Wal {
 public:
  struct Options {
    FsyncPolicy fsync = FsyncPolicy::kCommit;
    // Fencing: when writer_epoch > 0 the writer claims the directory's
    // fence on open (rejected if the standing fence is higher), stamps a
    // kEpoch header record into every segment it opens or rolls, and
    // re-checks the fence before every append so a concurrent promotion
    // cuts it off at the next write.
    uint64_t writer_epoch = 0;
    std::string owner;  // informational fence holder / epoch-record id
  };

  // Opens `dir` (created if missing) for appending. New records continue
  // the newest existing segment; when the directory has none, the first
  // segment is created as wal-<next_lsn>.log. `next_lsn` must be one past
  // the last valid record on disk (ScanWal().next_lsn after truncation).
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           const Options& options,
                                           uint64_t next_lsn);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Stamps record.lsn, frames and appends it. Fsyncs under kAlways, and for
  // kCommit records also under kCommit (group commit).
  Status Append(WalRecord record);

  // Flushes the active segment to stable storage now.
  Status Sync();

  // Closes the active segment and starts a fresh one named after the next
  // LSN. Called by the checkpoint writer so a durable checkpoint can retire
  // all earlier segments wholesale.
  Status Roll();

  uint64_t next_lsn() const { return next_lsn_; }
  const std::string& dir() const { return dir_; }
  int64_t bytes_written() const { return bytes_written_; }
  int64_t records_appended() const { return records_appended_; }

  // ---- Crash injection (tests) ----
  //
  // After `budget` more payload bytes, the next write is cut short mid-
  // record (a torn tail, exactly as a power loss would leave) and the Wal
  // enters a permanently failed state: every later Append/Sync returns
  // kDataLoss. Negative budget disables injection.
  void set_crash_after_bytes(int64_t budget) { crash_budget_ = budget; }
  bool crashed() const { return crashed_; }

 private:
  Wal(std::string dir, Options options, uint64_t next_lsn)
      : dir_(std::move(dir)), options_(options), next_lsn_(next_lsn) {}

  Status OpenSegment(const std::string& path);
  Status WriteFrame(const std::string& payload);
  // kFailedPrecondition when the directory's fence exceeds writer_epoch.
  Status CheckFence() const;

  std::string dir_;
  Options options_;
  uint64_t next_lsn_ = 1;
  int fd_ = -1;
  std::string active_segment_;
  int64_t bytes_written_ = 0;
  int64_t records_appended_ = 0;
  int64_t crash_budget_ = -1;
  bool crashed_ = false;
};

// One segment file, in LSN order.
struct WalSegmentInfo {
  std::string path;        // full path
  std::string name;        // file name
  uint64_t first_lsn = 0;  // from the name
};

// Lists the segment files of `dir`, sorted by first LSN. An empty or
// missing directory yields an empty list. Unrelated files (checkpoints,
// CURRENT, FENCE, editor droppings) never fail the enumeration: anything
// that is not a well-formed `wal-<digits>.log` regular file is skipped,
// and names that *look* like segments but are malformed (bad digits, a
// directory, a stray suffix) are reported through `warnings` when given.
Result<std::vector<WalSegmentInfo>> ListWalSegments(
    const std::string& dir, std::vector<std::string>* warnings = nullptr);

// Result of scanning a whole log directory.
struct WalScan {
  std::vector<WalRecord> records;  // every valid record, in LSN order
  uint64_t next_lsn = 1;           // one past the last valid record
  // A record failed framing/CRC/LSN validation. Everything from
  // (torn_segment, torn_offset) on is invalid; valid_records holds only the
  // prefix. TruncateWal cuts the log back to this point.
  bool torn = false;
  std::string torn_segment;  // file name within dir
  uint64_t torn_offset = 0;  // keep [0, torn_offset) of that segment
  uint64_t torn_bytes = 0;   // bytes past the valid prefix, all segments
};

// Reads and validates every segment of `dir`. Never modifies the files.
//
// A torn or corrupt record is only survivable where a crash can produce
// one: in the *final* segment (the active tail a power loss tears). There
// the scan reports `torn` and the valid prefix, and recovery truncates.
// The same damage in a non-final segment means committed history was
// corrupted after the fact (bit rot, tampering, a mis-shipped replica
// segment) — no truncation can honestly repair that, so the scan fails
// loudly with kDataLoss instead of silently dropping the suffix.
Result<WalScan> ScanWal(const std::string& dir);

// Truncates `segment` (a file name within `dir`) to `offset` bytes and
// deletes every later segment — the mutation matching a torn WalScan.
Status TruncateWal(const std::string& dir, const std::string& segment,
                   uint64_t offset);

// ---- Record codec (exposed for wal_inspect and tests) ----

// One frame decoded from a byte buffer. kIncomplete means the buffer ends
// inside the frame (more bytes may complete it); kCorrupt means no number
// of further bytes can make it valid (length over the cap, CRC mismatch,
// undecodable payload). Crash recovery treats both as a tear; a follower
// waits on kIncomplete and refetches on kCorrupt.
enum class WalFrameStatus { kRecord, kIncomplete, kCorrupt };
struct WalFrame {
  WalFrameStatus status = WalFrameStatus::kIncomplete;
  WalRecord record;  // kRecord only
  size_t size = 0;   // bytes the frame occupies (kRecord only)
};
// Decodes the frame that starts at `offset` of `data`.
WalFrame DecodeWalFrame(const std::string& data, size_t offset);

// Serializes the payload (type + lsn + body, no frame).
std::string EncodeWalPayload(const WalRecord& record);
// Parses a payload produced by EncodeWalPayload.
Result<WalRecord> DecodeWalPayload(const std::string& payload);
// Human-readable one-line form (wal_inspect).
std::string WalRecordToString(const WalRecord& record);

}  // namespace gsv

#endif  // GSV_STORAGE_WAL_H_
