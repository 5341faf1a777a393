#ifndef GSV_REPLICATION_REPLICA_H_
#define GSV_REPLICATION_REPLICA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/materialized_view.h"
#include "oem/store.h"
#include "replication/log_transport.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/retry.h"
#include "util/status.h"

namespace gsv {

// A WAL-shipped read replica of one primary durability home (DESIGN.md
// §4g). The follower never talks to a source: it seeds from the primary's
// checkpoint, tails WAL segments over a LogTransport, and applies the
// committed view-delta records through the same zero-source-query redo
// path crash recovery uses. Its local home (`options.dir`) is itself a
// valid durability directory — segment files byte-identical to the
// primary's committed prefix plus its own periodic checkpoints — so a
// follower restart recovers locally and resumes tailing, and promotion is
// nothing more than fencing the old primary and opening the local home as
// a fresh primary's WAL.
//
// The one invariant everything rests on: *only committed bytes reach the
// local mirror or the views.* Each poll refetches the remote tail past the
// last locally-committed byte, validates frames in memory (CRC, LSN
// continuity, epoch monotonicity), and materializes a group only when its
// kCommit record arrives — torn ships, duplicated chunks, bit flips, and
// a primary crash-truncating its own uncommitted tail all die in the
// poll-local buffer without ever contaminating durable state.

// What a follower does with reads once its lag exceeds the bound.
enum class StalenessPolicy {
  kServeStaleWithStatus = 0,  // serve, but flag the read as stale
  kRefuse = 1,                // fail reads with kUnavailable until caught up
};

struct ReplicaOptions {
  std::string dir;  // local mirror home (segments + own checkpoints)
  // Max bytes per transport read (several reads per poll as needed).
  uint64_t read_chunk_bytes = 64 * 1024;
  // Bounded retry/backoff around every transport call (virtual time).
  RetryPolicy retry;
  // ---- Staleness contract ----
  StalenessPolicy staleness = StalenessPolicy::kServeStaleWithStatus;
  // A read is stale when unapplied remote bytes exceed this bound...
  uint64_t max_lag_bytes = 1 * 1024 * 1024;
  // ...or this many consecutive polls failed outright (lag unknown).
  int max_failed_polls = 3;
  // Write a local follower checkpoint after this many applied records
  // (0 = never; recovery then replays the full mirrored log).
  uint64_t checkpoint_interval_records = 0;
  // Compare the primary's CHECKSUMS stamp when the watermark matches and
  // self-heal (checkpoint re-seed) on divergence.
  bool verify_checksums = true;
  // A validation failure at the same byte offset this many polls running
  // is persistent corruption, not a transport blip: self-heal by re-seed.
  int max_corrupt_rounds = 8;
  // Builds the storage engine backing the follower's delegate store (and
  // its re-seeded successors after a self-heal wipe). Called once per
  // store construction; null = memory default. With a paged engine the
  // follower seeds from the primary's checkpoint through the bulk-load
  // seam without ever materializing the full store in RAM.
  StorageEngineFactory engine_factory;
};

// The staleness watermark every read carries.
struct ReplicaStaleness {
  uint64_t applied_lsn = 0;  // last committed record applied
  std::vector<WalWatermark> watermarks;  // per-source, from that commit
  uint64_t lag_bytes = 0;    // remote bytes not yet applied (last listing)
  int failed_polls = 0;      // consecutive transport-failed polls
  bool stale = false;        // policy bound exceeded
  uint64_t epoch = 0;        // highest primary epoch observed
};

struct ReplicaStats {
  int64_t polls = 0;
  int64_t failed_polls = 0;       // total (not consecutive)
  int64_t records_applied = 0;
  int64_t deltas_applied = 0;
  int64_t commits_applied = 0;
  int64_t bytes_mirrored = 0;
  int64_t reseeds = 0;            // checkpoint seeds (initial + catch-up)
  int64_t self_heals = 0;         // reseeds forced by divergence/corruption
  int64_t checksum_checks = 0;    // stamps actually compared
  int64_t stale_epoch_rejections = 0;  // fenced-writer records refused
  int64_t corrupt_rounds = 0;     // polls aborted on frame validation
  int64_t checkpoints_written = 0;
};

// One epoch-versioned snapshot read: the canonical content lines plus the
// exact staleness watermark they reflect.
struct ReplicaViewRead {
  std::vector<std::pair<Oid, std::string>> lines;
  ReplicaStaleness staleness;
  bool served_stale = false;  // true under kServeStaleWithStatus when stale
};

class Replica {
 public:
  // `transport` ships one primary home (one WAL directory). For a sharded
  // primary, see ShardedReplica.
  Replica(std::unique_ptr<LogTransport> transport, ReplicaOptions options);
  ~Replica();
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Brings the follower to a tailing-ready state. A local home with
  // durable state recovers it locally (checkpoint + committed mirror
  // replay — the follower crash-recovery path, no transport involved);
  // an empty home seeds from the primary's checkpoint, or from LSN 1 when
  // the primary has never checkpointed. A transiently-failed seed is
  // retryable — call Start() again; once started, further calls no-op.
  Status Start();

  // One tailing round: list remote segments, fetch + validate the tail,
  // mirror and apply every complete commit group, verify checksums, maybe
  // write a local checkpoint. Transport failures surface as the returned
  // status *and* in the staleness watermark; the next poll retries.
  Status Poll();

  // Polls until a round applies nothing new and reports zero lag.
  // kDeadlineExceeded after `max_polls` rounds.
  Status CatchUp(int max_polls = 64);

  // ---- Serving (epoch-versioned snapshot reads) ----

  // Canonical content lines of `name` under the staleness policy:
  // kRefuse + stale → kUnavailable; otherwise the read carries its
  // watermark and a served_stale flag.
  Result<ReplicaViewRead> ReadView(const std::string& name) const;
  std::vector<std::string> view_names() const;
  const MaterializedView* view(const std::string& name) const;
  ReplicaStaleness staleness() const;

  // ---- Follower durability ----

  // Captures the follower's state (store, view definitions, watermarks)
  // as a checkpoint in the local home and retires fully-covered local
  // segments (keep-2, the primary's retention rule).
  Status WriteLocalCheckpoint();

  // ---- Failover ----

  // Fences the old primary and turns this follower's home into the next
  // primary's: picks epoch = max(observed, standing fence) + 1, publishes
  // it to the remote home (must succeed — an unreachable old primary
  // cannot be safely fenced by file shipping alone), stamps the same
  // fence locally, and stops tailing. Returns the new epoch; the caller
  // builds a fresh Warehouse over the sources and calls EnableDurability
  // with {dir = this->dir(), epoch = returned} to resume writes.
  Result<uint64_t> Promote(const std::string& owner);
  // Promote at a caller-chosen epoch (must exceed every standing fence) —
  // the sharded coordinator picks one common epoch for all shard homes.
  Result<uint64_t> PromoteAtEpoch(uint64_t new_epoch,
                                  const std::string& owner);
  bool promoted() const { return promoted_; }

  // ---- Introspection ----

  const std::string& dir() const { return options_.dir; }
  uint64_t applied_lsn() const { return applied_lsn_; }
  uint64_t epoch() const { return max_epoch_seen_; }
  const ReplicaStats& stats() const { return stats_; }
  const ObjectStore& store() const { return *store_; }
  LogTransport* transport() { return transport_.get(); }

 private:
  // Transport calls under the retry policy.
  Result<std::vector<TransportSegment>> ListRemote();
  Result<TransportChunk> ReadRemote(const std::string& segment,
                                    uint64_t offset, uint64_t max_bytes);
  Result<std::string> FetchRemote(const std::string& name);

  // Wipes local state and re-seeds from the primary's newest checkpoint
  // (or from scratch when it has none).
  Status ReseedFromPrimary();
  Status WipeLocal();
  // Loads the local home — its checkpoint plus the committed mirror —
  // through the shared redo path and positions tailing where it ends. A
  // follower restart and a fresh seed both end here.
  Status RecoverLocal(const RecoveryPlan& plan);
  // The follower's own bookkeeping for one committed record once the redo
  // has applied its view effects: commit watermarks, epochs, counters.
  Status ApplyRecord(const WalRecord& record);
  // Appends validated raw bytes to the local mirror segment.
  Status MirrorBytes(const std::string& segment, const std::string& bytes);
  // The tail half of Poll(): fetch/validate/apply against one listing.
  Status TailOnce(const std::vector<TransportSegment>& listing,
                  bool* progressed);
  // Fetch + compare the primary's CHECKSUMS stamp; self-heal on mismatch.
  Status VerifyChecksums();
  // Records a newly-observed writer epoch and persists it in the local
  // FENCE so it survives crashes and checkpoint-retired mirror segments.
  Status NoteEpoch(uint64_t epoch, const std::string& owner);
  uint64_t LagAgainst(const std::vector<TransportSegment>& listing) const;

  std::unique_ptr<LogTransport> transport_;
  ReplicaOptions options_;

  // Owned delegate store; replaced wholesale on re-seed (views point into
  // it, so they are rebuilt with it).
  std::unique_ptr<ObjectStore> store_;
  MaterializedViewSet views_;

  bool started_ = false;
  bool promoted_ = false;
  uint64_t applied_lsn_ = 0;  // last committed record applied
  std::vector<WalWatermark> watermarks_;
  uint64_t max_epoch_seen_ = 0;
  std::string epoch_owner_;  // owner string of max_epoch_seen_
  std::string mirror_segment_;   // local segment being appended (name)
  uint64_t mirror_offset_ = 0;   // committed bytes of that segment
  // Valid frames seen past the mirror offset but not yet committed (e.g.
  // a fresh segment's kEpoch header): excluded from the lag estimate.
  uint64_t unapplied_validated_bytes_ = 0;
  uint64_t lag_bytes_ = 0;
  int consecutive_failed_polls_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  uint64_t next_checkpoint_id_ = 1;
  uint64_t last_verified_checksum_lsn_ = 0;
  // Persistent-corruption tracker: (segment, offset) of the last aborted
  // round and how many times running it repeated.
  std::string corrupt_segment_;
  uint64_t corrupt_offset_ = 0;
  int corrupt_repeats_ = 0;
  ReplicaStats stats_;
};

// A follower fleet for a sharded primary: one Replica per shard-<i> home,
// local mirrors under <dir>/shard-<i>, reads K-way merged in canonical
// OID order — byte-identical with ShardedWarehouse::ViewContents. K must
// match the primary's shard count.
class ShardedReplica {
 public:
  // `transports[i]` ships the primary's shard-<i> home.
  ShardedReplica(std::vector<std::unique_ptr<LogTransport>> transports,
                 ReplicaOptions options);

  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }
  Replica& shard(size_t index) { return *shards_[index]; }

  Status Start();
  Status Poll();
  Status CatchUp(int max_polls = 64);

  // Merged canonical lines under the strictest shard's staleness.
  Result<ReplicaViewRead> ReadView(const std::string& name) const;
  ReplicaStaleness staleness() const;  // worst lag / failure across shards

  // Fences every shard home with one common epoch (max across shards + 1)
  // and returns it — ShardedWarehouse::EnableDurability applies it to all
  // shards on the new primary.
  Result<uint64_t> Promote(const std::string& owner);

 private:
  std::vector<std::unique_ptr<Replica>> shards_;
};

}  // namespace gsv

#endif  // GSV_REPLICATION_REPLICA_H_
