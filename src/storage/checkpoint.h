#ifndef GSV_STORAGE_CHECKPOINT_H_
#define GSV_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/wal.h"
#include "util/status.h"

namespace gsv {

class ObjectStore;

// View checkpoints: durable snapshots of the warehouse's maintained state —
// the delegate store (every materialized view's objects plus database
// registrations), each view's §5.2 auxiliary cache, the per-source sequence
// watermarks, and the WAL position they correspond to. A checkpoint bounds
// recovery work: records at or below its wal_lsn never replay again, and
// segments older than the *previous* retained checkpoint are retired.
//
// On-disk layout under the durability directory:
//
//   checkpoint-<id, 6 digits>/
//     MANIFEST         text: id, wal_lsn, watermarks, view states, file CRCs
//     store.gsv        delegate store (oem/serialize text format)
//     cache-<view>.gsv auxiliary cache state, one per cached view
//   CURRENT            name of the newest durable checkpoint directory
//
// Writing is capture-then-persist: the warehouse captures everything into
// in-memory strings at a quiescent point (readers keep using the published
// epoch-versioned index snapshots — capture never locks them out), then
// PersistCheckpoint does all file IO into a temp directory and atomically
// renames it into place before flipping CURRENT. A crash anywhere leaves
// either the old checkpoint or the new one — never a half state. The two
// newest checkpoints are retained (the newest could be the one a crash
// interrupted CURRENT for; the previous one backstops a corrupt newest),
// older ones are deleted.

// Per-view definition state recorded in the manifest; enough to rebuild the
// ViewEntry without re-parsing WAL history.
struct CheckpointViewState {
  std::string name;
  std::string source;  // source name the view is bound to
  int cache_mode = 0;  // Warehouse::CacheMode as int (0 none / 1 labels / 2 full)
  bool stale = false;  // quarantined at capture time (re-quarantine on recovery)
  std::string definition;  // the original "define mview ..." text
};

struct CheckpointManifest {
  uint64_t id = 0;       // monotone checkpoint number
  uint64_t wal_lsn = 0;  // last WAL lsn reflected in this snapshot
  std::vector<WalWatermark> watermarks;
  std::vector<CheckpointViewState> views;
};

// An in-memory capture ready to persist.
struct CheckpointCapture {
  CheckpointManifest manifest;
  std::string store_text;  // serialized delegate store
  // (view name, serialized AuxiliaryCache) for every cached view.
  std::vector<std::pair<std::string, std::string>> cache_texts;
};

// A checkpoint read back from disk, fully validated (manifest complete,
// every data file present with matching CRC and size).
struct LoadedCheckpoint {
  CheckpointManifest manifest;
  std::string store_text;
  std::unordered_map<std::string, std::string> cache_texts;  // by view name
  std::string dir_name;  // "checkpoint-<id>"
};

struct CheckpointInfo {
  std::string path;  // full path
  std::string name;  // directory name
  uint64_t id = 0;
};

// Encodes `capture` (data files plus the manifest that certifies them) and
// installs it under `dir` with InstallCheckpoint.
Status PersistCheckpoint(const std::string& dir,
                         const CheckpointCapture& capture);

// Installs checkpoint directory `name` under `dir` (created if missing):
// `files` (name, bytes) then `manifest_text` written durably into
// `name.tmp`, the directory and then CURRENT published (util/file_io.h),
// all but the two newest checkpoints deleted. The follower's seed
// installs the primary's checkpoint through here, manifest text as is.
Status InstallCheckpoint(
    const std::string& dir, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::string& manifest_text);

// Loads the newest valid checkpoint: the one CURRENT names when it
// validates, otherwise the highest-id directory that does. kNotFound when
// the directory holds no usable checkpoint at all.
Result<LoadedCheckpoint> LoadLatestCheckpoint(const std::string& dir);

// All checkpoint directories under `dir`, sorted by id ascending. Does not
// validate their contents.
Result<std::vector<CheckpointInfo>> ListCheckpoints(const std::string& dir);

// Keep-2 segment retention: LoadLatestCheckpoint falls back at most to the
// *previous* retained checkpoint, so only records above its wal_lsn can
// matter to a future recovery. Deletes every WAL segment of `dir` that lies
// wholly at or below that LSN. Best effort: a segment that cannot be
// listed or removed stays (it only costs disk). The primary calls this
// after rolling its log past a new checkpoint, a follower after persisting
// one of its own.
void RetireCoveredWalSegments(const std::string& dir);

// ---- Store page images (storage-engine seam, DESIGN.md §4h) ----

// Captures `store` as checkpoint text, streamed in OID order, after
// flushing the storage engine's dirty pages — so a paged beyond-RAM store
// is exported within its buffer-pool budget and its on-disk page image is
// complete (CRC-verifiable) at every checkpoint.
Result<std::string> ExportStoreImage(ObjectStore* store);

// Bulk-loads checkpoint text into `store` through the engine seam, with
// periodic storage safe points bounding resident memory — recovery and
// replica seeding never materialize the full store in RAM on a paged
// engine.
Status ImportStoreImage(const std::string& text, ObjectStore* store);

// Manifest text codec (exposed for tests and wal_inspect).
std::string EncodeCheckpointManifest(
    const CheckpointManifest& manifest,
    const std::vector<std::pair<std::string, std::string>>& files);
Result<CheckpointManifest> DecodeCheckpointManifest(
    const std::string& text,
    std::vector<std::pair<std::string, std::pair<uint32_t, uint64_t>>>*
        files);  // name -> (crc, size); optional

}  // namespace gsv

#endif  // GSV_STORAGE_CHECKPOINT_H_
