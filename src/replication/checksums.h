#ifndef GSV_REPLICATION_CHECKSUMS_H_
#define GSV_REPLICATION_CHECKSUMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace gsv {

class MaterializedView;
class Warehouse;
class ShardedWarehouse;

// Divergence detection (replication §4g): the primary periodically stamps a
// CHECKSUMS file into its durability home — one CRC per view over the
// canonical ViewContentLines, tagged with the WAL LSN the state reflects.
// A follower whose applied watermark reaches exactly that LSN must hold
// byte-identical view content; a checksum mismatch there is proof of
// divergence (a replica bug, local bit rot, a mis-applied group) and
// triggers the follower's self-heal: discard local state and re-seed from
// the primary's checkpoint. Checksums at non-matching LSNs say nothing —
// the follower simply skips them.

struct ViewChecksum {
  std::string view;
  uint32_t crc = 0;        // over the canonical content lines
  uint64_t members = 0;    // line count (cheap first-level comparison)
};

struct ChecksumStamp {
  uint64_t lsn = 0;  // WAL LSN the checksummed state reflects
  std::vector<ViewChecksum> views;
};

// Name of the stamp file within a durability home.
inline const char* ChecksumFileName() { return "CHECKSUMS"; }

// The checksum of `view` stamped under `name`: CRC-32 over its canonical
// content lines ("<oid> <line>\n", chained) plus their count.
ViewChecksum ChecksumView(const std::string& name,
                          const MaterializedView& view);

// Text codec (one "lsn" line, then one "view <crc> <members> <name>" per
// view; names may contain spaces).
std::string EncodeChecksumStamp(const ChecksumStamp& stamp);
Result<ChecksumStamp> DecodeChecksumStamp(const std::string& text);

// Materializes the *committed* state of a durability home on disk —
// checkpoint image plus the committed log zone, the same redo path
// recovery and replicas use — and returns one checksum per view at that
// watermark. Read-only: nothing in `dir` is modified (a torn tail is
// ignored, not truncated). This is what `wal_inspect diff` compares.
Result<ChecksumStamp> ChecksumDurabilityHome(const std::string& dir);

// Stamps every view of a quiescent, durable warehouse and atomically
// (tmp + rename) publishes <dir>/CHECKSUMS. kFailedPrecondition when the
// warehouse is not durable or has pending events (the stamp would not
// correspond to a commit watermark).
Status PublishChecksums(Warehouse& warehouse);
// Per-shard stamps: each shard home gets a CHECKSUMS over its own slice.
Status PublishChecksums(ShardedWarehouse& warehouse);

}  // namespace gsv

#endif  // GSV_REPLICATION_CHECKSUMS_H_
