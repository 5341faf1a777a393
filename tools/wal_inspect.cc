// Inspects a warehouse durability directory (WAL segments + checkpoints).
//
// Usage:
//   wal_inspect dump <dir>          print every valid log record, one per line
//   wal_inspect verify <dir>        validate frames/CRCs/LSNs; report tears
//   wal_inspect checkpoints <dir>   list checkpoints and the newest manifest
//   wal_inspect apply <dir> <out>   replay the logged base updates into an
//                                   empty store and save it as <out> (text)
//   wal_inspect diff <dirA> <dirB>  compare two durability homes: segment
//                                   LSN ranges/bytes and the view-content
//                                   checksums of their committed states
//                                   (primary vs replica divergence check)
//   wal_inspect pages <dir>         dump a paged storage engine's page
//                                   directory — per-page codec id and
//                                   stored/raw compression ratio included —
//                                   and audit every on-disk page: CRC over
//                                   the stored bytes, then a decode check
//                                   for known codecs, then a record parse
//                                   that must match the directory's object
//                                   count and first/last OID; <dir> is an engine
//                                   home (holds PAGEDIR) or a parent whose
//                                   subdirectories are engine homes
//
// A ShardedWarehouse durability directory holds one sub-directory per shard
// (shard-0, shard-1, ...), each a complete WAL+checkpoint home of its own.
// When <dir> looks like one, every command enumerates the shard
// sub-directories, runs against each under a "=== shard-<i> ===" banner
// (apply writes <out>.shard-<i> per shard — the routed slices are not
// totally ordered against each other, so they are not merged), and exits
// with the worst per-shard status.
//
// Exit status: 0 clean, 1 when verify finds a torn/corrupt tail or diff
// finds divergence, 2 on error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "oem/paged_engine.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "replication/checksums.h"
#include "storage/checkpoint.h"
#include "storage/recovery.h"
#include "storage/wal.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s dump|verify|checkpoints|pages <dir>\n"
               "       %s apply <dir> <out.gsv>\n"
               "       %s diff <dirA> <dirB>\n",
               argv0, argv0, argv0);
  return 2;
}

void PrintWarnings(const std::vector<std::string>& warnings) {
  for (const std::string& warning : warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
}

int Dump(const std::string& dir) {
  auto scan = gsv::ScanWal(dir);
  if (!scan.ok()) {
    std::fprintf(stderr, "scan failed: %s\n", scan.status().ToString().c_str());
    return 2;
  }
  for (const gsv::WalRecord& record : scan.value().records) {
    std::printf("%s\n", gsv::WalRecordToString(record).c_str());
  }
  return 0;
}

int Verify(const std::string& dir) {
  std::vector<std::string> warnings;
  auto segments = gsv::ListWalSegments(dir, &warnings);
  PrintWarnings(warnings);
  if (!segments.ok()) {
    std::fprintf(stderr, "%s\n", segments.status().ToString().c_str());
    return 2;
  }
  auto scan = gsv::ScanWal(dir);
  if (!scan.ok()) {
    std::fprintf(stderr, "scan failed: %s\n", scan.status().ToString().c_str());
    return 2;
  }
  const gsv::WalScan& result = scan.value();
  std::printf("%zu segment(s), %zu valid record(s), next lsn %llu\n",
              segments.value().size(), result.records.size(),
              static_cast<unsigned long long>(result.next_lsn));
  if (!result.torn) {
    std::printf("log is clean\n");
    return 0;
  }
  std::printf("TORN at %s offset %llu (%llu byte(s) past the valid prefix)\n",
              result.torn_segment.c_str(),
              static_cast<unsigned long long>(result.torn_offset),
              static_cast<unsigned long long>(result.torn_bytes));
  return 1;
}

// Prints the §5.2 auxiliary cache images a checkpoint carries: header line,
// size, line count — enough to see what recovery will adopt without flooding
// the terminal. Discrimination networks carry no image; recovery rebuilds
// them from the base.
void DumpImages(const std::unordered_map<std::string, std::string>& images) {
  std::vector<std::string> names;
  names.reserve(images.size());
  for (const auto& [name, text] : images) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const std::string& text = images.at(name);
    const size_t newline = text.find('\n');
    const std::string header =
        newline == std::string::npos ? text : text.substr(0, newline);
    const size_t lines =
        static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
    std::printf("  cache image %s: \"%s\", %zu byte(s), %zu line(s)\n",
                name.c_str(), header.c_str(), text.size(), lines);
  }
}

int Checkpoints(const std::string& dir) {
  auto list = gsv::ListCheckpoints(dir);
  if (!list.ok()) {
    std::fprintf(stderr, "%s\n", list.status().ToString().c_str());
    return 2;
  }
  for (const gsv::CheckpointInfo& info : list.value()) {
    std::printf("%s\n", info.name.c_str());
  }
  auto latest = gsv::LoadLatestCheckpoint(dir);
  if (!latest.ok()) {
    std::printf("no usable checkpoint: %s\n",
                latest.status().ToString().c_str());
    return 0;
  }
  const gsv::CheckpointManifest& manifest = latest.value().manifest;
  std::printf("latest: %s (id %llu, wal_lsn %llu)\n",
              latest.value().dir_name.c_str(),
              static_cast<unsigned long long>(manifest.id),
              static_cast<unsigned long long>(manifest.wal_lsn));
  for (const gsv::WalWatermark& mark : manifest.watermarks) {
    std::printf("  source %s last_sequence %llu\n", mark.source.c_str(),
                static_cast<unsigned long long>(mark.last_sequence));
  }
  for (const gsv::CheckpointViewState& view : manifest.views) {
    std::printf("  view %s (source %s, cache_mode %d%s): %s\n",
                view.name.c_str(), view.source.c_str(), view.cache_mode,
                view.stale ? ", STALE" : "", view.definition.c_str());
  }
  DumpImages(latest.value().cache_texts);
  return 0;
}

int Apply(const std::string& dir, const std::string& out_path) {
  auto scan = gsv::ScanWal(dir);
  if (!scan.ok()) {
    std::fprintf(stderr, "scan failed: %s\n", scan.status().ToString().c_str());
    return 2;
  }
  gsv::ObjectStore store;
  auto applied = gsv::ReplayEventsInto(scan.value().records, &store);
  if (!applied.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 applied.status().ToString().c_str());
    return 2;
  }
  gsv::Status saved = gsv::SaveStoreToFile(store, out_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 2;
  }
  std::printf("applied %zu update(s), %zu object(s) -> %s\n", applied.value(),
              store.size(), out_path.c_str());
  return 0;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Compares two durability homes. Divergence — shared segment bytes that
// disagree, or view content that differs — exits 1. One home simply being
// *behind* the other (shorter segment files, older watermark: the normal
// state of a lagging replica) is reported but is still divergence for the
// purposes of the exit status: the caller asked whether the homes match.
int Diff(const std::string& dir_a, const std::string& dir_b) {
  std::vector<std::string> warnings;
  auto segments_a = gsv::ListWalSegments(dir_a, &warnings);
  auto segments_b = gsv::ListWalSegments(dir_b, &warnings);
  PrintWarnings(warnings);
  if (!segments_a.ok() || !segments_b.ok()) {
    std::fprintf(stderr, "%s\n",
                 (segments_a.ok() ? segments_b.status() : segments_a.status())
                     .ToString()
                     .c_str());
    return 2;
  }

  int divergences = 0;
  std::map<std::string, int> sides;  // 1 = A, 2 = B, 3 = both
  for (const auto& info : segments_a.value()) sides[info.name] |= 1;
  for (const auto& info : segments_b.value()) sides[info.name] |= 2;
  for (const auto& [name, side] : sides) {
    if (side != 3) {
      // Segment sets may legitimately differ: checkpoints retire covered
      // segments independently on each side. Report, don't flag.
      std::printf("segment %s: only in %s\n", name.c_str(),
                  side == 1 ? dir_a.c_str() : dir_b.c_str());
      continue;
    }
    const std::string bytes_a = ReadFileBytes(dir_a + "/" + name);
    const std::string bytes_b = ReadFileBytes(dir_b + "/" + name);
    const size_t shared = std::min(bytes_a.size(), bytes_b.size());
    if (bytes_a.compare(0, shared, bytes_b, 0, shared) != 0) {
      std::printf("segment %s: DIVERGED (shared %zu-byte prefix differs)\n",
                  name.c_str(), shared);
      ++divergences;
    } else if (bytes_a.size() != bytes_b.size()) {
      std::printf("segment %s: %s is behind by %zu byte(s)\n", name.c_str(),
                  bytes_a.size() < bytes_b.size() ? dir_a.c_str()
                                                  : dir_b.c_str(),
                  bytes_a.size() > bytes_b.size()
                      ? bytes_a.size() - bytes_b.size()
                      : bytes_b.size() - bytes_a.size());
      ++divergences;
    } else {
      std::printf("segment %s: identical (%zu byte(s))\n", name.c_str(),
                  bytes_a.size());
    }
  }

  auto stamp_a = gsv::ChecksumDurabilityHome(dir_a);
  auto stamp_b = gsv::ChecksumDurabilityHome(dir_b);
  if (!stamp_a.ok() || !stamp_b.ok()) {
    std::fprintf(stderr, "%s\n",
                 (stamp_a.ok() ? stamp_b.status() : stamp_a.status())
                     .ToString()
                     .c_str());
    return 2;
  }
  std::printf("committed lsn: %llu vs %llu\n",
              static_cast<unsigned long long>(stamp_a.value().lsn),
              static_cast<unsigned long long>(stamp_b.value().lsn));
  if (stamp_a.value().lsn != stamp_b.value().lsn) ++divergences;

  std::map<std::string, std::pair<const gsv::ViewChecksum*,
                                  const gsv::ViewChecksum*>>
      by_view;
  for (const auto& view : stamp_a.value().views) {
    by_view[view.view].first = &view;
  }
  for (const auto& view : stamp_b.value().views) {
    by_view[view.view].second = &view;
  }
  for (const auto& [name, pair] : by_view) {
    if (pair.first == nullptr || pair.second == nullptr) {
      std::printf("view %s: only in %s\n", name.c_str(),
                  pair.first != nullptr ? dir_a.c_str() : dir_b.c_str());
      ++divergences;
    } else if (pair.first->crc != pair.second->crc ||
               pair.first->members != pair.second->members) {
      std::printf("view %s: DIVERGED (crc %u/%llu vs %u/%llu)\n",
                  name.c_str(), pair.first->crc,
                  static_cast<unsigned long long>(pair.first->members),
                  pair.second->crc,
                  static_cast<unsigned long long>(pair.second->members));
      ++divergences;
    } else {
      std::printf("view %s: identical (crc %u, %llu member(s))\n",
                  name.c_str(), pair.first->crc,
                  static_cast<unsigned long long>(pair.first->members));
    }
  }

  if (divergences == 0) {
    std::printf("homes match\n");
    return 0;
  }
  std::printf("%d divergence(s)\n", divergences);
  return 1;
}

// Dumps and audits a paged storage engine image (oem/paged_engine.h):
// every PAGEDIR entry is printed (with its codec and stored/raw ratio),
// each page's extent is read back from pages.gsp, CRC-checked against the
// directory, decode-checked when the codec is known, and its records
// parsed and matched against the directory's object count and first/last
// OID. Exit 1 on corruption (trailer/page CRC mismatch, failed decode,
// record mismatch) or a codec id this build does not recognize; 2 when no
// image exists at all.
int PagesOne(const std::string& home) {
  std::ostringstream out;
  gsv::Status status = gsv::VerifyPagedImage(home, &out);
  std::fputs(out.str().c_str(), stdout);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    return status.code() == gsv::StatusCode::kDataLoss ? 1 : 2;
  }
  return 0;
}

int Pages(const std::string& dir) {
  std::error_code ec;
  if (std::filesystem::exists(dir + "/PAGEDIR", ec)) return PagesOne(dir);
  // A parent of engine homes (eng-<n> scratch dirs, one per store): verify
  // each child that holds a directory file, in sorted order.
  std::vector<std::string> homes;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::error_code child_ec;
    if (entry.is_directory(child_ec) &&
        std::filesystem::exists(entry.path() / "PAGEDIR", child_ec)) {
      homes.push_back(entry.path().string());
    }
  }
  if (homes.empty()) {
    std::fprintf(stderr, "no paged-engine image (PAGEDIR) under %s\n",
                 dir.c_str());
    return 2;
  }
  std::sort(homes.begin(), homes.end());
  int worst = 0;
  for (const std::string& home : homes) {
    std::printf("=== %s ===\n", home.c_str());
    int status = PagesOne(home);
    if (status > worst) worst = status;
  }
  return worst;
}

// Shard homes of a ShardedWarehouse durability directory: shard-0..shard-K
// in index order. Empty when `dir` is a plain single-warehouse home.
std::vector<std::string> ShardDirs(const std::string& dir) {
  std::vector<std::string> dirs;
  for (uint32_t i = 0;; ++i) {
    std::string sub = dir + "/shard-" + std::to_string(i);
    std::error_code ec;
    if (!std::filesystem::is_directory(sub, ec)) break;
    dirs.push_back(std::move(sub));
  }
  return dirs;
}

int RunCommand(const std::string& command, const std::string& dir,
               const char* out) {
  if (command == "dump") return Dump(dir);
  if (command == "verify") return Verify(dir);
  if (command == "checkpoints") return Checkpoints(dir);
  if (command == "apply") return Apply(dir, out);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage(argv[0]);
  std::string command = argv[1];
  std::string dir = argv[2];
  if (command == "diff") {
    if (argc != 4) return Usage(argv[0]);
    std::string dir_b = argv[3];
    std::vector<std::string> shards_a = ShardDirs(dir);
    std::vector<std::string> shards_b = ShardDirs(dir_b);
    if (shards_a.size() != shards_b.size()) {
      std::fprintf(stderr,
                   "shard layout mismatch: %zu shard home(s) vs %zu\n",
                   shards_a.size(), shards_b.size());
      return 1;
    }
    if (shards_a.empty()) return Diff(dir, dir_b);
    int worst = 0;
    for (size_t i = 0; i < shards_a.size(); ++i) {
      std::printf("=== shard-%zu ===\n", i);
      int status = Diff(shards_a[i], shards_b[i]);
      if (status > worst) worst = status;
    }
    return worst;
  }
  if (command == "pages") {
    // Paged-engine homes are not durability homes; Pages does its own
    // child-directory enumeration instead of the shard-<i> convention.
    if (argc != 3) return Usage(argv[0]);
    return Pages(dir);
  }
  bool takes_out = command == "apply";
  if (command != "dump" && command != "verify" && command != "checkpoints" &&
      !takes_out) {
    return Usage(argv[0]);
  }
  if (argc != (takes_out ? 4 : 3)) return Usage(argv[0]);

  std::vector<std::string> shard_dirs = ShardDirs(dir);
  if (shard_dirs.empty()) {
    return RunCommand(command, dir, takes_out ? argv[3] : nullptr);
  }
  int worst = 0;
  for (size_t i = 0; i < shard_dirs.size(); ++i) {
    std::printf("=== shard-%zu ===\n", i);
    std::string out;
    if (takes_out) out = std::string(argv[3]) + ".shard-" + std::to_string(i);
    int status =
        RunCommand(command, shard_dirs[i], takes_out ? out.c_str() : nullptr);
    if (status > worst) worst = status;
  }
  return worst;
}
