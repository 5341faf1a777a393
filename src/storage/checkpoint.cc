#include "storage/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "oem/serialize.h"
#include "oem/store.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gsv {

namespace fs = std::filesystem;

namespace {

constexpr char kManifestMagic[] = "gsv-checkpoint 1";
constexpr char kCurrentName[] = "CURRENT";
constexpr char kManifestName[] = "MANIFEST";
constexpr char kStoreName[] = "store.gsv";
constexpr char kCheckpointPrefix[] = "checkpoint-";
constexpr int kCheckpointIdDigits = 6;

std::string CheckpointDirName(uint64_t id) {
  std::string digits = std::to_string(id);
  std::string name = kCheckpointPrefix;
  name.append(
      kCheckpointIdDigits - std::min<size_t>(digits.size(), kCheckpointIdDigits),
      '0');
  name += digits;
  return name;
}

std::string CacheFileName(const std::string& view) {
  return "cache-" + view + ".gsv";
}

// Validates one checkpoint directory end to end and loads its contents.
// Every file the manifest lists is CRC- and size-checked; one this version
// does not read (an older home's gdn-<view>.gsv network image) is then
// ignored, since recovery rebuilds networks from the base.
Result<LoadedCheckpoint> LoadCheckpointDir(const std::string& path,
                                           const std::string& name) {
  GSV_ASSIGN_OR_RETURN(std::string manifest_text,
                       ReadFile(path + "/" + kManifestName));
  std::vector<std::pair<std::string, std::pair<uint32_t, uint64_t>>> files;
  GSV_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                       DecodeCheckpointManifest(manifest_text, &files));
  LoadedCheckpoint loaded;
  loaded.manifest = std::move(manifest);
  loaded.dir_name = name;
  for (const auto& [file_name, crc_size] : files) {
    GSV_ASSIGN_OR_RETURN(std::string content,
                         ReadFile(path + "/" + file_name));
    if (content.size() != crc_size.second ||
        Crc32(content.data(), content.size()) != crc_size.first) {
      return Status::DataLoss("checkpoint: " + path + "/" + file_name +
                              " fails CRC/size validation");
    }
    if (file_name == kStoreName) {
      loaded.store_text = std::move(content);
    } else if (StartsWith(file_name, "cache-") &&
               EndsWith(file_name, ".gsv")) {
      std::string view =
          file_name.substr(6, file_name.size() - 6 - 4);  // "cache-"..".gsv"
      loaded.cache_texts[view] = std::move(content);
    }
  }
  if (loaded.store_text.empty() &&
      std::none_of(files.begin(), files.end(),
                   [](const auto& f) { return f.first == kStoreName; })) {
    return Status::DataLoss("checkpoint: " + path + " has no store image");
  }
  return loaded;
}

}  // namespace

std::string EncodeCheckpointManifest(
    const CheckpointManifest& manifest,
    const std::vector<std::pair<std::string, std::string>>& files) {
  std::ostringstream out;
  out << kManifestMagic << '\n';
  out << "id " << manifest.id << '\n';
  out << "wal_lsn " << manifest.wal_lsn << '\n';
  for (const WalWatermark& mark : manifest.watermarks) {
    out << "source " << mark.source << ' ' << mark.last_sequence << '\n';
  }
  for (const CheckpointViewState& view : manifest.views) {
    // The free-form definition text goes last: rest-of-line on decode.
    out << "view " << view.name << ' ' << view.source << ' '
        << view.cache_mode << ' ' << (view.stale ? 1 : 0) << ' '
        << view.definition << '\n';
  }
  for (const auto& [name, content] : files) {
    out << "file " << name << ' ' << Crc32(content.data(), content.size())
        << ' ' << content.size() << '\n';
  }
  out << "end\n";
  return out.str();
}

Result<CheckpointManifest> DecodeCheckpointManifest(
    const std::string& text,
    std::vector<std::pair<std::string, std::pair<uint32_t, uint64_t>>>*
        files) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != kManifestMagic) {
    return Status::DataLoss("checkpoint manifest: bad magic");
  }
  CheckpointManifest manifest;
  bool complete = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "end") {
      complete = true;
      break;
    }
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (keyword == "id") {
      fields >> manifest.id;
    } else if (keyword == "wal_lsn") {
      fields >> manifest.wal_lsn;
    } else if (keyword == "source") {
      WalWatermark mark;
      fields >> mark.source >> mark.last_sequence;
      manifest.watermarks.push_back(std::move(mark));
    } else if (keyword == "view") {
      CheckpointViewState view;
      int stale = 0;
      fields >> view.name >> view.source >> view.cache_mode >> stale;
      // The manifest has no CRC of its own: reject a cache mode or stale
      // flag no writer produces, so a damaged manifest falls back to the
      // previous checkpoint instead of restoring a bogus view.
      if (view.cache_mode < 0 || view.cache_mode > 2 ||
          (stale != 0 && stale != 1)) {
        return Status::DataLoss("checkpoint manifest: bad cache mode or "
                                "stale flag in '" + line + "'");
      }
      view.stale = stale != 0;
      std::getline(fields, view.definition);
      // Trim the single separating space left by >>.
      if (!view.definition.empty() && view.definition.front() == ' ') {
        view.definition.erase(0, 1);
      }
      manifest.views.push_back(std::move(view));
    } else if (keyword == "file") {
      std::string name;
      uint32_t crc = 0;
      uint64_t size = 0;
      fields >> name >> crc >> size;
      if (files != nullptr) files->emplace_back(name, std::make_pair(crc, size));
    } else {
      return Status::DataLoss("checkpoint manifest: unknown keyword '" +
                              keyword + "'");
    }
    if (fields.fail()) {
      return Status::DataLoss("checkpoint manifest: malformed line '" + line +
                              "'");
    }
  }
  if (!complete) {
    // A manifest without its "end" sentinel was cut short mid-write.
    return Status::DataLoss("checkpoint manifest: truncated (no end marker)");
  }
  return manifest;
}

Result<std::vector<CheckpointInfo>> ListCheckpoints(const std::string& dir) {
  std::vector<CheckpointInfo> checkpoints;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return checkpoints;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (!StartsWith(name, kCheckpointPrefix) || EndsWith(name, ".tmp")) {
      continue;
    }
    std::optional<int64_t> id =
        ParseInt64(name.substr(std::strlen(kCheckpointPrefix)));
    if (!id.has_value() || *id < 0) continue;
    checkpoints.push_back(CheckpointInfo{entry.path().string(), name,
                                         static_cast<uint64_t>(*id)});
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.id < b.id;
            });
  return checkpoints;
}

void RetireCoveredWalSegments(const std::string& dir) {
  auto checkpoints = ListCheckpoints(dir);
  if (!checkpoints.ok() || checkpoints.value().size() < 2) return;
  const CheckpointInfo& previous =
      checkpoints.value()[checkpoints.value().size() - 2];
  auto manifest_text = ReadFile(previous.path + "/" + kManifestName);
  if (!manifest_text.ok()) return;
  auto manifest = DecodeCheckpointManifest(manifest_text.value(), nullptr);
  auto segments = ListWalSegments(dir);
  if (!manifest.ok() || !segments.ok()) return;
  const uint64_t keep_lsn = manifest.value().wal_lsn + 1;
  const std::vector<WalSegmentInfo>& segs = segments.value();
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    // Segment i spans [first_i, first_{i+1} - 1].
    if (segs[i + 1].first_lsn <= keep_lsn) {
      std::error_code ec;
      fs::remove(segs[i].path, ec);
    }
  }
}

Status PersistCheckpoint(const std::string& dir,
                         const CheckpointCapture& capture) {
  std::vector<std::pair<std::string, std::string>> files;
  files.emplace_back(kStoreName, capture.store_text);
  for (const auto& [view, text] : capture.cache_texts) {
    files.emplace_back(CacheFileName(view), text);
  }
  return InstallCheckpoint(dir, CheckpointDirName(capture.manifest.id), files,
                           EncodeCheckpointManifest(capture.manifest, files));
}

Status InstallCheckpoint(
    const std::string& dir, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& files,
    const std::string& manifest_text) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("checkpoint: cannot create " + dir + ": " +
                            ec.message());
  }
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + ".tmp";
  fs::remove_all(tmp_path, ec);
  fs::remove_all(final_path, ec);  // re-installing the same id starts over
  fs::create_directories(tmp_path, ec);
  if (ec) {
    return Status::Internal("checkpoint: cannot create " + tmp_path + ": " +
                            ec.message());
  }
  for (const auto& [file_name, content] : files) {
    GSV_RETURN_IF_ERROR(
        WriteFileDurable(tmp_path + "/" + file_name, content));
  }
  // Manifest last: its presence certifies the data files are complete.
  GSV_RETURN_IF_ERROR(
      WriteFileDurable(tmp_path + "/" + kManifestName, manifest_text));
  GSV_RETURN_IF_ERROR(PublishDirectory(tmp_path, final_path));
  GSV_RETURN_IF_ERROR(PublishFile(dir + "/" + kCurrentName, name + "\n"));

  // Retention: the newest two checkpoints stay (this one plus the previous
  // as a fallback for a corrupt newest); anything older goes.
  GSV_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> checkpoints,
                       ListCheckpoints(dir));
  for (size_t i = 0; i + 2 < checkpoints.size(); ++i) {
    fs::remove_all(checkpoints[i].path, ec);
  }
  return Status::Ok();
}

Result<LoadedCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  // Prefer the checkpoint CURRENT names.
  Result<std::string> current = ReadFile(dir + "/" + kCurrentName);
  std::string current_name;
  if (current.ok()) {
    current_name = std::move(current).value();
    while (!current_name.empty() &&
           (current_name.back() == '\n' || current_name.back() == '\r')) {
      current_name.pop_back();
    }
    Result<LoadedCheckpoint> loaded =
        LoadCheckpointDir(dir + "/" + current_name, current_name);
    if (loaded.ok()) return loaded;
  }
  // CURRENT missing or its target invalid: fall back to the newest
  // directory that validates.
  GSV_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> checkpoints,
                       ListCheckpoints(dir));
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    if (it->name == current_name) continue;  // already tried
    Result<LoadedCheckpoint> loaded = LoadCheckpointDir(it->path, it->name);
    if (loaded.ok()) return loaded;
  }
  return Status::NotFound("no usable checkpoint under " + dir);
}

Result<std::string> ExportStoreImage(ObjectStore* store) {
  GSV_RETURN_IF_ERROR(store->FlushStorage());
  std::string text = StoreToString(*store);
  // The in-order capture scan released the pages it faulted as it went;
  // one safe point afterwards settles the pool back to budget.
  store->StorageSafePoint();
  return text;
}

Status ImportStoreImage(const std::string& text, ObjectStore* store) {
  // ReadStore safe-points every load stride; one more here bounds the tail.
  GSV_RETURN_IF_ERROR(StoreFromString(text, store));
  store->StorageSafePoint();
  return Status::Ok();
}

}  // namespace gsv
