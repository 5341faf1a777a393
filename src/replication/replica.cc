#include "replication/replica.h"

#include <algorithm>
#include <filesystem>

#include "replication/checksums.h"
#include "storage/recovery.h"
#include "util/file_io.h"
#include "warehouse/sharding.h"

namespace gsv {

namespace fs = std::filesystem;

namespace {
ObjectStore::Options ReplicaStoreOptions(const StorageEngineFactory& factory) {
  ObjectStore::Options options;
  options.engine_factory = factory;
  return options;
}
}  // namespace

Replica::Replica(std::unique_ptr<LogTransport> transport,
                 ReplicaOptions options)
    : transport_(std::move(transport)),
      options_(std::move(options)),
      store_(std::make_unique<ObjectStore>(
          ReplicaStoreOptions(options_.engine_factory))),
      views_(store_.get()) {}

Replica::~Replica() = default;

// ---- Transport calls under the retry policy ----

Result<std::vector<TransportSegment>> Replica::ListRemote() {
  Result<std::vector<TransportSegment>> result =
      Status::Unavailable("replica: not attempted");
  Status status = RetryWithBackoff(options_.retry, [&]() {
    result = transport_->ListSegments();
    return result.ok() ? Status::Ok() : result.status();
  });
  if (!status.ok()) return status;
  return result;
}

Result<TransportChunk> Replica::ReadRemote(const std::string& segment,
                                           uint64_t offset,
                                           uint64_t max_bytes) {
  Result<TransportChunk> result = Status::Unavailable("replica: not attempted");
  Status status = RetryWithBackoff(options_.retry, [&]() {
    result = transport_->ReadSegment(segment, offset, max_bytes);
    return result.ok() ? Status::Ok() : result.status();
  });
  if (!status.ok()) return status;
  return result;
}

Result<std::string> Replica::FetchRemote(const std::string& name) {
  Result<std::string> result = Status::Unavailable("replica: not attempted");
  Status status = RetryWithBackoff(options_.retry, [&]() {
    result = transport_->FetchFile(name);
    return result.ok() ? Status::Ok() : result.status();
  });
  if (!status.ok()) return status;
  return result;
}

// ---- Startup / seeding ----

Status Replica::Start() {
  if (started_) return Status::Ok();
  if (options_.dir.empty()) {
    return Status::InvalidArgument("ReplicaOptions.dir is required");
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return Status::Internal("replica: cannot create " + options_.dir + ": " +
                            ec.message());
  }

  // Follower crash recovery: durable local state (own checkpoint + the
  // committed mirror) rebuilds the follower without touching the
  // transport; tailing then resumes where the mirror ends.
  // The local FENCE remembers the highest epoch this home ever accepted
  // bytes from — it must outlive checkpoints that retire the mirrored
  // segments carrying the kEpoch records themselves.
  GSV_ASSIGN_OR_RETURN(FenceInfo local_fence, ReadFence(options_.dir));
  if (local_fence.epoch > max_epoch_seen_) {
    max_epoch_seen_ = local_fence.epoch;
    epoch_owner_ = local_fence.owner;
  }

  GSV_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(options_.dir));
  if (plan.have_checkpoint || !plan.committed.empty() || !plan.tail.empty()) {
    GSV_RETURN_IF_ERROR(RecoverLocal(plan));
  } else {
    // Fresh home: seed over the transport. `started_` flips only on
    // success, so a transient transport failure here is retryable — call
    // Start() again (a partial seed is wiped and redone).
    GSV_RETURN_IF_ERROR(ReseedFromPrimary());
  }
  started_ = true;
  return Status::Ok();
}

Status Replica::RecoverLocal(const RecoveryPlan& plan) {
  // A torn local tail (killed mid-mirror-append) truncates away; the bytes
  // were part of an un-acked group and will be refetched.
  GSV_RETURN_IF_ERROR(ApplyLogTruncation(options_.dir, plan));
  GSV_RETURN_IF_ERROR(RedoCommitted(
      plan, store_.get(), &views_, nullptr,
      [this](const WalRecord& record) { return ApplyRecord(record); }));
  applied_lsn_ = plan.next_lsn - 1;
  watermarks_ = plan.watermarks;
  GSV_ASSIGN_OR_RETURN(std::vector<CheckpointInfo> checkpoints,
                       ListCheckpoints(options_.dir));
  if (!checkpoints.empty()) next_checkpoint_id_ = checkpoints.back().id + 1;
  GSV_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                       ListWalSegments(options_.dir));
  mirror_segment_.clear();
  mirror_offset_ = 0;
  if (!segments.empty()) {
    std::error_code ec;
    const uintmax_t size = fs::file_size(segments.back().path, ec);
    if (ec) {
      return Status::Internal("replica: cannot stat " + segments.back().path);
    }
    mirror_segment_ = segments.back().name;
    mirror_offset_ = static_cast<uint64_t>(size);
  }
  return Status::Ok();
}

Status Replica::NoteEpoch(uint64_t epoch, const std::string& owner) {
  if (epoch <= max_epoch_seen_) return Status::Ok();
  max_epoch_seen_ = epoch;
  epoch_owner_ = owner;
  return WriteFence(options_.dir, epoch, owner);
}

Status Replica::WipeLocal() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    std::error_code remove_ec;
    fs::remove_all(entry.path(), remove_ec);
    if (remove_ec) {
      return Status::Internal("replica: cannot remove " +
                              entry.path().string() + ": " +
                              remove_ec.message());
    }
  }
  auto store =
      std::make_unique<ObjectStore>(ReplicaStoreOptions(options_.engine_factory));
  views_ = MaterializedViewSet(store.get());  // old views die before their store
  store_ = std::move(store);
  applied_lsn_ = 0;
  watermarks_.clear();
  mirror_segment_.clear();
  mirror_offset_ = 0;
  unapplied_validated_bytes_ = 0;
  records_since_checkpoint_ = 0;
  last_verified_checksum_lsn_ = 0;
  corrupt_segment_.clear();
  corrupt_offset_ = 0;
  corrupt_repeats_ = 0;
  // The wipe took the FENCE with it; the epoch memory must survive a
  // re-seed or a fenced stale primary could sneak back in afterwards.
  if (max_epoch_seen_ > 0) {
    return WriteFence(options_.dir, max_epoch_seen_, epoch_owner_);
  }
  return Status::Ok();
}

Status Replica::ReseedFromPrimary() {
  GSV_RETURN_IF_ERROR(WipeLocal());
  ++stats_.reseeds;

  Result<std::string> current = FetchRemote("CURRENT");
  if (!current.ok()) {
    if (current.status().code() == StatusCode::kNotFound) {
      // The primary has never checkpointed: replay its log from the
      // beginning. Positioning happens on the first poll.
      return Status::Ok();
    }
    return current.status();
  }
  std::string checkpoint_dir = current.value();
  while (!checkpoint_dir.empty() &&
         (checkpoint_dir.back() == '\n' || checkpoint_dir.back() == '\r')) {
    checkpoint_dir.pop_back();
  }
  if (checkpoint_dir.empty() ||
      checkpoint_dir.find('/') != std::string::npos) {
    return Status::DataLoss("replica: malformed remote CURRENT");
  }

  GSV_ASSIGN_OR_RETURN(std::string manifest_text,
                       FetchRemote(checkpoint_dir + "/MANIFEST"));
  std::vector<std::pair<std::string, std::pair<uint32_t, uint64_t>>> listed;
  GSV_RETURN_IF_ERROR(
      DecodeCheckpointManifest(manifest_text, &listed).status());

  // Fetch and CRC-verify every data file, then install the checkpoint
  // through the primary's own writer, keeping its MANIFEST text as is. A
  // crash mid-seed leaves no checkpoint (Start() reseeds) or a whole one.
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& [name, crc_size] : listed) {
    GSV_ASSIGN_OR_RETURN(std::string data,
                         FetchRemote(checkpoint_dir + "/" + name));
    if (data.size() != crc_size.second ||
        Crc32(data.data(), data.size()) != crc_size.first) {
      return Status::Unavailable("replica: checkpoint file " + name +
                                 " arrived corrupt; retry the seed");
    }
    files.emplace_back(name, std::move(data));
  }
  GSV_RETURN_IF_ERROR(
      InstallCheckpoint(options_.dir, checkpoint_dir, files, manifest_text));

  // The seeded home now holds just the checkpoint: load it the way a
  // follower restart does.
  GSV_ASSIGN_OR_RETURN(RecoveryPlan plan, PlanRecovery(options_.dir));
  if (!plan.have_checkpoint) {
    return Status::Internal("replica: seeded checkpoint " + checkpoint_dir +
                            " does not load");
  }
  return RecoverLocal(plan);
}

Status Replica::ApplyRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kViewDelta:
      ++stats_.deltas_applied;
      return Status::Ok();
    case WalRecordType::kCommit:
      watermarks_ = record.watermarks;
      ++stats_.commits_applied;
      // Commit-group boundary: no object pointers are live, so a paged
      // delegate store may evict back down to its pool budget here.
      store_->StorageSafePoint();
      return Status::Ok();
    case WalRecordType::kEpoch:
      // Live tailing tracks epochs during frame validation; this path
      // matters on restart, when the mirrored log replays locally — the
      // fence level must survive a follower crash.
      return NoteEpoch(record.epoch, record.owner);
    case WalRecordType::kViewDef:  // the redo defined the view
    case WalRecordType::kEvent:    // base objects live at the sources
      return Status::Ok();
  }
  return Status::DataLoss("unknown wal record type");
}

Status Replica::MirrorBytes(const std::string& segment,
                            const std::string& bytes) {
  GSV_RETURN_IF_ERROR(AppendFile(options_.dir + "/" + segment, bytes));
  stats_.bytes_mirrored += static_cast<int64_t>(bytes.size());
  return Status::Ok();
}

// ---- Tailing ----

Status Replica::Poll() {
  if (!started_) return Status::FailedPrecondition("replica: call Start()");
  if (promoted_) {
    return Status::FailedPrecondition("replica: promoted; tailing stopped");
  }
  ++stats_.polls;

  auto fail_poll = [&](const Status& status) {
    ++consecutive_failed_polls_;
    ++stats_.failed_polls;
    return status;
  };

  Result<std::vector<TransportSegment>> listing = ListRemote();
  if (!listing.ok()) return fail_poll(listing.status());

  bool progressed = false;
  Status tail = TailOnce(listing.value(), &progressed);
  if (!tail.ok() && tail.code() == StatusCode::kUnavailable) {
    lag_bytes_ = LagAgainst(listing.value());
    return fail_poll(tail);
  }
  if (!tail.ok()) return tail;  // fence violation / local IO — surface hard

  consecutive_failed_polls_ = 0;
  lag_bytes_ = LagAgainst(listing.value());

  if (options_.verify_checksums) {
    GSV_RETURN_IF_ERROR(VerifyChecksums());
  }

  if (options_.checkpoint_interval_records > 0 &&
      records_since_checkpoint_ >= options_.checkpoint_interval_records) {
    GSV_RETURN_IF_ERROR(WriteLocalCheckpoint());
  }
  return Status::Ok();
}

Status Replica::TailOnce(const std::vector<TransportSegment>& listing,
                         bool* progressed) {
  while (true) {
    // Position / roll forward: the segment starting exactly at the next
    // record is where tailing continues (the primary rolls only at commit
    // boundaries, so a group never spans segments).
    for (const TransportSegment& segment : listing) {
      if (segment.first_lsn == applied_lsn_ + 1 &&
          segment.name != mirror_segment_) {
        mirror_segment_ = segment.name;
        mirror_offset_ = 0;
        unapplied_validated_bytes_ = 0;
        break;
      }
    }
    if (mirror_segment_.empty()) {
      if (listing.empty()) return Status::Ok();  // nothing shipped yet
      if (listing.front().first_lsn > applied_lsn_ + 1) {
        // The records this follower needs were retired behind a newer
        // primary checkpoint: catch up by re-seeding from it.
        return ReseedFromPrimary();
      }
      return Status::Ok();  // stale listing; retry next poll
    }
    bool listed = false;
    for (const TransportSegment& segment : listing) {
      if (segment.name == mirror_segment_) {
        listed = true;
        break;
      }
    }
    if (!listed) {
      // Our segment vanished from the listing: retired behind a primary
      // checkpoint we have not caught up to (re-seed), or a stale listing
      // (retry next poll).
      if (!listing.empty() && listing.front().first_lsn > applied_lsn_ + 1) {
        return ReseedFromPrimary();
      }
      return Status::Ok();
    }

    // Fetch the unmirrored tail of the current segment.
    std::string buffer;
    bool at_end = false;
    for (int reads = 0; reads < 1024; ++reads) {
      const uint64_t want = mirror_offset_ + buffer.size();
      GSV_ASSIGN_OR_RETURN(
          TransportChunk chunk,
          ReadRemote(mirror_segment_, want, options_.read_chunk_bytes));
      if (chunk.offset > want) break;  // delivery gap; retry next poll
      const uint64_t skip = want - chunk.offset;  // duplicated prefix
      if (skip >= chunk.data.size()) {
        at_end = chunk.at_end;
        if (chunk.data.empty() && chunk.at_end) break;
        if (skip > 0 && !chunk.data.empty()) continue;  // all-duplicate chunk
        break;
      }
      buffer.append(chunk.data, static_cast<size_t>(skip),
                    chunk.data.size() - static_cast<size_t>(skip));
      if (chunk.at_end) {
        at_end = true;
        break;
      }
    }

    // Validate frames and materialize complete commit groups.
    size_t pos = 0;            // parse cursor (relative to buffer)
    size_t committed_end = 0;  // end of the last committed group
    std::vector<WalRecord> group;
    size_t valid_end = 0;  // end of the last complete valid frame
    bool corrupt = false;
    while (pos < buffer.size()) {
      WalFrame frame = DecodeWalFrame(buffer, pos);
      if (frame.status == WalFrameStatus::kIncomplete) break;  // wait
      WalRecord& record = frame.record;
      if (frame.status == WalFrameStatus::kCorrupt ||
          record.lsn != applied_lsn_ + group.size() + 1) {
        corrupt = true;
        break;
      }
      if (record.type == WalRecordType::kEpoch) {
        if (record.epoch < max_epoch_seen_) {
          // A fenced stale primary wrote into this home. Refuse its bytes
          // outright — this follower's state stays at the last epoch's
          // watermark until a legitimate writer appears.
          ++stats_.stale_epoch_rejections;
          return Status::FailedPrecondition(
              "replica: segment " + mirror_segment_ + " carries epoch " +
              std::to_string(record.epoch) + " below the observed fence " +
              std::to_string(max_epoch_seen_) +
              " (stale primary after failover)");
        }
        GSV_RETURN_IF_ERROR(NoteEpoch(record.epoch, record.owner));
      }
      const bool is_commit = record.type == WalRecordType::kCommit;
      group.push_back(std::move(record));
      pos += frame.size;
      valid_end = pos;
      if (!is_commit) continue;

      // Commit boundary: the group becomes durable and visible at once.
      const uint64_t commit_lsn = applied_lsn_ + group.size();
      GSV_RETURN_IF_ERROR(MirrorBytes(
          mirror_segment_, buffer.substr(committed_end, pos - committed_end)));
      for (const WalRecord& member : group) {
        GSV_RETURN_IF_ERROR(RedoViewRecord(member, &views_));
        GSV_RETURN_IF_ERROR(ApplyRecord(member));
      }
      stats_.records_applied += static_cast<int64_t>(group.size());
      records_since_checkpoint_ += group.size();
      applied_lsn_ = commit_lsn;
      mirror_offset_ += pos - committed_end;
      committed_end = pos;
      group.clear();
      *progressed = true;
    }

    if (corrupt) {
      // In-flight damage (a flipped bit, a mangled length) refetches
      // clean next poll; damage that survives `max_corrupt_rounds`
      // identical refetches is persistent — on the primary's disk or in
      // our pipeline — and only a checkpoint re-seed honestly heals it.
      ++stats_.corrupt_rounds;
      const uint64_t abs_offset = mirror_offset_ + (pos - committed_end);
      if (mirror_segment_ == corrupt_segment_ &&
          abs_offset == corrupt_offset_) {
        ++corrupt_repeats_;
      } else {
        corrupt_segment_ = mirror_segment_;
        corrupt_offset_ = abs_offset;
        corrupt_repeats_ = 1;
      }
      if (corrupt_repeats_ >= options_.max_corrupt_rounds) {
        ++stats_.self_heals;
        return ReseedFromPrimary();
      }
      return Status::Ok();
    }
    corrupt_segment_.clear();
    corrupt_repeats_ = 0;
    unapplied_validated_bytes_ = valid_end - committed_end;

    // Roll forward when this segment is exhausted and its successor (first
    // record = our next LSN) is already listed; otherwise the round ends.
    if (!at_end || !group.empty()) return Status::Ok();
    bool successor = false;
    for (const TransportSegment& segment : listing) {
      if (segment.first_lsn == applied_lsn_ + 1 &&
          segment.name != mirror_segment_) {
        successor = true;
        break;
      }
    }
    if (!successor) return Status::Ok();
  }
}

uint64_t Replica::LagAgainst(
    const std::vector<TransportSegment>& listing) const {
  uint64_t lag = 0;
  for (const TransportSegment& segment : listing) {
    if (segment.name == mirror_segment_) {
      const uint64_t have = mirror_offset_ + unapplied_validated_bytes_;
      if (segment.size > have) lag += segment.size - have;
    } else if (segment.first_lsn > applied_lsn_ + 1) {
      lag += segment.size;
    } else if (mirror_segment_.empty() &&
               segment.first_lsn == applied_lsn_ + 1) {
      lag += segment.size;
    }
  }
  return lag;
}

// ---- Divergence detection / self-heal ----

Status Replica::VerifyChecksums() {
  Result<std::string> text = transport_->FetchFile(ChecksumFileName());
  if (!text.ok()) {
    // No stamp, or a transport blip: nothing to compare this round.
    if (text.status().code() == StatusCode::kNotFound ||
        text.status().code() == StatusCode::kUnavailable) {
      return Status::Ok();
    }
    return text.status();
  }
  Result<ChecksumStamp> stamp = DecodeChecksumStamp(text.value());
  if (!stamp.ok()) return Status::Ok();  // half-written stamp; next round
  if (stamp.value().lsn != applied_lsn_ ||
      stamp.value().lsn == last_verified_checksum_lsn_) {
    return Status::Ok();  // comparable only at the exact watermark
  }
  ++stats_.checksum_checks;
  bool diverged = false;
  for (const ViewChecksum& expected : stamp.value().views) {
    const MaterializedView* local = view(expected.view);
    if (local == nullptr) {
      diverged = true;
      break;
    }
    const ViewChecksum actual = ChecksumView(expected.view, *local);
    if (actual.members != expected.members || actual.crc != expected.crc) {
      diverged = true;
      break;
    }
  }
  if (!diverged) {
    last_verified_checksum_lsn_ = stamp.value().lsn;
    return Status::Ok();
  }
  // Divergence at a matching watermark is proof of corruption somewhere in
  // this follower: throw the state away and re-seed from the primary.
  ++stats_.self_heals;
  return ReseedFromPrimary();
}

// ---- Serving ----

ReplicaStaleness Replica::staleness() const {
  ReplicaStaleness staleness;
  staleness.applied_lsn = applied_lsn_;
  staleness.watermarks = watermarks_;
  staleness.lag_bytes = lag_bytes_;
  staleness.failed_polls = consecutive_failed_polls_;
  staleness.epoch = max_epoch_seen_;
  staleness.stale = lag_bytes_ > options_.max_lag_bytes ||
                    consecutive_failed_polls_ > options_.max_failed_polls;
  return staleness;
}

const MaterializedView* Replica::view(const std::string& name) const {
  for (const MaterializedViewSet::Entry& entry : views_.entries()) {
    if (entry.state.name == name) return entry.view.get();
  }
  return nullptr;
}

std::vector<std::string> Replica::view_names() const {
  std::vector<std::string> names;
  names.reserve(views_.entries().size());
  for (const MaterializedViewSet::Entry& entry : views_.entries()) {
    names.push_back(entry.state.name);
  }
  return names;
}

Result<ReplicaViewRead> Replica::ReadView(const std::string& name) const {
  const MaterializedView* target = view(name);
  if (target == nullptr) {
    return Status::NotFound("replica: no view '" + name + "'");
  }
  ReplicaViewRead read;
  read.staleness = staleness();
  if (read.staleness.stale) {
    if (options_.staleness == StalenessPolicy::kRefuse) {
      return Status::Unavailable(
          "replica: view '" + name + "' is stale (lag " +
          std::to_string(read.staleness.lag_bytes) + " bytes, " +
          std::to_string(read.staleness.failed_polls) +
          " failed polls) and the policy refuses stale reads");
    }
    read.served_stale = true;
  }
  read.lines = ViewContentLines(*target);
  return read;
}

// ---- Follower durability ----

Status Replica::WriteLocalCheckpoint() {
  if (!started_) return Status::FailedPrecondition("replica: call Start()");
  CheckpointCapture capture;
  capture.manifest.id = next_checkpoint_id_;
  capture.manifest.wal_lsn = applied_lsn_;
  capture.manifest.watermarks = watermarks_;
  for (const MaterializedViewSet::Entry& entry : views_.entries()) {
    capture.manifest.views.push_back(entry.state);
  }
  GSV_ASSIGN_OR_RETURN(capture.store_text, ExportStoreImage(store_.get()));
  GSV_RETURN_IF_ERROR(PersistCheckpoint(options_.dir, capture));
  ++next_checkpoint_id_;
  ++stats_.checkpoints_written;
  records_since_checkpoint_ = 0;

  RetireCoveredWalSegments(options_.dir);
  return Status::Ok();
}

// ---- Failover ----

Result<uint64_t> Replica::Promote(const std::string& owner) {
  if (!started_) return Status::FailedPrecondition("replica: call Start()");
  if (promoted_) return Status::FailedPrecondition("replica: already promoted");
  Result<FenceInfo> standing = transport_->FetchFence();
  if (!standing.ok()) return standing.status();
  const uint64_t new_epoch =
      std::max(max_epoch_seen_, standing.value().epoch) + 1;
  return PromoteAtEpoch(new_epoch, owner);
}

Result<uint64_t> Replica::PromoteAtEpoch(uint64_t new_epoch,
                                         const std::string& owner) {
  if (!started_) return Status::FailedPrecondition("replica: call Start()");
  if (promoted_) return Status::FailedPrecondition("replica: already promoted");
  // The fence write into the old primary's home is the failover: once it
  // lands, the old writer's next append observes it and dies. If the old
  // home is unreachable the promotion must NOT proceed — file shipping
  // alone cannot fence a writer it cannot reach.
  GSV_RETURN_IF_ERROR(transport_->PublishFence(new_epoch, owner));
  // Stamp the same fence on the local home so the promoted warehouse's
  // EnableDurability({epoch = new_epoch}) claims exactly this epoch and
  // any even-newer promotion fences *us* in turn.
  GSV_RETURN_IF_ERROR(WriteFence(options_.dir, new_epoch, owner));
  max_epoch_seen_ = new_epoch;
  epoch_owner_ = owner;
  promoted_ = true;
  return new_epoch;
}

// ---- ShardedReplica ----

ShardedReplica::ShardedReplica(
    std::vector<std::unique_ptr<LogTransport>> transports,
    ReplicaOptions options) {
  for (size_t i = 0; i < transports.size(); ++i) {
    ReplicaOptions shard_options = options;
    shard_options.dir = options.dir + "/shard-" + std::to_string(i);
    shards_.push_back(std::make_unique<Replica>(std::move(transports[i]),
                                                std::move(shard_options)));
  }
}

Status ShardedReplica::Start() {
  for (auto& shard : shards_) GSV_RETURN_IF_ERROR(shard->Start());
  return Status::Ok();
}

Status ShardedReplica::Poll() {
  Status first_error;
  for (auto& shard : shards_) {
    Status status = shard->Poll();
    if (!status.ok() && first_error.ok()) first_error = status;
  }
  return first_error;
}

Status ShardedReplica::CatchUp(int max_polls) {
  for (auto& shard : shards_) {
    GSV_RETURN_IF_ERROR(shard->CatchUp(max_polls));
  }
  return Status::Ok();
}

ReplicaStaleness ShardedReplica::staleness() const {
  ReplicaStaleness worst;
  bool first = true;
  for (const auto& shard : shards_) {
    ReplicaStaleness s = shard->staleness();
    if (first) {
      worst = s;
      worst.watermarks.clear();  // per-shard domains do not merge
      first = false;
      continue;
    }
    worst.applied_lsn = std::min(worst.applied_lsn, s.applied_lsn);
    worst.lag_bytes += s.lag_bytes;
    worst.failed_polls = std::max(worst.failed_polls, s.failed_polls);
    worst.stale = worst.stale || s.stale;
    worst.epoch = std::max(worst.epoch, s.epoch);
    worst.watermarks.clear();
  }
  return worst;
}

Result<ReplicaViewRead> ShardedReplica::ReadView(
    const std::string& name) const {
  ReplicaViewRead merged;
  merged.staleness = staleness();
  std::vector<std::vector<std::pair<Oid, std::string>>> slices;
  for (const auto& shard : shards_) {
    GSV_ASSIGN_OR_RETURN(ReplicaViewRead read, shard->ReadView(name));
    merged.served_stale = merged.served_stale || read.served_stale;
    slices.push_back(std::move(read.lines));
  }
  // The ShardedWarehouse::ViewContents merge, so the merged lines are
  // byte-identical with the primary's.
  merged.lines = MergeContentLineRuns(std::move(slices));
  return merged;
}

Result<uint64_t> ShardedReplica::Promote(const std::string& owner) {
  uint64_t highest = 0;
  for (auto& shard : shards_) {
    Result<FenceInfo> standing = shard->transport()->FetchFence();
    if (!standing.ok()) return standing.status();
    highest = std::max({highest, standing.value().epoch, shard->epoch()});
  }
  const uint64_t new_epoch = highest + 1;
  for (auto& shard : shards_) {
    GSV_ASSIGN_OR_RETURN(uint64_t granted,
                         shard->PromoteAtEpoch(new_epoch, owner));
    (void)granted;
  }
  return new_epoch;
}

// ---- CatchUp ----

Status Replica::CatchUp(int max_polls) {
  Status last;
  for (int i = 0; i < max_polls; ++i) {
    const int64_t before = stats_.records_applied;
    last = Poll();
    if (last.ok() && stats_.records_applied == before && lag_bytes_ == 0) {
      return Status::Ok();
    }
  }
  return Status::DeadlineExceeded(
      "replica: not caught up after " + std::to_string(max_polls) +
      " polls (lag " + std::to_string(lag_bytes_) + " bytes): " +
      (last.ok() ? std::string("still progressing") : last.message()));
}

}  // namespace gsv
