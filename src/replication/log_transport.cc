#include "replication/log_transport.h"

#include <cstdint>
#include <filesystem>
#include <utility>

#include "util/file_io.h"

namespace gsv {

namespace fs = std::filesystem;

Result<std::vector<TransportSegment>> FileLogTransport::ListSegments() {
  GSV_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> infos,
                       ListWalSegments(dir_));
  std::vector<TransportSegment> segments;
  segments.reserve(infos.size());
  for (const WalSegmentInfo& info : infos) {
    TransportSegment segment;
    segment.name = info.name;
    segment.first_lsn = info.first_lsn;
    std::error_code ec;
    uintmax_t size = fs::file_size(info.path, ec);
    if (ec) {
      // Retired between listing and stat: treat the whole listing as a
      // transient miss so the caller retries against a settled view.
      return Status::Unavailable("transport: segment " + info.name +
                                 " vanished mid-listing");
    }
    segment.size = static_cast<uint64_t>(size);
    segments.push_back(std::move(segment));
  }
  return segments;
}

Result<TransportChunk> FileLogTransport::ReadSegment(
    const std::string& segment, uint64_t offset, uint64_t max_bytes) {
  if (segment.find('/') != std::string::npos) {
    return Status::InvalidArgument("transport: segment name with a path: " +
                                   segment);
  }
  // One byte past the chunk, when it arrives, says the segment goes on.
  const uint64_t probe = max_bytes == UINT64_MAX ? max_bytes : max_bytes + 1;
  Result<std::string> bytes =
      ReadFileRange(dir_ + "/" + segment, offset, probe);
  if (!bytes.ok()) {
    return Status::Unavailable("transport: " + bytes.status().message());
  }
  TransportChunk chunk;
  chunk.offset = offset;
  chunk.data = std::move(bytes).value();
  chunk.at_end = chunk.data.size() <= max_bytes;
  if (!chunk.at_end) chunk.data.pop_back();
  return chunk;
}

Result<std::string> FileLogTransport::FetchFile(const std::string& name) {
  if (name.find("..") != std::string::npos) {
    return Status::InvalidArgument("transport: path escape in " + name);
  }
  Result<std::string> bytes = ReadFile(dir_ + "/" + name);
  if (bytes.ok() || bytes.status().code() == StatusCode::kNotFound) {
    return bytes;
  }
  return Status::Unavailable("transport: " + bytes.status().message());
}

Result<FenceInfo> FileLogTransport::FetchFence() { return ReadFence(dir_); }

Status FileLogTransport::PublishFence(uint64_t epoch,
                                      const std::string& owner) {
  GSV_ASSIGN_OR_RETURN(FenceInfo standing, ReadFence(dir_));
  if (standing.epoch >= epoch) {
    return Status::FailedPrecondition(
        "transport: fence epoch " + std::to_string(standing.epoch) +
        " already at or above " + std::to_string(epoch));
  }
  return WriteFence(dir_, epoch, owner);
}

}  // namespace gsv
