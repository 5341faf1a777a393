#ifndef GSV_UTIL_FILE_IO_H_
#define GSV_UTIL_FILE_IO_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gsv {

// Whole-file I/O: the one place the durability layer reads, writes,
// publishes and appends its small files (FENCE, CHECKSUMS, PAGEDIR,
// CURRENT, checkpoint files, mirrored WAL bytes). Two file descriptors
// stay outside it because they live on hot paths: the WAL's active
// segment and the paged engine's pages.gsp.
//
// The publish rule, for every published file: write `path.tmp`, fsync
// it, rename it over `path`, fsync the parent directory. A reader sees
// the old bytes or the new ones, and a publish that returned Ok survives
// a power cut.

// The whole file. kNotFound only when the path does not exist (ENOENT);
// any other failure (a directory, EACCES, EIO) is an error of its own.
Result<std::string> ReadFile(const std::string& path);

// Up to `max_bytes` from `offset` on, of the file as long as it is when
// opened (bytes appended meanwhile are not read); shorter at end of file,
// empty past it. Errors as for ReadFile.
Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  uint64_t max_bytes);

// Creates or truncates `path`, writes `bytes` and fsyncs the file.
Status WriteFileDurable(const std::string& path, std::string_view bytes);

// Replaces `path` with `bytes` under the publish rule above.
Status PublishFile(const std::string& path, std::string_view bytes);

// The same rule for a directory whose files are already durable: fsyncs
// `from`, renames it to `to` (absent or empty), fsyncs the parent of `to`.
Status PublishDirectory(const std::string& from, const std::string& to);

// Appends `bytes` to `path`, creating it if missing. No fsync: its one
// caller, the follower's mirror, truncates a torn local tail on restart
// and fetches those bytes again.
Status AppendFile(const std::string& path, std::string_view bytes);

}  // namespace gsv

#endif  // GSV_UTIL_FILE_IO_H_
