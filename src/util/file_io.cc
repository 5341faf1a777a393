#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

namespace gsv {

namespace {

// "<what> <path>: <errno text>"; a missing path is kNotFound, anything
// else kInternal.
Status ErrnoError(const char* what, const std::string& path) {
  const int err = errno;
  std::string message = std::string(what) + " " + path + ": " +
                        std::strerror(err);
  return err == ENOENT ? Status::NotFound(std::move(message))
                       : Status::Internal(std::move(message));
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

Status WriteAll(int fd, const std::string& path, std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("write", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::Ok();
}

// Opens `path` with `flags`, runs `body` on the descriptor, closes it.
template <typename Body>
Status WithFd(const std::string& path, int flags, Body body) {
  int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoError("open", path);
  Status status = body(fd);
  if (::close(fd) != 0 && status.ok()) status = ErrnoError("close", path);
  return status;
}

Status Sync(int fd, const std::string& path) {
  return ::fsync(fd) == 0 ? Status::Ok() : ErrnoError("fsync", path);
}

Status SyncDir(const std::string& path) {
  return WithFd(path, O_RDONLY | O_DIRECTORY,
                [&](int fd) { return Sync(fd, path); });
}

Status RenameAndSyncParent(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return ErrnoError("rename", from);
  }
  return SyncDir(ParentDir(to));
}

}  // namespace

Result<std::string> ReadFileRange(const std::string& path, uint64_t offset,
                                  uint64_t max_bytes) {
  std::string data;
  Status status = WithFd(path, O_RDONLY, [&](int fd) {
    struct stat st;
    if (::fstat(fd, &st) != 0) return ErrnoError("stat", path);
    if (S_ISDIR(st.st_mode)) {
      return Status::Internal("read " + path + ": is a directory");
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    data.resize(std::min(max_bytes, size > offset ? size - offset : 0));
    size_t done = 0;
    while (done < data.size()) {
      ssize_t n = ::pread(fd, data.data() + done, data.size() - done,
                          static_cast<off_t>(offset + done));
      if (n < 0) {
        if (errno == EINTR) continue;
        return ErrnoError("read", path);
      }
      if (n == 0) break;  // shrank since the stat
      done += static_cast<size_t>(n);
    }
    data.resize(done);
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return data;
}

Result<std::string> ReadFile(const std::string& path) {
  return ReadFileRange(path, 0, UINT64_MAX);
}

Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  return WithFd(path, O_WRONLY | O_CREAT | O_TRUNC, [&](int fd) {
    GSV_RETURN_IF_ERROR(WriteAll(fd, path, bytes));
    return Sync(fd, path);
  });
}

Status PublishFile(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  GSV_RETURN_IF_ERROR(WriteFileDurable(tmp, bytes));
  return RenameAndSyncParent(tmp, path);
}

Status PublishDirectory(const std::string& from, const std::string& to) {
  GSV_RETURN_IF_ERROR(SyncDir(from));
  return RenameAndSyncParent(from, to);
}

Status AppendFile(const std::string& path, std::string_view bytes) {
  return WithFd(path, O_WRONLY | O_CREAT | O_APPEND,
                [&](int fd) { return WriteAll(fd, path, bytes); });
}

}  // namespace gsv
