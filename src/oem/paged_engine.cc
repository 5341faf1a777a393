#include "oem/paged_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "oem/page_codec.h"
#include "oem/serialize.h"
#include "oem/store.h"
#include "storage/wal.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gsv {
namespace {

constexpr const char* kPageFileName = "pages.gsp";
constexpr const char* kPageDirName = "PAGEDIR";

// `min_key` encoded so the empty routing sentinel survives tokenization:
// "k" + key (OID strings never contain whitespace).
std::string EncodeKey(const std::string& key) { return "k" + key; }

using ObjectsMap = std::unordered_map<Oid, Object, OidHash>;

// A frame's logical payload plus the directory stats derived from it.
struct PageImage {
  std::string raw;
  uint64_t objects = 0;
  std::string first_oid;
  std::string last_oid;
};

// Frame contents decorated with their interned key strings, sorted into
// the canonical lexicographic page order.
std::vector<std::pair<std::string_view, const Object*>> SortedEntries(
    const ObjectsMap& objects) {
  std::vector<std::pair<std::string_view, const Object*>> sorted;
  sorted.reserve(objects.size());
  for (const auto& [oid, object] : objects) {
    sorted.emplace_back(oid.str(), &object);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

PageImage BuildImage(const ObjectsMap& objects, size_t reserve_hint) {
  PageImage image;
  auto sorted = SortedEntries(objects);
  image.raw.reserve(reserve_hint + 64);
  for (const auto& [key, object] : sorted) {
    image.raw += EncodeObjectRecord(*object);
    image.raw += '\n';
  }
  image.objects = sorted.size();
  image.first_oid = sorted.empty() ? "" : std::string(sorted.front().first);
  image.last_oid = sorted.empty() ? "" : std::string(sorted.back().first);
  return image;
}

Status ReadAtFd(int fd, uint64_t offset, std::string* buffer) {
  size_t done = 0;
  while (done < buffer->size()) {
    ssize_t n = ::pread(fd, buffer->data() + done, buffer->size() - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) {
      return Status::DataLoss(
          "paged engine: short read at offset " + std::to_string(offset) +
          (n < 0 ? std::string(": ") + std::strerror(errno) : ""));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status WriteAtFd(int fd, uint64_t offset, std::string_view payload) {
  size_t done = 0;
  while (done < payload.size()) {
    ssize_t n = ::pwrite(fd, payload.data() + done, payload.size() - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      return Status::Internal("paged engine: write failed at offset " +
                              std::to_string(offset) + ": " +
                              std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

struct Frame;

// One unit of background writeback. Enqueued under the engine lock; once
// `started` flips (under the lock) the job's content is immutable — the
// writeback thread reads it without the lock, and a concurrent fault may
// copy from it under the lock. A still-queued eviction job can instead be
// *stolen*: the fault moves `objects` back into the frame and flags the
// job `canceled`, so the page round-trips through the queue with zero I/O.
struct WritebackJob {
  Frame* frame = nullptr;
  uint64_t ticket = 0;
  // The frame's in-flight job when this one was enqueued. A steal hands the
  // frame back to it while it is still live (queued or running), so later
  // writes of the frame keep queueing behind it.
  std::weak_ptr<WritebackJob> older;
  bool has_objects = false;  // eviction job: `objects` is the content
  ObjectsMap objects;
  PageImage image;           // flush job: pre-serialized under the lock
  size_t approx_bytes = 0;   // frame estimate, restored on steal
  bool started = false;
  bool canceled = false;
};

struct Frame {
  uint64_t page_id = 0;
  std::string min_key;  // routing lower bound; "" on the first page

  // ---- On-disk extent (valid when on_disk) ----
  bool on_disk = false;
  uint64_t slot_start = 0;
  uint32_t slot_count = 0;
  uint32_t payload_bytes = 0;  // stored (post-codec) size; CRC covers this
  uint32_t raw_bytes = 0;      // pre-codec payload size
  uint8_t codec_id = 0;        // codec the extent was stored with
  uint32_t crc = 0;
  uint64_t lsn = 0;            // bumped per writeback
  uint64_t disk_objects = 0;   // object count as of the last writeback
  std::string first_oid;       // OID range as of the last writeback
  std::string last_oid;

  // ---- Residency ----
  bool loaded = false;
  bool dirty = false;
  bool ref = false;            // second-chance bit
  int pins = 0;
  uint64_t touched_epoch = 0;  // last epoch a pointer was handed out
  size_t approx_bytes = 0;     // encoded-size estimate driving splits
  ObjectsMap objects;
  // Newest live writeback job for this frame, or null. While set, faults
  // are served from the job, never the extent, and every further write of
  // the frame queues behind it.
  std::shared_ptr<WritebackJob> inflight;
};

// A resident object's direct address plus its owning frame (for dirty
// marking and clock touches). Valid exactly while the frame stays loaded
// and the object is neither erased nor moved by a split.
struct SwizzleEntry {
  Object* object = nullptr;
  Frame* frame = nullptr;
};

class PagedEngine final : public StorageEngine {
 public:
  explicit PagedEngine(PagedEngineOptions options)
      : options_(std::move(options)) {
    if (options_.page_bytes == 0) options_.page_bytes = 64 * 1024;
    if (options_.pool_pages == 0) options_.pool_pages = 1;
    queue_cap_ = options_.writeback_queue != 0
                     ? options_.writeback_queue
                     : std::max<uint64_t>(4, options_.pool_pages);
    codec_ = IdentityPageCodec();
    Result<const PageCodec*> codec = PageCodecByName(options_.codec);
    if (codec.ok()) {
      codec_ = codec.value();
    } else {
      NoteIoErrorLocked(codec.status());
    }
    std::error_code ec;
    std::filesystem::create_directories(options_.dir, ec);
    // The home is scratch: always start empty (durable truth is the WAL +
    // checkpoints; recovery re-seeds through the bulk-load path).
    std::filesystem::remove(PageDirPath(), ec);
    fd_ = ::open(PageFilePath().c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
    if (fd_ < 0) {
      NoteIoErrorLocked(Status::Internal("paged engine: cannot open " +
                                         PageFilePath() + ": " +
                                         std::strerror(errno)));
    }
    if (options_.background_writeback) {
      writeback_ = std::thread([this] { WritebackLoop(); });
    }
  }

  ~PagedEngine() override {
    if (writeback_.joinable()) {
      {
        std::lock_guard<std::recursive_mutex> lock(mu_);
        stop_ = true;
        if (options_.abandon_queue_on_close) {
          // Simulated kill: still-queued pages never reach disk. The home
          // is scratch, so nothing above the engine may depend on them.
          for (auto& job : queue_) job->canceled = true;
        }
      }
      cv_.notify_all();
      writeback_.join();
    }
    if (fd_ >= 0) ::close(fd_);
    if (options_.wipe_on_close) {
      std::error_code ec;
      std::filesystem::remove_all(options_.dir, ec);
    }
  }

  const char* EngineName() const override { return "paged"; }

  const Object* Get(const Oid& oid) override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    if (options_.enable_swizzle) {
      auto hit = swizzle_.find(oid);
      if (hit != swizzle_.end()) {
        if (metrics_ != nullptr) {
          metrics_->swizzle_hits.fetch_add(1, std::memory_order_relaxed);
        }
        TouchLocked(hit->second.frame);
        return hit->second.object;
      }
    }
    Frame* frame = RouteLocked(oid.str());
    if (frame == nullptr || !FaultLocked(frame)) return nullptr;
    TouchLocked(frame);
    auto it = frame->objects.find(oid);
    if (it == frame->objects.end()) return nullptr;
    SwizzleLocked(oid, &it->second, frame);
    return &it->second;
  }

  Object* GetMutable(const Oid& oid) override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    if (options_.enable_swizzle) {
      auto hit = swizzle_.find(oid);
      if (hit != swizzle_.end()) {
        if (metrics_ != nullptr) {
          metrics_->swizzle_hits.fetch_add(1, std::memory_order_relaxed);
        }
        TouchLocked(hit->second.frame);
        hit->second.frame->dirty = true;
        return hit->second.object;
      }
    }
    Frame* frame = RouteLocked(oid.str());
    if (frame == nullptr || !FaultLocked(frame)) return nullptr;
    TouchLocked(frame);
    auto it = frame->objects.find(oid);
    if (it == frame->objects.end()) return nullptr;
    frame->dirty = true;
    SwizzleLocked(oid, &it->second, frame);
    return &it->second;
  }

  Status Put(Object object) override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    const Oid oid = object.oid();
    const std::string& key = oid.str();
    if (pages_.empty()) CreateFrameLocked("");
    Frame* frame = RouteLocked(key);
    if (!FaultLocked(frame)) return io_error_;
    if (frame->objects.count(oid) > 0) {
      return Status::AlreadyExists("object " + key + " already exists");
    }
    frame->approx_bytes += EncodeObjectRecord(object).size() + 1;
    frame->objects.emplace(oid, std::move(object));
    frame->dirty = true;
    TouchLocked(frame);
    ++total_objects_;
    if (frame->approx_bytes > options_.page_bytes &&
        frame->objects.size() > 1) {
      SplitLocked(frame);
    }
    return Status::Ok();
  }

  Status Erase(const Oid& oid) override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    Frame* frame = RouteLocked(oid.str());
    if (frame == nullptr) {
      return Status::NotFound("object " + oid.str() + " does not exist");
    }
    if (!FaultLocked(frame)) return io_error_;
    if (frame->objects.erase(oid) == 0) {
      return Status::NotFound("object " + oid.str() + " does not exist");
    }
    swizzle_.erase(oid);
    frame->dirty = true;
    TouchLocked(frame);
    --total_objects_;
    return Status::Ok();
  }

  size_t Size() const override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    return total_objects_;
  }

  void ScanInOrder(const std::function<void(const Object&)>& fn) override {
    ScanLocked(fn, /*ordered=*/true);
  }

  void ScanUnordered(const std::function<void(const Object&)>& fn) override {
    ScanLocked(fn, /*ordered=*/false);
  }

  void SafePoint() override {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    // No caller holds pointers now: every resident frame becomes a legal
    // victim (the new epoch has touched nothing yet). Run the clock back
    // down to budget; dirty victims enqueue for background writeback.
    ++epoch_;
    EnforceBudgetLocked(options_.pool_pages);
  }

  Status Flush() override {
    std::unique_lock<std::recursive_mutex> lock(mu_);
    for (auto& [key, frame] : pages_) {
      Frame* raw = frame.get();
      if (!raw->loaded || !raw->dirty) continue;
      // Same rule as EvictLocked: a frame with an in-flight job enqueues
      // past the cap so its writes stay FIFO-serialized on one thread.
      if (UseBackgroundLocked() &&
          (queue_.size() < queue_cap_ || raw->inflight != nullptr)) {
        auto job = std::make_shared<WritebackJob>();
        job->frame = raw;
        job->has_objects = false;
        job->image = BuildImage(raw->objects, raw->approx_bytes);
        job->approx_bytes = raw->approx_bytes;
        raw->dirty = false;
        EnqueueJobLocked(std::move(job));
      } else {
        if (UseBackgroundLocked()) ++sync_fallbacks_;
        if (!WritebackSyncLocked(raw)) break;
      }
    }
    if (options_.background_writeback) {
      // The enqueue-plus-wait watermark barrier: every job issued so far
      // (including canceled ones) must have left the queue before PAGEDIR
      // claims the image is complete.
      const uint64_t barrier = next_ticket_;
      cv_.wait(lock, [&] { return completed_ticket_ >= barrier; });
    }
    if (!io_error_.ok()) return io_error_;
    return WritePageDirLocked();
  }

  void AttachMetrics(StoreMetrics* metrics) override { metrics_ = metrics; }

  void FillStatus(PagedEngineStatus* status) const {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    status->dir = options_.dir;
    status->page_bytes = options_.page_bytes;
    status->pool_pages = options_.pool_pages;
    status->pages_total = pages_.size();
    status->pages_resident = resident_;
    status->pages_pinned = pinned_;
    status->objects = total_objects_;
    status->disk_slots = eof_slots_;
    status->codec = codec_->name();
    uint64_t stored = 0;
    uint64_t raw = 0;
    for (const auto& [key, frame] : pages_) {
      if (frame->on_disk) {
        stored += frame->payload_bytes;
        raw += frame->raw_bytes;
      }
    }
    status->disk_payload_bytes = stored;
    status->disk_raw_bytes = raw;
    status->free_slots = free_slots_;
    status->extent_merges = extent_merges_;
    status->slots_reclaimed = slots_reclaimed_;
    status->writeback_queue_peak = queue_peak_;
    status->writeback_steals = writeback_steals_;
    status->writeback_sync_fallbacks = sync_fallbacks_;
    status->swizzle_entries = swizzle_.size();
    status->io_error = io_error_;
  }

 private:
  std::string PageFilePath() const {
    return options_.dir + "/" + kPageFileName;
  }
  std::string PageDirPath() const { return options_.dir + "/" + kPageDirName; }

  void NoteIoErrorLocked(Status status) {
    if (io_error_.ok()) io_error_ = std::move(status);
  }

  bool UseBackgroundLocked() const {
    return options_.background_writeback && !stop_;
  }

  // The frame whose key range covers `key`, or nullptr on an empty store.
  Frame* RouteLocked(const std::string& key) {
    if (pages_.empty()) return nullptr;
    auto it = pages_.upper_bound(key);
    if (it != pages_.begin()) --it;
    return it->second.get();
  }

  Frame* CreateFrameLocked(std::string min_key) {
    auto frame = std::make_unique<Frame>();
    frame->page_id = next_page_id_++;
    frame->min_key = min_key;
    frame->loaded = true;
    frame->touched_epoch = epoch_;
    Frame* raw = frame.get();
    pages_.emplace(std::move(min_key), std::move(frame));
    ++resident_;
    return raw;
  }

  void TouchLocked(Frame* frame) {
    frame->ref = true;
    frame->touched_epoch = epoch_;
  }

  void SwizzleLocked(const Oid& oid, Object* object, Frame* frame) {
    if (!options_.enable_swizzle) return;
    if (metrics_ != nullptr) {
      metrics_->swizzle_misses.fetch_add(1, std::memory_order_relaxed);
    }
    swizzle_[oid] = SwizzleEntry{object, frame};
  }

  void UnswizzleFrameLocked(const Frame& frame) {
    if (!options_.enable_swizzle) return;
    for (const auto& [oid, object] : frame.objects) swizzle_.erase(oid);
  }

  // Parses a page payload into the frame's object map (one in-place pass
  // with one batched intern, serialize.h DecodeObjectRecords). False (and
  // sticky io_error_) on a malformed record.
  bool LoadFromTextLocked(Frame* frame, std::string_view text) {
    std::vector<Object> objects;
    Status decoded = DecodeObjectRecords(text, &objects);
    if (!decoded.ok()) {
      NoteIoErrorLocked(Status::DataLoss(
          "paged engine: bad record on page " +
          std::to_string(frame->page_id) + ": " + decoded.message()));
      return false;
    }
    frame->objects.reserve(objects.size());
    for (Object& object : objects) {
      const Oid oid = object.oid();
      frame->objects.emplace(oid, std::move(object));
    }
    return true;
  }

  // Materializes the frame's objects, evicting cold frames first so the
  // pool stays near budget. A frame with an in-flight writeback job is
  // served from the job — stealing the map back outright when the job has
  // not started (the write is canceled: zero I/O), copying otherwise.
  // False on I/O or decode failure (sticky).
  bool FaultLocked(Frame* frame) {
    if (frame->loaded) return true;
    EnforceBudgetLocked(
        options_.pool_pages > 0 ? options_.pool_pages - 1 : 0);
    if (metrics_ != nullptr) {
      metrics_->page_faults.fetch_add(1, std::memory_order_relaxed);
    }
    if (frame->inflight != nullptr) {
      std::shared_ptr<WritebackJob> job = frame->inflight;
      if (job->has_objects && !job->started) {
        frame->objects = std::move(job->objects);
        job->canceled = true;
        // Jobs complete in ticket order, so a ticket past completed_ticket_
        // is still live: its write has yet to land.
        std::shared_ptr<WritebackJob> older = job->older.lock();
        frame->inflight =
            older != nullptr && older->ticket > completed_ticket_ ? older
                                                                  : nullptr;
        frame->dirty = true;  // the canceled write never reached disk
        frame->approx_bytes = job->approx_bytes;
        ++writeback_steals_;
      } else if (job->has_objects) {
        // Running: the thread only reads the job now, so a copy is safe.
        frame->objects = job->objects;
        frame->dirty = false;  // disk will match once the job lands
        frame->approx_bytes = job->approx_bytes;
      } else {
        if (!LoadFromTextLocked(frame, job->image.raw)) return false;
        frame->dirty = false;
        frame->approx_bytes = job->image.raw.size();
      }
      frame->loaded = true;
      ++resident_;
      return true;
    }
    if (!frame->on_disk) {
      // Evicted while empty and clean: nothing to read back.
      frame->loaded = true;
      frame->approx_bytes = 0;
      ++resident_;
      return true;
    }
    std::string stored(frame->payload_bytes, '\0');
    Status read = ReadAtFd(fd_, frame->slot_start * options_.page_bytes,
                           &stored);
    if (!read.ok()) {
      NoteIoErrorLocked(std::move(read));
      return false;
    }
    if (Crc32(stored.data(), stored.size()) != frame->crc) {
      NoteIoErrorLocked(Status::DataLoss(
          "paged engine: CRC mismatch on page " +
          std::to_string(frame->page_id)));
      return false;
    }
    const PageCodec* codec = PageCodecById(frame->codec_id);
    if (codec == nullptr) {
      NoteIoErrorLocked(Status::DataLoss(
          "paged engine: page " + std::to_string(frame->page_id) +
          " stored with unknown codec " + std::to_string(frame->codec_id)));
      return false;
    }
    Result<std::string> raw = codec->Decode(stored);
    if (!raw.ok()) {
      NoteIoErrorLocked(Status::DataLoss(
          "paged engine: page " + std::to_string(frame->page_id) +
          " failed to decode: " + raw.status().message()));
      return false;
    }
    if (!LoadFromTextLocked(frame, raw.value())) return false;
    frame->loaded = true;
    frame->approx_bytes = frame->raw_bytes;
    ++resident_;
    return true;
  }

  // Second-chance clock over resident frames until the pool is back at
  // `target` or nothing is evictable. Only cold frames — untouched since
  // before the last safe point, so no valid pointers reach into them — and
  // unpinned ones are victims; a hot working set may overshoot the budget
  // until the next SafePoint().
  void EnforceBudgetLocked(uint64_t target) {
    if (resident_ <= target || pages_.empty()) return;
    size_t sweeps = 2 * pages_.size() + 2;
    auto it = pages_.lower_bound(clock_key_);
    while (resident_ > target && sweeps-- > 0) {
      if (it == pages_.end()) it = pages_.begin();
      Frame* frame = it->second.get();
      ++it;
      if (!frame->loaded || frame->pins > 0 ||
          frame->touched_epoch >= epoch_) {
        continue;
      }
      if (frame->ref) {
        frame->ref = false;  // one more pass before eviction
        continue;
      }
      EvictLocked(frame);
    }
    clock_key_ = it == pages_.end() ? std::string() : it->first;
  }

  bool EvictLocked(Frame* frame) {
    UnswizzleFrameLocked(*frame);
    if (frame->dirty) {
      // A frame that already has an in-flight job MUST enqueue even past
      // the cap: the background thread serializes this frame's writes in
      // FIFO ticket order, whereas an inline write here could race the
      // running job's pwrite on the same extent — or be overwritten later
      // by the older job's stale content.
      if (UseBackgroundLocked() &&
          (queue_.size() < queue_cap_ || frame->inflight != nullptr)) {
        auto job = std::make_shared<WritebackJob>();
        job->frame = frame;
        job->has_objects = true;
        job->approx_bytes = frame->approx_bytes;
        job->objects = std::move(frame->objects);
        frame->dirty = false;
        EnqueueJobLocked(std::move(job));
      } else {
        // Full queue (or synchronous mode): write inline rather than
        // block — the engine lock may be held at arbitrary depth here.
        if (UseBackgroundLocked()) ++sync_fallbacks_;
        if (!WritebackSyncLocked(frame)) return false;
      }
    }
    frame->objects = ObjectsMap();
    frame->loaded = false;
    frame->approx_bytes = 0;
    --resident_;
    if (metrics_ != nullptr) {
      metrics_->page_evictions.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }

  void EnqueueJobLocked(std::shared_ptr<WritebackJob> job) {
    job->ticket = ++next_ticket_;
    job->older = job->frame->inflight;
    job->frame->inflight = job;
    queue_.push_back(std::move(job));
    queue_peak_ = std::max<uint64_t>(queue_peak_, queue_.size());
    cv_.notify_all();
  }

  // ---- Extent allocation (address-ordered, coalescing first fit) ----

  uint64_t AllocExtentLocked(uint32_t slots) {
    for (auto it = free_extents_.begin(); it != free_extents_.end(); ++it) {
      if (it->second >= slots) {
        const uint64_t start = it->first;
        const uint64_t have = it->second;
        free_extents_.erase(it);
        if (have > slots) free_extents_.emplace(start + slots, have - slots);
        free_slots_ -= slots;
        return start;
      }
    }
    const uint64_t start = eof_slots_;
    eof_slots_ += slots;
    return start;
  }

  void FreeExtentLocked(uint64_t start, uint32_t slots) {
    uint64_t run_start = start;
    uint64_t run_len = slots;
    free_slots_ += slots;
    auto next = free_extents_.lower_bound(start);
    if (next != free_extents_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == start) {
        run_start = prev->first;
        run_len += prev->second;
        free_extents_.erase(prev);
        ++extent_merges_;
      }
    }
    if (next != free_extents_.end() && next->first == start + slots) {
      run_len += next->second;
      free_extents_.erase(next);
      ++extent_merges_;
    }
    if (run_start + run_len == eof_slots_) {
      // The coalesced run reaches the file tail: shrink the file instead
      // of parking the slots on the list.
      eof_slots_ = run_start;
      free_slots_ -= run_len;
      slots_reclaimed_ += run_len;
      return;
    }
    free_extents_.emplace(run_start, run_len);
  }

  // Reuses the frame's extent when the stored size still fits the same
  // slot count; otherwise frees it and allocates a fresh one.
  void PlaceExtentLocked(Frame* frame, size_t stored_size) {
    const uint32_t slots = static_cast<uint32_t>(std::max<uint64_t>(
        1,
        (stored_size + options_.page_bytes - 1) / options_.page_bytes));
    if (frame->on_disk && frame->slot_count == slots) return;
    if (frame->on_disk) FreeExtentLocked(frame->slot_start, frame->slot_count);
    frame->slot_start = AllocExtentLocked(slots);
    frame->slot_count = slots;
  }

  void FinishImageLocked(Frame* frame, const PageImage& image,
                         size_t stored_size, uint32_t crc) {
    frame->payload_bytes = static_cast<uint32_t>(stored_size);
    frame->raw_bytes = static_cast<uint32_t>(image.raw.size());
    frame->codec_id = codec_->id();
    frame->crc = crc;
    frame->lsn = ++next_lsn_;
    frame->disk_objects = image.objects;
    frame->first_oid = image.first_oid;
    frame->last_oid = image.last_oid;
    frame->on_disk = true;
    if (metrics_ != nullptr) {
      metrics_->page_writeback_bytes.fetch_add(
          static_cast<int64_t>(stored_size), std::memory_order_relaxed);
    }
  }

  // Serializes, encodes, and writes the frame inline, under the lock (the
  // synchronous mode, and the full-queue fallback).
  bool WritebackSyncLocked(Frame* frame) {
    PageImage image = BuildImage(frame->objects, frame->approx_bytes);
    std::string stored = codec_->Encode(image.raw);
    PlaceExtentLocked(frame, stored.size());
    Status wrote = WriteAtFd(fd_, frame->slot_start * options_.page_bytes,
                             stored);
    if (!wrote.ok()) {
      NoteIoErrorLocked(std::move(wrote));
      return false;
    }
    FinishImageLocked(frame, image, stored.size(),
                      Crc32(stored.data(), stored.size()));
    frame->dirty = false;
    frame->approx_bytes = image.raw.size();
    return true;
  }

  void CompleteJobLocked(const std::shared_ptr<WritebackJob>& job) {
    if (job->frame->inflight == job) job->frame->inflight = nullptr;
    completed_ticket_ = job->ticket;
    cv_.notify_all();
  }

  // The dedicated writeback thread: serialize → encode → CRC off the lock,
  // then place the extent and publish metadata under it, then write. On
  // stop it drains the queue first (canceled jobs complete immediately),
  // so a normal destruction leaves no job behind.
  void WritebackLoop() {
    std::unique_lock<std::recursive_mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      std::shared_ptr<WritebackJob> job = queue_.front();
      queue_.pop_front();
      if (job->canceled || !io_error_.ok()) {
        CompleteJobLocked(job);
        continue;
      }
      job->started = true;
      Frame* frame = job->frame;
      lock.unlock();
      PageImage local;
      const PageImage* image = &job->image;
      if (job->has_objects) {
        local = BuildImage(job->objects, job->approx_bytes);
        image = &local;
      }
      std::string stored = codec_->Encode(image->raw);
      const uint32_t crc = Crc32(stored.data(), stored.size());
      lock.lock();
      PlaceExtentLocked(frame, stored.size());
      FinishImageLocked(frame, *image, stored.size(), crc);
      const uint64_t offset = frame->slot_start * options_.page_bytes;
      lock.unlock();
      // Safe off the lock: while the job is in flight no fault reads the
      // extent (faults are served from the job), and FIFO processing means
      // no second writer can touch this frame's extent concurrently.
      Status wrote = WriteAtFd(fd_, offset, stored);
      lock.lock();
      if (!wrote.ok()) NoteIoErrorLocked(std::move(wrote));
      CompleteJobLocked(job);
    }
  }

  // Rebalances an oversized frame: re-derives the exact encoded size and
  // splits off the upper half into a new page (recursively, for a frame
  // far over budget). Only called from Put — the one mutation whose
  // contract already invalidates outstanding pointers.
  void SplitLocked(Frame* frame) {
    auto sorted = SortedEntries(frame->objects);
    std::vector<size_t> sizes;
    sizes.reserve(sorted.size());
    size_t total = 0;
    for (const auto& [key, object] : sorted) {
      sizes.push_back(EncodeObjectRecord(*object).size() + 1);
      total += sizes.back();
    }
    frame->approx_bytes = total;
    if (total <= options_.page_bytes || sorted.size() <= 1) return;
    size_t cut = 0, lower = 0;
    while (cut < sorted.size() && lower + sizes[cut] <= total / 2) {
      lower += sizes[cut++];
    }
    if (cut == 0) cut = 1;  // a giant head object: keep it alone
    if (cut >= sorted.size()) cut = sorted.size() - 1;
    Frame* upper = CreateFrameLocked(std::string(sorted[cut].first));
    upper->dirty = true;
    upper->ref = true;
    size_t moved = 0;
    for (size_t i = cut; i < sorted.size(); ++i) {
      const Oid oid = sorted[i].second->oid();
      swizzle_.erase(oid);  // the entry's frame is about to change
      auto node = frame->objects.extract(oid);
      upper->objects.insert(std::move(node));
      moved += sizes[i];
    }
    upper->approx_bytes = moved;
    frame->approx_bytes = total - moved;
    frame->dirty = true;
    if (upper->approx_bytes > options_.page_bytes) SplitLocked(upper);
    if (frame->approx_bytes > options_.page_bytes) SplitLocked(frame);
  }

  void ScanLocked(const std::function<void(const Object&)>& fn,
                  bool ordered) {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    for (auto it = pages_.begin(); it != pages_.end(); ++it) {
      Frame* frame = it->second.get();
      const bool was_loaded = frame->loaded;
      if (!FaultLocked(frame)) continue;  // sticky io_error_ records it
      ++frame->pins;
      ++pinned_;
      NotePinnedPeakLocked();
      if (ordered) {
        for (const auto& [key, object] : SortedEntries(frame->objects)) {
          fn(*object);
        }
      } else {
        for (const auto& [oid, object] : frame->objects) fn(object);
      }
      --frame->pins;
      --pinned_;
      if (!was_loaded && frame->pins == 0) {
        // The scan faulted this page for itself: release it promptly so a
        // full scan of a beyond-RAM store stays within budget. Marking it
        // cold is safe — the references handed to `fn` were callback-local.
        frame->ref = false;
        frame->touched_epoch = epoch_ > 0 ? epoch_ - 1 : 0;
        if (resident_ > options_.pool_pages) EvictLocked(frame);
      }
    }
  }

  void NotePinnedPeakLocked() {
    if (metrics_ == nullptr) return;
    int64_t peak =
        metrics_->pages_pinned_peak.load(std::memory_order_relaxed);
    if (static_cast<int64_t>(pinned_) > peak) {
      metrics_->pages_pinned_peak.store(static_cast<int64_t>(pinned_),
                                        std::memory_order_relaxed);
    }
  }

  Status WritePageDirLocked() {
    std::ostringstream out;
    out << "# gsv paged pages v2\n";
    out << "meta page_bytes " << options_.page_bytes << " pages "
        << pages_.size() << " eof_slots " << eof_slots_ << " codec "
        << codec_->name() << "\n";
    for (const auto& [key, frame] : pages_) {
      if (!frame->on_disk) continue;  // empty, never-written page
      out << "page " << frame->page_id << ' ' << EncodeKey(frame->min_key)
          << ' ' << frame->slot_start << ' ' << frame->slot_count << ' '
          << frame->payload_bytes << ' ' << frame->raw_bytes << ' '
          << static_cast<uint32_t>(frame->codec_id) << ' ' << frame->crc
          << ' ' << frame->lsn << ' ' << frame->disk_objects << ' '
          << EncodeKey(frame->first_oid) << ' ' << EncodeKey(frame->last_oid)
          << ' ' << (frame->loaded ? "resident" : "evicted") << "\n";
    }
    std::string body = out.str();
    const uint32_t crc = Crc32(body.data(), body.size());
    body += "crc " + std::to_string(crc) + "\n";
    return PublishFile(PageDirPath(), body);
  }

  PagedEngineOptions options_;
  mutable std::recursive_mutex mu_;
  // Signals the writeback thread (queue work, stop) and its observers
  // (job completions: the Flush barrier). condition_variable_any because
  // the engine lock is recursive; every waiter holds it exactly once.
  std::condition_variable_any cv_;
  // min_key → frame. The first page's min_key is "" so every OID routes.
  std::map<std::string, std::unique_ptr<Frame>> pages_;
  // Direct object addresses for resident frames, keyed by interned OID.
  std::unordered_map<Oid, SwizzleEntry, OidHash> swizzle_;
  // start slot → run length; disjoint, coalesced, address-ordered.
  std::map<uint64_t, uint64_t> free_extents_;
  std::deque<std::shared_ptr<WritebackJob>> queue_;
  std::thread writeback_;
  bool stop_ = false;
  uint64_t queue_cap_ = 0;
  uint64_t next_ticket_ = 0;
  uint64_t completed_ticket_ = 0;
  uint64_t queue_peak_ = 0;
  uint64_t writeback_steals_ = 0;
  uint64_t sync_fallbacks_ = 0;
  uint64_t free_slots_ = 0;
  uint64_t extent_merges_ = 0;
  uint64_t slots_reclaimed_ = 0;
  const PageCodec* codec_ = nullptr;
  uint64_t eof_slots_ = 0;
  uint64_t next_page_id_ = 1;
  uint64_t next_lsn_ = 0;
  uint64_t epoch_ = 1;
  std::string clock_key_;  // clock hand position (map key)
  size_t resident_ = 0;
  size_t pinned_ = 0;
  size_t total_objects_ = 0;
  int fd_ = -1;
  StoreMetrics* metrics_ = nullptr;
  Status io_error_;
};

}  // namespace

std::unique_ptr<StorageEngine> MakePagedEngine(PagedEngineOptions options) {
  return std::make_unique<PagedEngine>(std::move(options));
}

StorageEngineFactory MakePagedEngineFactory(PagedEngineOptions options) {
  auto counter = std::make_shared<std::atomic<uint64_t>>(0);
  return [options, counter]() -> std::unique_ptr<StorageEngine> {
    PagedEngineOptions instance = options;
    instance.dir = options.dir + "/eng-" +
                   std::to_string(counter->fetch_add(1));
    return MakePagedEngine(std::move(instance));
  };
}

Result<StorageEngineFactory> ParseStorageEngineSpec(std::string_view spec) {
  if (spec.empty() || spec == "memory") return StorageEngineFactory(nullptr);

  std::vector<std::string> parts;
  size_t start = 0;
  for (;;) {
    size_t colon = spec.find(':', start);
    parts.emplace_back(spec.substr(
        start, colon == std::string_view::npos ? colon : colon - start));
    if (colon == std::string_view::npos) break;
    start = colon + 1;
  }

  if (parts[0] != "paged") {
    return Status::InvalidArgument(
        "unknown storage engine '" + parts[0] +
        "' (known: memory, paged[:<pool>[:<bytes>[:<codec>]]])");
  }
  if (parts.size() > 4) {
    return Status::InvalidArgument(
        "storage engine spec '" + std::string(spec) +
        "' has too many ':' fields (paged[:<pool>[:<bytes>[:<codec>]]])");
  }

  PagedEngineOptions options;
  options.wipe_on_close = true;
  if (parts.size() >= 2) {
    std::optional<int64_t> pool = ParseInt64(parts[1]);
    if (!pool.has_value() || *pool <= 0) {
      return Status::InvalidArgument(
          "storage engine spec: pool_pages must be a positive integer, got "
          "'" + parts[1] + "'");
    }
    options.pool_pages = static_cast<uint64_t>(*pool);
  }
  if (parts.size() >= 3) {
    std::optional<int64_t> bytes = ParseInt64(parts[2]);
    if (!bytes.has_value() || *bytes <= 0) {
      return Status::InvalidArgument(
          "storage engine spec: page_bytes must be a positive integer, got "
          "'" + parts[2] + "'");
    }
    options.page_bytes = static_cast<uint64_t>(*bytes);
  }
  if (parts.size() == 4) {
    GSV_ASSIGN_OR_RETURN(const PageCodec* codec, PageCodecByName(parts[3]));
    options.codec = codec->name();
  }

  const char* tmpdir = std::getenv("TMPDIR");
  std::string root = (tmpdir != nullptr && *tmpdir != '\0')
                         ? std::string(tmpdir)
                         : std::string("/tmp");
  std::string pattern = root + "/gsv-paged-XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    return Status::Internal("storage engine spec: mkdtemp failed under " +
                            root + ": " + std::strerror(errno));
  }
  options.dir = buf.data();
  return MakePagedEngineFactory(std::move(options));
}

StorageEngineFactory MakeEngineFactoryFromEnv() {
  const char* env = std::getenv("GSV_STORAGE_ENGINE");
  Result<StorageEngineFactory> parsed =
      ParseStorageEngineSpec(env != nullptr ? std::string_view(env)
                                            : std::string_view());
  if (!parsed.ok()) {
    // A typo'd override silently running the default engine would void
    // every suite the caller meant to re-home; die loudly instead.
    std::fprintf(stderr, "GSV_STORAGE_ENGINE rejected: %s\n",
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(parsed).value();
}

bool QueryPagedEngineStatus(const StorageEngine* engine,
                            PagedEngineStatus* status) {
  const auto* paged = dynamic_cast<const PagedEngine*>(engine);
  if (paged == nullptr) return false;
  paged->FillStatus(status);
  return true;
}

namespace {

// Decodes a "k<key>" field; false when the prefix is missing.
bool DecodeKeyField(std::string_view field, std::string* key) {
  if (field.empty() || field[0] != 'k') return false;
  *key = std::string(field.substr(1));
  return true;
}

std::vector<std::string_view> SplitFields(std::string_view line) {
  std::vector<std::string_view> fields;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) fields.push_back(line.substr(start, i - start));
  }
  return fields;
}

// Parses a decoded page's records (the engine's own fault-path decoder)
// and checks them against the page's directory line: record count and
// first/last OID.
Status AuditPageRecords(std::string_view raw, const PageDirEntry& entry) {
  std::vector<Object> objects;
  GSV_RETURN_IF_ERROR(DecodeObjectRecords(raw, &objects));
  const std::string first = objects.empty() ? "" : objects.front().oid().str();
  const std::string last = objects.empty() ? "" : objects.back().oid().str();
  if (objects.size() != entry.objects) {
    return Status::DataLoss("holds " + std::to_string(objects.size()) +
                            " records, directory says " +
                            std::to_string(entry.objects));
  }
  if (first != entry.first_oid || last != entry.last_oid) {
    return Status::DataLoss("records span [" + first + " .. " + last +
                            "], directory says [" + entry.first_oid +
                            " .. " + entry.last_oid + "]");
  }
  return Status::Ok();
}

}  // namespace

Result<PageDirectory> ReadPageDirectory(const std::string& dir) {
  GSV_ASSIGN_OR_RETURN(const std::string text,
                       ReadFile(dir + "/" + kPageDirName));
  std::string body;
  PageDirectory directory;
  bool saw_trailer = false;
  for (const std::string& line : Split(text, '\n')) {
    if (line.rfind("crc ", 0) == 0) {
      std::optional<int64_t> want = ParseInt64(std::string_view(line).substr(4));
      if (!want.has_value()) {
        return Status::DataLoss("PAGEDIR: malformed crc trailer");
      }
      if (Crc32(body.data(), body.size()) !=
          static_cast<uint32_t>(*want)) {
        return Status::DataLoss("PAGEDIR: trailer CRC mismatch");
      }
      saw_trailer = true;
      break;
    }
    body += line;
    body += '\n';
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string_view> f = SplitFields(line);
    if (f.empty()) continue;
    if (f[0] == "meta") {
      for (size_t i = 1; i + 1 < f.size(); i += 2) {
        if (f[i] == "codec") {
          directory.codec = std::string(f[i + 1]);
          continue;
        }
        std::optional<int64_t> v = ParseInt64(f[i + 1]);
        if (!v.has_value()) continue;
        if (f[i] == "page_bytes") directory.page_bytes = *v;
        if (f[i] == "eof_slots") directory.eof_slots = *v;
      }
      continue;
    }
    if (f[0] != "page") {
      return Status::DataLoss("PAGEDIR: unknown record '" + line + "'");
    }
    if (f.size() < 14) {
      return Status::DataLoss("PAGEDIR: short page record '" + line + "'");
    }
    PageDirEntry entry;
    auto num = [&](size_t idx, auto* out) {
      std::optional<int64_t> v = ParseInt64(f[idx]);
      if (v.has_value()) *out = static_cast<std::decay_t<decltype(*out)>>(*v);
      return v.has_value();
    };
    bool ok = num(1, &entry.page_id) && num(3, &entry.slot_start) &&
              num(4, &entry.slot_count) && num(5, &entry.payload_bytes) &&
              num(6, &entry.raw_bytes) && num(7, &entry.codec_id) &&
              num(8, &entry.crc) && num(9, &entry.lsn) &&
              num(10, &entry.objects) &&
              DecodeKeyField(f[2], &entry.min_key) &&
              DecodeKeyField(f[11], &entry.first_oid) &&
              DecodeKeyField(f[12], &entry.last_oid);
    entry.resident = f[13] == "resident";
    if (!ok) {
      return Status::DataLoss("PAGEDIR: malformed page record '" + line +
                              "'");
    }
    directory.pages.push_back(std::move(entry));
  }
  if (!saw_trailer) {
    return Status::DataLoss("PAGEDIR: missing crc trailer");
  }
  return directory;
}

Status VerifyPagedImage(const std::string& dir, std::ostream* out) {
  GSV_ASSIGN_OR_RETURN(PageDirectory directory, ReadPageDirectory(dir));
  const std::string pages_path = dir + "/" + kPageFileName;
  Status result = Status::Ok();
  auto note = [&result](Status status) {
    if (result.ok()) result = std::move(status);
  };
  uint64_t stored_total = 0;
  uint64_t raw_total = 0;
  for (const PageDirEntry& entry : directory.pages) {
    GSV_ASSIGN_OR_RETURN(
        const std::string payload,
        ReadFileRange(pages_path, entry.slot_start * directory.page_bytes,
                      entry.payload_bytes));
    const bool crc_ok = payload.size() == entry.payload_bytes &&
                        Crc32(payload.data(), payload.size()) == entry.crc;
    if (!crc_ok) {
      note(Status::DataLoss("page " + std::to_string(entry.page_id) +
                            ": CRC mismatch"));
    }
    // CRC covers the stored bytes, so the audit above works even on a
    // codec this build has never heard of — but the page is then
    // unreadable here, and claiming it verified would be a lie.
    const PageCodec* codec =
        PageCodecById(static_cast<uint8_t>(entry.codec_id));
    const char* codec_name = codec != nullptr ? codec->name() : "?";
    bool decode_ok = codec != nullptr;
    bool records_ok = true;
    if (codec == nullptr) {
      note(Status::DataLoss("page " + std::to_string(entry.page_id) +
                            ": unrecognized codec id " +
                            std::to_string(entry.codec_id)));
    } else if (crc_ok) {
      Result<std::string> raw = codec->Decode(payload);
      decode_ok = raw.ok() && raw.value().size() == entry.raw_bytes;
      if (!decode_ok) {
        note(Status::DataLoss(
            "page " + std::to_string(entry.page_id) + ": " +
            (raw.ok() ? "decoded size disagrees with directory"
                      : raw.status().message())));
      } else {
        Status records = AuditPageRecords(raw.value(), entry);
        records_ok = records.ok();
        if (!records_ok) {
          note(Status::DataLoss("page " + std::to_string(entry.page_id) +
                                ": " + records.message()));
        }
      }
    }
    stored_total += entry.payload_bytes;
    raw_total += entry.raw_bytes;
    if (out != nullptr) {
      const double ratio =
          entry.raw_bytes == 0
              ? 1.0
              : static_cast<double>(entry.payload_bytes) / entry.raw_bytes;
      char ratio_text[32];
      std::snprintf(ratio_text, sizeof(ratio_text), "%.2f", ratio);
      *out << "page " << entry.page_id << " range [" << entry.first_oid
           << " .. " << entry.last_oid << "] objects " << entry.objects
           << " slots " << entry.slot_start << "+" << entry.slot_count
           << " codec " << entry.codec_id << "(" << codec_name << ") bytes "
           << entry.payload_bytes << "/" << entry.raw_bytes << " ratio "
           << ratio_text << " lsn " << entry.lsn << ' '
           << (entry.resident ? "resident" : "evicted") << " crc "
           << (crc_ok ? "ok" : "MISMATCH")
           << (decode_ok ? "" : " decode FAILED")
           << (records_ok ? "" : " records MISMATCH") << "\n";
    }
  }
  if (out != nullptr) {
    const double total_ratio =
        raw_total == 0 ? 1.0
                       : static_cast<double>(stored_total) / raw_total;
    char ratio_text[32];
    std::snprintf(ratio_text, sizeof(ratio_text), "%.2f", total_ratio);
    *out << directory.pages.size() << " page(s), page_bytes "
         << directory.page_bytes << ", eof_slots " << directory.eof_slots
         << ", codec " << (directory.codec.empty() ? "?" : directory.codec)
         << ", stored/raw " << stored_total << "/" << raw_total << " ("
         << ratio_text << "), "
         << (result.ok() ? "all pages verify" : result.message()) << "\n";
  }
  return result;
}

}  // namespace gsv
