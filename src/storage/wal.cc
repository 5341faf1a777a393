#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <sstream>

#include "util/file_io.h"

namespace gsv {

namespace fs = std::filesystem;

namespace {

// Frame = [u32 payload_len][u32 crc32(payload)]; sanity bound for the
// length word so a corrupt frame cannot ask for gigabytes.
constexpr size_t kFrameHeaderSize = 8;
constexpr uint32_t kMaxPayloadSize = 1u << 30;

constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";
constexpr int kSegmentLsnDigits = 12;

std::string SegmentName(uint64_t first_lsn) {
  std::string digits = std::to_string(first_lsn);
  std::string name = kSegmentPrefix;
  name.append(kSegmentLsnDigits - std::min<size_t>(digits.size(),
                                                   kSegmentLsnDigits),
              '0');
  name += digits;
  name += kSegmentSuffix;
  return name;
}

// Slicing-by-8 tables: t[0] is the bytewise table of the reflected
// polynomial 0xEDB88320; t[k][i] is the CRC of byte i followed by k zero
// bytes, so eight lookups advance the CRC by eight bytes.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables x;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      x.t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        x.t[k][i] = (x.t[k - 1][i] >> 8) ^ x.t[0][x.t[k - 1][i] & 0xff];
      }
    }
    return x;
  }();
  return tables;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// ---- Little-endian encoder ----

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// OIDs travel as their strings: interned ids are process-local.
void PutOid(std::string* out, const Oid& oid) {
  PutString(out, oid.valid() ? oid.str() : std::string());
}

void PutValue(std::string* out, const Value& value) {
  PutU8(out, static_cast<uint8_t>(value.type()));
  switch (value.type()) {
    case ValueType::kInt:
      PutU64(out, static_cast<uint64_t>(value.AsInt()));
      break;
    case ValueType::kReal: {
      double d = value.AsReal();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(bits));
      PutU64(out, bits);
      break;
    }
    case ValueType::kString:
      PutString(out, value.AsString());
      break;
    case ValueType::kBool:
      PutU8(out, value.AsBool() ? 1 : 0);
      break;
    case ValueType::kSet: {
      const OidSet& set = value.AsSet();
      PutU32(out, static_cast<uint32_t>(set.size()));
      for (const Oid& oid : set) PutOid(out, oid);
      break;
    }
  }
}

void PutObject(std::string* out, const Object& object) {
  PutOid(out, object.oid());
  PutString(out, object.label());
  PutValue(out, object.value());
}

void PutUpdate(std::string* out, const Update& update) {
  PutU8(out, static_cast<uint8_t>(update.kind));
  PutOid(out, update.parent);
  PutOid(out, update.child);
  PutValue(out, update.old_value);
  PutValue(out, update.new_value);
}

void PutEvent(std::string* out, const UpdateEvent& event) {
  PutU8(out, static_cast<uint8_t>(event.kind));
  PutOid(out, event.parent);
  PutOid(out, event.child);
  PutU8(out, static_cast<uint8_t>(event.level));
  PutU64(out, event.sequence);
  uint8_t flags = 0;
  if (event.parent_object.has_value()) flags |= 1u << 0;
  if (event.child_object.has_value()) flags |= 1u << 1;
  if (event.old_value.has_value()) flags |= 1u << 2;
  if (event.new_value.has_value()) flags |= 1u << 3;
  if (event.root_path.has_value()) flags |= 1u << 4;
  PutU8(out, flags);
  if (event.parent_object.has_value()) PutObject(out, *event.parent_object);
  if (event.child_object.has_value()) PutObject(out, *event.child_object);
  if (event.old_value.has_value()) PutValue(out, *event.old_value);
  if (event.new_value.has_value()) PutValue(out, *event.new_value);
  if (event.root_path.has_value()) {
    PutU32(out, static_cast<uint32_t>(event.root_path->oids.size()));
    for (const Oid& oid : event.root_path->oids) PutOid(out, oid);
    PutU32(out, static_cast<uint32_t>(event.root_path->labels.size()));
    for (const std::string& label : event.root_path->labels.labels()) {
      PutString(out, label);
    }
  }
}

// ---- Bounds-checked decoder ----

class Decoder {
 public:
  explicit Decoder(const std::string& data) : data_(data) {}

  bool ok() const { return ok_; }
  bool done() const { return pos_ == data_.size(); }
  Status Error(const std::string& what) const {
    return Status::DataLoss("wal payload: " + what);
  }

  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  std::string String() {
    uint32_t n = U32();
    if (!ok_ || !Need(n)) return {};
    std::string s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  Oid DecodeOid() {
    std::string s = String();
    if (!ok_ || s.empty()) return Oid();
    return Oid(s);
  }
  Value DecodeValue() {
    switch (static_cast<ValueType>(U8())) {
      case ValueType::kInt:
        return Value::Int(static_cast<int64_t>(U64()));
      case ValueType::kReal: {
        uint64_t bits = U64();
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        return Value::Real(d);
      }
      case ValueType::kString:
        return Value::Str(String());
      case ValueType::kBool:
        return Value::Bool(U8() != 0);
      case ValueType::kSet: {
        uint32_t n = U32();
        OidSet set;
        for (uint32_t i = 0; i < n && ok_; ++i) set.Insert(DecodeOid());
        return Value::Set(std::move(set));
      }
    }
    ok_ = false;
    return Value();
  }
  Object DecodeObject() {
    Oid oid = DecodeOid();
    std::string label = String();
    Value value = DecodeValue();
    return Object(oid, std::move(label), std::move(value));
  }
  Update DecodeUpdate() {
    Update update;
    update.kind = static_cast<UpdateKind>(U8());
    update.parent = DecodeOid();
    update.child = DecodeOid();
    update.old_value = DecodeValue();
    update.new_value = DecodeValue();
    return update;
  }
  UpdateEvent DecodeEvent() {
    UpdateEvent event;
    event.kind = static_cast<UpdateKind>(U8());
    event.parent = DecodeOid();
    event.child = DecodeOid();
    event.level = static_cast<ReportingLevel>(U8());
    event.sequence = U64();
    uint8_t flags = U8();
    if (!ok_) return event;
    if (flags & (1u << 0)) event.parent_object = DecodeObject();
    if (flags & (1u << 1)) event.child_object = DecodeObject();
    if (flags & (1u << 2)) event.old_value = DecodeValue();
    if (flags & (1u << 3)) event.new_value = DecodeValue();
    if (flags & (1u << 4)) {
      RootPathInfo info;
      uint32_t n_oids = U32();
      for (uint32_t i = 0; i < n_oids && ok_; ++i) {
        info.oids.push_back(DecodeOid());
      }
      std::vector<std::string> labels;
      uint32_t n_labels = U32();
      for (uint32_t i = 0; i < n_labels && ok_; ++i) {
        labels.push_back(String());
      }
      info.labels = Path(std::move(labels));
      event.root_path = std::move(info);
    }
    return event;
  }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  const auto& t = Crc32Table().t;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = c ^ LoadLe32(bytes);
    const uint32_t hi = LoadLe32(bytes + 4);
    c = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
        t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
        t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kCommit:
      return "commit";
    case FsyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

// ---- Record builders ----

WalRecord WalRecord::Event(std::string source, UpdateEvent event) {
  WalRecord record;
  record.type = WalRecordType::kEvent;
  record.source = std::move(source);
  record.event = std::move(event);
  return record;
}

WalRecord WalRecord::Epoch(uint64_t epoch, std::string owner) {
  WalRecord record;
  record.type = WalRecordType::kEpoch;
  record.epoch = epoch;
  record.owner = std::move(owner);
  return record;
}

WalRecord WalRecord::Delta(std::string view, ViewDelta delta) {
  WalRecord record;
  record.type = WalRecordType::kViewDelta;
  record.view = std::move(view);
  record.delta = std::move(delta);
  return record;
}

WalRecord WalRecord::Commit(std::vector<WalWatermark> watermarks) {
  WalRecord record;
  record.type = WalRecordType::kCommit;
  record.watermarks = std::move(watermarks);
  return record;
}

WalRecord WalRecord::ViewDef(std::string definition, int cache_mode,
                             std::string source) {
  WalRecord record;
  record.type = WalRecordType::kViewDef;
  record.definition = std::move(definition);
  record.cache_mode = cache_mode;
  record.source = std::move(source);
  return record;
}

// ---- Payload codec ----

std::string EncodeWalPayload(const WalRecord& record) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(record.type));
  PutU64(&payload, record.lsn);
  switch (record.type) {
    case WalRecordType::kEvent:
      PutString(&payload, record.source);
      PutEvent(&payload, record.event);
      break;
    case WalRecordType::kViewDelta:
      PutString(&payload, record.view);
      PutU8(&payload, static_cast<uint8_t>(record.delta.op()));
      switch (record.delta.op()) {
        case ViewDeltaOp::kVInsert:
        case ViewDeltaOp::kRefresh:
          PutObject(&payload, record.delta.object());
          break;
        case ViewDeltaOp::kVDelete:
          PutOid(&payload, record.delta.target());
          break;
        case ViewDeltaOp::kSync:
          PutUpdate(&payload, record.delta.update());
          break;
      }
      break;
    case WalRecordType::kCommit:
      PutU32(&payload, static_cast<uint32_t>(record.watermarks.size()));
      for (const WalWatermark& mark : record.watermarks) {
        PutString(&payload, mark.source);
        PutU64(&payload, mark.last_sequence);
      }
      break;
    case WalRecordType::kViewDef:
      PutString(&payload, record.definition);
      PutU8(&payload, static_cast<uint8_t>(record.cache_mode));
      PutString(&payload, record.source);
      break;
    case WalRecordType::kEpoch:
      PutU64(&payload, record.epoch);
      PutString(&payload, record.owner);
      break;
  }
  return payload;
}

Result<WalRecord> DecodeWalPayload(const std::string& payload) {
  Decoder in(payload);
  WalRecord record;
  record.type = static_cast<WalRecordType>(in.U8());
  record.lsn = in.U64();
  switch (record.type) {
    case WalRecordType::kEvent:
      record.source = in.String();
      record.event = in.DecodeEvent();
      break;
    case WalRecordType::kViewDelta:
      record.view = in.String();
      switch (static_cast<ViewDeltaOp>(in.U8())) {
        case ViewDeltaOp::kVInsert:
          record.delta = ViewDelta::VInsert(in.DecodeObject());
          break;
        case ViewDeltaOp::kVDelete:
          record.delta = ViewDelta::VDelete(in.DecodeOid());
          break;
        case ViewDeltaOp::kSync:
          record.delta = ViewDelta::Sync(in.DecodeUpdate());
          break;
        case ViewDeltaOp::kRefresh:
          record.delta = ViewDelta::Refresh(in.DecodeObject());
          break;
        default:
          return in.Error("unknown view delta op");
      }
      break;
    case WalRecordType::kCommit: {
      uint32_t n = in.U32();
      for (uint32_t i = 0; i < n && in.ok(); ++i) {
        WalWatermark mark;
        mark.source = in.String();
        mark.last_sequence = in.U64();
        record.watermarks.push_back(std::move(mark));
      }
      break;
    }
    case WalRecordType::kViewDef:
      record.definition = in.String();
      record.cache_mode = static_cast<int>(in.U8());
      record.source = in.String();
      break;
    case WalRecordType::kEpoch:
      record.epoch = in.U64();
      record.owner = in.String();
      break;
    default:
      return in.Error("unknown record type");
  }
  if (!in.ok()) return in.Error("truncated body");
  if (!in.done()) return in.Error("trailing bytes");
  return record;
}

std::string WalRecordToString(const WalRecord& record) {
  std::ostringstream out;
  out << "lsn=" << record.lsn << ' ';
  switch (record.type) {
    case WalRecordType::kEvent:
      out << "event source=" << record.source << ' '
          << record.event.ToString();
      break;
    case WalRecordType::kViewDelta:
      out << "delta view=" << record.view << ' ' << record.delta.ToString();
      break;
    case WalRecordType::kCommit:
      out << "commit";
      for (const WalWatermark& mark : record.watermarks) {
        out << ' ' << mark.source << '=' << mark.last_sequence;
      }
      break;
    case WalRecordType::kViewDef:
      out << "viewdef source=" << record.source
          << " cache=" << record.cache_mode << " '" << record.definition
          << '\'';
      break;
    case WalRecordType::kEpoch:
      out << "epoch " << record.epoch << " owner=" << record.owner;
      break;
  }
  return out.str();
}

// ---- Epoch fence ----

namespace {
constexpr char kFenceFileName[] = "FENCE";
constexpr char kFencedPrefix[] = "wal: fenced:";
}  // namespace

Result<FenceInfo> ReadFence(const std::string& dir) {
  Result<std::string> text = ReadFile(dir + "/" + kFenceFileName);
  if (!text.ok()) {
    // Only a missing file means unfenced: an unreadable one must not let
    // a stale writer through.
    if (text.status().code() == StatusCode::kNotFound) return FenceInfo{};
    return text.status();
  }
  std::istringstream in(text.value());
  FenceInfo fence;
  std::string key;
  if (!(in >> key >> fence.epoch) || key != "epoch") {
    return Status::DataLoss("wal: malformed FENCE file in " + dir);
  }
  if (in >> key && key == "owner") {
    std::getline(in, fence.owner);
    if (!fence.owner.empty() && fence.owner.front() == ' ') {
      fence.owner.erase(0, 1);
    }
  }
  return fence;
}

Status WriteFence(const std::string& dir, uint64_t epoch,
                  const std::string& owner) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("wal: cannot create " + dir + ": " + ec.message());
  }
  return PublishFile(dir + "/" + kFenceFileName,
                     "epoch " + std::to_string(epoch) + "\nowner " + owner +
                         "\n");
}

bool IsFencedStatus(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kFencedPrefix, 0) == 0;
}

// ---- Append side ----

Status Wal::CheckFence() const {
  if (options_.writer_epoch == 0) return Status::Ok();
  GSV_ASSIGN_OR_RETURN(FenceInfo fence, ReadFence(dir_));
  if (fence.epoch > options_.writer_epoch) {
    return Status::FailedPrecondition(
        std::string(kFencedPrefix) + " writer epoch " +
        std::to_string(options_.writer_epoch) + " superseded by fence epoch " +
        std::to_string(fence.epoch) +
        (fence.owner.empty() ? std::string() : " held by " + fence.owner));
  }
  return Status::Ok();
}

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const Options& options,
                                       uint64_t next_lsn) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("wal: cannot create " + dir + ": " +
                            ec.message());
  }
  GSV_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                       ListWalSegments(dir));
  std::unique_ptr<Wal> wal(new Wal(dir, options, next_lsn));
  if (options.writer_epoch > 0) {
    // Claim the fence: refuse to open under a higher fence, raise a lower
    // one to this writer's epoch so any stale co-writer gets cut off.
    GSV_RETURN_IF_ERROR(wal->CheckFence());
    GSV_ASSIGN_OR_RETURN(FenceInfo fence, ReadFence(dir));
    if (fence.epoch < options.writer_epoch) {
      GSV_RETURN_IF_ERROR(
          WriteFence(dir, options.writer_epoch, options.owner));
    }
  }
  std::string path = segments.empty()
                         ? dir + "/" + SegmentName(next_lsn)
                         : segments.back().path;
  GSV_RETURN_IF_ERROR(wal->OpenSegment(path));
  if (options.writer_epoch > 0) {
    // Stamp the writer's generation so readers can attribute every byte
    // that follows (a new header per writer session, even mid-segment).
    GSV_RETURN_IF_ERROR(wal->Append(
        WalRecord::Epoch(options.writer_epoch, options.owner)));
  }
  return wal;
}

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

Status Wal::OpenSegment(const std::string& path) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) return ErrnoStatus("wal: open " + path);
  active_segment_ = path;
  return Status::Ok();
}

Status Wal::WriteFrame(const std::string& payload) {
  if (crashed_) return Status::DataLoss("wal: crashed (injected)");
  if (payload.size() > kMaxPayloadSize) {
    return Status::InvalidArgument("wal: payload too large");
  }
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload.data(), payload.size()));
  frame.append(payload);

  size_t to_write = frame.size();
  if (crash_budget_ >= 0 && static_cast<int64_t>(to_write) > crash_budget_) {
    // Simulated power loss: part of the frame reaches the disk, then the
    // process is gone. Later appends fail so the torn tail stays torn. At
    // least one byte always lands: an interrupted append must leave a
    // physical tear, because recovery relies on the dichotomy "clean log =
    // every accepted record fully present / torn log = fall back to
    // quarantine + resync". A zero-byte cut would silently lose a record
    // the warehouse already accepted.
    to_write = static_cast<size_t>(crash_budget_ > 0 ? crash_budget_ : 1);
    crashed_ = true;
  } else if (crash_budget_ >= 0) {
    crash_budget_ -= static_cast<int64_t>(to_write);
  }

  size_t written = 0;
  while (written < to_write) {
    ssize_t n = ::write(fd_, frame.data() + written, to_write - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("wal: write " + active_segment_);
    }
    written += static_cast<size_t>(n);
  }
  bytes_written_ += static_cast<int64_t>(written);
  if (crashed_) return Status::DataLoss("wal: crashed (injected)");
  return Status::Ok();
}

Status Wal::Append(WalRecord record) {
  GSV_RETURN_IF_ERROR(CheckFence());
  record.lsn = next_lsn_;
  std::string payload = EncodeWalPayload(record);
  GSV_RETURN_IF_ERROR(WriteFrame(payload));
  ++next_lsn_;
  ++records_appended_;
  if (options_.fsync == FsyncPolicy::kAlways ||
      (options_.fsync == FsyncPolicy::kCommit &&
       record.type == WalRecordType::kCommit)) {
    return Sync();
  }
  return Status::Ok();
}

Status Wal::Sync() {
  if (crashed_) return Status::DataLoss("wal: crashed (injected)");
  if (fd_ < 0) return Status::FailedPrecondition("wal: no active segment");
  if (::fsync(fd_) != 0) return ErrnoStatus("wal: fsync " + active_segment_);
  return Status::Ok();
}

Status Wal::Roll() {
  if (crashed_) return Status::DataLoss("wal: crashed (injected)");
  GSV_RETURN_IF_ERROR(CheckFence());
  GSV_RETURN_IF_ERROR(Sync());
  GSV_RETURN_IF_ERROR(OpenSegment(dir_ + "/" + SegmentName(next_lsn_)));
  if (options_.writer_epoch > 0) {
    // Fresh segment, fresh header: every segment leads with its writer's
    // epoch so a shipped segment carries its provenance stand-alone.
    return Append(WalRecord::Epoch(options_.writer_epoch, options_.owner));
  }
  return Status::Ok();
}

// ---- Scan side ----

Result<std::vector<WalSegmentInfo>> ListWalSegments(
    const std::string& dir, std::vector<std::string>* warnings) {
  std::vector<WalSegmentInfo> segments;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) return segments;  // missing directory = empty log
  auto warn = [&](const std::string& name, const char* why) {
    if (warnings != nullptr) {
      warnings->push_back("wal: skipping " + dir + "/" + name + ": " + why);
    }
  };
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegmentPrefix, 0) != 0) continue;
    if (!entry.is_regular_file(ec) || ec) {
      warn(name, "segment-like name but not a regular file");
      continue;
    }
    if (name.size() <=
            std::strlen(kSegmentPrefix) + std::strlen(kSegmentSuffix) ||
        name.substr(name.size() - std::strlen(kSegmentSuffix)) !=
            kSegmentSuffix) {
      warn(name, "segment-like name without the .log suffix");
      continue;
    }
    const std::string digits = name.substr(
        std::strlen(kSegmentPrefix),
        name.size() - std::strlen(kSegmentPrefix) - std::strlen(kSegmentSuffix));
    uint64_t first_lsn = 0;
    bool numeric = !digits.empty();
    for (char c : digits) {
      if (c < '0' || c > '9') {
        numeric = false;
        break;
      }
      first_lsn = first_lsn * 10 + static_cast<uint64_t>(c - '0');
    }
    if (!numeric) {
      warn(name, "segment-like name with non-numeric LSN");
      continue;
    }
    segments.push_back(WalSegmentInfo{entry.path().string(), name, first_lsn});
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.first_lsn < b.first_lsn;
            });
  return segments;
}

WalFrame DecodeWalFrame(const std::string& data, size_t offset) {
  auto failed = [](WalFrameStatus status) {
    WalFrame frame;
    frame.status = status;
    return frame;
  };
  if (offset > data.size() || data.size() - offset < kFrameHeaderSize) {
    return failed(WalFrameStatus::kIncomplete);
  }
  auto u32at = [&](size_t at) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data[at + i]))
           << (8 * i);
    }
    return v;
  };
  const uint32_t length = u32at(offset);
  const uint32_t crc = u32at(offset + 4);
  if (length > kMaxPayloadSize) return failed(WalFrameStatus::kCorrupt);
  if (data.size() - offset - kFrameHeaderSize < length) {
    return failed(WalFrameStatus::kIncomplete);
  }
  const std::string payload = data.substr(offset + kFrameHeaderSize, length);
  if (Crc32(payload.data(), payload.size()) != crc) {
    return failed(WalFrameStatus::kCorrupt);
  }
  Result<WalRecord> decoded = DecodeWalPayload(payload);
  if (!decoded.ok()) return failed(WalFrameStatus::kCorrupt);
  return WalFrame{WalFrameStatus::kRecord, std::move(decoded).value(),
                  kFrameHeaderSize + length};
}

Result<WalScan> ScanWal(const std::string& dir) {
  WalScan scan;
  GSV_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                       ListWalSegments(dir));
  uint64_t expected_lsn = 0;  // 0 = take the first record's lsn
  for (size_t seg = 0; seg < segments.size(); ++seg) {
    const WalSegmentInfo& info = segments[seg];
    GSV_ASSIGN_OR_RETURN(const std::string data, ReadFile(info.path));

    size_t pos = 0;
    bool torn_here = false;
    while (pos < data.size()) {
      // An incomplete frame, a corrupt one and an LSN discontinuity all
      // end the valid prefix here.
      WalFrame frame = DecodeWalFrame(data, pos);
      if (frame.status != WalFrameStatus::kRecord ||
          (expected_lsn != 0 && frame.record.lsn != expected_lsn)) {
        torn_here = true;
        break;
      }
      WalRecord& record = frame.record;
      expected_lsn = record.lsn + 1;
      record.segment = info.name;
      record.offset = pos;
      record.end_offset = pos + frame.size;
      scan.records.push_back(std::move(record));
      pos += frame.size;
    }

    if (torn_here) {
      if (seg + 1 < segments.size()) {
        // A crash can only tear the active tail. Damage in an interior
        // segment is corrupted *committed* history — truncating here would
        // silently drop records later segments still reference, so refuse.
        return Status::DataLoss(
            "wal: corrupt record at " + info.name + " offset " +
            std::to_string(pos) +
            " in a non-final segment (committed history damaged; " +
            "truncation would lose acknowledged records)");
      }
      scan.torn = true;
      scan.torn_segment = info.name;
      scan.torn_offset = pos;
      scan.torn_bytes += data.size() - pos;
      break;  // everything after the tear is suspect
    }
  }
  scan.next_lsn = expected_lsn == 0
                      ? (segments.empty() ? 1 : segments.front().first_lsn)
                      : expected_lsn;
  if (scan.next_lsn == 0) scan.next_lsn = 1;
  return scan;
}

Status TruncateWal(const std::string& dir, const std::string& segment,
                   uint64_t offset) {
  GSV_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                       ListWalSegments(dir));
  bool found = false;
  for (const WalSegmentInfo& info : segments) {
    if (info.name == segment) {
      found = true;
      if (::truncate(info.path.c_str(), static_cast<off_t>(offset)) != 0) {
        return ErrnoStatus("wal: truncate " + info.path);
      }
      continue;
    }
    if (found) {
      std::error_code ec;
      fs::remove(info.path, ec);
      if (ec) {
        return Status::Internal("wal: remove " + info.path + ": " +
                                ec.message());
      }
    }
  }
  if (!found) {
    return Status::NotFound("wal: no segment named " + segment + " in " +
                            dir);
  }
  return Status::Ok();
}

}  // namespace gsv
