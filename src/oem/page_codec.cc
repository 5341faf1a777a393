#include "oem/page_codec.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace gsv {
namespace {

// ---- gsvz stream format -------------------------------------------------
//
//   varint raw_size
//   repeated groups:
//     control byte C (bit i set = item i is a literal byte)
//     8 items, LSB first; the final group may be short
//   literal item: 1 byte, copied verbatim
//   match item:   2 bytes: [offset >> 4] [((offset & 0xF) << 4) | (len - 3)]
//                 offset in [1, 4095] back from the output cursor,
//                 len in [3, 18]; matches may self-overlap (RLE).
//
// The window (4 KiB) deliberately fits inside the default 64 KiB page, and
// the 18-byte match cap keeps the matcher a cheap hash-chain walk: page
// encode sits on the background writeback thread, decode on the fault
// path, so both lean simple over maximal ratio.

constexpr size_t kWindow = 4096;
constexpr size_t kMinMatch = 3;
constexpr size_t kMaxMatch = 18;
constexpr int kHashBits = 13;
constexpr int kMaxChain = 32;  // positions probed per emitted token

void PutVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>(0x80 | (value & 0x7F)));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool GetVarint(std::string_view in, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  while (*pos < in.size() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in[*pos]);
    ++*pos;
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

inline uint32_t Hash3(const uint8_t* p) {
  // Multiplicative hash of 3 bytes down to kHashBits.
  uint32_t v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
               (static_cast<uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

class IdentityCodec final : public PageCodec {
 public:
  uint8_t id() const override { return 0; }
  const char* name() const override { return "identity"; }
  std::string Encode(std::string_view raw) const override {
    return std::string(raw);
  }
  Result<std::string> Decode(std::string_view stored) const override {
    return std::string(stored);
  }
};

class GsvzCodec final : public PageCodec {
 public:
  uint8_t id() const override { return 1; }
  const char* name() const override { return "gsvz"; }

  std::string Encode(std::string_view raw) const override {
    std::string out;
    out.reserve(raw.size() / 2 + 16);
    PutVarint(&out, raw.size());
    if (raw.empty()) return out;

    const uint8_t* data = reinterpret_cast<const uint8_t*>(raw.data());
    std::vector<int32_t> head(size_t{1} << kHashBits, -1);
    std::vector<int32_t> chain(raw.size(), -1);

    std::string group;        // up to 8 encoded items
    uint8_t control = 0;      // literal bits for the pending group
    int items = 0;
    auto flush_group = [&] {
      if (items == 0) return;
      out.push_back(static_cast<char>(control));
      out.append(group);
      group.clear();
      control = 0;
      items = 0;
    };

    size_t pos = 0;
    while (pos < raw.size()) {
      size_t best_len = 0;
      size_t best_offset = 0;
      if (pos + kMinMatch <= raw.size()) {
        uint32_t h = Hash3(data + pos);
        int32_t candidate = head[h];
        int probes = kMaxChain;
        const size_t limit = std::min(kMaxMatch, raw.size() - pos);
        while (candidate >= 0 && probes-- > 0) {
          const size_t offset = pos - static_cast<size_t>(candidate);
          if (offset >= kWindow) break;  // chain only gets older
          size_t len = 0;
          while (len < limit && data[candidate + len] == data[pos + len]) {
            ++len;
          }
          if (len > best_len) {
            best_len = len;
            best_offset = offset;
            if (len == limit) break;
          }
          candidate = chain[candidate];
        }
      }

      if (best_len >= kMinMatch) {
        group.push_back(static_cast<char>(best_offset >> 4));
        group.push_back(static_cast<char>(((best_offset & 0xF) << 4) |
                                          (best_len - kMinMatch)));
        ++items;
        // Index every covered position so later matches can start inside
        // this one.
        const size_t end = pos + best_len;
        while (pos < end) {
          if (pos + kMinMatch <= raw.size()) {
            uint32_t h = Hash3(data + pos);
            chain[pos] = head[h];
            head[h] = static_cast<int32_t>(pos);
          }
          ++pos;
        }
      } else {
        control |= static_cast<uint8_t>(1u << items);
        group.push_back(static_cast<char>(data[pos]));
        ++items;
        if (pos + kMinMatch <= raw.size()) {
          uint32_t h = Hash3(data + pos);
          chain[pos] = head[h];
          head[h] = static_cast<int32_t>(pos);
        }
        ++pos;
      }
      if (items == 8) flush_group();
    }
    flush_group();
    return out;
  }

  Result<std::string> Decode(std::string_view stored) const override {
    size_t pos = 0;
    uint64_t raw_size = 0;
    if (!GetVarint(stored, &pos, &raw_size)) {
      return Status::DataLoss("gsvz: truncated size header");
    }
    // Every item costs at least one stored byte plus a control-bit share
    // and yields at most kMaxMatch bytes per 2-byte match, so no valid
    // stream expands past kMaxMatch / 2 times its stored size. Checked
    // before the output is allocated: a corrupt header must not size it.
    if (raw_size > (kMaxMatch / 2) * static_cast<uint64_t>(stored.size())) {
      return Status::DataLoss("gsvz: declared size " +
                              std::to_string(raw_size) +
                              " exceeds what the stream can hold");
    }
    std::string out(raw_size, '\0');
    char* const dst = out.data();
    size_t n = 0;  // bytes produced
    while (n < raw_size) {
      if (pos >= stored.size()) {
        return Status::DataLoss("gsvz: truncated stream");
      }
      uint8_t control = static_cast<uint8_t>(stored[pos++]);
      for (int item = 0; item < 8 && n < raw_size; ++item) {
        if (control & (1u << item)) {
          if (pos >= stored.size()) {
            return Status::DataLoss("gsvz: truncated literal");
          }
          dst[n++] = stored[pos++];
          continue;
        }
        if (pos + 1 >= stored.size()) {
          return Status::DataLoss("gsvz: truncated match");
        }
        const uint8_t b0 = static_cast<uint8_t>(stored[pos]);
        const uint8_t b1 = static_cast<uint8_t>(stored[pos + 1]);
        pos += 2;
        const size_t offset = (static_cast<size_t>(b0) << 4) | (b1 >> 4);
        const size_t len = (b1 & 0xF) + kMinMatch;
        if (offset == 0 || offset > n) {
          return Status::DataLoss("gsvz: match offset outside window");
        }
        if (n + len > raw_size) {
          return Status::DataLoss("gsvz: match overruns declared size");
        }
        const char* src = dst + n - offset;
        if (offset >= len) {
          std::memcpy(dst + n, src, len);
        } else {
          // Self-overlapping (RLE): each byte may be one this match wrote.
          for (size_t i = 0; i < len; ++i) dst[n + i] = src[i];
        }
        n += len;
      }
    }
    if (pos != stored.size()) {
      return Status::DataLoss("gsvz: trailing bytes after declared size");
    }
    return out;
  }
};

}  // namespace

const PageCodec* IdentityPageCodec() {
  static const IdentityCodec codec;
  return &codec;
}

const PageCodec* GsvzPageCodec() {
  static const GsvzCodec codec;
  return &codec;
}

const PageCodec* PageCodecById(uint8_t id) {
  switch (id) {
    case 0:
      return IdentityPageCodec();
    case 1:
      return GsvzPageCodec();
    default:
      return nullptr;
  }
}

Result<const PageCodec*> PageCodecByName(std::string_view name) {
  if (name == "identity") return IdentityPageCodec();
  if (name == "gsvz" || name == "compressed") return GsvzPageCodec();
  return Status::InvalidArgument("unknown page codec '" + std::string(name) +
                                 "' (known: identity, compressed/gsvz)");
}

}  // namespace gsv
