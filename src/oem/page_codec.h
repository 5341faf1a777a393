#ifndef GSV_OEM_PAGE_CODEC_H_
#define GSV_OEM_PAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace gsv {

// The page-payload codec seam of the paged storage engine (DESIGN.md §4i).
//
// A page's logical payload is a run of canonical checkpoint record lines
// (serialize.h). The engine passes that raw text through a PageCodec before
// writing it to pages.gsp and through Decode when faulting the page back
// in. The per-page CRC in PAGEDIR is always computed over the *stored*
// bytes, so offline tooling (`wal_inspect pages`) can audit a cold file
// without decoding it; the codec id and the raw size are recorded per page
// so the same tooling can also report compression ratios and refuse images
// it does not understand.
//
// Codecs are stateless singletons: Encode/Decode are const and safe to call
// concurrently (the background writeback thread compresses off the engine
// lock while readers fault other pages in).
class PageCodec {
 public:
  virtual ~PageCodec() = default;

  // Stable on-disk identifier, recorded in every PAGEDIR page line.
  virtual uint8_t id() const = 0;
  // Human-readable name ("identity", "gsvz"), used in specs and tooling.
  virtual const char* name() const = 0;

  // Encodes `raw` into the stored representation. Must be loss-free;
  // Decode(Encode(raw)) == raw for every input.
  virtual std::string Encode(std::string_view raw) const = 0;

  // Decodes a stored payload back to the raw text. kDataLoss on a
  // malformed stream (truncated, out-of-window match, size mismatch, or a
  // declared size the stream's length cannot hold).
  virtual Result<std::string> Decode(std::string_view stored) const = 0;
};

// Codec 0: the stored bytes are the raw bytes (PR 7 behavior).
const PageCodec* IdentityPageCodec();

// Codec 1 ("gsvz"): a dependency-free LZSS over the text encoding — a
// varint raw-size header, then literal/match tokens against a 4 KiB
// sliding window. The checkpoint text encoding repeats record keywords,
// labels, and OID prefixes densely, so pages typically store well under
// 0.6x their raw size (E20 gates this).
const PageCodec* GsvzPageCodec();

// Lookup by on-disk id; nullptr when unknown (tooling must then refuse the
// image rather than misread it).
const PageCodec* PageCodecById(uint8_t id);

// Lookup by spec name: "identity", "gsvz", or the alias "compressed"
// (what GSV_STORAGE_ENGINE=paged:...:compressed selects). kInvalidArgument
// with the known names listed on anything else.
Result<const PageCodec*> PageCodecByName(std::string_view name);

}  // namespace gsv

#endif  // GSV_OEM_PAGE_CODEC_H_
