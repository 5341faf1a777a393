#ifndef GSV_OEM_SERIALIZE_H_
#define GSV_OEM_SERIALIZE_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "oem/store.h"
#include "util/status.h"

namespace gsv {

// Plain-text persistence for GSDBs in (a machine-readable variant of) the
// paper's object notation. Each line is one record:
//
//   obj <oid> <label> int <value>
//   obj <oid> <label> real <value>
//   obj <oid> <label> string "<escaped>"
//   obj <oid> <label> bool true|false
//   obj <oid> <label> set <child> <child> ...
//   db  <name> <oid>
//
// OIDs and labels are written verbatim and therefore must not contain
// whitespace (true throughout this library); strings are quoted with
// backslash escapes for '"', '\' and newline. Lines starting with '#' and
// blank lines are ignored on load.

// The record codec. The record line is both the checkpoint line format
// and the unit the paged storage engine packs into pages, so a page image
// is a byte slice of the store's serialized form (DESIGN.md §4h).

// One object as its canonical record line ("obj ...", no trailing
// newline).
std::string EncodeObjectRecord(const Object& object);

// Decodes a run of '\n'-separated object records (a page payload, or the
// object section of a store image) and appends them to *objects in text
// order. Blank lines and '#' comments are skipped; any other line must be
// an "obj " record. The fields are parsed in place, and every OID spelling
// of the run (each record's OID, then its children) is interned by one
// OidTable::InternMany call in text order, so ids are handed out exactly
// as a record-at-a-time decode would. kInvalidArgument ("line N: ...") on
// a malformed record; the records before it are still appended.
Status DecodeObjectRecords(std::string_view text, std::vector<Object>* objects);

// Writes every object (streamed in OID order — a paged store is captured
// without materializing it) and every database registration.
Status WriteStore(const ObjectStore& store, std::ostream& out);

// Parses records into `store` (which may already hold objects; duplicate
// OIDs fail with kAlreadyExists). Children may be forward references.
// Reads `in` one stride of lines at a time and parses each as
// StoreFromString does, so only a stride of the text is held at once.
Status ReadStore(std::istream& in, ObjectStore* store);

// Convenience: file round trips.
Status SaveStoreToFile(const ObjectStore& store, const std::string& path);
Status LoadStoreFromFile(const std::string& path, ObjectStore* store);

// String round trips (checkpoint export/import, testing, tooling).
// StoreFromString parses the text in place with DecodeObjectRecords, one
// stride of records at a time, safe-pointing the store between strides.
std::string StoreToString(const ObjectStore& store);
Status StoreFromString(std::string_view text, ObjectStore* store);

}  // namespace gsv

#endif  // GSV_OEM_SERIALIZE_H_
