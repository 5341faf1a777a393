#include "oem/serialize.h"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "util/string_util.h"

namespace gsv {
namespace {

// Object records between store safe points on bulk load; also the batch
// a load decodes (and interns) at once, and the lines ReadStore reads
// from its stream at a time.
constexpr size_t kLoadStride = 2048;

std::string EscapeString(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
  return out;
}

// Parses the quoted string whose opening quote is line[quote].
Result<std::string> UnescapeString(std::string_view line, size_t quote) {
  std::string out;
  for (size_t i = quote + 1;;) {
    const size_t stop = line.find_first_of("\"\\", i);
    if (stop == std::string_view::npos) {
      return Status::InvalidArgument("unterminated string in: " +
                                     std::string(line));
    }
    out.append(line.substr(i, stop - i));
    if (line[stop] == '"') return out;
    if (stop + 1 >= line.size()) {
      return Status::InvalidArgument("dangling escape in: " +
                                     std::string(line));
    }
    out += line[stop + 1] == 'n' ? '\n' : line[stop + 1];
    i = stop + 2;
  }
}

bool IsBlank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

// The next run of non-blank bytes at or after *pos in `text` (empty at the
// end); advances *pos past it.
std::string_view NextToken(std::string_view text, size_t* pos) {
  size_t i = *pos;
  while (i < text.size() && IsBlank(text[i])) ++i;
  const size_t start = i;
  while (i < text.size() && !IsBlank(text[i])) ++i;
  *pos = i;
  return text.substr(start, i - start);
}

// The line starting at `pos` (without its '\n').
std::string_view LineAt(std::string_view text, size_t pos) {
  const size_t end = text.find('\n', pos);
  return text.substr(pos, end == std::string_view::npos ? end : end - pos);
}

bool IsObjectLine(std::string_view line) { return line.starts_with("obj "); }
bool IsSkippedLine(std::string_view line) {
  return line.empty() || line[0] == '#';
}

// One record split into fields. Its OID and children are the spellings
// [first, first + count) of the run being decoded (the OID first); an
// atomic record's value is already parsed.
struct RecordFields {
  std::string_view label;
  bool is_set = false;
  Value value;
  size_t first = 0;
  size_t count = 0;
};

// Splits one record line ("obj <oid> <label> <type> <payload...>").
// Tokens are taken from the part before the first '"', so a string's
// payload never splits.
Status ParseRecordFields(std::string_view line,
                         std::vector<std::string_view>* spellings,
                         RecordFields* fields) {
  const size_t quote = line.find('"');
  const std::string_view head = line.substr(0, quote);
  size_t pos = 0;
  const std::string_view keyword = NextToken(head, &pos);
  const std::string_view oid = NextToken(head, &pos);
  fields->label = NextToken(head, &pos);
  const std::string_view type = NextToken(head, &pos);
  if (type.empty() || keyword != "obj") {
    return Status::InvalidArgument("malformed object record");
  }
  fields->first = spellings->size();
  fields->count = 1;
  spellings->push_back(oid);
  if (type == "set") {
    fields->is_set = true;
    for (std::string_view child = NextToken(head, &pos); !child.empty();
         child = NextToken(head, &pos)) {
      spellings->push_back(child);
      ++fields->count;
    }
    return Status::Ok();
  }
  if (type == "string") {
    if (quote == std::string_view::npos) {
      return Status::InvalidArgument("string record needs quotes");
    }
    GSV_ASSIGN_OR_RETURN(std::string text, UnescapeString(line, quote));
    fields->value = Value::Str(std::move(text));
    return Status::Ok();
  }
  if (type != "int" && type != "real" && type != "bool") {
    return Status::InvalidArgument("unknown type '" + std::string(type) +
                                   "'");
  }
  const std::string_view token = NextToken(head, &pos);
  if (token.empty() || !NextToken(head, &pos).empty()) {
    return Status::InvalidArgument(std::string(type) +
                                   " record needs one value");
  }
  if (type == "bool") {
    fields->value = Value::Bool(token == "true");
  } else if (type == "int") {
    std::optional<int64_t> value = ParseInt64(token);
    if (!value.has_value()) {
      return Status::InvalidArgument("bad integer '" + std::string(token) +
                                     "'");
    }
    fields->value = Value::Int(*value);
  } else {
    std::optional<double> value = ParseDouble(token);
    if (!value.has_value()) {
      return Status::InvalidArgument("bad real '" + std::string(token) + "'");
    }
    fields->value = Value::Real(*value);
  }
  return Status::Ok();
}

// Decodes object records from text[*pos...] until the text ends,
// `max_records` are decoded, or the next line is neither skipped nor an
// "obj " record. *pos and *line_number advance past the consumed lines.
// On a malformed record the records before it are still appended, and
// *pos is left at the bad line.
Status DecodeRecordRun(std::string_view text, size_t max_records, size_t* pos,
                       size_t* line_number, std::vector<Object>* objects) {
  std::vector<RecordFields> records;
  std::vector<std::string_view> spellings;
  Status status = Status::Ok();
  while (*pos < text.size() && records.size() < max_records) {
    const std::string_view line = LineAt(text, *pos);
    if (!IsSkippedLine(line) && !IsObjectLine(line)) break;
    if (IsObjectLine(line)) {
      RecordFields fields;
      const size_t parsed_spellings = spellings.size();
      status = ParseRecordFields(line, &spellings, &fields);
      if (!status.ok()) {
        spellings.resize(parsed_spellings);
        status = Status::InvalidArgument(
            "line " + std::to_string(*line_number + 1) + ": " +
            status.message());
        break;
      }
      records.push_back(std::move(fields));
    }
    ++*line_number;
    *pos += line.size() + 1;
  }
  std::vector<uint32_t> ids(spellings.size());
  OidTable::Global().InternMany(spellings, ids);
  objects->reserve(objects->size() + records.size());
  for (RecordFields& fields : records) {
    const Oid oid = Oid::FromId(ids[fields.first]);
    if (fields.is_set) {
      std::vector<Oid> children;
      children.reserve(fields.count - 1);
      for (size_t i = fields.first + 1; i < fields.first + fields.count; ++i) {
        children.push_back(Oid::FromId(ids[i]));
      }
      fields.value = Value::SetOf(std::move(children));
    }
    objects->emplace_back(oid, std::string(fields.label),
                          std::move(fields.value));
  }
  return status;
}

// Parses store text into a store. The line count and the safe-point
// cadence carry over from one Feed to the next, so text may arrive in
// chunks as long as each chunk ends at a line boundary.
class StoreLoader {
 public:
  explicit StoreLoader(ObjectStore* store) : store_(store) {}

  Status Feed(std::string_view text) {
    size_t pos = 0;
    while (pos < text.size()) {
      batch_.clear();
      Status run =
          DecodeRecordRun(text, kLoadStride, &pos, &line_number_, &batch_);
      for (Object& object : batch_) {
        GSV_RETURN_IF_ERROR(store_->Put(std::move(object)));
        // Bulk load is a quiescent boundary every stretch of records: the
        // caller holds no object pointers mid-load, so a bounded-pool
        // engine can evict back to budget instead of materializing the
        // whole image.
        if (++objects_loaded_ % kLoadStride == 0) store_->StorageSafePoint();
      }
      GSV_RETURN_IF_ERROR(run);
      if (pos >= text.size()) break;
      const std::string_view line = LineAt(text, pos);
      if (IsSkippedLine(line) || IsObjectLine(line)) continue;  // next run
      ++line_number_;
      pos += line.size() + 1;
      GSV_RETURN_IF_ERROR(RegisterDatabaseLine(line));
    }
    return Status::Ok();
  }

 private:
  // Registers one "db <name> <oid>" line (line_number_ is its number).
  Status RegisterDatabaseLine(std::string_view line) {
    auto fail = [&](const std::string& message) {
      return Status::InvalidArgument("line " + std::to_string(line_number_) +
                                     ": " + message);
    };
    if (!line.starts_with("db ")) {
      return fail("unknown record '" + std::string(line) + "'");
    }
    size_t field = 0;
    NextToken(line, &field);  // "db"
    const std::string_view name = NextToken(line, &field);
    const std::string_view oid = NextToken(line, &field);
    if (oid.empty() || !NextToken(line, &field).empty()) {
      return fail("malformed db record");
    }
    return store_->RegisterDatabase(std::string(name), Oid(oid));
  }

  ObjectStore* store_;
  size_t line_number_ = 0;
  size_t objects_loaded_ = 0;
  std::vector<Object> batch_;
};

}  // namespace

std::string EncodeObjectRecord(const Object& object) {
  std::ostringstream out;
  out << "obj " << object.oid().str() << ' ' << object.label() << ' ';
  switch (object.type()) {
    case ValueType::kInt:
      out << "int " << object.value().AsInt();
      break;
    case ValueType::kReal:
      out << "real " << object.value().AsReal();
      break;
    case ValueType::kString:
      out << "string " << EscapeString(object.value().AsString());
      break;
    case ValueType::kBool:
      out << "bool " << (object.value().AsBool() ? "true" : "false");
      break;
    case ValueType::kSet: {
      out << "set";
      for (const Oid& child : object.children()) {
        out << ' ' << child.str();
      }
      break;
    }
  }
  return out.str();
}

Status DecodeObjectRecords(std::string_view text,
                           std::vector<Object>* objects) {
  size_t pos = 0;
  size_t line_number = 0;
  GSV_RETURN_IF_ERROR(DecodeRecordRun(text,
                                      std::numeric_limits<size_t>::max(),
                                      &pos, &line_number, objects));
  if (pos < text.size()) {
    return Status::InvalidArgument("line " + std::to_string(line_number + 1) +
                                   ": malformed object record");
  }
  return Status::Ok();
}

Status WriteStore(const ObjectStore& store, std::ostream& out) {
  out << "# gsview store: " << store.size() << " objects\n";
  store.ScanInOrder([&](const Object& object) {
    out << EncodeObjectRecord(object) << '\n';
  });
  for (const std::string& name : store.DatabaseNames()) {
    out << "db " << name << ' ' << store.DatabaseOid(name).str() << '\n';
  }
  if (!out.good()) return Status::Internal("stream write failed");
  return Status::Ok();
}

Status StoreFromString(std::string_view text, ObjectStore* store) {
  return StoreLoader(store).Feed(text);
}

Status ReadStore(std::istream& in, ObjectStore* store) {
  // One stride of lines at a time, so a file load holds no more of the text
  // than a stride's worth beside the store.
  StoreLoader loader(store);
  std::string chunk;
  std::string line;
  while (in) {
    chunk.clear();
    for (size_t lines = 0; lines < kLoadStride && std::getline(in, line);
         ++lines) {
      chunk += line;
      chunk += '\n';
    }
    GSV_RETURN_IF_ERROR(loader.Feed(chunk));
  }
  return Status::Ok();
}

Status SaveStoreToFile(const ObjectStore& store, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open " + path + " for writing");
  }
  return WriteStore(store, out);
}

Status LoadStoreFromFile(const std::string& path, ObjectStore* store) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open " + path);
  }
  return ReadStore(in, store);
}

std::string StoreToString(const ObjectStore& store) {
  std::ostringstream out;
  (void)WriteStore(store, out);
  return out.str();
}

}  // namespace gsv
