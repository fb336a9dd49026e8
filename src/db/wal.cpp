#include "db/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/check.h"
#include "common/codec.h"

namespace rcommit::db {

namespace {

/// Upper bound on a record's framed size: header, type byte, and three
/// varints of at most 10 bytes each around the key and value bytes.
size_t max_frame_size(std::string_view key, std::string_view value) {
  return 8 + 1 + 3 * 10 + key.size() + value.size();
}

uint8_t* put_varint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

uint8_t* put_str(uint8_t* p, std::string_view s) {
  p = put_varint(p, s.size());
  if (!s.empty()) std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

void put_le32(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

/// Appends one frame — [length][crc32c][type, svarint txn, key, value] —
/// to `out`, byte-identical to BufWriter's encoding. The body is written in
/// place and the header patched afterwards, so a warm `out` costs no
/// allocation.
void append_frame(std::vector<uint8_t>& out, WalRecordType type, int64_t txn,
                  std::string_view key, std::string_view value) {
  const size_t start = out.size();
  out.resize(start + max_frame_size(key, value));
  uint8_t* const head = out.data() + start;
  uint8_t* const body = head + 8;
  uint8_t* p = body;
  *p++ = static_cast<uint8_t>(type);
  // Zigzag, as BufWriter::svarint.
  p = put_varint(p, (static_cast<uint64_t>(txn) << 1) ^
                        static_cast<uint64_t>(txn >> 63));
  p = put_str(p, key);
  p = put_str(p, value);
  const auto length = static_cast<size_t>(p - body);
  put_le32(head, static_cast<uint32_t>(length));
  put_le32(head + 4, crc32c(std::span<const uint8_t>(body, length)));
  out.resize(start + 8 + length);
}

uint32_t get_le32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

/// Reads an unsigned LEB128 varint of at most ten bytes, as
/// BufReader::varint does; false when the body ends first or an eleventh
/// byte would be needed.
bool get_varint(const uint8_t*& p, const uint8_t* end, uint64_t& out) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      out = result;
      return true;
    }
  }
  return false;
}

/// Reads a length-prefixed string as a view; false on a length past `end`.
bool get_str(const uint8_t*& p, const uint8_t* end, std::string_view& out) {
  uint64_t length = 0;
  if (!get_varint(p, end, length) || length > static_cast<uint64_t>(end - p)) {
    return false;
  }
  out = {reinterpret_cast<const char*>(p), static_cast<size_t>(length)};
  p += length;
  return true;
}

/// Decodes one frame body — [type, svarint txn, key, value] — into `view`,
/// pointing into the body. False when the body is malformed.
bool decode_body(std::span<const uint8_t> body, WalRecordView& view) {
  const uint8_t* p = body.data();
  const uint8_t* const end = p + body.size();
  if (p == end) return false;
  const uint8_t raw_type = *p++;
  // An unchecked enum cast would let a type byte outside WalRecordType sail
  // through recovery's switches unmatched — silently dropping a record whose
  // CRC said it was intact. Reject it instead: the scan stops here and
  // trusts nothing after (same policy as a CRC mismatch).
  if (raw_type < static_cast<uint8_t>(WalRecordType::kBegin) ||
      raw_type > static_cast<uint8_t>(WalRecordType::kBatchSeal)) {
    return false;
  }
  uint64_t zigzag = 0;
  if (!get_varint(p, end, zigzag) || !get_str(p, end, view.key) ||
      !get_str(p, end, view.value)) {
    return false;
  }
  view.type = static_cast<WalRecordType>(raw_type);
  view.txn_id = static_cast<int64_t>((zigzag >> 1) ^ (~(zigzag & 1) + 1));
  return p == end;  // trailing bytes are malformed too
}

/// Reads the whole file in one sized read. A missing or empty file reads as
/// empty after one stat, without being opened. A file that cannot be read
/// is a CheckFailure: treating it as empty would let the open truncate or
/// append past records it never saw.
WalImage read_file(const std::filesystem::path& path) {
  WalImage image;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return image;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0 && errno == ENOENT) return image;  // removed since the stat
  RCOMMIT_CHECK_MSG(fd >= 0, "cannot open WAL for reading at " << path.string());
  image.bytes = std::make_unique_for_overwrite<uint8_t[]>(static_cast<size_t>(size));
  bool failed = false;
  while (image.size < size) {
    const ssize_t got = ::read(fd, image.bytes.get() + image.size, size - image.size);
    if (got < 0 && errno == EINTR) continue;
    failed = got < 0;
    if (got <= 0) break;  // an error, or a file that shrank under us
    image.size += static_cast<size_t>(got);
  }
  ::close(fd);
  RCOMMIT_CHECK_MSG(!failed, "cannot read WAL at " << path.string());
  return image;
}

/// The log's one frame scanner. It first checks every frame's length and
/// CRC, stopping at the first torn or corrupt frame, and counts the intact
/// ones, so the views are sized once. It then decodes those frames in order
/// and stops at the first malformed body. Sets the image's trusted end and
/// write count; with `keep_views`, also one view per record.
void scan_frames(WalImage& image, bool keep_views) {
  const uint8_t* const data = image.bytes.get();
  size_t crc_end = 0;
  size_t frames = 0;
  while (crc_end + 8 <= image.size) {
    const size_t length = get_le32(data + crc_end);
    if (length > image.size - crc_end - 8) break;  // torn final record
    const std::span<const uint8_t> body(data + crc_end + 8, length);
    if (crc32c(body) != get_le32(data + crc_end + 4)) break;  // corrupt record
    crc_end += 8 + length;
    ++frames;
  }
  if (keep_views) image.records.reserve(frames);
  size_t pos = 0;
  WalRecordView view;
  while (pos < crc_end) {
    const size_t length = get_le32(data + pos);
    // Structurally invalid despite a matching CRC: trust nothing from here.
    if (!decode_body(std::span<const uint8_t>(data + pos + 8, length), view)) break;
    if (keep_views) image.records.push_back(view);
    if (view.type == WalRecordType::kWrite || view.type == WalRecordType::kSnapshot) {
      ++image.write_count;
    }
    pos += 8 + length;
  }
  image.valid_end = pos;
}

template <typename Int>
std::string encode_id_list(const std::vector<Int>& ids) {
  std::string out;
  char buf[24];
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out += ',';
    const auto end = std::to_chars(buf, buf + sizeof(buf), ids[i]).ptr;
    out.append(buf, end);
  }
  return out;
}

/// Parses comma-separated non-negative decimal ids in place, appending them
/// to `ids`. Every part must be a non-empty run of digits that fits Int: an
/// empty part, a sign, a stray character or an out-of-range id throws
/// CheckFailure.
template <typename Int>
void append_id_list(std::string_view text, const char* what, std::vector<Int>& ids) {
  if (text.empty()) return;
  const char* pos = text.data();
  const char* const end = text.data() + text.size();
  while (true) {
    const char* const comma = std::find(pos, end, ',');
    Int id{};
    const auto [parsed_end, ec] = std::from_chars(pos, comma, id);
    RCOMMIT_CHECK_MSG(pos != comma && *pos >= '0' && *pos <= '9' &&
                          ec == std::errc() && parsed_end == comma,
                      "malformed " << what << ": '" << text << "'");
    ids.push_back(id);
    if (comma == end) break;
    pos = comma + 1;
  }
}

}  // namespace

std::string encode_participant_list(const std::vector<int32_t>& ids) {
  return encode_id_list(ids);
}

std::vector<int32_t> decode_participant_list(std::string_view text) {
  std::vector<int32_t> ids;
  append_participant_list(text, ids);
  return ids;
}

void append_participant_list(std::string_view text, std::vector<int32_t>& ids) {
  append_id_list(text, "participant list", ids);
}

std::string encode_txn_list(const std::vector<int64_t>& ids) {
  return encode_id_list(ids);
}

std::vector<int64_t> decode_txn_list(std::string_view text) {
  std::vector<int64_t> ids;
  append_txn_list(text, ids);
  return ids;
}

void append_txn_list(std::string_view text, std::vector<int64_t>& ids) {
  append_id_list(text, "txn list", ids);
}

WriteAheadLog::WriteAheadLog(std::filesystem::path path) : path_(std::move(path)) {
  scan_and_open(false);
}

WriteAheadLog::WriteAheadLog(std::filesystem::path path, WalImage& image)
    : path_(std::move(path)) {
  image = scan_and_open(true);
}

WalImage WriteAheadLog::scan_and_open(bool keep_views) {
  // Replay stops at the first torn/corrupt frame and trusts nothing after it
  // — so anything appended after such a frame would be unreachable forever.
  // Make the distrust durable: truncate the invalid tail before appending.
  // (The crash-point torture suite caught exactly this: recovery's COMMIT
  // record landing after a torn frame, lost on the next open.)
  WalImage image = read_file(path_);
  scan_frames(image, keep_views);
  if (image.valid_end < image.size) {
    std::filesystem::resize_file(path_, image.valid_end);
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  RCOMMIT_CHECK_MSG(out_.is_open(), "cannot open WAL at " << path_.string());
  return image;
}

void WriteAheadLog::append(const WalRecord& record) {
  append(record.type, record.txn_id, record.key, record.value);
}

void WriteAheadLog::append(WalRecordType type, int64_t txn, std::string_view key,
                           std::string_view value) {
  if (group_open_) {
    append_frame(pending_, type, txn, key, value);
    ++pending_records_;
    ++stats_.records_appended;
    // Deterministic auto-flush: the boundary depends only on the append
    // sequence, never on timing, so injection sites stay enumerable.
    if (pending_records_ >= limits_.max_records ||
        pending_.size() >= limits_.max_bytes) {
      flush_pending();
    }
    return;
  }

  scratch_.clear();
  append_frame(scratch_, type, txn, key, value);
  write_frame(std::span<const uint8_t>(scratch_));
  ++stats_.records_appended;
}

void WriteAheadLog::write_frame(std::span<const uint8_t> bytes) {
  WalAppendFault fault;
  if (fault_hook_ != nullptr) {
    fault = fault_hook_->on_append(path_, bytes);
  }

  const auto write_bytes = [this](std::span<const uint8_t> span) {
    out_.write(reinterpret_cast<const char*>(span.data()),
               static_cast<std::streamsize>(span.size()));
    out_.flush();
    ++stats_.flushes;
    stats_.bytes_written += static_cast<int64_t>(span.size());
    RCOMMIT_CHECK_MSG(out_.good(), "WAL append failed at " << path_.string());
  };

  switch (fault.kind) {
    case WalAppendFault::Kind::kClean:
      write_bytes(bytes);
      break;
    case WalAppendFault::Kind::kCrashBefore:
      throw CrashInjected(fault.site,
                          "injected crash before WAL append at " + path_.string());
    case WalAppendFault::Kind::kTorn: {
      RCOMMIT_CHECK_MSG(fault.keep_bytes < bytes.size(),
                        "torn write must keep fewer than frame bytes");
      write_bytes(bytes.subspan(0, fault.keep_bytes));
      throw CrashInjected(fault.site, "injected torn write (" +
                                          std::to_string(fault.keep_bytes) + "/" +
                                          std::to_string(bytes.size()) +
                                          " bytes) at " + path_.string());
    }
    case WalAppendFault::Kind::kDuplicate:
      write_bytes(bytes);
      write_bytes(bytes);
      break;
    case WalAppendFault::Kind::kCrashAfter:
      write_bytes(bytes);
      throw CrashInjected(fault.site,
                          "injected crash after WAL append at " + path_.string());
  }
}

void WriteAheadLog::begin_group(const WalGroupLimits& limits) {
  RCOMMIT_CHECK_MSG(!group_open_, "begin_group with a group already open");
  RCOMMIT_CHECK(limits.max_records > 0 && limits.max_bytes > 0);
  limits_ = limits;
  group_open_ = true;
}

void WriteAheadLog::commit_group() {
  RCOMMIT_CHECK_MSG(group_open_, "commit_group without an open group");
  flush_pending();
}

void WriteAheadLog::end_group() {
  RCOMMIT_CHECK_MSG(group_open_, "end_group without an open group");
  flush_pending();
  group_open_ = false;
}

void WriteAheadLog::flush_pending() {
  if (pending_.empty()) return;
  // Take the buffer before executing the hook's disposition: a crash verdict
  // unwinds out of write_frame, and the crashed group's bytes must be gone —
  // a later flush replaying them would model a dead process writing. The
  // swap hands pending_ the scratch buffer's capacity, so both stay warm.
  scratch_.clear();
  scratch_.swap(pending_);
  pending_records_ = 0;
  write_frame(std::span<const uint8_t>(scratch_));
}

WalImage WriteAheadLog::read() const {
  WalImage image = read_file(path_);
  scan_frames(image, true);
  return image;
}

std::vector<WalRecord> WriteAheadLog::replay() const {
  const WalImage image = read();
  std::vector<WalRecord> records;
  records.reserve(image.records.size());
  for (const WalRecordView& view : image.records) {
    records.push_back(
        {view.type, view.txn_id, std::string(view.key), std::string(view.value)});
  }
  return records;
}

}  // namespace rcommit::db
