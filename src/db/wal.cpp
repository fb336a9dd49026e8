#include "db/wal.h"

#include <algorithm>
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

WalRecord decode_record(std::span<const uint8_t> body) {
  BufReader r(body);
  WalRecord record;
  const uint8_t raw_type = r.u8();
  // An unchecked enum cast would let a type byte outside WalRecordType sail
  // through recovery's switches unmatched — silently dropping a record whose
  // CRC said it was intact. Reject it instead: replay stops here and trusts
  // nothing after (same policy as a CRC mismatch).
  if (raw_type < static_cast<uint8_t>(WalRecordType::kBegin) ||
      raw_type > static_cast<uint8_t>(WalRecordType::kBatchSeal)) {
    throw CodecError("unknown WAL record type " + std::to_string(raw_type));
  }
  record.type = static_cast<WalRecordType>(raw_type);
  record.txn_id = r.svarint();
  record.key = r.str();
  record.value = r.str();
  if (!r.exhausted()) throw CodecError("trailing bytes in WAL record");
  return record;
}

/// Scans a WAL file: the decodable record prefix plus the byte offset where
/// trust ends (first torn, corrupt, or structurally invalid frame).
struct WalScan {
  std::vector<WalRecord> records;
  size_t valid_end = 0;
  size_t file_size = 0;
};

WalScan scan_wal(const std::filesystem::path& path) {
  WalScan scan;
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  if (ec || size == 0) return scan;
  scan.file_size = static_cast<size_t>(size);
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return scan;

  // One sized read of the whole file.
  std::vector<uint8_t> file_bytes(scan.file_size);
  in.read(reinterpret_cast<char*>(file_bytes.data()),
          static_cast<std::streamsize>(file_bytes.size()));
  file_bytes.resize(static_cast<size_t>(in.gcount()));
  size_t pos = 0;
  while (pos + 8 <= file_bytes.size()) {
    BufReader header(std::span<const uint8_t>(file_bytes.data() + pos, 8));
    const uint32_t length = header.u32();
    const uint32_t crc = header.u32();
    if (pos + 8 + length > file_bytes.size()) break;  // torn final record
    const std::span<const uint8_t> body(file_bytes.data() + pos + 8, length);
    if (crc32c(body) != crc) break;  // corrupt record: trust nothing after it
    try {
      scan.records.push_back(decode_record(body));
    } catch (const CodecError&) {
      break;  // structurally invalid despite matching CRC — stop here
    }
    pos += 8 + length;
    scan.valid_end = pos;
  }
  return scan;
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

/// Parses comma-separated non-negative decimal ids in place. Every part must
/// be a non-empty run of digits that fits Int: an empty part, a sign, a
/// stray character or an out-of-range id throws CheckFailure.
template <typename Int>
std::vector<Int> decode_id_list(std::string_view text, const char* what) {
  std::vector<Int> ids;
  if (text.empty()) return ids;
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
  return ids;
}

}  // namespace

std::string encode_participant_list(const std::vector<int32_t>& ids) {
  return encode_id_list(ids);
}

std::vector<int32_t> decode_participant_list(std::string_view text) {
  return decode_id_list<int32_t>(text, "participant list");
}

std::string encode_txn_list(const std::vector<int64_t>& ids) {
  return encode_id_list(ids);
}

std::vector<int64_t> decode_txn_list(std::string_view text) {
  return decode_id_list<int64_t>(text, "txn list");
}

WriteAheadLog::WriteAheadLog(std::filesystem::path path) : path_(std::move(path)) {
  scan_and_open();
}

WriteAheadLog::WriteAheadLog(std::filesystem::path path,
                             std::vector<WalRecord>& recovered)
    : path_(std::move(path)) {
  recovered = scan_and_open();
}

std::vector<WalRecord> WriteAheadLog::scan_and_open() {
  // Replay stops at the first torn/corrupt frame and trusts nothing after it
  // — so anything appended after such a frame would be unreachable forever.
  // Make the distrust durable: truncate the invalid tail before appending.
  // (The crash-point torture suite caught exactly this: recovery's COMMIT
  // record landing after a torn frame, lost on the next open.)
  WalScan scan = scan_wal(path_);
  if (scan.valid_end < scan.file_size) {
    std::filesystem::resize_file(path_, scan.valid_end);
  }
  out_.open(path_, std::ios::binary | std::ios::app);
  RCOMMIT_CHECK_MSG(out_.is_open(), "cannot open WAL at " << path_.string());
  return std::move(scan.records);
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

std::vector<WalRecord> WriteAheadLog::replay() const {
  return scan_wal(path_).records;
}

}  // namespace rcommit::db
