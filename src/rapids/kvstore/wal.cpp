#include "rapids/kvstore/wal.hpp"

#include <vector>

#include "rapids/util/bytes.hpp"
#include "rapids/util/crc32c.hpp"

namespace rapids::kv {

namespace {

// Record framing: [u32 crc][u32 body_len][body], body = [u8 op][u32 klen]
// [key][u32 vlen][value]. crc covers the body.
void frame_record(ByteWriter& out, const WalRecord& rec) {
  ByteWriter body(rec.key.size() + rec.value.size() + 16);
  body.put_u8(static_cast<u8>(rec.op));
  body.put_string(rec.key);
  body.put_string(rec.value);
  const Bytes& b = body.bytes();
  out.put_u32(crc32c(as_bytes_view(b)));
  out.put_u32(static_cast<u32>(b.size()));
  out.put_raw(as_bytes_view(b));
}

}  // namespace

WalWriter::WalWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) throw io_error("WAL: cannot open " + path);
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void WalWriter::append(std::span<const WalRecord> records) {
  if (records.empty()) return;
  u64 total = 0;
  for (const WalRecord& rec : records)
    total += rec.key.size() + rec.value.size() + 24;
  ByteWriter frames(total);
  for (const WalRecord& rec : records) frame_record(frames, rec);
  const Bytes& buf = frames.bytes();
  // A small append only fills the stdio buffer; a full disk shows at flush.
  if (std::fwrite(buf.data(), 1, buf.size(), file_) != buf.size() ||
      std::fflush(file_) != 0)
    throw io_error("WAL: short append to " + path_);
  bytes_written_ += buf.size();
}

void WalWriter::reset() {
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) throw io_error("WAL: cannot truncate " + path_);
  std::fflush(file_);
  bytes_written_ = 0;
}

u64 wal_replay(const std::string& path,
               const std::function<void(const WalRecord&)>& apply,
               u64* valid_bytes) {
  if (valid_bytes != nullptr) *valid_bytes = 0;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;  // no log yet
  u64 applied = 0;
  std::vector<std::byte> body;
  for (;;) {
    unsigned char hdr[8];
    if (std::fread(hdr, 1, 8, f) != 8) break;  // clean end or torn header
    const u32 crc = static_cast<u32>(hdr[0]) | (static_cast<u32>(hdr[1]) << 8) |
                    (static_cast<u32>(hdr[2]) << 16) |
                    (static_cast<u32>(hdr[3]) << 24);
    const u32 len = static_cast<u32>(hdr[4]) | (static_cast<u32>(hdr[5]) << 8) |
                    (static_cast<u32>(hdr[6]) << 16) |
                    (static_cast<u32>(hdr[7]) << 24);
    if (len > (64u << 20)) break;  // implausible: corrupt length
    body.resize(len);
    if (len > 0 && std::fread(body.data(), 1, len, f) != len) break;  // torn body
    if (crc32c({body.data(), body.size()}) != crc) break;  // corrupt body
    try {
      ByteReader r({body.data(), body.size()});
      WalRecord rec;
      rec.op = static_cast<WalOp>(r.get_u8());
      if (rec.op != WalOp::kPut && rec.op != WalOp::kDelete) break;
      rec.key = r.get_string();
      rec.value = r.get_string();
      apply(rec);
      ++applied;
      if (valid_bytes != nullptr) *valid_bytes += 8 + len;
    } catch (const io_error&) {
      break;  // malformed body despite CRC (should not happen)
    }
  }
  std::fclose(f);
  return applied;
}

}  // namespace rapids::kv
