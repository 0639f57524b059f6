#include "rapids/ec/fragment.hpp"

#include <charconv>

#include "rapids/util/crc32c.hpp"

namespace rapids::ec {

namespace {
constexpr u32 kFragmentMagic = 0x52464D47u;  // "RFMG"
constexpr u16 kFragmentVersion = 1;
constexpr std::string_view kKeyHead = "frag/";  // every fragment key's start

/// Everything serialize() writes before the payload.
Fragment read_header(ByteReader& r) {
  if (r.get_u32() != kFragmentMagic) throw io_error("Fragment: bad magic");
  const u16 version = r.get_u16();
  if (version != kFragmentVersion)
    throw io_error("Fragment: unsupported version " + std::to_string(version));
  Fragment f;
  f.id.object_name = r.get_string();
  f.id.level = r.get_u32();
  f.id.index = r.get_u32();
  f.k = r.get_u32();
  f.m = r.get_u32();
  f.level_bytes = r.get_u64();
  f.payload_crc = r.get_u32();
  return f;
}
}  // namespace

std::string FragmentId::key() const {
  return key_prefix(object_name, level) + std::to_string(index);
}

std::optional<FragmentId> FragmentId::parse(std::string_view key) {
  const auto index_at = key.rfind('/');
  const auto level_at = key.rfind('/', index_at - 1);
  const auto digits = [&](std::size_t from, std::size_t to, u32& out) {
    const auto r = std::from_chars(key.data() + from, key.data() + to, out);
    return r.ec == std::errc{} && r.ptr == key.data() + to;
  };
  FragmentId id;
  if (!key.starts_with(kKeyHead) || level_at == std::string_view::npos ||
      level_at < kKeyHead.size() ||
      !digits(level_at + 1, index_at, id.level) ||
      !digits(index_at + 1, key.size(), id.index))
    return std::nullopt;
  id.object_name = key.substr(kKeyHead.size(), level_at - kKeyHead.size());
  return id;
}

std::string FragmentId::key_prefix(const std::string& object,
                                   std::optional<u32> level) {
  std::string prefix = std::string(kKeyHead) + object + "/";
  if (level) prefix += std::to_string(*level) + "/";
  return prefix;
}

u32 fragment_crc(std::span<const u8> payload) {
  return crc32c(payload.data(), payload.size());
}

bool Fragment::verify() const { return fragment_crc(payload) == payload_crc; }

Bytes Fragment::serialize() const {
  ByteWriter w(payload.size() + 128);
  w.put_u32(kFragmentMagic);
  w.put_u16(kFragmentVersion);
  w.put_string(id.object_name);
  w.put_u32(id.level);
  w.put_u32(id.index);
  w.put_u32(k);
  w.put_u32(m);
  w.put_u64(level_bytes);
  w.put_u32(payload_crc);
  w.put_bytes({reinterpret_cast<const std::byte*>(payload.data()), payload.size()});
  return w.take();
}

Fragment Fragment::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  Fragment f = read_header(r);
  auto body = r.get_bytes();
  f.payload.resize(body.size());
  std::memcpy(f.payload.data(), body.data(), body.size());
  return f;
}

Fragment Fragment::deserialize_header(std::span<const std::byte> data,
                                      u64& payload_bytes) {
  ByteReader r(data);
  Fragment f = read_header(r);
  payload_bytes = r.get_u32();
  return f;
}

}  // namespace rapids::ec
