#pragma once

/// \file bytes.hpp
/// Byte-buffer builder and cursor for little-endian binary serialization.
/// Used by the fragment headers, the metadata records (object, refactoring,
/// bandwidth tracker, system health, migration journal) and the key-value
/// store's on-disk records. All multi-byte integers are stored little-endian
/// regardless of host order.

#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rapids/util/common.hpp"

namespace rapids {

using Bytes = std::vector<std::byte>;

/// View helpers.
inline std::span<const std::byte> as_bytes_view(const Bytes& b) {
  return {b.data(), b.size()};
}

template <typename T>
std::span<const std::byte> as_bytes_view(std::span<const T> s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size_bytes()};
}

template <typename T>
std::span<const std::byte> as_bytes_view(const std::vector<T>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T)};
}

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void put_u8(u8 v) { buf_.push_back(static_cast<std::byte>(v)); }

  void put_u16(u16 v) { put_le(v); }
  void put_u32(u32 v) { put_le(v); }
  void put_u64(u64 v) { put_le(v); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v)); }

  void put_f64(f64 v) {
    u64 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  void put_f32(f32 v) {
    u32 bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u32(bits);
  }

  /// Raw bytes, no length prefix.
  void put_raw(std::span<const std::byte> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed (u32) byte string.
  void put_bytes(std::span<const std::byte> data) {
    RAPIDS_REQUIRE(data.size() <= ~u32{0});
    put_u32(static_cast<u32>(data.size()));
    put_raw(data);
  }

  /// Length-prefixed (u32) UTF-8 string.
  void put_string(std::string_view s) {
    put_bytes({reinterpret_cast<const std::byte*>(s.data()), s.size()});
  }

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
  }

  Bytes buf_;
};

/// Bounds-checked little-endian decoder over a borrowed buffer.
/// Throws io_error on truncation so corrupted on-disk data never reads OOB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  u8 get_u8() { return static_cast<u8>(take(1)[0]); }
  u16 get_u16() { return get_le<u16>(); }
  u32 get_u32() { return get_le<u32>(); }
  u64 get_u64() { return get_le<u64>(); }
  i64 get_i64() { return static_cast<i64>(get_le<u64>()); }

  f64 get_f64() {
    const u64 bits = get_u64();
    f64 v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  f32 get_f32() {
    const u32 bits = get_u32();
    f32 v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  /// Borrow `n` raw bytes (no copy).
  std::span<const std::byte> get_raw(std::size_t n) { return take(n); }

  /// Length-prefixed byte string (borrowed view).
  std::span<const std::byte> get_bytes() {
    const u32 n = get_u32();
    return take(n);
  }

  /// Length-prefixed string (copied).
  std::string get_string() {
    auto v = get_bytes();
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  std::span<const std::byte> take(std::size_t n) {
    if (remaining() < n) throw io_error("ByteReader: truncated input");
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  template <typename T>
  T get_le() {
    auto raw = take(sizeof(T));
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v = static_cast<T>(v | (static_cast<T>(static_cast<u8>(raw[i])) << (8 * i)));
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Read a whole file into a byte vector. Throws io_error on failure.
Bytes read_file(const std::string& path);

/// Write a byte buffer to a file (truncating). Throws io_error on failure.
void write_file(const std::string& path, std::span<const std::byte> data);

}  // namespace rapids
