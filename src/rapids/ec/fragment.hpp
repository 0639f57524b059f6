#pragma once

/// \file fragment.hpp
/// The unit of distribution: one erasure-coded fragment of one retrieval
/// level of one data object. Fragments carry a self-describing header (object
/// name, level, index, geometry) and a CRC-32C of the payload so damage is
/// detected before decode, mirroring what the paper stores via HDF5/ADIOS
/// self-describing files.

#include <compare>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rapids/util/bytes.hpp"
#include "rapids/util/common.hpp"

namespace rapids::ec {

/// Identifies a fragment within an object's EC layout.
struct FragmentId {
  std::string object_name;  ///< data object this fragment belongs to
  u32 level = 0;            ///< retrieval level index (0-based)
  u32 index = 0;            ///< fragment row index in the encode matrix (0..k+m-1)

  auto operator<=>(const FragmentId&) const = default;

  /// Canonical string key used by the metadata store and the systems:
  /// "frag/<object>/<level>/<index>". Object names may contain '/'.
  std::string key() const;

  /// Inverse of key(): the last two parts are the level and index digits,
  /// the rest after "frag/" the object; nullopt for any other key.
  static std::optional<FragmentId> parse(std::string_view key);

  /// "frag/<object>/", or with `level` that level's prefix. "<object>/..."
  /// names share it: a scan keeps the keys whose parse() gives `object`.
  static std::string key_prefix(const std::string& object,
                                std::optional<u32> level = std::nullopt);
};

/// One erasure-coded fragment: id + EC geometry + payload + checksum.
struct Fragment {
  FragmentId id;
  u32 k = 0;             ///< data fragments in this level's code
  u32 m = 0;             ///< parity fragments in this level's code
  u64 level_bytes = 0;   ///< unpadded byte size of the encoded level payload
  u32 payload_crc = 0;   ///< CRC-32C of `payload`
  std::vector<u8> payload;

  /// True for rows < k (systematic data fragment), false for parity rows.
  bool is_data() const { return id.index < k; }

  /// Recompute the payload CRC and compare with the stored one.
  bool verify() const;

  /// Serialize header + payload to a self-contained byte buffer.
  Bytes serialize() const;

  /// Parse a buffer produced by serialize(). Throws io_error on corruption
  /// (bad magic, truncation); CRC mismatches are reported via verify().
  static Fragment deserialize(std::span<const std::byte> data);

  /// Parse only the header of a buffer produced by serialize(): the result
  /// has an empty payload, and `payload_bytes` receives the payload length
  /// the header declares, whether or not that many bytes follow. Throws
  /// io_error when the header itself is damaged.
  static Fragment deserialize_header(std::span<const std::byte> data,
                                     u64& payload_bytes);
};

/// Compute `payload_crc` over a payload.
u32 fragment_crc(std::span<const u8> payload);

}  // namespace rapids::ec
