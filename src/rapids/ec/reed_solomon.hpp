#pragma once

/// \file reed_solomon.hpp
/// Systematic Reed-Solomon erasure codec over GF(2^8): RS(k, m) splits a byte
/// payload into k equal data fragments and computes m parity fragments such
/// that *any* k of the k+m fragments reconstruct the payload. This is the
/// same contract the paper obtains from liberasurecode. Encode and decode of
/// large payloads are parallelized by striping across a ThreadPool.

#include <optional>
#include <vector>

#include "rapids/ec/fragment.hpp"
#include "rapids/ec/matrix.hpp"
#include "rapids/util/common.hpp"

namespace rapids {
class ThreadPool;
}

namespace rapids::ec {

/// Which construction to use for the encode matrix. Both satisfy the
/// any-k-of-n property; Cauchy has slightly denser parity rows but a closed
/// form. The default matches the classic jerasure/vandermonde behaviour.
enum class MatrixKind { kVandermonde, kCauchy };

/// Reed-Solomon codec for a fixed (k, m) geometry. Thread-safe after
/// construction (encode/decode do not mutate shared state).
class ReedSolomon {
 public:
  /// Build an RS(k, m) codec. Requires 1 <= k, 1 <= m, k + m <= 255.
  ReedSolomon(u32 k, u32 m, MatrixKind kind = MatrixKind::kVandermonde);

  u32 k() const { return k_; }
  u32 m() const { return m_; }
  u32 n() const { return k_ + m_; }
  MatrixKind kind() const { return kind_; }

  /// Fragment payload size for an input of `data_size` bytes: the input is
  /// zero-padded up to a multiple of k and split evenly.
  u64 fragment_size(u64 data_size) const { return ceil_div(data_size, k_); }

  /// Encode `data` into k data + m parity fragments for object/level
  /// identified by (object_name, level). Fragment payloads are
  /// fragment_size(data.size()) bytes each; CRCs are filled in. If `pool` is
  /// non-null, parity computation is striped across it.
  std::vector<Fragment> encode(std::span<const u8> data,
                               const std::string& object_name, u32 level,
                               ThreadPool* pool = nullptr) const;

  // --- stripe-ranged entry points ---
  //
  // The systematic layout makes encoding separable by payload offset: parity
  // byte o depends only on the data rows' byte o, so disjoint [lo, hi)
  // ranges of one level can be encoded independently — by different tasks,
  // in any order — and the stitched result is byte-identical to a whole-
  // payload encode(). encode() itself is make_fragments, encode_stripe per
  // pool stripe, then finish_fragments.

  /// Build the n fragment shells for a level of `data_size` bytes: ids,
  /// geometry, and zeroed payloads of fragment_size(data_size) bytes. CRCs
  /// are left unset (finish_fragments fills them).
  std::vector<Fragment> make_fragments(u64 data_size,
                                       const std::string& object_name,
                                       u32 level) const;

  /// Encode payload range [lo, hi) — any range, no alignment requirement —
  /// into shells previously built by make_fragments for this very `data`
  /// size: copies the data rows' slices and computes the parity rows' slices
  /// in place. Ranges are clamped to the fragment size; disjoint ranges may
  /// run concurrently. Bytes outside every encoded range keep the shells'
  /// zero padding, so covering [0, fragment_size) in stripes of any width
  /// reproduces encode() byte-for-byte.
  void encode_stripe(std::span<const u8> data, u64 lo, u64 hi,
                     std::span<Fragment> frags) const;

  /// Fill every shell's payload CRC once all stripes are encoded (fanned out
  /// over `pool` for large payloads). After this the fragments are
  /// indistinguishable from encode() output.
  void finish_fragments(std::span<Fragment> frags,
                        ThreadPool* pool = nullptr) const;

  /// Reconstruct the original payload from any >= k surviving fragments
  /// (mixed data/parity, any order). Duplicate indices and fragments failing
  /// their CRC check are skipped as long as k distinct healthy fragments
  /// remain. Throws invariant_error if fewer than k healthy distinct
  /// fragments are available or if geometry disagrees. If `pool` is
  /// non-null, the matrix application is striped.
  std::vector<u8> decode(std::span<const Fragment> fragments,
                         ThreadPool* pool = nullptr) const;

  /// Rebuild the payload of one specific missing fragment (data or parity)
  /// from any >= k survivors — the "repair" path used when a storage system
  /// permanently loses a fragment.
  Fragment reconstruct_fragment(std::span<const Fragment> survivors,
                                u32 missing_index, ThreadPool* pool = nullptr) const;

 private:
  std::vector<u8> decode_rows(std::span<const Fragment> fragments, u64* level_bytes,
                              ThreadPool* pool) const;

  u32 k_;
  u32 m_;
  MatrixKind kind_;
  Matrix encode_matrix_;
};

}  // namespace rapids::ec
