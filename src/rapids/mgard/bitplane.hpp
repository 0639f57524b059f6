#pragma once

/// \file bitplane.hpp
/// Bitplane encoding of multilevel coefficients — the mechanism pMGARD uses
/// for fine-grained error control. Coefficients of one decomposition level
/// are normalized by 2^E (E = exponent above the level's max magnitude) and
/// quantized to 32-bit fixed point; the quantized values are then sliced into
/// a sign plane plus 32 magnitude planes (MSB first). Reconstructing from the
/// first p magnitude planes leaves a per-coefficient error < 2^(E-p), which
/// is what lets the retrieval layer attach a guaranteed error bound to any
/// prefix of planes.
///
/// Each plane is stored in whichever of four segment modes is smallest: zero
/// (a mode byte only), raw (bit-packed), sparse (bitmap of nonzero 64-bit
/// words + the nonzero words), or Rice-coded set-bit gaps. High planes of
/// smooth fields are almost entirely zero, so the sparse and Rice forms are
/// where the refactorer's compression comes from. The segment coder itself
/// runs on the dispatched entropy kernels (kernels::codec_ops) and forks
/// per-segment work across the thread pool; output bytes are identical for
/// every ISA tier, pool width, and incremental-decode schedule.

#include <memory>
#include <span>
#include <vector>

#include "rapids/util/bytes.hpp"
#include "rapids/util/common.hpp"

namespace rapids {
class ThreadPool;
}

namespace rapids::mgard {

struct RefactorWorkspace;

/// Number of magnitude bitplanes kept per decomposition level.
inline constexpr u32 kMagnitudePlanes = 32;

/// One encoded segment: the sign plane or one magnitude plane, already
/// compressed. Segments are the atoms the retrieval layer distributes across
/// retrieval levels.
struct PlaneSegment {
  Bytes data;  ///< encoded plane (mode byte + payload)

  u64 size() const { return data.size(); }
};

/// All planes of one decomposition level.
struct PlaneSet {
  u64 count = 0;      ///< number of coefficients
  f64 max_abs = 0.0;  ///< max |coefficient| (0 for an all-zero level)
  i32 exponent = 0;   ///< E with max_abs < 2^E (undefined when max_abs == 0)
  PlaneSegment sign;  ///< sign plane
  std::vector<PlaneSegment> planes;  ///< magnitude planes, MSB first

  /// Total encoded bytes of the sign plane plus the first p magnitude planes.
  u64 prefix_bytes(u32 p) const;

  /// Absolute error bound when reconstructing from the first p planes
  /// (p <= planes.size()); beyond the last stored plane the quantization
  /// floor 2^(E-32) remains.
  f64 error_bound(u32 p) const;
};

/// Entropy-codec substage accounting: how long the segment coder ran, how
/// many bytes it produced/consumed, and which segment modes were chosen.
/// `seconds` is the wall time of the (possibly pool-parallel) segment
/// encode/decode region; the counters are exact and deterministic.
struct CodecStats {
  f64 seconds = 0.0;  ///< wall time in segment encode/decode
  u64 segments = 0;   ///< segments encoded or decoded
  u64 bytes = 0;      ///< encoded segment bytes (mode byte included)
  u64 mode_raw = 0;
  u64 mode_sparse = 0;
  u64 mode_zero = 0;
  u64 mode_rice = 0;

  CodecStats& operator+=(const CodecStats& o) {
    seconds += o.seconds;
    segments += o.segments;
    bytes += o.bytes;
    mode_raw += o.mode_raw;
    mode_sparse += o.mode_sparse;
    mode_zero += o.mode_zero;
    mode_rice += o.mode_rice;
    return *this;
  }
};

/// Encode coefficients into sign + magnitude planes. `max_planes` caps how
/// many magnitude planes are produced (32 = lossless to the quantization
/// floor). If `pool` is non-null, the sign and magnitude segments are encoded
/// in parallel (byte-identical to the serial order). If `stats` is non-null,
/// the codec substage accounting is accumulated into it. Pass a
/// RefactorWorkspace to slice the planes into its reused buffer; omitted, the
/// call allocates a private one.
PlaneSet encode_planes(std::span<const f64> coeffs, u32 max_planes = kMagnitudePlanes,
                       ThreadPool* pool = nullptr, CodecStats* stats = nullptr,
                       RefactorWorkspace* ws = nullptr);

/// Reconstruct coefficients from the sign plane and the first
/// `num_planes` magnitude planes of `ps` (num_planes <= ps.planes.size()).
/// Coefficients whose decoded prefix is zero stay exactly zero; others get
/// midpoint reconstruction of the truncated tail.
std::vector<f64> decode_planes(const PlaneSet& ps, u32 num_planes,
                               ThreadPool* pool = nullptr,
                               CodecStats* stats = nullptr);

/// Carry-over state for incremental plane decoding: the raw quantized values
/// and sign words accumulated so far for one decomposition level. Planes
/// occupy disjoint bit positions of q, so merging later planes is a pure OR;
/// the truncated-tail midpoint is applied fresh at every materialization and
/// never baked into q, which is what makes refining p0 -> p1 byte-identical
/// to a from-scratch decode_planes(p1).
///
/// q is allocated uninitialized: the decode that brings planes_decoded from
/// 0 writes every element (it assigns its planes where later ones OR), so
/// whether q holds data follows planes_decoded, not whether q is allocated.
/// A decode that throws leaves the state as it was: planes_decoded advances
/// and sign_words is set only after every segment has decoded.
struct ProgressiveState {
  u64 count = 0;             ///< coefficients (fixed at first use)
  u32 planes_decoded = 0;    ///< planes already merged into q
  bool initialized = false;
  std::unique_ptr<u32[]> q;    ///< quantized magnitudes, no midpoint applied
  std::vector<u64> sign_words; ///< decoded sign plane (decoded once)
};

/// Incremental decode_planes: advance `state` from its current plane count to
/// `num_planes` by decoding only the new planes of `ps` and merging them into
/// q, then materialize the coefficients into `out` (ps.count elements, every
/// one written) in the same blocked pass. For any refinement chain ending at
/// p, the result is bit-for-bit identical to decode_planes(ps, p) --
/// decode_planes itself is implemented as this function with a throwaway
/// state. Pass a RefactorWorkspace to decode the new planes into its reused
/// plane words; omitted, the call allocates a private one.
void decode_planes_incremental(const PlaneSet& ps, u32 num_planes,
                               ProgressiveState& state, std::span<f64> out,
                               ThreadPool* pool = nullptr,
                               CodecStats* stats = nullptr,
                               RefactorWorkspace* ws = nullptr);

/// Low-level plane codecs, exposed for tests and benches. ///

/// Compress one packed bit plane (num_bits bits in ceil(num_bits/64) words)
/// into the smallest of the four segment modes. Mode arbitration is part of
/// the byte-identity contract: zero wins iff no bit is set; Rice is
/// considered iff ones * 2 < num_bits and wins iff strictly smaller than
/// both raw and sparse; otherwise sparse wins iff strictly smaller than raw.
PlaneSegment encode_segment(std::span<const u64> words, u64 num_bits);

/// Expand a segment back to packed 64-bit words (num_bits bits valid) into
/// `words` (ceil(num_bits/64) words, every one written; their prior contents
/// do not matter). Throws io_error on a malformed segment, leaving `words`
/// unspecified.
void decode_segment_into(const PlaneSegment& seg, u64 num_bits,
                         std::span<u64> words);

/// decode_segment_into a fresh vector.
std::vector<u64> decode_segment(const PlaneSegment& seg, u64 num_bits);

}  // namespace rapids::mgard
