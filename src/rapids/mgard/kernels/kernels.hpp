#pragma once

/// \file kernels.hpp
/// Panel-major compute kernels for the multigrid refactor/reconstruct hot
/// path, behind the same runtime ISA dispatch as the byte-domain kernels in
/// src/rapids/simd/ (scalar / AVX2 / NEON, honoring RAPIDS_FORCE_SCALAR and
/// simd::set_isa_override).
///
/// The decompose/recompose sweeps are restructured so that every inner loop
/// is unit-stride: sweeps along y and z walk whole contiguous x-rows at a
/// time (the "panel" of the GPU refactoring papers), and the per-line Thomas
/// solve along x is run over register-width batches of independent lines via
/// a small panel transpose. Because vectorization always runs *across*
/// independent coefficients — never by reassociating the arithmetic of one
/// coefficient — every kernel is required to produce bit-identical results
/// to its scalar reference; tests/kernel_test.cpp enforces this for every
/// entry point on awkward shapes.
///
/// Two dispatch tables exist per kernel family, e.g. for the row kernels:
///   row_ops()        — the ISA the dispatcher selected
///   row_ops_scalar() — the portable reference (also the FORCE_SCALAR path)
/// The scalar translation unit is compiled with -fno-tree-vectorize so the
/// reference stays honestly scalar: it is the bit-identity arbiter and the
/// baseline the benchmarks report speedups against.

#include "rapids/simd/cpu_features.hpp"
#include "rapids/util/common.hpp"

namespace rapids::mgard::kernels {

/// Unit-stride kernels over rows of coefficients. All pointers may alias only
/// where a kernel writes the row it reads (cascade_*_x, thomas_*); distinct
/// row arguments must not overlap. `n` is the element count of every row.
///
/// Floating-point contract: each kernel evaluates, per element, exactly the
/// expression of the scalar reference (same operand order, no fused
/// multiply-add), so scalar and SIMD variants are bit-identical.
struct RowOps {
  /// odd[i] -= 0.5 * (lo[i] + hi[i]) — forward interpolation cascade row.
  void (*cascade_fwd)(f64* odd, const f64* lo, const f64* hi, u64 n);
  /// odd[i] += 0.5 * (lo[i] + hi[i]) — inverse cascade row.
  void (*cascade_inv)(f64* odd, const f64* lo, const f64* hi, u64 n);
  /// out[i] = 1/6 * (0.5*m2[i] + 3*m1[i] + 5*c0[i] + 3*p1[i] + 0.5*p2[i]).
  void (*load_interior)(f64* out, const f64* m2, const f64* m1, const f64* c0,
                        const f64* p1, const f64* p2, u64 n);
  /// out[i] = 1/6 * (2.5*v0[i] + 3*v1[i] + 0.5*v2[i]) — load boundary row.
  void (*load_boundary)(f64* out, const f64* v0, const f64* v1, const f64* v2,
                        u64 n);
  /// v[i] = v[i] / diag — first row of the Thomas forward sweep.
  void (*thomas_first)(f64* v, f64 diag, u64 n);
  /// cur[i] = (cur[i] - off * prev[i]) / denom — Thomas forward row.
  void (*thomas_fwd)(f64* cur, const f64* prev, f64 off, f64 denom, u64 n);
  /// cur[i] -= cp * next[i] — Thomas backward row.
  void (*thomas_bwd)(f64* cur, const f64* next, f64 cp, u64 n);

  /// In-line cascade along x: v[i] -=/+= 0.5*(v[i-1]+v[i+1]) at odd i,
  /// 1 <= i < len-1.
  void (*cascade_fwd_x)(f64* v, u64 len);
  void (*cascade_inv_x)(f64* v, u64 len);
  /// Full 1-D load stencil along x (boundaries included): olen outputs from
  /// slen = 2*olen-1 strided samples, identical to the y/z stencils above.
  void (*load_x)(f64* out, const f64* src, u64 olen, u64 slen);

  /// dst[i] = src[i * stride] for i in [0, n) — strided gather of one line.
  void (*gather_stride)(f64* dst, const f64* src, u64 n, u64 stride);
  /// dst[i * stride] = src[i] — strided scatter of one line.
  void (*scatter_stride)(f64* dst, const f64* src, u64 n, u64 stride);
  /// dst[i] = (i % zstride == 0) ? 0 : src[i] — residual row copy that zeroes
  /// the coarse positions in one pass (zstride == 1 zeroes the whole row).
  void (*copy_zero)(f64* dst, const f64* src, u64 n, u64 zstride);

  /// Panel transpose for the x-axis Thomas batch: dst[i*w + l] =
  /// src[l*line_stride + i] (pack) and its inverse (unpack), for w lines of
  /// len elements. dst and src must not overlap.
  void (*pack_panel)(f64* dst, const f64* src, u64 w, u64 len,
                     u64 line_stride);
  void (*unpack_panel)(f64* dst, const f64* src, u64 w, u64 len,
                       u64 line_stride);
};

/// Bitplane-side kernels: quantization fused with the 64x64 bit transpose,
/// and the inverse sign/magnitude materialization.
struct BitplaneOps {
  /// max(|v[i]|) — exact under any association, so SIMD reduction is safe.
  f64 (*max_abs)(const f64* v, u64 n);
  /// Quantize up to 64 coefficients: block[i] = u64(u32(min(|c[i]|*scale,
  /// 2^32-1))) for i < valid, 0 beyond; *sign_word collects signbit(c[i])
  /// at bit i. Exactly the scalar quantizer of encode_planes.
  void (*quantize64)(const f64* c, u32 valid, f64 scale, u64 block[64],
                     u64* sign_word);
  /// In-place 64x64 bit-matrix transpose (involution).
  void (*transpose64)(u64 a[64]);
  /// out[i] = q[i] == 0 ? 0 : +-(f64(q[i] + mid) * inv_scale) with the sign
  /// from bit i of sign_words. Caller-chunked on 64-coefficient boundaries so
  /// sign bit i of a chunk is bit i of its first sign word.
  void (*dequantize)(f64* out, const u32* q, const u64* sign_words,
                     f64 inv_scale, u32 mid, u64 n);
};

/// Entropy-codec kernels for the plane-segment coder (bitplane.cpp). Every
/// kernel is integer-exact, so any implementation tier yields byte-identical
/// encoded segments — the bit-identity matrix in kernel_test enforces it per
/// entry point. Buffers marked "pre-zeroed" must be zero-filled by the caller;
/// kernels only OR bits in.
struct CodecOps {
  /// *ones = popcount over words[0..n), *nonzero_words = #(words[i] != 0).
  void (*segment_stats)(const u64* words, u64 n, u64* ones,
                        u64* nonzero_words);
  /// bitmap bit i = (words[i] != 0) (bitmap pre-zeroed, ceil(n/64) words);
  /// packed collects the nonzero words in order. Returns #nonzero words.
  u64 (*sparse_pack)(const u64* words, u64 n, u64* bitmap, u64* packed);
  /// Inverse of sparse_pack: scatter packed words into words[0..n)
  /// (pre-zeroed) at the bitmap's set positions. Returns #words consumed.
  u64 (*sparse_expand)(u64* words, u64 n, const u64* bitmap,
                       const u64* packed);
  /// Rice-code the set bits of words[0..n) at parameter k (k <= 40): per set
  /// bit, its gap from the previous one's successor (from 0 for the first)
  /// as gap >> k zeros, a one, then the k low bits of the gap, LSB-first.
  /// Writes the stream's little-endian byte image, ceil(bits / 8) bytes
  /// with the last one zero-padded, to out and returns its exact bit length
  /// `bits`. A stream longer than max_bits is dropped as soon as it outgrows
  /// the budget: the return is then ~0 and out[0..ceil(max_bits / 8)) is
  /// unspecified. `out` needs room for ceil(max_bits / 8) bytes and no
  /// alignment. One integer encoder serves every tier: k = 0 copies the
  /// plane up to its last set bit (the stream is the plane), k >= 1 walks
  /// the words once and stores each filled output word once.
  u64 (*rice_encode)(const u64* words, u64 n, u32 k, u64 max_bits,
                     std::byte* out);
  /// Decode `ones` Rice gaps from stream[0..ceil(stream_bits/64)) (LSB-first,
  /// zero-padded past stream_bits) and set the positions in words
  /// (pre-zeroed, ceil(num_bits/64) words). Returns false on any malformed
  /// body: truncated stream, gap overflow, or a position >= num_bits; words
  /// are then unspecified. One integer decoder serves every tier: k = 0 is a
  /// checked copy of the stream, k = 1..3 decode several codewords per
  /// 12-bit table lookup, and a one-codeword loop takes k >= 4, codewords
  /// longer than the table window and the stream's tail. For k >= 1 that
  /// loop makes every rejection, and the k = 0 copy rejects exactly what it
  /// would, so accept/reject and the words are those of a plain
  /// one-codeword decode for every input.
  bool (*rice_expand)(const u64* stream, u64 stream_bits, u64 ones, u32 k,
                      u64 num_bits, u64* words);
};

/// Dispatched tables (test override > RAPIDS_FORCE_SCALAR > best ISA). The
/// lookup re-reads simd::active_isa() every call so overrides take effect
/// immediately; the tables themselves are static.
const RowOps& row_ops();
const BitplaneOps& bitplane_ops();
const CodecOps& codec_ops();

/// The portable scalar reference tables.
const RowOps& row_ops_scalar();
const BitplaneOps& bitplane_ops_scalar();
const CodecOps& codec_ops_scalar();

/// Table for an explicit ISA level (used by tests and benchmarks to pin a
/// tier). Unsupported levels fall back to scalar.
const RowOps& row_ops_at(simd::IsaLevel level);
const BitplaneOps& bitplane_ops_at(simd::IsaLevel level);
const CodecOps& codec_ops_at(simd::IsaLevel level);

/// Number of independent x-lines batched per Thomas panel sweep. Wide enough
/// that several vector division chains overlap; one panel of f64 scratch is
/// kPanelWidth * len elements (L1/L2 resident for every grid this code sees).
inline constexpr u64 kThomasPanelWidth = 16;

/// Chunk grain (in lines) targeting ~192 KiB of working set per task, so a
/// chunk's lines stay L2-resident across a fused pass. Used to tune
/// parallel_for_chunks instead of the default ~4-chunks-per-worker split.
inline u64 grain_for_lines(u64 bytes_per_line) {
  constexpr u64 kTargetBytes = 192 * 1024;
  if (bytes_per_line == 0) return 1;
  const u64 g = kTargetBytes / bytes_per_line;
  return g == 0 ? 1 : g;
}

// Implementation detail: per-ISA table providers, each defined in its own
// translation unit compiled with that ISA's flags (see src/CMakeLists.txt).
// On foreign architectures they return the scalar tables.
namespace detail {
const RowOps& row_ops_avx2();
const BitplaneOps& bitplane_ops_avx2();
const CodecOps& codec_ops_avx2();
const RowOps& row_ops_neon();
const BitplaneOps& bitplane_ops_neon();
const CodecOps& codec_ops_neon();
}  // namespace detail

}  // namespace rapids::mgard::kernels
