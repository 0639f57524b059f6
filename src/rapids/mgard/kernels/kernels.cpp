#include "rapids/mgard/kernels/kernels.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

// Scalar reference kernels and the dispatch glue. This translation unit is
// compiled with -fno-tree-vectorize (see src/CMakeLists.txt): these loops are
// the bit-identity arbiter for every SIMD tier and the baseline the
// benchmarks report speedups against, so they must stay honestly scalar.

namespace rapids::mgard::kernels {

namespace {

void cascade_fwd_s(f64* odd, const f64* lo, const f64* hi, u64 n) {
  for (u64 i = 0; i < n; ++i) odd[i] -= 0.5 * (lo[i] + hi[i]);
}

void cascade_inv_s(f64* odd, const f64* lo, const f64* hi, u64 n) {
  for (u64 i = 0; i < n; ++i) odd[i] += 0.5 * (lo[i] + hi[i]);
}

void load_interior_s(f64* out, const f64* m2, const f64* m1, const f64* c0,
                     const f64* p1, const f64* p2, u64 n) {
  const f64 c6 = 1.0 / 6.0;
  for (u64 i = 0; i < n; ++i)
    out[i] = c6 * (0.5 * m2[i] + 3 * m1[i] + 5 * c0[i] + 3 * p1[i] +
                   0.5 * p2[i]);
}

void load_boundary_s(f64* out, const f64* v0, const f64* v1, const f64* v2,
                     u64 n) {
  const f64 c6 = 1.0 / 6.0;
  for (u64 i = 0; i < n; ++i)
    out[i] = c6 * (2.5 * v0[i] + 3 * v1[i] + 0.5 * v2[i]);
}

void thomas_first_s(f64* v, f64 diag, u64 n) {
  for (u64 i = 0; i < n; ++i) v[i] = v[i] / diag;
}

void thomas_fwd_s(f64* cur, const f64* prev, f64 off, f64 denom, u64 n) {
  for (u64 i = 0; i < n; ++i) cur[i] = (cur[i] - off * prev[i]) / denom;
}

void thomas_bwd_s(f64* cur, const f64* next, f64 cp, u64 n) {
  for (u64 i = 0; i < n; ++i) cur[i] -= cp * next[i];
}

void cascade_fwd_x_s(f64* v, u64 len) {
  for (u64 i = 1; i + 1 < len; i += 2) v[i] -= 0.5 * (v[i - 1] + v[i + 1]);
}

void cascade_inv_x_s(f64* v, u64 len) {
  for (u64 i = 1; i + 1 < len; i += 2) v[i] += 0.5 * (v[i - 1] + v[i + 1]);
}

void load_x_s(f64* out, const f64* src, u64 olen, u64 slen) {
  const f64 c6 = 1.0 / 6.0;
  out[0] = c6 * (2.5 * src[0] + 3 * src[1] + 0.5 * src[2]);
  for (u64 i = 1; i + 1 < olen; ++i) {
    const f64* p = src + 2 * i;
    out[i] = c6 * (0.5 * p[-2] + 3 * p[-1] + 5 * p[0] + 3 * p[1] + 0.5 * p[2]);
  }
  if (olen > 1) {
    const f64* e = src + (slen - 1);
    out[olen - 1] = c6 * (2.5 * e[0] + 3 * e[-1] + 0.5 * e[-2]);
  }
}

void gather_stride_s(f64* dst, const f64* src, u64 n, u64 stride) {
  for (u64 i = 0; i < n; ++i) dst[i] = src[i * stride];
}

void scatter_stride_s(f64* dst, const f64* src, u64 n, u64 stride) {
  for (u64 i = 0; i < n; ++i) dst[i * stride] = src[i];
}

void copy_zero_s(f64* dst, const f64* src, u64 n, u64 zstride) {
  for (u64 i = 0; i < n; ++i) dst[i] = src[i];
  for (u64 i = 0; i < n; i += zstride) dst[i] = 0;
}

void pack_panel_s(f64* dst, const f64* src, u64 w, u64 len, u64 line_stride) {
  // Blocked over i so each line contributes a short contiguous run per step
  // (w lines' cache lines stay resident instead of thrashing).
  constexpr u64 kBlock = 16;
  for (u64 i0 = 0; i0 < len; i0 += kBlock) {
    const u64 i1 = i0 + kBlock < len ? i0 + kBlock : len;
    for (u64 l = 0; l < w; ++l)
      for (u64 i = i0; i < i1; ++i) dst[i * w + l] = src[l * line_stride + i];
  }
}

void unpack_panel_s(f64* dst, const f64* src, u64 w, u64 len,
                    u64 line_stride) {
  constexpr u64 kBlock = 16;
  for (u64 i0 = 0; i0 < len; i0 += kBlock) {
    const u64 i1 = i0 + kBlock < len ? i0 + kBlock : len;
    for (u64 l = 0; l < w; ++l)
      for (u64 i = i0; i < i1; ++i) dst[l * line_stride + i] = src[i * w + l];
  }
}

f64 max_abs_s(const f64* v, u64 n) {
  f64 m = 0.0;
  for (u64 i = 0; i < n; ++i) m = m < std::fabs(v[i]) ? std::fabs(v[i]) : m;
  return m;
}

void quantize64_s(const f64* c, u32 valid, f64 scale, u64 block[64],
                  u64* sign_word) {
  u64 sw = 0;
  for (u32 i = 0; i < valid; ++i) {
    f64 m = std::fabs(c[i]) * scale;
    if (m >= 4294967295.0) m = 4294967295.0;
    block[i] = static_cast<u64>(static_cast<u32>(m));
    if (std::signbit(c[i])) sw |= u64{1} << i;
  }
  for (u32 i = valid; i < 64; ++i) block[i] = 0;
  *sign_word = sw;
}

/// Hacker's Delight 7-7 style recursive block swap. Involution.
void transpose64_s(u64 a[64]) {
  u64 m = 0x00000000FFFFFFFFull;
  for (u32 j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (u32 k = 0; k < 64; k = (k + j + 1) & ~j) {
      const u64 t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

void dequantize_s(f64* out, const u32* q, const u64* sign_words, f64 inv_scale,
                  u32 mid, u64 n) {
  for (u64 i = 0; i < n; ++i) {
    u32 qi = q[i];
    if (qi == 0) {
      out[i] = 0.0;  // insignificant: stays exactly zero
      continue;
    }
    qi += mid;
    f64 m = static_cast<f64>(qi) * inv_scale;
    if (sign_words[i >> 6] & (u64{1} << (i & 63))) m = -m;
    out[i] = m;
  }
}

// --- entropy-codec kernels ---

void segment_stats_s(const u64* words, u64 n, u64* ones, u64* nonzero_words) {
  u64 o = 0;
  u64 nz = 0;
  for (u64 i = 0; i < n; ++i) {
    o += static_cast<u64>(std::popcount(words[i]));
    nz += (words[i] != 0);
  }
  *ones = o;
  *nonzero_words = nz;
}

u64 sparse_pack_s(const u64* words, u64 n, u64* bitmap, u64* packed) {
  u64 nz = 0;
  for (u64 i = 0; i < n; ++i) {
    if (words[i] != 0) {
      bitmap[i >> 6] |= u64{1} << (i & 63);
      packed[nz++] = words[i];
    }
  }
  return nz;
}

u64 sparse_expand_s(u64* words, u64 n, const u64* bitmap, const u64* packed) {
  u64 c = 0;
  for (u64 i = 0; i < n; ++i)
    if (bitmap[i >> 6] & (u64{1} << (i & 63))) words[i] = packed[c++];
  return c;
}

/// Store the little-endian image of `v`: all 8 bytes, or its first nbytes.
inline void store_le(std::byte* dst, u64 v, u64 nbytes = 8) {
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  std::memcpy(dst, &v, nbytes);
}

u64 rice_encode_s(const u64* words, u64 n, u32 k, u64 max_bits,
                  std::byte* out) {
  constexpr u64 kDropped = ~u64{0};
  if (k == 0) {
    // A codeword is gap zeros then a one: the stream is the plane itself up
    // to its last set bit.
    u64 w = n;
    while (w > 0 && words[w - 1] == 0) --w;
    const u64 bits =
        w == 0 ? 0 : w * 64 - static_cast<u64>(std::countl_zero(words[w - 1]));
    if (bits > max_bits) return kDropped;
    const u64 nbytes = (bits + 7) >> 3;
    const u64 whole = nbytes >> 3;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, words, whole * 8);  // the words are the image
    } else {
      for (u64 i = 0; i < whole; ++i) store_le(out + i * 8, words[i]);
    }
    if ((nbytes & 7) != 0) store_le(out + whole * 8, words[whole], nbytes & 7);
    return bits;
  }
  // The stream word being filled stays in `cur` (its low `fill` bits are
  // coded) and is stored once, whole, when it fills. A store that would
  // take the stream past max_bits drops it instead, so no write lands past
  // ceil(max_bits / 8) bytes however long a run of zeros is.
  const u64 low_mask = (u64{1} << k) - 1;
  const u64 max_words = max_bits >> 6;
  u64 stored = 0;
  u64 cur = 0;
  u64 fill = 0;
  u64 prev = 0;  // position after the previous set bit
  for (u64 i = 0; i < n; ++i) {
    for (u64 w = words[i]; w != 0; w &= w - 1) {
      const u64 pos = i * 64 + static_cast<u64>(std::countr_zero(w));
      const u64 gap = pos - prev;
      prev = pos + 1;
      fill += gap >> k;  // the unary zeros are zero bits already
      if (fill >= 64) {  // they complete `cur`, and maybe whole zero words
        const u64 whole = fill >> 6;
        if (stored + whole > max_words) return kDropped;
        store_le(out + stored++ * 8, cur);
        for (u64 z = 1; z < whole; ++z) store_le(out + stored++ * 8, 0);
        cur = 0;
        fill &= 63;
      }
      const u64 code = ((gap & low_mask) << 1) | 1;  // the one, the low bits
      cur |= code << fill;
      fill += k + 1;
      if (fill >= 64) {
        if (stored == max_words) return kDropped;
        store_le(out + stored++ * 8, cur);
        fill -= 64;
        cur = code >> (k + 1 - fill);  // the bits past the stored word
      }
    }
  }
  const u64 bits = stored * 64 + fill;
  if (bits > max_bits) return kDropped;
  if (fill > 0) store_le(out + stored * 8, cur, (fill + 7) >> 3);
  return bits;
}

/// One Rice codeword at stream bit `bitpos`, output position `prev`: the
/// one-codeword decoder every k >= 1 falls back to, and the only place such
/// a body is rejected. k <= 63 and ones <= num_bits are validated by the
/// caller; here only the stream itself can be malformed. Positions must stay
/// < num_bits and the stream must hold every coded bit — zero padding past
/// stream_bits never fabricates gaps because a unary run into the padding
/// trips the bitpos >= stream_bits check before a terminator can be found.
inline bool rice_step(const u64* stream, u64 stream_bits, u32 k, u64 num_bits,
                      u64* words, u64& bitpos, u64& prev) {
  const u64 low_mask = k == 0 ? 0 : (u64{1} << k) - 1;
  const u64 q_limit = num_bits >> k;  // any valid gap has gap >> k <= this
  u64 q = 0;
  for (;;) {
    if (bitpos >= stream_bits) return false;
    const u32 off = static_cast<u32>(bitpos & 63);
    const u64 w = stream[bitpos >> 6] >> off;
    if (w == 0) {
      q += 64 - off;
      bitpos += 64 - off;
      if (q > q_limit) return false;
      continue;
    }
    const u32 z = static_cast<u32>(std::countr_zero(w));
    q += z;
    bitpos += z + u64{1};
    break;
  }
  if (q > q_limit) return false;
  u64 low = 0;
  if (k != 0) {
    if (bitpos + k > stream_bits) return false;
    const u32 off = static_cast<u32>(bitpos & 63);
    u64 v = stream[bitpos >> 6] >> off;
    if (off + k > 64) v |= stream[(bitpos >> 6) + 1] << (64 - off);
    low = v & low_mask;
    bitpos += k;
  }
  const u64 pos = prev + ((q << k) | low);
  if (pos >= num_bits) return false;
  words[pos >> 6] |= u64{1} << (pos & 63);
  prev = pos + 1;
  return true;
}

/// k = 0: a codeword is `gap` zeros then a one, so the stream is the plane
/// itself up to its `ones`-th set bit (the encoder sizes it as pos_last + 1).
/// Accepts exactly when rice_step would: the stream holds >= ones set bits
/// and the ones-th lies below num_bits. Later set bits are ignored.
bool rice_copy_k0(const u64* stream, u64 stream_bits, u64 ones, u64 num_bits,
                  u64* words) {
  if (ones == 0) return true;
  const u64 nwords = (stream_bits + 63) >> 6;
  u64 seen = 0;
  for (u64 w = 0; w < nwords; ++w) {
    const u64 c = static_cast<u64>(std::popcount(stream[w]));
    if (seen + c < ones) {
      seen += c;
      continue;
    }
    u64 x = stream[w];
    for (u64 r = ones - seen; r > 1; --r) x &= x - 1;  // drop lower set bits
    const u32 bit = static_cast<u32>(std::countr_zero(x));
    if (w * 64 + bit >= num_bits) return false;
    std::copy(stream, stream + w, words);
    words[w] = stream[w] & (~u64{0} >> (63 - bit));
    return true;
  }
  return false;
}

/// Decode tables for k = 1..3. Entry v describes the complete codewords at
/// the front of a 12-bit stream window v, as many as fit with at most 48
/// output bits: bits 0-47 the output pattern (each gap's zeros, then its
/// one), 48-51 stream bits used, 52-57 output bits produced, 58-61 codeword
/// count. An entry whose first codeword does not fit is all zero.
constexpr u32 kRiceWindowBits = 12;
constexpr u32 kRicePatternBits = 48;
constexpr u32 kRiceTableMaxK = 3;
constexpr u32 kRiceStepsPerWindow = 4;  // 4 x 12 stream bits fit one word

struct RiceTable {
  u64 entry[u64{1} << kRiceWindowBits];
};

constexpr RiceTable make_rice_table(u32 k) {
  RiceTable t{};
  for (u32 v = 0; v < (1u << kRiceWindowBits); ++v) {
    u32 used = 0, out = 0, count = 0;
    u64 pattern = 0;
    for (;;) {
      u32 b = used;
      while (b < kRiceWindowBits && ((v >> b) & 1) == 0) ++b;
      if (b + 1 + k > kRiceWindowBits) break;  // terminator or low bits cut
      const u32 gap = ((b - used) << k) | ((v >> (b + 1)) & ((1u << k) - 1));
      if (out + gap + 1 > kRicePatternBits) break;
      pattern |= u64{1} << (out + gap);
      out += gap + 1;
      used = b + 1 + k;
      ++count;
    }
    t.entry[v] = pattern | u64{used} << 48 | u64{out} << 52 | u64{count} << 58;
  }
  return t;
}

constexpr RiceTable kRiceTables[kRiceTableMaxK] = {
    make_rice_table(1), make_rice_table(2), make_rice_table(3)};

/// Table-driven run for k = 1..3: up to four lookups per 64-bit stream
/// window, while every bit they can touch is known safe — the window lies in
/// whole stream words, enough codewords remain, and every position they can
/// emit is < num_bits. Under those conditions rice_step would accept each of
/// these codewords and set the same bits, so the run stops rather than
/// reject. The current output word stays in a register and is stored once.
/// Returns the codewords decoded (0 when the run could not start).
u64 rice_table_run(const RiceTable& table, u32 k, const u64* stream,
                   u64 stream_bits, u64 left, u64 num_bits, u64* words,
                   u64& bitpos, u64& prev) {
  const u64 max_per_window = kRiceStepsPerWindow * (kRiceWindowBits / (k + 1));
  const u64 max_out = kRiceStepsPerWindow * kRicePatternBits;
  const u64 whole_words = stream_bits >> 6;
  const auto can_step = [&](u64 done) {
    return left - done >= max_per_window && prev + max_out < num_bits &&
           (bitpos >> 6) + 2 <= whole_words;
  };
  if (!can_step(0)) return 0;
  u64 done = 0;
  u64 idx = prev >> 6;
  u64 cur = words[idx];
  do {
    const u32 off = static_cast<u32>(bitpos & 63);
    u64 win = stream[bitpos >> 6] >> off;
    if (off != 0) win |= stream[(bitpos >> 6) + 1] << (64 - off);
    u32 used = 0;
    for (u32 s = 0; s < kRiceStepsPerWindow; ++s) {
      const u64 e = table.entry[win & ((u64{1} << kRiceWindowBits) - 1)];
      const u32 len = static_cast<u32>(e >> 48) & 15;
      if (len == 0) break;  // first codeword longer than the window
      const u64 pattern = e & ((u64{1} << kRicePatternBits) - 1);
      const u32 out = static_cast<u32>(e >> 52) & 63;
      const u32 o = static_cast<u32>(prev & 63);
      cur |= pattern << o;
      if (o + out >= 64) {  // o >= 16 here, so the spill shift is < 64
        words[idx++] = cur;
        cur = pattern >> (64 - o);
      }
      prev += out;
      done += e >> 58;
      win >>= len;
      used += len;
    }
    if (used == 0) break;
    bitpos += used;
  } while (can_step(done));
  words[idx] = cur;
  return done;
}

bool rice_expand_s(const u64* stream, u64 stream_bits, u64 ones, u32 k,
                   u64 num_bits, u64* words) {
  if (k == 0) return rice_copy_k0(stream, stream_bits, ones, num_bits, words);
  const RiceTable* table = k <= kRiceTableMaxK ? &kRiceTables[k - 1] : nullptr;
  u64 bitpos = 0;
  u64 prev = 0;
  u64 i = 0;
  while (i < ones) {
    if (table != nullptr) {
      i += rice_table_run(*table, k, stream, stream_bits, ones - i, num_bits,
                          words, bitpos, prev);
      if (i == ones) break;
    }
    if (!rice_step(stream, stream_bits, k, num_bits, words, bitpos, prev))
      return false;
    ++i;
  }
  return true;
}

constexpr RowOps kScalarRowOps{
    &cascade_fwd_s,   &cascade_inv_s, &load_interior_s, &load_boundary_s,
    &thomas_first_s,  &thomas_fwd_s,  &thomas_bwd_s,    &cascade_fwd_x_s,
    &cascade_inv_x_s, &load_x_s,      &gather_stride_s, &scatter_stride_s,
    &copy_zero_s,     &pack_panel_s,  &unpack_panel_s};

constexpr BitplaneOps kScalarBitplaneOps{&max_abs_s, &quantize64_s,
                                         &transpose64_s, &dequantize_s};

constexpr CodecOps kScalarCodecOps{&segment_stats_s, &sparse_pack_s,
                                   &sparse_expand_s, &rice_encode_s,
                                   &rice_expand_s};

}  // namespace

const RowOps& row_ops_scalar() { return kScalarRowOps; }

const BitplaneOps& bitplane_ops_scalar() { return kScalarBitplaneOps; }

const CodecOps& codec_ops_scalar() { return kScalarCodecOps; }

const RowOps& row_ops_at(simd::IsaLevel level) {
  switch (level) {
    case simd::IsaLevel::kAvx2:
      return detail::row_ops_avx2();
    case simd::IsaLevel::kNeon:
      return detail::row_ops_neon();
    case simd::IsaLevel::kSsse3:  // no float tier between SSE2 and AVX2 here
    case simd::IsaLevel::kScalar:
      break;
  }
  return row_ops_scalar();
}

const BitplaneOps& bitplane_ops_at(simd::IsaLevel level) {
  switch (level) {
    case simd::IsaLevel::kAvx2:
      return detail::bitplane_ops_avx2();
    case simd::IsaLevel::kNeon:
      return detail::bitplane_ops_neon();
    case simd::IsaLevel::kSsse3:
    case simd::IsaLevel::kScalar:
      break;
  }
  return bitplane_ops_scalar();
}

const CodecOps& codec_ops_at(simd::IsaLevel level) {
  switch (level) {
    case simd::IsaLevel::kAvx2:
      return detail::codec_ops_avx2();
    case simd::IsaLevel::kNeon:
      return detail::codec_ops_neon();
    case simd::IsaLevel::kSsse3:
    case simd::IsaLevel::kScalar:
      break;
  }
  return codec_ops_scalar();
}

const RowOps& row_ops() { return row_ops_at(simd::active_isa()); }

const BitplaneOps& bitplane_ops() {
  return bitplane_ops_at(simd::active_isa());
}

const CodecOps& codec_ops() { return codec_ops_at(simd::active_isa()); }

}  // namespace rapids::mgard::kernels
