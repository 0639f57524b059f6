#include "rapids/mgard/bitplane.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "rapids/mgard/kernels/kernels.hpp"
#include "rapids/mgard/workspace.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::mgard {

namespace {

constexpr u8 kModeRaw = 0;
constexpr u8 kModeSparse = 1;
constexpr u8 kModeZero = 2;
constexpr u8 kModeRice = 3;

u64 words_for_bits(u64 bits) { return ceil_div(bits, 64); }

/// The segment byte streams are LSB-first within bytes, i.e. the
/// little-endian image of the packed 64-bit words the kernels work in; swap
/// on big-endian hosts so bulk word moves emit the canonical layout.
u64 host_to_le64(u64 v) {
  if constexpr (std::endian::native == std::endian::big)
    return __builtin_bswap64(v);
  return v;
}

/// Emit nbytes of the packed words' little-endian image (the last word may be
/// cut mid-way, matching the old bit writer's zero-padded byte tail).
void store_words_le(std::byte* dst, const u64* words, u64 nbytes) {
  const u64 whole = nbytes & ~u64{7};
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, words, whole);  // bulk move: the words are the image
  } else {
    for (u64 i = 0; i < whole; i += 8) {
      const u64 w = host_to_le64(words[i >> 3]);
      std::memcpy(dst + i, &w, 8);
    }
  }
  if (whole < nbytes) {
    const u64 w = host_to_le64(words[whole >> 3]);
    std::memcpy(dst + whole, &w, nbytes - whole);
  }
}

/// Inverse of store_words_le; the final partial word is zero-padded so bit
/// kernels never see fabricated high bits.
void load_words_le(u64* dst, const std::byte* src, u64 nbytes) {
  const u64 whole = nbytes & ~u64{7};
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, src, whole);  // bulk move: the image is the words
  } else {
    for (u64 i = 0; i < whole; i += 8) {
      u64 w;
      std::memcpy(&w, src + i, 8);
      dst[i >> 3] = host_to_le64(w);
    }
  }
  if (whole < nbytes) {
    u64 w = 0;
    std::memcpy(&w, src + whole, nbytes - whole);
    dst[whole >> 3] = host_to_le64(w);
  }
}

/// Rice parameter for gap coding at a given mean gap: k ~ log2(mean).
u32 rice_parameter(u64 num_bits, u64 ones) {
  RAPIDS_REQUIRE(ones > 0);
  const u64 mean_gap = std::max<u64>(1, num_bits / ones);
  u32 k = 0;
  while ((u64{2} << k) < mean_gap && k < 40) ++k;
  return k;
}

/// Levels of at most this many 64-coefficient words run each block pass
/// inline: the pool dispatch would cost more than the pass.
constexpr u64 kInlineWords = 64;

/// Grain for a pass over `nwords` blocks: one chunk (inline) for a small
/// level, else the bulk loop's default split.
u64 block_grain(u64 nwords) { return nwords > kInlineWords ? 0 : nwords; }

/// max |c| over a level. Each chunk reduces into its own slot (a chunk run
/// inline fills slot 0 and leaves the rest 0): max is exact in any order,
/// so the result is the serial kernel's.
f64 level_max_abs(std::span<const f64> c, ThreadPool* pool) {
  const kernels::BitplaneOps& ops = kernels::bitplane_ops();
  if (words_for_bits(c.size()) <= kInlineWords)
    return ops.max_abs(c.data(), c.size());
  const u64 grain = ceil_div(c.size(), u64{worker_count(pool)} * 4);
  std::vector<f64> part(ceil_div(c.size(), grain));
  parallel_for_chunks(
      pool, 0, c.size(),
      [&](u64 lo, u64 hi) {
        part[lo / grain] = ops.max_abs(c.data() + lo, hi - lo);
      },
      grain);
  return *std::max_element(part.begin(), part.end());
}

/// Mode histogram / byte accounting for one finished segment.
void tally_segment(const PlaneSegment& seg, CodecStats& s) {
  ++s.segments;
  s.bytes += seg.size();
  if (seg.data.empty()) return;
  switch (static_cast<u8>(seg.data[0])) {
    case kModeRaw: ++s.mode_raw; break;
    case kModeSparse: ++s.mode_sparse; break;
    case kModeZero: ++s.mode_zero; break;
    case kModeRice: ++s.mode_rice; break;
    default: break;
  }
}

}  // namespace

u64 PlaneSet::prefix_bytes(u32 p) const {
  RAPIDS_REQUIRE(p <= planes.size());
  u64 total = sign.size();
  for (u32 i = 0; i < p; ++i) total += planes[i].size();
  return total;
}

f64 PlaneSet::error_bound(u32 p) const {
  if (count == 0 || max_abs == 0.0) return 0.0;
  const u32 eff = std::min<u32>(p, kMagnitudePlanes);
  return std::ldexp(1.0, exponent - static_cast<i32>(eff));
}

PlaneSegment encode_segment(std::span<const u64> words, u64 num_bits) {
  RAPIDS_REQUIRE(words.size() == words_for_bits(num_bits));
  const u64 nwords = words.size();
  const kernels::CodecOps& cops = kernels::codec_ops();

  u64 ones = 0;
  u64 nonzero_words = 0;
  cops.segment_stats(words.data(), nwords, &ones, &nonzero_words);

  PlaneSegment seg;
  if (ones == 0) {
    seg.data.assign(1, static_cast<std::byte>(kModeZero));
    return seg;
  }

  const u64 raw_bytes = nwords * 8;
  const u64 bitmap_words = words_for_bits(nwords);
  const u64 sparse_bytes = bitmap_words * 8 + nonzero_words * 8;
  // One buffer serves every mode: the cheaper of raw and sparse fills it
  // exactly, and a Rice body only wins when it is strictly smaller.
  const u64 fallback_bytes = std::min(raw_bytes, sparse_bytes);
  seg.data.resize(1 + fallback_bytes);

  // Rice candidate, body = [k u8][ones u64][gap bits, byte-padded]: it wins
  // iff 9 + ceil(bits / 8) < fallback_bytes, i.e. bits <= 8 * (fallback_bytes
  // - 10). The kernel writes the stream straight after the header and drops
  // it once it outgrows that budget, so the exact Rice size decides the mode
  // with the historical tie-breaks and without any scratch.
  if (ones * 2 < num_bits && fallback_bytes > 10) {
    const u32 k = rice_parameter(num_bits, ones);
    const u64 max_bits = (fallback_bytes - 10) * 8;
    const u64 rice_bits = cops.rice_encode(words.data(), nwords, k, max_bits,
                                           seg.data.data() + 10);
    if (rice_bits <= max_bits) {
      seg.data[0] = static_cast<std::byte>(kModeRice);
      seg.data[1] = static_cast<std::byte>(k);
      const u64 ones_le = host_to_le64(ones);
      std::memcpy(seg.data.data() + 2, &ones_le, 8);
      seg.data.resize(10 + ceil_div(rice_bits, 8));
      return seg;
    }
  }

  if (sparse_bytes < raw_bytes) {
    std::vector<u64> bitmap(bitmap_words, 0);
    std::vector<u64> packed(nonzero_words);
    const u64 packed_words =
        cops.sparse_pack(words.data(), nwords, bitmap.data(), packed.data());
    RAPIDS_REQUIRE(packed_words == nonzero_words);
    seg.data[0] = static_cast<std::byte>(kModeSparse);
    store_words_le(seg.data.data() + 1, bitmap.data(), bitmap_words * 8);
    store_words_le(seg.data.data() + 1 + bitmap_words * 8, packed.data(),
                   nonzero_words * 8);
  } else {
    seg.data[0] = static_cast<std::byte>(kModeRaw);
    store_words_le(seg.data.data() + 1, words.data(), raw_bytes);
  }
  return seg;
}

namespace {

/// decode_segment_into with the words already zero (`zeroed`) or not: raw
/// segments write every word, the other modes set bits into zeros.
void expand_segment(const PlaneSegment& seg, u64 num_bits,
                    std::span<u64> words, bool zeroed) {
  const u64 nwords = words_for_bits(num_bits);
  RAPIDS_REQUIRE(words.size() == nwords);
  const std::span<const std::byte> data = as_bytes_view(seg.data);
  if (data.empty()) throw io_error("bitplane: truncated segment");
  const u8 mode = static_cast<u8>(data[0]);
  const std::span<const std::byte> body = data.subspan(1);
  const kernels::CodecOps& cops = kernels::codec_ops();
  if (!zeroed && mode != kModeRaw) std::fill(words.begin(), words.end(), 0);
  switch (mode) {
    case kModeZero:
      break;
    case kModeRaw:
      if (body.size() < nwords * 8)
        throw io_error("bitplane: truncated raw segment");
      load_words_le(words.data(), body.data(), nwords * 8);
      break;
    case kModeSparse: {
      const u64 bitmap_words = words_for_bits(nwords);
      if (body.size() < bitmap_words * 8)
        throw io_error("bitplane: truncated sparse bitmap");
      std::vector<u64> bitmap(bitmap_words, 0);
      load_words_le(bitmap.data(), body.data(), bitmap_words * 8);
      // Bitmap bits past nwords are meaningless; mask them so the payload
      // bound below counts only in-range words (a malformed body cannot read
      // past its own bytes).
      if ((nwords & 63) != 0)
        bitmap[bitmap_words - 1] &= (u64{1} << (nwords & 63)) - 1;
      u64 set_words = 0;
      u64 dummy = 0;
      cops.segment_stats(bitmap.data(), bitmap_words, &set_words, &dummy);
      if (body.size() < bitmap_words * 8 + set_words * 8)
        throw io_error("bitplane: truncated sparse words");
      std::vector<u64> packed(set_words, 0);
      load_words_le(packed.data(), body.data() + bitmap_words * 8,
                    set_words * 8);
      cops.sparse_expand(words.data(), nwords, bitmap.data(), packed.data());
      break;
    }
    case kModeRice: {
      if (body.size() < 9) throw io_error("bitplane: truncated Rice header");
      const u32 k = static_cast<u32>(body[0]);
      u64 ones_le;
      std::memcpy(&ones_le, body.data() + 1, 8);
      const u64 ones = host_to_le64(ones_le);
      // Bounds audit: a valid body has k <= 40 (see rice_parameter) and at
      // most one set bit per coded position; reject before the gap walk so a
      // malformed header cannot drive shifts past 63 or unbounded work.
      if (k > 63 || ones > num_bits)
        throw io_error("bitplane: malformed Rice header");
      const u64 stream_bytes = body.size() - 9;
      std::vector<u64> stream(words_for_bits(stream_bytes * 8), 0);
      load_words_le(stream.data(), body.data() + 9, stream_bytes);
      if (!cops.rice_expand(stream.data(), stream_bytes * 8, ones, k,
                            num_bits, words.data()))
        throw io_error("bitplane: malformed Rice body");
      break;
    }
    default:
      throw io_error("bitplane: unknown segment mode " + std::to_string(mode));
  }
}

}  // namespace

void decode_segment_into(const PlaneSegment& seg, u64 num_bits,
                         std::span<u64> words) {
  expand_segment(seg, num_bits, words, /*zeroed=*/false);
}

std::vector<u64> decode_segment(const PlaneSegment& seg, u64 num_bits) {
  std::vector<u64> words(words_for_bits(num_bits), 0);
  expand_segment(seg, num_bits, words, /*zeroed=*/true);
  return words;
}

PlaneSet encode_planes(std::span<const f64> coeffs, u32 max_planes,
                       ThreadPool* pool, CodecStats* stats,
                       RefactorWorkspace* ws) {
  RAPIDS_REQUIRE(max_planes <= kMagnitudePlanes);
  PlaneSet ps;
  ps.count = coeffs.size();
  if (coeffs.empty()) return ps;

  const kernels::BitplaneOps& ops = kernels::bitplane_ops();
  const f64 max_abs = level_max_abs(coeffs, pool);
  ps.max_abs = max_abs;
  if (max_abs == 0.0) {
    // All-zero level: a zero sign plane and no magnitude planes needed, but
    // keep the requested plane count so retrieval bookkeeping stays uniform.
    const u64 nwords = words_for_bits(ps.count);
    std::vector<u64> zero(nwords, 0);
    Timer t;
    ps.sign = encode_segment(zero, ps.count);
    ps.planes.assign(max_planes, ps.sign);
    if (stats != nullptr) {
      stats->seconds += t.seconds();
      tally_segment(ps.sign, *stats);
      for (const PlaneSegment& seg : ps.planes) tally_segment(seg, *stats);
    }
    return ps;
  }

  // E such that |c| / 2^E < 1 for every coefficient.
  ps.exponent = std::ilogb(max_abs) + 1;
  const f64 scale = std::ldexp(1.0, 32 - ps.exponent);  // |c| * scale in [0, 2^32)

  // Quantize, extract signs, and slice planes in one fused blocked pass:
  // each 64-coefficient block is quantized straight into the transpose
  // scratch (no intermediate q[] array and no separate sign pass), bit-
  // transposed, and contributes one 64-bit word to every plane plus one sign
  // word. Blocks own disjoint sign/plane words, so the pass parallelizes
  // without the 64-aligned-grain footwork the split passes needed. Every
  // word of the sign and plane rows is written, so the rows (one span of the
  // workspace: row 0 the sign, row 1 + p plane p) need no zero fill.
  const u64 n = ps.count;
  const u64 nwords = words_for_bits(n);
  RefactorWorkspace local;
  const std::span<u64> words = grow_only(
      (ws != nullptr ? *ws : local).planes, (u64{max_planes} + 1) * nwords);
  const auto row = [&](u64 idx) { return words.subspan(idx * nwords, nwords); };
  auto slice_blocks = [&](u64 wlo, u64 whi) {
    u64 block[64];
    for (u64 w = wlo; w < whi; ++w) {
      const u64 base = w * 64;
      const u32 valid = static_cast<u32>(std::min<u64>(64, n - base));
      ops.quantize64(coeffs.data() + base, valid, scale, block, &words[w]);
      // After the bit transpose, row b holds bit b of every coefficient:
      // plane p (MSB-first) is row 31-p.
      ops.transpose64(block);
      for (u32 p = 0; p < max_planes; ++p)
        words[(p + 1) * nwords + w] = block[31 - p];
    }
  };
  parallel_for_chunks(pool, 0, nwords, slice_blocks, block_grain(nwords));

  // Segment encode: the sign plane and every magnitude plane are independent,
  // so all max_planes + 1 segments fork across the pool in one go (index 0 is
  // the sign), one per task: the default grain would pair them up, and the
  // heavy middle planes of a large level would then share a task. Tasks are
  // claimed from the last plane up: planes get denser toward the least
  // significant bit, so the raw ones (a copy each) go first, then the
  // densest Rice planes, the most expensive, start before the sparser ones.
  // Each task writes only its own preallocated slot, so the bytes are
  // identical to the serial order.
  ps.planes.resize(max_planes);
  Timer t;
  auto compress = [&](u64 task) {
    const u64 idx = max_planes - task;
    if (idx == 0) {
      ps.sign = encode_segment(row(0), n);
    } else {
      ps.planes[idx - 1] = encode_segment(row(idx), n);
    }
  };
  parallel_for(pool, 0, u64{max_planes} + 1, compress, 1);
  if (stats != nullptr) {
    stats->seconds += t.seconds();
    tally_segment(ps.sign, *stats);
    for (const PlaneSegment& seg : ps.planes) tally_segment(seg, *stats);
  }
  return ps;
}

std::vector<f64> decode_planes(const PlaneSet& ps, u32 num_planes,
                               ThreadPool* pool, CodecStats* stats) {
  // Single code path with the incremental decoder: a throwaway state starting
  // at zero planes is exactly the from-scratch decode, which is what makes
  // incremental refinement provably byte-identical to it.
  ProgressiveState scratch;
  std::vector<f64> out(ps.count);
  decode_planes_incremental(ps, num_planes, scratch, out, pool, stats);
  return out;
}

void decode_planes_incremental(const PlaneSet& ps, u32 num_planes,
                               ProgressiveState& state, std::span<f64> out,
                               ThreadPool* pool, CodecStats* stats,
                               RefactorWorkspace* ws) {
  RAPIDS_REQUIRE(num_planes <= ps.planes.size() ||
                 (ps.max_abs == 0.0 && ps.count > 0));
  RAPIDS_REQUIRE(out.size() == ps.count);
  if (!state.initialized) {
    state.count = ps.count;
    state.initialized = true;
  }
  RAPIDS_REQUIRE_MSG(state.count == ps.count,
                     "bitplane: progressive state belongs to another plane set");
  RAPIDS_REQUIRE_MSG(num_planes >= state.planes_decoded,
                     "bitplane: progressive decode cannot drop planes");

  // A level with no planes or no nonzero coefficient decodes to zeros; every
  // other level gets each element written by the block pass below.
  if (ps.count == 0 || ps.max_abs == 0.0 || num_planes == 0) {
    std::fill(out.begin(), out.end(), 0.0);
    state.planes_decoded = num_planes;
    return;
  }

  const u64 n = ps.count;
  const u64 nwords = words_for_bits(n);
  const u32 p0 = state.planes_decoded;
  const u32 delta = num_planes - p0;

  // Decode the new planes into rows of the workspace's plane words (row i is
  // plane p0 + i) and, on the first call, the sign plane into a temporary.
  // The sign segment joins the parallel decode as index 0; every task fills
  // its own row, so the incremental schedule and the pool width cannot
  // change the decoded words. `state` is not touched until every segment
  // has decoded, so a segment that throws leaves it as it was.
  RefactorWorkspace local;
  const std::span<u64> rows =
      grow_only((ws != nullptr ? *ws : local).planes, u64{delta} * nwords);
  const u32 want_sign = state.sign_words.empty() ? 1 : 0;
  std::vector<u64> sign;
  if (delta + want_sign > 0) {
    Timer t;
    auto decode_one = [&](u64 i) {
      if (want_sign != 0 && i == 0) {
        sign = decode_segment(ps.sign, n);
      } else {
        const u64 p = i - want_sign;
        decode_segment_into(ps.planes[p0 + p], n,
                            rows.subspan(p * nwords, nwords));
      }
    };
    parallel_for(pool, 0, u64{delta} + want_sign, decode_one);
    if (stats != nullptr) {
      stats->seconds += t.seconds();
      if (want_sign != 0) tally_segment(ps.sign, *stats);
      for (u32 i = 0; i < delta; ++i) tally_segment(ps.planes[p0 + i], *stats);
    }
  }
  // Only a state that decoded an all-zero level has planes but no q.
  RAPIDS_REQUIRE_MSG(p0 == 0 || state.q != nullptr,
                     "bitplane: progressive state belongs to another plane set");
  if (state.q == nullptr) state.q = std::make_unique_for_overwrite<u32[]>(n);
  u32* q = state.q.get();
  const u64* sign_words = want_sign != 0 ? sign.data() : state.sign_words.data();

  // One blocked pass, mirroring the encoder's transpose, merges the new
  // planes into q and materializes the block's coefficients while both are
  // in L1. The new planes occupy bit positions of q that earlier planes
  // never touched, so OR-ing the transposed block in reproduces a full
  // decode exactly; the first planes (p0 == 0) assign instead, which writes
  // every element of the uninitialized q. A call that adds no planes only
  // materializes. The truncated-tail midpoint -- half of the last decoded
  // plane's weight -- is applied at materialization only: q stays raw, so
  // the next refinement can re-derive the midpoint for its own plane count.
  const kernels::BitplaneOps& ops = kernels::bitplane_ops();
  const f64 inv_scale = std::ldexp(1.0, ps.exponent - 32);
  const u32 mid = num_planes < 32 ? (1u << (31 - num_planes)) : 0u;
  auto merge_dequantize = [&](u64 wlo, u64 whi) {
    u64 block[64];
    for (u64 w = wlo; w < whi; ++w) {
      const u64 base = w * 64;
      const u32 valid = static_cast<u32>(std::min<u64>(64, n - base));
      if (delta > 0) {
        std::fill(std::begin(block), std::end(block), 0);
        for (u32 i = 0; i < delta; ++i)
          block[31 - (p0 + i)] = rows[i * nwords + w];
        ops.transpose64(block);  // involution: rows become coefficient values
        if (p0 == 0) {
          for (u32 i = 0; i < valid; ++i)
            q[base + i] = static_cast<u32>(block[i]);
        } else {
          for (u32 i = 0; i < valid; ++i)
            q[base + i] |= static_cast<u32>(block[i]);
        }
      }
      // One sign word per block, so the kernel's sign bit i is coefficient
      // base + i.
      ops.dequantize(out.data() + base, q + base, sign_words + w, inv_scale,
                     mid, valid);
    }
  };
  parallel_for_chunks(pool, 0, nwords, merge_dequantize, block_grain(nwords));

  if (want_sign != 0) state.sign_words = std::move(sign);
  state.planes_decoded = num_planes;
}

}  // namespace rapids::mgard
