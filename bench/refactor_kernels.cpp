// Refactor-kernel throughput: the panel-major multigrid kernels, scalar
// reference vs the dispatched ISA tier, plus the whole single-thread
// decompose/recompose at three implementation stages:
//
//   seed       — the pre-panel per-line implementation (embedded below),
//   panel      — the rebuilt sweeps pinned to the scalar kernel tier,
//   dispatched — the same sweeps through the active ISA tier (AVX2 here).
//
// `dispatched vs seed` is the headline number the issue tracks (>= 4x on
// AVX2); `panel vs seed` isolates the restructuring from the vectorization.
//
// The entropy-codec table pits the pre-kernel plane-segment coder (embedded
// below as `seedcodec`, bit-serial BitWriter/BitReader Rice + per-word
// put_u64 raw/sparse) against the rebuilt kernel-dispatched coder on real
// bitplanes of quantized Gaussian coefficients, single thread. The two
// coders must produce byte-identical segments; the bench asserts it before
// timing. `codec_combined_speedup_vs_seed` is the >= 3x number the issue
// tracks.
//
// Those planes are mostly coded raw or sparse, so the Rice tables time the
// Rice segments of one refactored generator field on their own, grouped by
// the parameter k the coder chose: the seed BitReader decoder against the
// kernel decoder, and the seed BitWriter encoder against the kernel encoder,
// as ns per set bit and stream GB/s, with the in-run speedup.
//
// Usage: refactor_kernels [output.json]
//   Prints the tables; with an argument also writes BENCH_refactor.json,
//   whose context records the host (CPU model, nproc) the rows ran on.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "rapids/data/datasets.hpp"
#include "rapids/mgard/bitplane.hpp"
#include "rapids/mgard/decompose.hpp"
#include "rapids/mgard/grid.hpp"
#include "rapids/mgard/kernels/kernels.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/mgard/retrieval.hpp"
#include "rapids/mgard/workspace.hpp"
#include "rapids/simd/cpu_features.hpp"
#include "rapids/util/rng.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::bench {
namespace {

using mgard::Dims;
using mgard::GridHierarchy;
using simd::IsaLevel;

// --- seed reference: the pre-panel per-line transform, kept verbatim -------

namespace seedref {

template <typename Body>
void for_each_line(Dims dims, u32 axis, const Body& body) {
  u64 len = 0, stride = 0, o1 = 0, s1 = 0, o2 = 0, s2 = 0;
  switch (axis) {
    case 0:
      len = dims.nx; stride = 1;
      o1 = dims.ny; s1 = dims.nx;
      o2 = dims.nz; s2 = dims.nx * dims.ny;
      break;
    case 1:
      len = dims.ny; stride = dims.nx;
      o1 = dims.nx; s1 = 1;
      o2 = dims.nz; s2 = dims.nx * dims.ny;
      break;
    default:
      len = dims.nz; stride = dims.nx * dims.ny;
      o1 = dims.nx; s1 = 1;
      o2 = dims.ny; s2 = dims.nx;
      break;
  }
  for (u64 b = 0; b < o2; ++b)
    for (u64 a = 0; a < o1; ++a) body(a * s1 + b * s2, stride, len);
}

template <typename T>
void cascade(std::vector<T>& w, Dims dims, u32 axis, T sign) {
  for_each_line(dims, axis, [&](u64 base, u64 stride, u64 len) {
    T* v = w.data() + base;
    for (u64 i = 1; i + 1 < len; i += 2)
      v[i * stride] += sign * static_cast<T>(0.5) *
                       (v[(i - 1) * stride] + v[(i + 1) * stride]);
  });
}

Dims coarsen_axis(Dims d, u32 axis) {
  auto shrink = [](u64 s) { return s <= 1 ? s : (s - 1) / 2 + 1; };
  if (axis == 0) d.nx = shrink(d.nx);
  else if (axis == 1) d.ny = shrink(d.ny);
  else d.nz = shrink(d.nz);
  return d;
}

template <typename T>
std::vector<T> apply_load(const std::vector<T>& src, Dims sdims, u32 axis) {
  const Dims odims = coarsen_axis(sdims, axis);
  std::vector<T> out(odims.total());
  const u64 slen = axis == 0 ? sdims.nx : axis == 1 ? sdims.ny : sdims.nz;
  u64 olen = 0, ostride = 0, sstride = 0;
  u64 o1 = 0, s1o = 0, s1s = 0, o2 = 0, s2o = 0, s2s = 0;
  switch (axis) {
    case 0:
      olen = odims.nx; ostride = 1; sstride = 1;
      o1 = odims.ny; s1o = odims.nx; s1s = sdims.nx;
      o2 = odims.nz; s2o = odims.nx * odims.ny; s2s = sdims.nx * sdims.ny;
      break;
    case 1:
      olen = odims.ny; ostride = odims.nx; sstride = sdims.nx;
      o1 = odims.nx; s1o = 1; s1s = 1;
      o2 = odims.nz; s2o = odims.nx * odims.ny; s2s = sdims.nx * sdims.ny;
      break;
    default:
      olen = odims.nz; ostride = odims.nx * odims.ny;
      sstride = sdims.nx * sdims.ny;
      o1 = odims.nx; s1o = 1; s1s = 1;
      o2 = odims.ny; s2o = odims.nx; s2s = sdims.nx;
      break;
  }
  const T c6 = static_cast<T>(1.0 / 6.0);
  auto line = [&](u64 obase, u64 sbase) {
    const T* v = src.data() + sbase;
    T* o = out.data() + obase;
    o[0] = c6 * (static_cast<T>(2.5) * v[0] + 3 * v[sstride] +
                 static_cast<T>(0.5) * v[2 * sstride]);
    for (u64 i = 1; i + 1 < olen; ++i) {
      const T* p = v + 2 * i * sstride;
      o[i * ostride] =
          c6 * (static_cast<T>(0.5) * p[-2 * static_cast<i64>(sstride)] +
                3 * p[-static_cast<i64>(sstride)] + 5 * p[0] + 3 * p[sstride] +
                static_cast<T>(0.5) * p[2 * sstride]);
    }
    const T* e = v + (slen - 1) * sstride;
    o[(olen - 1) * ostride] =
        c6 * (static_cast<T>(2.5) * e[0] + 3 * e[-static_cast<i64>(sstride)] +
              static_cast<T>(0.5) * e[-2 * static_cast<i64>(sstride)]);
  };
  for (u64 b = 0; b < o2; ++b)
    for (u64 a = 0; a < o1; ++a) line(a * s1o + b * s2o, a * s1s + b * s2s);
  return out;
}

template <typename T>
void mass_solve(std::vector<T>& g, Dims dims, u32 axis) {
  const u64 n = axis == 0 ? dims.nx : axis == 1 ? dims.ny : dims.nz;
  if (n <= 1) return;
  for_each_line(dims, axis, [&](u64 base, u64 stride, u64 len) {
    T* v = g.data() + base;
    constexpr f64 off = 1.0 / 3.0;
    std::vector<f64> cp(len);
    f64 diag0 = 2.0 / 3.0;
    cp[0] = off / diag0;
    v[0] = static_cast<T>(v[0] / diag0);
    for (u64 i = 1; i < len; ++i) {
      const f64 diag = (i + 1 == len) ? 2.0 / 3.0 : 4.0 / 3.0;
      const f64 denom = diag - off * cp[i - 1];
      cp[i] = off / denom;
      v[i * stride] =
          static_cast<T>((v[i * stride] - off * v[(i - 1) * stride]) / denom);
    }
    for (u64 i = len - 1; i-- > 0;)
      v[i * stride] -= static_cast<T>(cp[i] * v[(i + 1) * stride]);
  });
}

template <typename T>
std::vector<T> compute_correction(const std::vector<T>& w, Dims adims) {
  std::vector<T> r = w;
  const u64 sx = adims.nx > 1 ? 2 : 1;
  const u64 sy = adims.ny > 1 ? 2 : 1;
  const u64 sz = adims.nz > 1 ? 2 : 1;
  for (u64 k = 0; k < adims.nz; k += sz)
    for (u64 j = 0; j < adims.ny; j += sy)
      for (u64 i = 0; i < adims.nx; i += sx)
        r[(k * adims.ny + j) * adims.nx + i] = 0;
  Dims cur = adims;
  for (u32 axis = 0; axis < 3; ++axis) {
    const u64 extent = axis == 0 ? cur.nx : axis == 1 ? cur.ny : cur.nz;
    if (extent <= 1) continue;
    r = apply_load(r, cur, axis);
    cur = coarsen_axis(cur, axis);
  }
  for (u32 axis = 0; axis < 3; ++axis) {
    const u64 extent = axis == 0 ? cur.nx : axis == 1 ? cur.ny : cur.nz;
    if (extent <= 1) continue;
    mass_solve(r, cur, axis);
  }
  return r;
}

template <typename T>
std::vector<T> gather_active(const std::vector<T>& full, Dims pdims,
                             Dims adims, u64 stride) {
  std::vector<T> w(adims.total());
  for (u64 k = 0; k < adims.nz; ++k)
    for (u64 j = 0; j < adims.ny; ++j) {
      const T* src =
          full.data() + ((k * stride) * pdims.ny + j * stride) * pdims.nx;
      T* dst = w.data() + (k * adims.ny + j) * adims.nx;
      for (u64 i = 0; i < adims.nx; ++i) dst[i] = src[i * stride];
    }
  return w;
}

template <typename T>
void scatter_active(std::vector<T>& full, Dims pdims, const std::vector<T>& w,
                    Dims adims, u64 stride) {
  for (u64 k = 0; k < adims.nz; ++k)
    for (u64 j = 0; j < adims.ny; ++j) {
      T* dst = full.data() + ((k * stride) * pdims.ny + j * stride) * pdims.nx;
      const T* src = w.data() + (k * adims.ny + j) * adims.nx;
      for (u64 i = 0; i < adims.nx; ++i) dst[i * stride] = src[i];
    }
}

template <typename T>
void apply_correction(std::vector<T>& w, Dims adims, const std::vector<T>& z,
                      Dims cdims, T sign) {
  const u64 sx = adims.nx > 1 ? 2 : 1;
  const u64 sy = adims.ny > 1 ? 2 : 1;
  const u64 sz = adims.nz > 1 ? 2 : 1;
  for (u64 k = 0; k < cdims.nz; ++k)
    for (u64 j = 0; j < cdims.ny; ++j) {
      const T* src = z.data() + (k * cdims.ny + j) * cdims.nx;
      T* dst = w.data() + ((k * sz) * adims.ny + j * sy) * adims.nx;
      for (u64 i = 0; i < cdims.nx; ++i) dst[i * sx] += sign * src[i];
    }
}

template <typename T>
void decompose(std::vector<T>& data, const GridHierarchy& h) {
  const Dims pdims = h.padded();
  for (u32 t = 1; t <= h.levels(); ++t) {
    const Dims adims = h.grid_at_step(t - 1);
    const u64 stride = u64{1} << (t - 1);
    std::vector<T> w = gather_active(data, pdims, adims, stride);
    for (u32 axis = 0; axis < 3; ++axis) {
      const u64 extent = axis == 0 ? adims.nx : axis == 1 ? adims.ny : adims.nz;
      if (extent > 1) cascade(w, adims, axis, static_cast<T>(-1));
    }
    const std::vector<T> z = compute_correction(w, adims);
    apply_correction(w, adims, z, h.grid_at_step(t), static_cast<T>(1));
    scatter_active(data, pdims, w, adims, stride);
  }
}

template <typename T>
void recompose(std::vector<T>& data, const GridHierarchy& h) {
  const Dims pdims = h.padded();
  for (u32 t = h.levels(); t >= 1; --t) {
    const Dims adims = h.grid_at_step(t - 1);
    const u64 stride = u64{1} << (t - 1);
    std::vector<T> w = gather_active(data, pdims, adims, stride);
    const std::vector<T> z = compute_correction(w, adims);
    apply_correction(w, adims, z, h.grid_at_step(t), static_cast<T>(-1));
    for (u32 axis = 3; axis-- > 0;) {
      const u64 extent = axis == 0 ? adims.nx : axis == 1 ? adims.ny : adims.nz;
      if (extent > 1) cascade(w, adims, axis, static_cast<T>(1));
    }
    scatter_active(data, pdims, w, adims, stride);
  }
}

}  // namespace seedref

// --- seed reference: the pre-kernel plane-segment coder, kept verbatim -----

namespace seedcodec {

constexpr u8 kModeRaw = 0;
constexpr u8 kModeSparse = 1;
constexpr u8 kModeZero = 2;
constexpr u8 kModeRice = 3;

u64 words_for_bits(u64 bits) { return ceil_div(bits, 64); }

/// Append-only bit stream (LSB-first within bytes) with a 64-bit staging
/// accumulator so the common path is shift+or, not per-bit byte writes.
class BitWriter {
 public:
  void put_bit(u32 bit) { put_bits(bit, 1); }

  void put_bits(u64 value, u32 count) {
    if (count == 0) return;
    if (count < 64) value &= (u64{1} << count) - 1;
    acc_ |= value << fill_;
    const u32 room = 64 - fill_;
    if (count < room) {
      fill_ += count;
      return;
    }
    flush_word();
    if (count > room) {
      acc_ = value >> room;
      fill_ = count - room;
    }
  }

  /// Unary: `q` zeros then a one.
  void put_unary(u64 q) {
    while (q >= 32) {
      put_bits(0, 32);
      q -= 32;
    }
    put_bits(u64{1} << q, static_cast<u32>(q) + 1);
  }

  /// Finalize and take the buffer (byte-padded with zeros).
  Bytes take() {
    if (fill_ > 0) {
      const u64 word = host_to_le(acc_);
      const std::size_t tail = (fill_ + 7) / 8;
      const std::size_t off = buf_.size();
      buf_.resize(off + tail);
      std::memcpy(buf_.data() + off, &word, tail);
      acc_ = 0;
      fill_ = 0;
    }
    return std::move(buf_);
  }

 private:
  static u64 host_to_le(u64 v) {
    if constexpr (std::endian::native == std::endian::big)
      return __builtin_bswap64(v);
    return v;
  }

  void flush_word() {
    const u64 word = host_to_le(acc_);
    const std::size_t off = buf_.size();
    buf_.resize(off + 8);
    std::memcpy(buf_.data() + off, &word, 8);
    acc_ = 0;
    fill_ = 0;
  }

  Bytes buf_;
  u64 acc_ = 0;
  u32 fill_ = 0;
};

/// Bounds-checked bit stream reader matching BitWriter's layout.
class BitReader {
 public:
  explicit BitReader(std::span<const std::byte> data) : data_(data) {}

  u32 get_bit() { return static_cast<u32>(get_bits(1)); }

  u64 get_bits(u32 count) {
    u64 v = 0;
    u32 got = 0;
    while (got < count) {  // at most two iterations for count <= 64
      if (avail_ == 0) refill();
      const u32 take = std::min(count - got, avail_);
      v |= (acc_ & mask(take)) << got;
      consume(take);
      got += take;
    }
    return v;
  }

  u64 get_unary() {
    u64 q = 0;
    for (;;) {
      if (avail_ == 0) refill();
      if (acc_ == 0) {
        q += avail_;
        avail_ = 0;
        continue;
      }
      const u32 z = static_cast<u32>(std::countr_zero(acc_));
      q += z;
      consume(z + 1);
      return q;
    }
  }

 private:
  static u64 mask(u32 bits) {
    return bits >= 64 ? ~u64{0} : (u64{1} << bits) - 1;
  }

  void consume(u32 bits) {
    acc_ = bits >= 64 ? 0 : acc_ >> bits;
    avail_ -= bits;
  }

  void refill() {
    const std::size_t left = data_.size() - pos_;
    if (left == 0) throw io_error("bitplane: truncated bit stream");
    const std::size_t load = std::min<std::size_t>(8, left);
    u64 word = 0;
    std::memcpy(&word, data_.data() + pos_, load);
    if constexpr (std::endian::native == std::endian::big)
      word = __builtin_bswap64(word);
    acc_ = word;
    avail_ = static_cast<u32>(load * 8);
    pos_ += load;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  u64 acc_ = 0;
  u32 avail_ = 0;
};

u32 rice_parameter(u64 num_bits, u64 ones) {
  RAPIDS_REQUIRE(ones > 0);
  const u64 mean_gap = std::max<u64>(1, num_bits / ones);
  u32 k = 0;
  while ((u64{2} << k) < mean_gap && k < 40) ++k;
  return k;
}

Bytes rice_encode(std::span<const u64> words, u64 num_bits, u64 ones) {
  const u32 k = rice_parameter(num_bits, ones);
  BitWriter bw;
  u64 prev = 0;  // position + 1 of the previous set bit
  for (u64 w = 0; w < words.size(); ++w) {
    u64 word = words[w];
    while (word != 0) {
      const u64 pos = w * 64 + static_cast<u64>(__builtin_ctzll(word));
      const u64 gap = pos - prev;
      bw.put_unary(gap >> k);
      bw.put_bits(gap, k);
      prev = pos + 1;
      word &= word - 1;
    }
  }
  const Bytes stream = bw.take();
  ByteWriter out;
  out.put_u8(static_cast<u8>(k));
  out.put_u64(ones);
  out.put_raw(as_bytes_view(stream));
  return out.take();
}

std::vector<u64> rice_decode(std::span<const std::byte> body, u64 num_bits) {
  ByteReader r(body);
  const u32 k = r.get_u8();
  const u64 ones = r.get_u64();
  BitReader br(r.get_raw(r.remaining()));
  std::vector<u64> words(words_for_bits(num_bits), 0);
  u64 prev = 0;
  for (u64 i = 0; i < ones; ++i) {
    const u64 gap = (br.get_unary() << k) | br.get_bits(k);
    const u64 pos = prev + gap;
    if (pos >= num_bits) throw io_error("bitplane: Rice position out of range");
    words[pos >> 6] |= u64{1} << (pos & 63);
    prev = pos + 1;
  }
  return words;
}

mgard::PlaneSegment encode_segment(std::span<const u64> words, u64 num_bits) {
  RAPIDS_REQUIRE(words.size() == words_for_bits(num_bits));
  const u64 nwords = words.size();
  u64 nonzero_words = 0;
  u64 ones = 0;
  for (u64 w : words) {
    nonzero_words += (w != 0);
    ones += static_cast<u64>(__builtin_popcountll(w));
  }

  ByteWriter out;
  if (ones == 0) {
    out.put_u8(kModeZero);
    return mgard::PlaneSegment{out.take()};
  }

  const u64 raw_bytes = nwords * 8;

  Bytes rice;
  if (ones * 2 < num_bits) rice = rice_encode(words, num_bits, ones);

  const u64 sparse_bytes = words_for_bits(nwords) * 8 + nonzero_words * 8;

  if (!rice.empty() && rice.size() < raw_bytes && rice.size() < sparse_bytes) {
    out.put_u8(kModeRice);
    out.put_raw(as_bytes_view(rice));
  } else if (sparse_bytes < raw_bytes) {
    out.put_u8(kModeSparse);
    std::vector<u64> bitmap(words_for_bits(nwords), 0);
    for (u64 i = 0; i < nwords; ++i)
      if (words[i] != 0) bitmap[i >> 6] |= u64{1} << (i & 63);
    for (u64 b : bitmap) out.put_u64(b);
    for (u64 i = 0; i < nwords; ++i)
      if (words[i] != 0) out.put_u64(words[i]);
  } else {
    out.put_u8(kModeRaw);
    for (u64 w : words) out.put_u64(w);
  }
  return mgard::PlaneSegment{out.take()};
}

std::vector<u64> decode_segment(const mgard::PlaneSegment& seg, u64 num_bits) {
  const u64 nwords = words_for_bits(num_bits);
  std::vector<u64> words(nwords, 0);
  ByteReader r(as_bytes_view(seg.data));
  const u8 mode = r.get_u8();
  switch (mode) {
    case kModeZero:
      break;
    case kModeRaw:
      for (u64 i = 0; i < nwords; ++i) words[i] = r.get_u64();
      break;
    case kModeSparse: {
      std::vector<u64> bitmap(words_for_bits(nwords));
      for (auto& b : bitmap) b = r.get_u64();
      for (u64 i = 0; i < nwords; ++i)
        if (bitmap[i >> 6] & (u64{1} << (i & 63))) words[i] = r.get_u64();
      break;
    }
    case kModeRice:
      words = rice_decode(r.get_raw(r.remaining()), num_bits);
      break;
    default:
      throw io_error("bitplane: unknown segment mode " + std::to_string(mode));
  }
  return words;
}

}  // namespace seedcodec

// --- harness ---------------------------------------------------------------

std::vector<f64> random_field(u64 n, u64 seed) {
  Rng rng(seed);
  std::vector<f64> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

// Best-of-reps timing where the thunk times itself and returns seconds, so
// per-rep staging (e.g. re-copying the input field) stays outside the
// measured region.
template <typename F>
f64 best_self_timed(F&& fn, int reps) {
  f64 best = 1e300;
  for (int r = 0; r < reps; ++r) best = std::min(best, fn());
  return best;
}

// A/B timing on a noisy shared host. The thunks time themselves and return
// seconds (so per-rep staging stays outside the measured region); they
// alternate within every rep, order swapped between reps, so frequency drift
// and neighbor load hit both sides alike. Each side keeps its best time for
// the throughput rows. `speedup` (A's time over B's) is the median of the
// per-rep ratios: a load burst usually lands on both halves of a rep, and the
// median discards the reps where it landed on one. The --check gate compares
// these speedups, so they must not swing between identical runs.
struct PairTiming {
  f64 best_a = 1e300, best_b = 1e300;
  f64 speedup = 0.0;
};
template <typename FA, typename FB>
PairTiming time_pair(FA&& fa, FB&& fb, int reps) {
  PairTiming r;
  std::vector<f64> ratio;
  for (int i = 0; i < reps; ++i) {
    f64 ta, tb;
    if ((i & 1) == 0) {
      ta = fa();
      tb = fb();
    } else {
      tb = fb();
      ta = fa();
    }
    r.best_a = std::min(r.best_a, ta);
    r.best_b = std::min(r.best_b, tb);
    ratio.push_back(ta / tb);
  }
  std::sort(ratio.begin(), ratio.end());
  r.speedup = ratio[ratio.size() / 2];
  return r;
}

/// Wall seconds of one call of `fn`.
template <typename F>
f64 seconds_of(F&& fn) {
  Timer t;
  fn();
  return t.seconds();
}

struct KernelResult {
  std::string name;
  f64 scalar_gbps = 0.0;
  f64 dispatched_gbps = 0.0;
  f64 speedup = 0.0;  ///< median paired ratio, see time_pair
};

struct TransformResult {
  std::string name;       // seed / panel_scalar / dispatched
  f64 decompose_mbps = 0.0;
  f64 recompose_mbps = 0.0;
};

// One kernel measurement: `calls` invocations per tier, each moving
// `bytes_per_call` through memory. The two tiers are timed as an interleaved
// pair so the speedup column, which the --check gate compares, sees the
// same host conditions on both sides.
template <typename FS, typename FV>
KernelResult kernel_pair(std::string name, const FS& sc, const FV& vc,
                         int calls, u64 bytes_per_call) {
  sc();  // warm
  vc();
  const PairTiming t = time_pair(
      [&] { return seconds_of([&] { for (int c = 0; c < calls; ++c) sc(); }); },
      [&] { return seconds_of([&] { for (int c = 0; c < calls; ++c) vc(); }); },
      9);
  const f64 bytes = static_cast<f64>(bytes_per_call) * calls;
  return {std::move(name), bytes / t.best_a / 1e9, bytes / t.best_b / 1e9,
          t.speedup};
}

std::vector<KernelResult> bench_row_kernels(IsaLevel vec_tier) {
  using mgard::kernels::row_ops_at;
  const auto& S = mgard::kernels::row_ops_scalar();
  const auto& V = row_ops_at(vec_tier);
  const u64 n = 1 << 15;  // one row: 256 KiB of f64, beyond L1 but L2-warm
  const int calls = 400;
  auto a = random_field(n, 1), lo = random_field(n, 2), hi = random_field(n, 3);
  auto m2 = random_field(n, 4), p2 = random_field(n, 5);
  std::vector<f64> out(n);
  std::vector<KernelResult> rows;

  auto add = [&](std::string name, auto&& sc, auto&& vc, u64 bytes) {
    rows.push_back(kernel_pair(std::move(name), sc, vc, calls, bytes));
  };

  add("cascade_fwd(row)",
      [&] { S.cascade_fwd(a.data(), lo.data(), hi.data(), n); },
      [&] { V.cascade_fwd(a.data(), lo.data(), hi.data(), n); }, 4 * n * 8);
  add("load_interior(row)",
      [&] {
        S.load_interior(out.data(), m2.data(), lo.data(), a.data(), hi.data(),
                        p2.data(), n);
      },
      [&] {
        V.load_interior(out.data(), m2.data(), lo.data(), a.data(), hi.data(),
                        p2.data(), n);
      },
      6 * n * 8);
  add("thomas_fwd(row)",
      [&] { S.thomas_fwd(a.data(), lo.data(), 1.0 / 3.0, 1.25, n); },
      [&] { V.thomas_fwd(a.data(), lo.data(), 1.0 / 3.0, 1.25, n); },
      3 * n * 8);
  add("thomas_bwd(row)",
      [&] { S.thomas_bwd(a.data(), hi.data(), 0.3, n); },
      [&] { V.thomas_bwd(a.data(), hi.data(), 0.3, n); }, 3 * n * 8);
  add("load_x(line)",
      [&] { S.load_x(out.data(), a.data(), (n - 1) / 2 + 1, n - 1); },
      [&] { V.load_x(out.data(), a.data(), (n - 1) / 2 + 1, n - 1); },
      n * 8 + (n / 2) * 8);
  add("gather(stride2)",
      [&] { S.gather_stride(out.data(), a.data(), n / 2, 2); },
      [&] { V.gather_stride(out.data(), a.data(), n / 2, 2); },
      (n / 2) * 16);
  // Stride 1 is the only stride where the AVX2 copy differs from scalar.
  // Its destination sits at the source's page offset: at the offset the
  // allocator gives `out`, the scalar loop's loads stall on 4K aliasing with
  // its own stores, and the row read anywhere from 1.5x to 3.8x across
  // processes.
  std::vector<f64> copy_buf(n + 4096 / sizeof(f64));
  const auto page_offset = [](const f64* p) {
    return reinterpret_cast<std::uintptr_t>(p) % 4096;
  };
  f64* const copy_dst =
      copy_buf.data() +
      (page_offset(a.data()) + 4096 - page_offset(copy_buf.data())) % 4096 /
          sizeof(f64);
  add("gather(stride1)",
      [&] { S.gather_stride(copy_dst, a.data(), n, 1); },
      [&] { V.gather_stride(copy_dst, a.data(), n, 1); }, n * 16);
  add("scatter(stride1)",
      [&] { S.scatter_stride(copy_dst, a.data(), n, 1); },
      [&] { V.scatter_stride(copy_dst, a.data(), n, 1); }, n * 16);
  add("pack_panel(16xN)",
      [&] { S.pack_panel(out.data(), a.data(), 16, n / 16, n / 16); },
      [&] { V.pack_panel(out.data(), a.data(), 16, n / 16, n / 16); },
      2 * (n / 16) * 16 * 8);

  // Bitplane kernels.
  const auto& BS = mgard::kernels::bitplane_ops_scalar();
  const auto& BV = mgard::kernels::bitplane_ops_at(vec_tier);
  const u64 nb = n - (n % 64);
  std::vector<u64> block(64), signs(nb / 64);
  std::vector<u32> q(nb);
  Rng qr(9);
  for (auto& x : q) x = static_cast<u32>(qr.next_u64());
  for (auto& w : signs) w = qr.next_u64();
  std::vector<f64> deq(nb);
  const f64 scale = 0x1p30;
  add("max_abs",
      [&] { (void)BS.max_abs(a.data(), n); },
      [&] { (void)BV.max_abs(a.data(), n); }, n * 8);
  // The lambdas loop the whole buffer, so fewer outer calls than the row
  // kernels above.
  rows.push_back(kernel_pair(
      "quantize64+transpose",
      [&] {
        u64 sw;
        for (u64 b = 0; b < nb; b += 64) {
          BS.quantize64(a.data() + b, 64, scale, block.data(), &sw);
          BS.transpose64(block.data());
        }
      },
      [&] {
        u64 sw;
        for (u64 b = 0; b < nb; b += 64) {
          BV.quantize64(a.data() + b, 64, scale, block.data(), &sw);
          BV.transpose64(block.data());
        }
      },
      40, nb * 16));
  add("dequantize",
      [&] {
        BS.dequantize(deq.data(), q.data(), signs.data(), 0x1p-32, 1u << 19,
                      nb);
      },
      [&] {
        BV.dequantize(deq.data(), q.data(), signs.data(), 0x1p-32, 1u << 19,
                      nb);
      },
      nb * 12);
  return rows;
}

// The kernel table swept `sweeps` times, seconds apart. A neighbor-load
// burst long enough to skew every rep of one kernel's pair lands in one
// sweep, and the median speedup across sweeps outvotes it; the GB/s columns
// keep each side's best.
std::vector<KernelResult> bench_kernel_sweeps(IsaLevel vec_tier, int sweeps) {
  std::vector<std::vector<KernelResult>> runs;
  for (int s = 0; s < sweeps; ++s) runs.push_back(bench_row_kernels(vec_tier));
  std::vector<KernelResult> out = runs[0];
  for (std::size_t k = 0; k < out.size(); ++k) {
    std::vector<f64> sp;
    for (const auto& r : runs) {
      out[k].scalar_gbps = std::max(out[k].scalar_gbps, r[k].scalar_gbps);
      out[k].dispatched_gbps =
          std::max(out[k].dispatched_gbps, r[k].dispatched_gbps);
      sp.push_back(r[k].speedup);
    }
    std::sort(sp.begin(), sp.end());
    out[k].speedup = sp[sp.size() / 2];
  }
  return out;
}

// --- entropy codec: seed coder vs kernel-dispatched coder -------------------

struct CodecResult {
  std::string name;
  f64 seed_encode_gbps = 0.0, new_encode_gbps = 0.0;
  f64 seed_decode_gbps = 0.0, new_decode_gbps = 0.0;
  f64 encode_speedup = 0.0, decode_speedup = 0.0;  ///< see time_pair
};

// Real bitplanes: quantized Gaussian coefficients give the density spectrum
// the refactorer actually emits — near-empty Rice planes on top, sparse in
// the middle, incompressible raw planes at the bottom. Throughput is counted
// against the uncompressed plane size (the bytes the coder consumes/produces
// conceptually), so seed and new rows are directly comparable.
std::vector<CodecResult> bench_codec(u64* planes_benched) {
  const u64 count = u64{1} << 21;  // 2M coefficients: 256 KiB per plane
  Rng rng(31);
  std::vector<f64> coeffs(count);
  for (auto& c : coeffs) c = rng.normal(0.0, 1.0);
  const mgard::PlaneSet ps = mgard::encode_planes(coeffs);

  // Expand every segment back to plane words and pin byte-identity: the
  // rebuilt coder must reproduce the seed coder's bytes exactly.
  std::vector<const mgard::PlaneSegment*> segs;
  segs.push_back(&ps.sign);
  for (const auto& p : ps.planes) segs.push_back(&p);
  std::vector<std::vector<u64>> words(segs.size());
  for (std::size_t s = 0; s < segs.size(); ++s) {
    words[s] = mgard::decode_segment(*segs[s], count);
    const mgard::PlaneSegment re = seedcodec::encode_segment(words[s], count);
    if (re.data != segs[s]->data) {
      std::fprintf(stderr,
                   "FATAL: seed and kernel coders disagree on segment %zu\n",
                   s);
      std::abort();
    }
  }
  *planes_benched = segs.size();

  const u64 plane_bytes = ceil_div(count, 64) * 8;
  const auto gbps = [&](u64 nplanes, f64 s) {
    return static_cast<f64>(plane_bytes) * nplanes / s / 1e9;
  };

  std::vector<CodecResult> rows;
  const auto bench_one = [&](std::string name, std::size_t lo, std::size_t hi,
                             int iters) {
    CodecResult r;
    r.name = std::move(name);
    const u64 n = hi - lo;
    // Seed and new coder alternate inside the timing loop (see time_pair)
    // so the speedup columns are robust to machine noise.
    const PairTiming enc = time_pair(
        [&] {
          return seconds_of([&] {
            for (int it = 0; it < iters; ++it)
              for (std::size_t s = lo; s < hi; ++s)
                (void)seedcodec::encode_segment(words[s], count);
          });
        },
        [&] {
          return seconds_of([&] {
            for (int it = 0; it < iters; ++it)
              for (std::size_t s = lo; s < hi; ++s)
                (void)mgard::encode_segment(words[s], count);
          });
        },
        5);
    r.seed_encode_gbps = gbps(n * iters, enc.best_a);
    r.new_encode_gbps = gbps(n * iters, enc.best_b);
    r.encode_speedup = enc.speedup;
    const PairTiming dec = time_pair(
        [&] {
          return seconds_of([&] {
            for (int it = 0; it < iters; ++it)
              for (std::size_t s = lo; s < hi; ++s)
                (void)seedcodec::decode_segment(*segs[s], count);
          });
        },
        [&] {
          return seconds_of([&] {
            for (int it = 0; it < iters; ++it)
              for (std::size_t s = lo; s < hi; ++s)
                (void)mgard::decode_segment(*segs[s], count);
          });
        },
        5);
    r.seed_decode_gbps = gbps(n * iters, dec.best_a);
    r.new_decode_gbps = gbps(n * iters, dec.best_b);
    r.decode_speedup = dec.speedup;
    rows.push_back(r);
  };

  const char* mode_names[] = {"raw", "sparse", "zero", "rice"};
  const auto tag = [&](std::size_t s) {
    const unsigned m = static_cast<unsigned>(segs[s]->data[0]);
    return std::string(m < 4 ? mode_names[m] : "?");
  };
  bench_one("sign[" + tag(0) + "]", 0, 1, 8);
  for (std::size_t p : {4u, 12u, 20u, 28u})
    bench_one("plane" + std::to_string(p) + "[" + tag(p + 1) + "]", p + 1,
              p + 2, 8);
  bench_one("all_segments", 0, segs.size(), 2);
  return rows;
}

// --- Rice coding per parameter k: seed coder vs kernel coder --------------

struct RiceResult {
  std::string name;  ///< k0..k3, k4plus, or all
  u64 segments = 0, set_bits = 0, stream_bytes = 0;
  f64 seed_ns_per_bit = 0.0, new_ns_per_bit = 0.0;
  f64 seed_stream_gbps = 0.0, new_stream_gbps = 0.0;
  f64 speedup = 0.0;  ///< seed time over new time, see time_pair
};

struct RiceRows {
  std::vector<RiceResult> decode, encode;
};

constexpr const char* kRiceField = "hurricane:TCf48.bin";
constexpr Dims kRiceDims{257, 257, 129};

// Every Rice segment of one refactored generator field (default options),
// whose planes cover k = 0..3 and several k >= 4. A decode row decodes its
// segments whole (decode_segment) under each coder, an encode row encodes
// their plane words whole (encode_segment); both coders must reproduce the
// same words and the same segment bytes before anything is timed.
RiceRows bench_rice() {
  const auto field = data::find_object(kRiceField).generate(kRiceDims);
  const mgard::Refactorer rf{mgard::RefactorOptions{}};
  const mgard::RefactoredObject obj = rf.refactor(field, kRiceDims, "rice");
  std::vector<Bytes> payloads;
  for (const auto& lvl : obj.levels) payloads.push_back(lvl.payload);
  const std::vector<mgard::PlaneSet> sets =
      mgard::collect_plane_sets(obj.dlevels, payloads);

  struct RiceSegment {
    const mgard::PlaneSegment* seg;
    u64 num_bits, ones;
    u32 k;
    std::vector<u64> words;
  };
  std::vector<RiceSegment> all;
  for (const auto& ps : sets) {
    const auto add = [&](const mgard::PlaneSegment& seg) {
      if (seg.data.size() < 10 || seg.data[0] != std::byte{3}) return;
      u64 ones = 0;
      for (u32 b = 0; b < 8; ++b)
        ones |= static_cast<u64>(seg.data[2 + b]) << (8 * b);
      std::vector<u64> words = mgard::decode_segment(seg, ps.count);
      if (words != seedcodec::decode_segment(seg, ps.count)) {
        std::fprintf(stderr, "FATAL: seed and kernel Rice decoders disagree\n");
        std::abort();
      }
      if (seedcodec::encode_segment(words, ps.count).data != seg.data ||
          mgard::encode_segment(words, ps.count).data != seg.data) {
        std::fprintf(stderr, "FATAL: seed and kernel Rice encoders disagree\n");
        std::abort();
      }
      all.push_back({&seg, ps.count, ones, static_cast<u32>(seg.data[1]),
                     std::move(words)});
    };
    add(ps.sign);
    for (const auto& p : ps.planes) add(p);
  }

  const auto bench_group = [&](std::vector<RiceResult>& rows, std::string name,
                               u32 k_lo, u32 k_hi, const auto& run_seed_one,
                               const auto& run_new_one) {
    std::vector<const RiceSegment*> group;
    for (const auto& r : all)
      if (r.k >= k_lo && r.k <= k_hi) group.push_back(&r);
    if (group.empty()) return;
    RiceResult row;
    row.name = std::move(name);
    row.segments = group.size();
    for (const auto* r : group) {
      row.set_bits += r->ones;
      row.stream_bytes += r->seg->data.size() - 10;
    }
    const auto run_seed = [&] {
      for (const auto* r : group) run_seed_one(*r);
    };
    const auto run_new = [&] {
      for (const auto* r : group) run_new_one(*r);
    };
    // Repeat small groups until the slower (seed) side takes ~30 ms.
    const f64 once = seconds_of(run_seed);
    const int iters = static_cast<int>(std::clamp(0.03 / once, 1.0, 1000.0));
    const PairTiming t = time_pair(
        [&] {
          return seconds_of([&] {
            for (int i = 0; i < iters; ++i) run_seed();
          });
        },
        [&] {
          return seconds_of([&] {
            for (int i = 0; i < iters; ++i) run_new();
          });
        },
        9);
    const f64 bits = static_cast<f64>(row.set_bits) * iters;
    const f64 bytes = static_cast<f64>(row.stream_bytes) * iters;
    row.seed_ns_per_bit = t.best_a / bits * 1e9;
    row.new_ns_per_bit = t.best_b / bits * 1e9;
    row.seed_stream_gbps = bytes / t.best_a / 1e9;
    row.new_stream_gbps = bytes / t.best_b / 1e9;
    row.speedup = t.speedup;
    rows.push_back(row);
  };
  const auto bench_k_groups = [&](std::vector<RiceResult>& rows,
                                  const auto& run_seed_one,
                                  const auto& run_new_one) {
    for (u32 k = 0; k <= 3; ++k)
      bench_group(rows, "k" + std::to_string(k), k, k, run_seed_one,
                  run_new_one);
    bench_group(rows, "k4plus", 4, 63, run_seed_one, run_new_one);
    bench_group(rows, "all", 0, 63, run_seed_one, run_new_one);
  };
  RiceRows out;
  bench_k_groups(
      out.decode,
      [](const RiceSegment& r) {
        (void)seedcodec::decode_segment(*r.seg, r.num_bits);
      },
      [](const RiceSegment& r) {
        (void)mgard::decode_segment(*r.seg, r.num_bits);
      });
  bench_k_groups(
      out.encode,
      [](const RiceSegment& r) {
        (void)seedcodec::encode_segment(r.words, r.num_bits);
      },
      [](const RiceSegment& r) {
        (void)mgard::encode_segment(r.words, r.num_bits);
      });
  return out;
}

int main_impl(int argc, char** argv) {
  const IsaLevel best = simd::active_isa();
  std::printf("refactor_kernels: dispatched tier = %s\n\n",
              simd::isa_name(best));

  // --- whole transform, single thread ---
  // Measured before the per-kernel table: a sustained AVX2 soak drags the
  // core's frequency down, which would skew the dispatched-vs-seed ratio
  // this section records. Print order below is unchanged.
  const Dims dims{129, 129, 129};
  const u32 levels = 4;
  const GridHierarchy h(dims, levels);
  const u64 bytes = h.padded().total() * sizeof(f64);
  const f64 mb = static_cast<f64>(bytes) / 1e6;
  const auto field = random_field(h.padded().total(), 77);
  const int reps = 5;

  std::vector<f64> coeffs = field;  // decomposed form, reused by all variants
  seedref::decompose(coeffs, h);

  // Per-rep staging (re-copying the 17 MB input) stays outside the timed
  // region: only the transform itself is measured.
  std::vector<f64> w;
  const auto timed = [&](const std::vector<f64>& src, auto&& run) {
    w = src;
    Timer t;
    run(w);
    return t.seconds();
  };
  mgard::RefactorWorkspace ws;
  const auto seed_dec = [&] {
    return timed(field, [&](auto& v) { seedref::decompose(v, h); });
  };
  const auto seed_rec = [&] {
    return timed(coeffs, [&](auto& v) { seedref::recompose(v, h); });
  };
  const auto dec = [&] {
    return timed(field,
                 [&](auto& v) { mgard::decompose(v, h, {}, nullptr, &ws); });
  };
  const auto rec = [&] {
    return timed(coeffs,
                 [&](auto& v) { mgard::recompose(v, h, {}, nullptr, &ws); });
  };

  // Seed and dispatched run as interleaved pairs; their median paired ratio
  // is the dispatched-vs-seed speedup.
  const int pair_reps = 21;
  const PairTiming dec_pair = time_pair(seed_dec, dec, pair_reps);
  const PairTiming rec_pair = time_pair(seed_rec, rec, pair_reps);
  simd::set_isa_override(IsaLevel::kScalar);
  const TransformResult panel{"panel_scalar", mb / best_self_timed(dec, reps),
                              mb / best_self_timed(rec, reps)};
  simd::set_isa_override(std::nullopt);
  const std::vector<TransformResult> transforms = {
      {"seed", mb / dec_pair.best_a, mb / rec_pair.best_a},
      panel,
      {"dispatched", mb / dec_pair.best_b, mb / rec_pair.best_b}};

  // --- per-kernel table ---
  std::vector<KernelResult> kernels = bench_kernel_sweeps(best, 3);
  std::printf("%-24s %12s %14s %9s\n", "kernel", "scalar GB/s",
              "dispatched GB/s", "speedup");
  for (const auto& k : kernels)
    std::printf("%-24s %12.2f %14.2f %8.2fx\n", k.name.c_str(), k.scalar_gbps,
                k.dispatched_gbps, k.speedup);

  std::printf("\nwhole transform, single thread, %llux%llux%llu f64, L=%u\n",
              static_cast<unsigned long long>(dims.nx),
              static_cast<unsigned long long>(dims.ny),
              static_cast<unsigned long long>(dims.nz), levels);
  std::printf("%-14s %16s %16s\n", "variant", "decompose MB/s",
              "recompose MB/s");
  for (const auto& t : transforms)
    std::printf("%-14s %16.1f %16.1f\n", t.name.c_str(), t.decompose_mbps,
                t.recompose_mbps);

  const auto& seed = transforms[0];
  const auto& disp = transforms[2];
  const f64 sp_dec = dec_pair.speedup;
  const f64 sp_rec = rec_pair.speedup;
  const f64 sp_panel =
      (panel.decompose_mbps + panel.recompose_mbps) /
      (seed.decompose_mbps + seed.recompose_mbps);
  const f64 sp_total =
      (disp.decompose_mbps + disp.recompose_mbps) /
      (seed.decompose_mbps + seed.recompose_mbps);
  std::printf("\nspeedup vs seed (median paired ratio): decompose %.2fx, "
              "recompose %.2fx; combined best-of %.2fx (panel restructuring "
              "alone: %.2fx)\n",
              sp_dec, sp_rec, sp_total, sp_panel);

  // --- entropy codec, single thread ---
  u64 codec_segments = 0;
  std::vector<CodecResult> codec = bench_codec(&codec_segments);
  std::printf("\nentropy codec, single thread, %llu-bit planes of quantized "
              "N(0,1) coefficients (%llu segments)\n",
              static_cast<unsigned long long>(u64{1} << 21),
              static_cast<unsigned long long>(codec_segments));
  std::printf("%-20s %10s %10s %8s %10s %10s %8s\n", "segment", "seed enc",
              "new enc", "speedup", "seed dec", "new dec", "speedup");
  for (const auto& c : codec)
    std::printf("%-20s %8.2fGB %8.2fGB %7.2fx %8.2fGB %8.2fGB %7.2fx\n",
                c.name.c_str(), c.seed_encode_gbps, c.new_encode_gbps,
                c.encode_speedup, c.seed_decode_gbps, c.new_decode_gbps,
                c.decode_speedup);
  const auto& ctotal = codec.back();
  const f64 codec_enc_sp = ctotal.encode_speedup;
  const f64 codec_dec_sp = ctotal.decode_speedup;
  // Combined = round-trip time ratio: seconds to encode + decode the whole
  // plane set under each coder (i.e. the harmonic combination, which is what
  // a prepare+restore cycle actually pays).
  const f64 codec_sp =
      (1.0 / ctotal.seed_encode_gbps + 1.0 / ctotal.seed_decode_gbps) /
      (1.0 / ctotal.new_encode_gbps + 1.0 / ctotal.new_decode_gbps);
  std::printf("codec speedup vs seed: encode %.2fx, decode %.2fx, "
              "combined %.2fx\n",
              codec_enc_sp, codec_dec_sp, codec_sp);

  // --- Rice decode and encode per k, single thread ---
  const RiceRows rice = bench_rice();
  for (const auto& [what, rows] :
       {std::pair{"decode", &rice.decode}, std::pair{"encode", &rice.encode}}) {
    std::printf("\nRice %s per parameter k, single thread, every Rice "
                "segment of %s at %llux%llux%llu\n",
                what, kRiceField, static_cast<unsigned long long>(kRiceDims.nx),
                static_cast<unsigned long long>(kRiceDims.ny),
                static_cast<unsigned long long>(kRiceDims.nz));
    std::printf("%-8s %5s %11s %10s %10s %10s %10s %8s\n", "k", "segs",
                "set bits", "seed ns/b", "new ns/b", "seed GB/s", "new GB/s",
                "speedup");
    for (const auto& r : *rows)
      std::printf("%-8s %5llu %11llu %10.3f %10.3f %10.3f %10.3f %7.2fx\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.segments),
                  static_cast<unsigned long long>(r.set_bits),
                  r.seed_ns_per_bit, r.new_ns_per_bit, r.seed_stream_gbps,
                  r.new_stream_gbps, r.speedup);
  }

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"context\": {\n");
    std::fprintf(f, "    \"cpu\": \"%s\",\n", cpu_model().c_str());
    std::fprintf(f, "    \"nproc\": %u,\n", nproc());
    std::fprintf(f, "    \"dispatched_isa\": \"%s\",\n", simd::isa_name(best));
    std::fprintf(f, "    \"field\": \"%llux%llux%llu f64\",\n",
                 static_cast<unsigned long long>(dims.nx),
                 static_cast<unsigned long long>(dims.ny),
                 static_cast<unsigned long long>(dims.nz));
    std::fprintf(f, "    \"decomp_levels\": %u,\n", levels);
    std::fprintf(f, "    \"threads\": 1\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"kernels\": [\n");
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      const auto& k = kernels[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"scalar_gbps\": %.3f, "
                   "\"dispatched_gbps\": %.3f, \"speedup\": %.3f}%s\n",
                   k.name.c_str(), k.scalar_gbps, k.dispatched_gbps,
                   k.speedup, i + 1 == kernels.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"transform\": [\n");
    for (std::size_t i = 0; i < transforms.size(); ++i) {
      const auto& t = transforms[i];
      std::fprintf(f,
                   "    {\"variant\": \"%s\", \"decompose_mbps\": %.1f, "
                   "\"recompose_mbps\": %.1f}%s\n",
                   t.name.c_str(), t.decompose_mbps, t.recompose_mbps,
                   i + 1 == transforms.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"codec\": [\n");
    for (std::size_t i = 0; i < codec.size(); ++i) {
      const auto& c = codec[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"seed_encode_gbps\": %.3f, "
                   "\"new_encode_gbps\": %.3f, \"seed_decode_gbps\": %.3f, "
                   "\"new_decode_gbps\": %.3f, \"encode_speedup\": %.3f, "
                   "\"decode_speedup\": %.3f}%s\n",
                   c.name.c_str(), c.seed_encode_gbps, c.new_encode_gbps,
                   c.seed_decode_gbps, c.new_decode_gbps, c.encode_speedup,
                   c.decode_speedup, i + 1 == codec.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"rice_field\": \"%s %llux%llux%llu\",\n",
                 kRiceField, static_cast<unsigned long long>(kRiceDims.nx),
                 static_cast<unsigned long long>(kRiceDims.ny),
                 static_cast<unsigned long long>(kRiceDims.nz));
    for (const auto& [key, rows] : {std::pair{"rice_decode", &rice.decode},
                                    std::pair{"rice_encode", &rice.encode}}) {
      std::fprintf(f, "  \"%s\": [\n", key);
      for (std::size_t i = 0; i < rows->size(); ++i) {
        const auto& r = (*rows)[i];
        std::fprintf(
            f,
            "    {\"name\": \"%s\", \"segments\": %llu, "
            "\"set_bits\": %llu, \"stream_bytes\": %llu, "
            "\"seed_ns_per_bit\": %.3f, \"new_ns_per_bit\": %.3f, "
            "\"seed_stream_gbps\": %.3f, \"new_stream_gbps\": %.3f, "
            "\"speedup\": %.3f}%s\n",
            r.name.c_str(), static_cast<unsigned long long>(r.segments),
            static_cast<unsigned long long>(r.set_bits),
            static_cast<unsigned long long>(r.stream_bytes), r.seed_ns_per_bit,
            r.new_ns_per_bit, r.seed_stream_gbps, r.new_stream_gbps, r.speedup,
            i + 1 == rows->size() ? "" : ",");
      }
      std::fprintf(f, "  ],\n");
    }
    std::fprintf(f, "  \"codec_encode_speedup_vs_seed\": %.3f,\n",
                 codec_enc_sp);
    std::fprintf(f, "  \"codec_decode_speedup_vs_seed\": %.3f,\n",
                 codec_dec_sp);
    std::fprintf(f, "  \"codec_combined_speedup_vs_seed\": %.3f,\n", codec_sp);
    std::fprintf(f, "  \"speedup_decompose_vs_seed\": %.3f,\n", sp_dec);
    std::fprintf(f, "  \"speedup_recompose_vs_seed\": %.3f,\n", sp_rec);
    std::fprintf(f, "  \"speedup_combined_vs_seed\": %.3f,\n", sp_total);
    std::fprintf(f, "  \"speedup_panel_scalar_vs_seed\": %.3f\n", sp_panel);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}

}  // namespace
}  // namespace rapids::bench

int main(int argc, char** argv) { return rapids::bench::main_impl(argc, argv); }
