#include "rapids/ec/reed_solomon.hpp"

#include <algorithm>
#include <bitset>
#include <cstring>

#include "rapids/parallel/thread_pool.hpp"
#include "rapids/simd/gf256_kernels.hpp"

namespace rapids::ec {

namespace {

// Stripe chunk (bytes per fragment row) handed to one pool task. The fused
// matrix kernel keeps k source rows + up to m destination rows of one chunk
// live, so 32 KiB bounds the per-task working set to (k+m) * 32 KiB — about
// 0.5 MiB for RS(12,4), inside a typical per-core L2 — while the kernel's
// internal 8 KiB blocks stay L1-resident.
constexpr u64 kParallelStripe = 32 * 1024;

// Fragment payloads smaller than this checksum faster than a task dispatch.
constexpr u64 kParallelCrcMin = 64 * 1024;

/// Stripe grain for fragments of `frag_size` bytes: below two stripes the
/// pool overhead dominates the SIMD kernels, so the whole fragment is one
/// chunk and runs inline.
u64 stripe_grain(u64 frag_size) {
  return frag_size < 2 * kParallelStripe ? frag_size : kParallelStripe;
}

}  // namespace

ReedSolomon::ReedSolomon(u32 k, u32 m, MatrixKind kind)
    : k_(k), m_(m), kind_(kind) {
  RAPIDS_REQUIRE_MSG(k >= 1 && m >= 1, "RS(k,m): need k >= 1 and m >= 1");
  RAPIDS_REQUIRE_MSG(k + m <= 255, "RS(k,m): k+m must be <= 255");
  encode_matrix_ = kind == MatrixKind::kVandermonde ? Matrix::rs_vandermonde(k, m)
                                                    : Matrix::rs_cauchy(k, m);
}

std::vector<Fragment> ReedSolomon::make_fragments(u64 data_size,
                                                  const std::string& object_name,
                                                  u32 level) const {
  const u64 frag_size = fragment_size(data_size);
  std::vector<Fragment> frags(n());
  for (u32 i = 0; i < n(); ++i) {
    Fragment& f = frags[i];
    f.id = FragmentId{object_name, level, i};
    f.k = k_;
    f.m = m_;
    f.level_bytes = data_size;
    f.payload.assign(frag_size, 0);
  }
  return frags;
}

void ReedSolomon::encode_stripe(std::span<const u8> data, u64 lo, u64 hi,
                                std::span<Fragment> frags) const {
  RAPIDS_REQUIRE_MSG(frags.size() == n(), "encode_stripe: need all n shells");
  const u64 frag_size = frags[0].payload.size();
  RAPIDS_REQUIRE_MSG(frag_size == fragment_size(data.size()),
                     "encode_stripe: shells built for a different data size");
  lo = std::min(lo, frag_size);
  hi = std::min(hi, frag_size);
  if (lo >= hi) return;

  // Data rows: contiguous slices of the (conceptually zero-padded) input.
  // The shells start zeroed, so the slice of a row past data.size() simply
  // keeps its padding.
  for (u32 i = 0; i < k_; ++i) {
    const u64 off = u64{i} * frag_size + lo;
    if (off < data.size()) {
      const u64 len = std::min<u64>(hi - lo, data.size() - off);
      std::memcpy(frags[i].payload.data() + lo, data.data() + off, len);
    }
  }

  // Parity rows: the bottom m rows of the encode matrix applied to the data
  // rows in one fused kernel call. Parity byte o depends only on the data
  // rows' byte o, so this range is independent of every other range.
  const u8* parity_coeffs = encode_matrix_.flat().data() + u64{k_} * k_;
  u8* dsts[255];
  const u8* srcs[255];
  for (u32 pi = 0; pi < m_; ++pi) dsts[pi] = frags[k_ + pi].payload.data() + lo;
  for (u32 di = 0; di < k_; ++di) srcs[di] = frags[di].payload.data() + lo;
  simd::matrix_apply(dsts, m_, srcs, k_, parity_coeffs, hi - lo,
                     /*accumulate=*/false);
}

void ReedSolomon::finish_fragments(std::span<Fragment> frags,
                                   ThreadPool* pool) const {
  RAPIDS_REQUIRE_MSG(frags.size() == n(), "finish_fragments: need all n shells");
  const u64 frag_size = frags[0].payload.size();
  // Fragment checksums are independent — fan them out for large payloads.
  parallel_for(
      pool, 0, frags.size(),
      [&](u64 i) { frags[i].payload_crc = fragment_crc(frags[i].payload); },
      frag_size >= kParallelCrcMin ? 1 : frags.size());
}

std::vector<Fragment> ReedSolomon::encode(std::span<const u8> data,
                                          const std::string& object_name,
                                          u32 level, ThreadPool* pool) const {
  // The stripe-ranged entry points over pool-sized stripes: any striping of
  // the same payload yields the same fragments, so this is byte-identical to
  // one encode_stripe over the whole fragment.
  std::vector<Fragment> frags = make_fragments(data.size(), object_name, level);
  const u64 frag_size = frags[0].payload.size();
  parallel_for_chunks(
      pool, 0, frag_size,
      [&](u64 lo, u64 hi) { encode_stripe(data, lo, hi, frags); },
      stripe_grain(frag_size));
  finish_fragments(frags, pool);
  return frags;
}

std::vector<u8> ReedSolomon::decode_rows(std::span<const Fragment> fragments,
                                         u64* level_bytes, ThreadPool* pool) const {
  RAPIDS_REQUIRE_MSG(fragments.size() >= k_,
                     "RS decode: need at least k fragments");
  // Validate geometry + integrity; keep the first k distinct healthy
  // fragments. Duplicate indices and CRC-damaged fragments are skipped, not
  // fatal — extra survivors can still carry the decode — while geometry or
  // size mismatches mean the caller mixed codecs and always throw.
  std::vector<const Fragment*> chosen;
  std::vector<u32> rows;
  chosen.reserve(k_);
  rows.reserve(k_);
  const u64 frag_size = fragments[0].payload.size();
  *level_bytes = fragments[0].level_bytes;
  std::bitset<255> seen;
  u32 skipped_corrupt = 0;
  for (const Fragment& f : fragments) {
    RAPIDS_REQUIRE_MSG(f.k == k_ && f.m == m_, "RS decode: geometry mismatch");
    RAPIDS_REQUIRE_MSG(f.payload.size() == frag_size,
                       "RS decode: fragment size mismatch");
    RAPIDS_REQUIRE_MSG(f.level_bytes == *level_bytes,
                       "RS decode: level size mismatch");
    RAPIDS_REQUIRE_MSG(f.id.index < n(), "RS decode: fragment index out of range");
    if (seen.test(f.id.index)) continue;
    if (!f.verify()) {
      ++skipped_corrupt;
      continue;
    }
    seen.set(f.id.index);
    chosen.push_back(&f);
    rows.push_back(f.id.index);
    if (chosen.size() == k_) break;
  }
  RAPIDS_REQUIRE_MSG(
      chosen.size() == k_,
      "RS decode: need k distinct healthy fragments (have " +
          std::to_string(chosen.size()) + " of " + std::to_string(k_) +
          ", skipped " + std::to_string(skipped_corrupt) + " CRC-damaged)");

  // Fast path: all k systematic data fragments present.
  const bool all_data =
      std::all_of(rows.begin(), rows.end(), [this](u32 r) { return r < k_; });

  std::vector<u8> stripes(u64{k_} * frag_size);
  auto stripe = [&](u32 i) {
    return std::span<u8>(stripes.data() + u64{i} * frag_size, frag_size);
  };

  if (all_data) {
    // Place each data fragment at its own row position; the copies are
    // independent, so spread them over the pool for large fragments.
    parallel_for(
        pool, 0, k_,
        [&](u64 i) {
          std::memcpy(stripe(rows[i]).data(), chosen[i]->payload.data(),
                      frag_size);
        },
        frag_size >= 2 * kParallelStripe ? 1 : k_);
  } else {
    const Matrix sub = encode_matrix_.select_rows(rows);
    const Matrix dec = sub.inverted();
    const u8* coeffs = dec.flat().data();
    parallel_for_chunks(
        pool, 0, frag_size,
        [&](u64 lo, u64 hi) {
          u8* dsts[255];
          const u8* srcs[255];
          for (u32 out = 0; out < k_; ++out)
            dsts[out] = stripe(out).data() + lo;
          for (u32 in = 0; in < k_; ++in)
            srcs[in] = chosen[in]->payload.data() + lo;
          simd::matrix_apply(dsts, k_, srcs, k_, coeffs, hi - lo,
                             /*accumulate=*/false);
        },
        stripe_grain(frag_size));
  }

  return stripes;
}

std::vector<u8> ReedSolomon::decode(std::span<const Fragment> fragments,
                                    ThreadPool* pool) const {
  u64 level_bytes = 0;
  std::vector<u8> stripes = decode_rows(fragments, &level_bytes, pool);
  stripes.resize(level_bytes);  // strip zero padding
  return stripes;
}

Fragment ReedSolomon::reconstruct_fragment(std::span<const Fragment> survivors,
                                           u32 missing_index,
                                           ThreadPool* pool) const {
  RAPIDS_REQUIRE_MSG(missing_index < n(), "reconstruct_fragment: bad index");
  u64 level_bytes = 0;
  std::vector<u8> stripes = decode_rows(survivors, &level_bytes, pool);
  const u64 frag_size = fragment_size(level_bytes);

  Fragment out;
  out.id = survivors[0].id;
  out.id.index = missing_index;
  out.k = k_;
  out.m = m_;
  out.level_bytes = level_bytes;
  out.payload.assign(frag_size, 0);

  if (missing_index < k_) {
    std::memcpy(out.payload.data(), stripes.data() + u64{missing_index} * frag_size,
                frag_size);
  } else {
    // One-output instance of the fused kernel: row `missing_index` of the
    // encode matrix against the reconstructed data rows.
    const u8* coeffs = encode_matrix_.flat().data() + u64{missing_index} * k_;
    parallel_for_chunks(
        pool, 0, frag_size,
        [&](u64 lo, u64 hi) {
          u8* dst = out.payload.data() + lo;
          const u8* srcs[255];
          for (u32 di = 0; di < k_; ++di)
            srcs[di] = stripes.data() + u64{di} * frag_size + lo;
          simd::matrix_apply(&dst, 1, srcs, k_, coeffs, hi - lo,
                             /*accumulate=*/false);
        },
        stripe_grain(frag_size));
  }
  out.payload_crc = fragment_crc(out.payload);
  return out;
}

}  // namespace rapids::ec
