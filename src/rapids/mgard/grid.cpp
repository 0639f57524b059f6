#include "rapids/mgard/grid.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "rapids/mgard/kernels/kernels.hpp"
#include "rapids/parallel/thread_pool.hpp"

namespace rapids::mgard {

namespace {

/// Padded extent for one axis: smallest c*2^L + 1 >= s (s >= 2), or s for
/// degenerate axes.
u64 padded_axis(u64 s, u32 levels) {
  if (s <= 1) return s;
  const u64 step = u64{1} << levels;
  return round_up(s - 1, step) + 1;
}

}  // namespace

GridHierarchy::GridHierarchy(Dims original, u32 levels)
    : original_(original), levels_(levels) {
  RAPIDS_REQUIRE_MSG(levels >= 1, "GridHierarchy: need at least one level");
  RAPIDS_REQUIRE_MSG(levels <= 20, "GridHierarchy: implausible level count");
  RAPIDS_REQUIRE_MSG(original.total() >= 2, "GridHierarchy: need >= 2 samples");
  padded_ = Dims{padded_axis(original.nx, levels), padded_axis(original.ny, levels),
                 padded_axis(original.nz, levels)};
  axis_levels_ = {original.nx > 1 ? levels_ : 0, original.ny > 1 ? levels_ : 0,
                  original.nz > 1 ? levels_ : 0};

  // Count nodes per decomposition level by classifying every padded node.
  // Done axis-factored: the level of (i,j,k) depends only on the per-axis
  // valuations, so count per-axis valuation histograms and combine.
  auto axis_histogram = [&](u64 extent) {
    // hist[v] = number of indices in [0, extent) whose valuation (capped at
    // levels_) equals v; degenerate axes put their single index at cap.
    std::vector<u64> hist(levels_ + 1, 0);
    if (extent == 1) {
      hist[levels_] = 1;
      return hist;
    }
    for (u64 i = 0; i < extent; ++i) {
      u32 v = 0;
      u64 x = i;
      while (v < levels_ && x != 0 && (x & 1) == 0) {
        ++v;
        x >>= 1;
      }
      if (i == 0) v = levels_;
      hist[v] += 1;
    }
    return hist;
  };

  const auto hx = axis_histogram(padded_.nx);
  const auto hy = axis_histogram(padded_.ny);
  const auto hz = axis_histogram(padded_.nz);

  level_sizes_.assign(levels_ + 1, 0);
  for (u32 vx = 0; vx <= levels_; ++vx)
    for (u32 vy = 0; vy <= levels_; ++vy)
      for (u32 vz = 0; vz <= levels_; ++vz) {
        const u32 c = std::min({vx, vy, vz});
        const u32 d = c == levels_ ? 0 : levels_ - c;
        level_sizes_[d] += hx[vx] * hy[vy] * hz[vz];
      }
}

Dims GridHierarchy::grid_at_step(u32 t) const {
  RAPIDS_REQUIRE(t <= levels_);
  auto shrink = [&](u64 s) {
    if (s <= 1) return s;
    return ((s - 1) >> t) + 1;
  };
  return Dims{shrink(padded_.nx), shrink(padded_.ny), shrink(padded_.nz)};
}

u32 GridHierarchy::valuation(u64 i) const {
  if (i == 0) return levels_;
  u32 v = 0;
  while (v < levels_ && (i & 1) == 0) {
    ++v;
    i >>= 1;
  }
  return v;
}

u32 GridHierarchy::level_of(u64 i, u64 j, u64 k) const {
  const u32 vx = padded_.nx == 1 ? levels_ : valuation(i);
  const u32 vy = padded_.ny == 1 ? levels_ : valuation(j);
  const u32 vz = padded_.nz == 1 ? levels_ : valuation(k);
  const u32 c = std::min({vx, vy, vz});
  return c == levels_ ? 0 : levels_ - c;
}

void GridHierarchy::build_level_nodes() const {
  level_nodes_.assign(levels_ + 1, {});
  for (u32 d = 0; d <= levels_; ++d) level_nodes_[d].reserve(level_sizes_[d]);
  for (u64 k = 0; k < padded_.nz; ++k)
    for (u64 j = 0; j < padded_.ny; ++j)
      for (u64 i = 0; i < padded_.nx; ++i)
        level_nodes_[level_of(i, j, k)].push_back(index(i, j, k));
}

const std::vector<u64>& GridHierarchy::level_nodes(u32 d) const {
  RAPIDS_REQUIRE(d <= levels_);
  if (level_nodes_.empty()) build_level_nodes();
  return level_nodes_[d];
}

template <typename T>
std::vector<T> pad_field(const std::vector<T>& src, Dims original, Dims padded) {
  RAPIDS_REQUIRE(src.size() == original.total());
  if (original == padded) return src;
  std::vector<T> out(padded.total());
  for (u64 k = 0; k < padded.nz; ++k) {
    const u64 sk = std::min(k, original.nz - 1);
    for (u64 j = 0; j < padded.ny; ++j) {
      const u64 sj = std::min(j, original.ny - 1);
      const T* row = src.data() + (sk * original.ny + sj) * original.nx;
      T* dst = out.data() + (k * padded.ny + j) * padded.nx;
      std::copy(row, row + original.nx, dst);
      for (u64 i = original.nx; i < padded.nx; ++i) dst[i] = row[original.nx - 1];
    }
  }
  return out;
}

template <typename T>
std::vector<T> crop_field(const std::vector<T>& src, Dims padded, Dims original) {
  RAPIDS_REQUIRE(src.size() == padded.total());
  if (original == padded) return src;
  std::vector<T> out(original.total());
  for (u64 k = 0; k < original.nz; ++k)
    for (u64 j = 0; j < original.ny; ++j) {
      const T* row = src.data() + (k * padded.ny + j) * padded.nx;
      std::copy(row, row + original.nx,
                out.data() + (k * original.ny + j) * original.nx);
    }
  return out;
}

FieldScan widen_into_grid(std::span<const f32> src, Dims original, Dims padded,
                          std::span<f64> dst, ThreadPool* pool) {
  RAPIDS_REQUIRE(src.size() == original.total());
  RAPIDS_REQUIRE(dst.size() == padded.total());
  RAPIDS_REQUIRE(padded.nx >= original.nx && padded.ny >= original.ny &&
                 padded.nz >= original.nz);
  FieldScan scan;
  std::mutex mu;
  parallel_for_chunks(
      pool, 0, padded.ny * padded.nz,
      [&](u64 lo, u64 hi) {
        f64 max_abs = 0.0;
        bool finite = true;
        for (u64 r = lo; r < hi; ++r) {
          // A padded row past the original extent replicates the last one.
          const u64 sj = std::min(r % padded.ny, original.ny - 1);
          const u64 sk = std::min(r / padded.ny, original.nz - 1);
          const f32* row = src.data() + (sk * original.ny + sj) * original.nx;
          f64* out = dst.data() + r * padded.nx;
          for (u64 i = 0; i < original.nx; ++i) {
            const f64 v = row[i];
            out[i] = v;
            max_abs = std::max(max_abs, std::fabs(v));
            finite &= std::isfinite(v);
          }
          std::fill(out + original.nx, out + padded.nx, out[original.nx - 1]);
        }
        std::lock_guard<std::mutex> lock(mu);
        scan.max_abs = std::max(scan.max_abs, max_abs);
        scan.finite &= finite;
      },
      kernels::grain_for_lines(padded.nx * sizeof(f64) +
                               original.nx * sizeof(f32)));
  return scan;
}

void narrow_from_grid(std::span<const f64> src, Dims padded, Dims original,
                      std::span<f32> dst, ThreadPool* pool) {
  RAPIDS_REQUIRE(src.size() == padded.total());
  RAPIDS_REQUIRE(dst.size() == original.total());
  RAPIDS_REQUIRE(padded.nx >= original.nx && padded.ny >= original.ny &&
                 padded.nz >= original.nz);
  parallel_for_chunks(
      pool, 0, original.ny * original.nz,
      [&](u64 lo, u64 hi) {
        for (u64 r = lo; r < hi; ++r) {
          const u64 j = r % original.ny;
          const u64 k = r / original.ny;
          const f64* row = src.data() + (k * padded.ny + j) * padded.nx;
          f32* out = dst.data() + r * original.nx;
          for (u64 i = 0; i < original.nx; ++i)
            out[i] = static_cast<f32>(row[i]);
        }
      },
      kernels::grain_for_lines(original.nx * (sizeof(f64) + sizeof(f32))));
}

template std::vector<f32> pad_field<f32>(const std::vector<f32>&, Dims, Dims);
template std::vector<f64> pad_field<f64>(const std::vector<f64>&, Dims, Dims);
template std::vector<f32> crop_field<f32>(const std::vector<f32>&, Dims, Dims);
template std::vector<f64> crop_field<f64>(const std::vector<f64>&, Dims, Dims);

}  // namespace rapids::mgard
