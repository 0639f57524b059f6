#pragma once

/// \file grid.hpp
/// Tensor-grid topology for the multilevel decomposition. Input arrays of
/// arbitrary (nx, ny, nz) are ghost-padded per axis to the next size of the
/// form c*2^L + 1 so that L dyadic coarsening steps are possible; the
/// original extent is recorded so reconstruction can crop the padding away.
///
/// Node classification: along one axis, a node index i survives coarsening
/// step t iff 2^t divides i. A node (i, j, k) is a *coarse* node of the final
/// hierarchy iff every index is divisible by 2^L; otherwise it carries a
/// detail coefficient created at step t = c+1 where c = min over axes of the
/// dyadic valuation of the index. Decomposition level d in [0, L]:
/// d = 0 holds the coarsest grid values, d = 1..L hold details, coarse to
/// fine, with node counts growing by ~2^dims per level.

#include <array>
#include <span>
#include <vector>

#include "rapids/util/common.hpp"

namespace rapids {
class ThreadPool;
}

namespace rapids::mgard {

/// Extents of a (up to) 3-D array; unused trailing axes are 1.
struct Dims {
  u64 nx = 1;
  u64 ny = 1;
  u64 nz = 1;

  u64 total() const { return nx * ny * nz; }
  bool operator==(const Dims&) const = default;
};

/// Full topology of one decomposition hierarchy.
class GridHierarchy {
 public:
  /// Build a hierarchy over `original` extents with `levels` coarsening
  /// steps (L >= 1). Axes of extent 1 are left alone. Axes of extent >= 2
  /// are padded to c*2^L + 1.
  GridHierarchy(Dims original, u32 levels);

  Dims original() const { return original_; }
  Dims padded() const { return padded_; }
  u32 levels() const { return levels_; }

  /// Number of decomposition levels including the coarse base: levels()+1.
  u32 num_decomp_levels() const { return levels_ + 1; }

  /// Grid extent at coarsening step t (0 = full padded grid, L = coarsest).
  Dims grid_at_step(u32 t) const;

  /// Number of nodes whose coefficients live in decomposition level d
  /// (d = 0 coarse base, d = levels() finest details).
  u64 decomp_level_size(u32 d) const { return level_sizes_[d]; }

  /// Flattened row-major (x fastest) index for (i, j, k) in the padded grid.
  u64 index(u64 i, u64 j, u64 k) const {
    return (k * padded_.ny + j) * padded_.nx + i;
  }

  /// Decomposition level that owns node (i, j, k). See file comment.
  u32 level_of(u64 i, u64 j, u64 k) const;

  /// Gather/scatter maps: for each decomposition level d, the sorted list of
  /// flattened padded-grid indices of its nodes. Built lazily on first use
  /// and cached (the maps are what the bitplane encoder iterates over).
  const std::vector<u64>& level_nodes(u32 d) const;

 private:
  u32 valuation(u64 i) const;  // min(levels_, dyadic valuation of i)
  void build_level_nodes() const;

  Dims original_;
  Dims padded_;
  u32 levels_;
  std::array<u64, 3> axis_levels_{};  // effective per-axis coarsening depth
  std::vector<u64> level_sizes_;
  mutable std::vector<std::vector<u64>> level_nodes_;  // lazy cache
};

/// Pad a field from `original` extents into `padded` extents, replicating the
/// last sample along each padded axis (edge replication keeps the field
/// continuous so padding contributes only small detail coefficients).
/// `src` has original.total() elements; returns padded.total() elements.
template <typename T>
std::vector<T> pad_field(const std::vector<T>& src, Dims original, Dims padded);

/// Crop a padded field back to the original extents.
template <typename T>
std::vector<T> crop_field(const std::vector<T>& src, Dims padded, Dims original);

/// What widen_into_grid learned about its input: max |x| (meaningful only
/// when every sample is finite) and whether every sample is finite.
struct FieldScan {
  f64 max_abs = 0.0;
  bool finite = true;
};

/// Refactor-side staging in one parallel pass over the padded rows: widen the
/// f32 field `src` (`original` extents) into `dst` (`padded` extents) with
/// pad_field's edge replication, reducing max |x| and the finite flag per
/// chunk. `dst` equals pad_field of the widened field bit for bit, and the
/// max is exact in any chunk order.
FieldScan widen_into_grid(std::span<const f32> src, Dims original, Dims padded,
                          std::span<f64> dst, ThreadPool* pool = nullptr);

/// Restore-side staging in one parallel pass over the original rows: crop the
/// padded f64 grid `src` to `original` extents and narrow it into `dst`,
/// equal to narrowing crop_field(src) element-wise.
void narrow_from_grid(std::span<const f64> src, Dims padded, Dims original,
                      std::span<f32> dst, ThreadPool* pool = nullptr);

}  // namespace rapids::mgard
