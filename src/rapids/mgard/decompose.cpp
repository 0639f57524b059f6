#include "rapids/mgard/decompose.hpp"

#include <algorithm>
#include <utility>

#include "rapids/mgard/kernels/kernels.hpp"
#include "rapids/mgard/workspace.hpp"
#include "rapids/parallel/thread_pool.hpp"

// Panel-major implementation of the multigrid transform: every sweep along y
// and z walks whole contiguous x-rows through the dispatched unit-stride row
// kernels (kernels/kernels.hpp), the x-axis Thomas solve batches
// kThomasPanelWidth independent lines per register sweep via a panel
// transpose, and the gather/scatter against the padded array is fused with
// the adjacent x cascade. Per-element arithmetic order is identical to the
// pre-panel per-line code, so results are bit-identical to it and across ISA
// tiers (tests/kernel_test.cpp holds both properties).

namespace rapids::mgard {

namespace {

using kernels::grain_for_lines;
using kernels::kThomasPanelWidth;
using kernels::RowOps;

u64 axis_extent(Dims d, u32 axis) {
  return axis == 0 ? d.nx : axis == 1 ? d.ny : d.nz;
}

/// Coarsened extents along `axis` only.
Dims coarsen_axis(Dims d, u32 axis) {
  auto shrink = [](u64 s) { return s <= 1 ? s : (s - 1) / 2 + 1; };
  if (axis == 0) d.nx = shrink(d.nx);
  else if (axis == 1) d.ny = shrink(d.ny);
  else d.nz = shrink(d.nz);
  return d;
}

/// Interpolation cascade along one axis, forward (odd nodes become residuals)
/// or inverse. Axis 0 runs the in-line kernel per row; axis 1 feeds each odd
/// row and its two even neighbors to the row kernel; axis 2 does the same
/// with whole contiguous planes.
void cascade_axis(f64* w, Dims dims, u32 axis, bool forward, ThreadPool* pool) {
  const RowOps& ops = kernels::row_ops();
  const u64 nx = dims.nx, ny = dims.ny, nz = dims.nz;
  if (axis == 0) {
    const auto fn = forward ? ops.cascade_fwd_x : ops.cascade_inv_x;
    parallel_for_chunks(
        pool, 0, ny * nz,
        [&](u64 lo, u64 hi) {
          for (u64 l = lo; l < hi; ++l) fn(w + l * nx, nx);
        },
        grain_for_lines(nx * sizeof(f64)));
    return;
  }
  const auto fn = forward ? ops.cascade_fwd : ops.cascade_inv;
  if (axis == 1) {
    const u64 hy = (ny - 1) / 2;  // odd-j rows per z-slab
    parallel_for_chunks(
        pool, 0, nz * hy,
        [&](u64 lo, u64 hi) {
          for (u64 idx = lo; idx < hi; ++idx) {
            const u64 k = idx / hy;
            const u64 j = 2 * (idx % hy) + 1;
            f64* base = w + (k * ny + j) * nx;
            fn(base, base - nx, base + nx, nx);
          }
        },
        grain_for_lines(3 * nx * sizeof(f64)));
  } else {
    const u64 hz = (nz - 1) / 2;  // odd planes
    const u64 plane = nx * ny;
    parallel_for_chunks(
        pool, 0, hz,
        [&](u64 lo, u64 hi) {
          for (u64 m = lo; m < hi; ++m) {
            f64* base = w + (2 * m + 1) * plane;
            fn(base, base - plane, base + plane, plane);
          }
        },
        1);
  }
}

/// Apply the 1-D load operator along `axis` into `out` (coarsened extent
/// along that axis). Stencil (1/6)[0.5 3 5 3 0.5] interior, (1/6)[2.5 3 0.5]
/// at the boundary (mirrored at the far end). Axes 1/2 are pure row kernels
/// over contiguous rows/planes; axis 0 uses the strided in-line kernel.
/// `line(i)` points at the source's i-th unit-stride line: x-row i
/// (= k * ny + j) for axes 0 and 1, plane i for axis 2.
template <typename Lines>
void apply_load_axis(const Lines& line, Dims sdims, u32 axis, f64* out,
                     ThreadPool* pool) {
  const RowOps& ops = kernels::row_ops();
  const Dims odims = coarsen_axis(sdims, axis);
  const u64 slen = axis_extent(sdims, axis);
  RAPIDS_REQUIRE_MSG(slen >= 3 && slen % 2 == 1,
                     "apply_load: axis must be odd-sized >= 3");
  if (axis == 0) {
    parallel_for_chunks(
        pool, 0, sdims.ny * sdims.nz,
        [&](u64 lo, u64 hi) {
          for (u64 l = lo; l < hi; ++l)
            ops.load_x(out + l * odims.nx, line(l), odims.nx, sdims.nx);
        },
        grain_for_lines(sdims.nx * sizeof(f64)));
  } else if (axis == 1) {
    const u64 nx = sdims.nx, sny = sdims.ny, ony = odims.ny;
    parallel_for_chunks(
        pool, 0, sdims.nz * ony,
        [&](u64 lo, u64 hi) {
          for (u64 idx = lo; idx < hi; ++idx) {
            const u64 j = idx % ony;
            const u64 r = (idx / ony) * sny;  // first row of the slab
            f64* o = out + idx * nx;
            if (j == 0) {
              ops.load_boundary(o, line(r), line(r + 1), line(r + 2),
                                nx);
            } else if (j + 1 == ony) {
              ops.load_boundary(o, line(r + sny - 1),
                                line(r + sny - 2), line(r + sny - 3),
                                nx);
            } else {
              const u64 c = r + 2 * j;
              ops.load_interior(o, line(c - 2), line(c - 1), line(c),
                                line(c + 1), line(c + 2), nx);
            }
          }
        },
        grain_for_lines(6 * nx * sizeof(f64)));
  } else {
    const u64 pw = sdims.nx * sdims.ny, snz = sdims.nz, onz = odims.nz;
    parallel_for_chunks(
        pool, 0, onz,
        [&](u64 lo, u64 hi) {
          for (u64 j = lo; j < hi; ++j) {
            f64* o = out + j * pw;
            if (j == 0) {
              ops.load_boundary(o, line(0), line(1), line(2), pw);
            } else if (j + 1 == onz) {
              ops.load_boundary(o, line(snz - 1), line(snz - 2), line(snz - 3),
                                pw);
            } else {
              const u64 c = 2 * j;
              ops.load_interior(o, line(c - 2), line(c - 1), line(c),
                                line(c + 1), line(c + 2), pw);
            }
          }
        },
        1);
  }
}

/// Column width for the cross-axis Thomas sweeps such that the forward plus
/// backward pass over all `len` rows of one column panel stays ~L2-resident.
u64 thomas_chunk_width(u64 len, u64 row_width) {
  const u64 target = (192 * 1024) / (sizeof(f64) * (len == 0 ? 1 : len));
  return std::min(row_width, std::max<u64>(target, 16));
}

/// Thomas solve of the coarse mass system along `axis`, in place.
/// Tridiagonal: diag 4/3 interior / 2/3 boundary, off-diagonals 1/3. The c'
/// and denominator sweeps depend only on (i, len), so they are precomputed
/// once per call into the workspace (values identical to the per-line
/// recurrence) instead of per line.
void mass_solve_axis(f64* g, Dims dims, u32 axis, RefactorWorkspace& ws,
                     ThreadPool* pool) {
  const u64 len = axis_extent(dims, axis);
  if (len <= 1) return;
  const RowOps& ops = kernels::row_ops();
  constexpr f64 off = 1.0 / 3.0;
  constexpr f64 kDiagBoundary = 2.0 / 3.0;
  ws.cp.resize(len);
  ws.denom.resize(len);
  ws.cp[0] = off / kDiagBoundary;
  ws.denom[0] = kDiagBoundary;
  for (u64 i = 1; i < len; ++i) {
    const f64 diag = (i + 1 == len) ? kDiagBoundary : 4.0 / 3.0;
    ws.denom[i] = diag - off * ws.cp[i - 1];
    ws.cp[i] = off / ws.denom[i];
  }
  const f64* cp = ws.cp.data();
  const f64* denom = ws.denom.data();

  const u64 nx = dims.nx, ny = dims.ny, nz = dims.nz;
  if (axis == 0) {
    // The solve direction is the contiguous one: batch kThomasPanelWidth
    // consecutive x-lines through a panel transpose so each register sweep
    // advances all lines of the panel by one solve step.
    const u64 lines = ny * nz;
    const u64 groups = ceil_div(lines, kThomasPanelWidth);
    parallel_for_chunks(
        pool, 0, groups,
        [&](u64 lo, u64 hi) {
          static thread_local std::vector<f64> panel;
          panel.resize(kThomasPanelWidth * nx);
          f64* p = panel.data();
          for (u64 gi = lo; gi < hi; ++gi) {
            const u64 first = gi * kThomasPanelWidth;
            const u64 w = std::min<u64>(kThomasPanelWidth, lines - first);
            f64* base = g + first * nx;
            ops.pack_panel(p, base, w, nx, nx);
            ops.thomas_first(p, kDiagBoundary, w);
            for (u64 i = 1; i < nx; ++i)
              ops.thomas_fwd(p + i * w, p + (i - 1) * w, off, denom[i], w);
            for (u64 i = nx - 1; i-- > 0;)
              ops.thomas_bwd(p + i * w, p + (i + 1) * w, cp[i], w);
            ops.unpack_panel(base, p, w, nx, nx);
          }
        },
        grain_for_lines(kThomasPanelWidth * nx * sizeof(f64)));
  } else if (axis == 1) {
    const u64 cw = thomas_chunk_width(len, nx);
    const u64 npan = ceil_div(nx, cw);
    parallel_for_chunks(
        pool, 0, nz * npan,
        [&](u64 lo, u64 hi) {
          for (u64 idx = lo; idx < hi; ++idx) {
            const u64 x0 = (idx % npan) * cw;
            const u64 cn = std::min(cw, nx - x0);
            f64* s = g + (idx / npan) * ny * nx + x0;
            ops.thomas_first(s, kDiagBoundary, cn);
            for (u64 i = 1; i < len; ++i)
              ops.thomas_fwd(s + i * nx, s + (i - 1) * nx, off, denom[i], cn);
            for (u64 i = len - 1; i-- > 0;)
              ops.thomas_bwd(s + i * nx, s + (i + 1) * nx, cp[i], cn);
          }
        },
        1);
  } else {
    const u64 pw = nx * ny;
    const u64 cw = thomas_chunk_width(len, pw);
    const u64 npan = ceil_div(pw, cw);
    parallel_for_chunks(
        pool, 0, npan,
        [&](u64 lo, u64 hi) {
          for (u64 pidx = lo; pidx < hi; ++pidx) {
            const u64 c0 = pidx * cw;
            const u64 cn = std::min(cw, pw - c0);
            f64* s = g + c0;
            ops.thomas_first(s, kDiagBoundary, cn);
            for (u64 i = 1; i < len; ++i)
              ops.thomas_fwd(s + i * pw, s + (i - 1) * pw, off, denom[i], cn);
            for (u64 i = len - 1; i-- > 0;)
              ops.thomas_bwd(s + i * pw, s + (i + 1) * pw, cp[i], cn);
          }
        },
        1);
  }
}

/// Compute the L2 correction from the residual field `w` (coarse nodes of `w`
/// are at even positions in every axis and are *not* part of the residual).
/// Returns the correction on the coarse grid; the buffer belongs to `ws` and
/// stays valid until the next correction uses the workspace.
std::pair<const f64*, Dims> compute_correction(const f64* w, Dims adims,
                                               RefactorWorkspace& ws,
                                               ThreadPool* pool) {
  const RowOps& ops = kernels::row_ops();
  const u64 nx = adims.nx, ny = adims.ny;
  const u64 sx = nx > 1 ? 2 : 1;
  const u64 sy = ny > 1 ? 2 : 1;
  const u64 sz = adims.nz > 1 ? 2 : 1;

  // The residual is `w` with its coarse nodes zeroed. It differs from `w`
  // only in the x-rows whose j and k are even on every decomposed axis (a
  // quarter of a 3-D grid's rows), so the first load reads the other rows of
  // `w` in place and gets each coarse row from copy_zero in a per-thread row
  // -- the values a whole-grid residual copy would hold. With a degenerate x
  // axis the first load runs along y or z, a row is one node, and a coarse
  // row is a zero.
  static constexpr f64 kZero = 0.0;
  const auto residual_row = [&](u64 r) -> const f64* {
    const f64* row = w + r * nx;
    if ((r / ny) % sz != 0 || (r % ny) % sy != 0) return row;
    if (nx == 1) return &kZero;
    static thread_local std::vector<f64> coarse;
    if (coarse.size() < nx) coarse.resize(nx);
    ops.copy_zero(coarse.data(), row, nx, sx);
    return coarse.data();
  };

  // Load along each non-degenerate axis (the first from the residual rows,
  // the rest ping-ponging between the two workspace buffers), then mass
  // solves in place on the coarse grid. Every padded grid has an axis of
  // extent >= 3, so the correction always ends in a load buffer.
  f64* corr = nullptr;
  Dims cur = adims;
  std::vector<f64>* next = &ws.load_a;
  std::vector<f64>* other = &ws.load_b;
  for (u32 axis = 0; axis < 3; ++axis) {
    if (axis_extent(cur, axis) <= 1) continue;
    const Dims odims = coarsen_axis(cur, axis);
    f64* out = grow_only(*next, odims.total()).data();
    if (corr == nullptr) {
      apply_load_axis(residual_row, cur, axis, out, pool);
    } else {
      const f64* src = corr;
      const u64 len = axis == 2 ? cur.nx * cur.ny : cur.nx;
      apply_load_axis([src, len](u64 i) { return src + i * len; }, cur, axis,
                      out, pool);
    }
    corr = out;
    cur = odims;
    std::swap(next, other);
  }
  for (u32 axis = 0; axis < 3; ++axis)
    if (axis_extent(cur, axis) > 1) mass_solve_axis(corr, cur, axis, ws, pool);
  return {corr, cur};
}

/// Add (sign=+1) or subtract (sign=-1) the coarse-grid correction into the
/// coarse nodes of the active buffer (even positions per decomposed axis).
void apply_correction(f64* w, Dims adims, const f64* z, Dims cdims, f64 sign,
                      ThreadPool* pool) {
  const u64 sx = adims.nx > 1 ? 2 : 1;
  const u64 sy = adims.ny > 1 ? 2 : 1;
  const u64 sz = adims.nz > 1 ? 2 : 1;
  parallel_for_chunks(
      pool, 0, cdims.ny * cdims.nz,
      [&](u64 lo, u64 hi) {
        for (u64 r = lo; r < hi; ++r) {
          const u64 j = r % cdims.ny;
          const u64 k = r / cdims.ny;
          const f64* src = z + r * cdims.nx;
          f64* dst = w + ((k * sz) * adims.ny + j * sy) * adims.nx;
          for (u64 i = 0; i < cdims.nx; ++i)
            dst[i * sx] += sign * src[i];
        }
      },
      grain_for_lines(3 * cdims.nx * sizeof(f64)));
}

/// Gather the active sub-grid (stride 2^(t-1)) into `w`; when `cascade_x` is
/// set, the first forward x cascade runs on each line while it is cache-hot.
void gather_active_cascade(const f64* full, Dims pdims, f64* w, Dims adims,
                           u64 stride, bool cascade_x, ThreadPool* pool) {
  const RowOps& ops = kernels::row_ops();
  parallel_for_chunks(
      pool, 0, adims.ny * adims.nz,
      [&](u64 lo, u64 hi) {
        for (u64 l = lo; l < hi; ++l) {
          const u64 j = l % adims.ny;
          const u64 k = l / adims.ny;
          const f64* src =
              full + ((k * stride) * pdims.ny + j * stride) * pdims.nx;
          f64* dst = w + l * adims.nx;
          ops.gather_stride(dst, src, adims.nx, stride);
          if (cascade_x) ops.cascade_fwd_x(dst, adims.nx);
        }
      },
      grain_for_lines(adims.nx * sizeof(f64)));
}

/// Scatter the active buffer back into the full array; when `cascade_x` is
/// set, the last inverse x cascade runs on each line just before the scatter.
void cascade_scatter_active(f64* full, Dims pdims, f64* w, Dims adims,
                            u64 stride, bool cascade_x, ThreadPool* pool) {
  const RowOps& ops = kernels::row_ops();
  parallel_for_chunks(
      pool, 0, adims.ny * adims.nz,
      [&](u64 lo, u64 hi) {
        for (u64 l = lo; l < hi; ++l) {
          const u64 j = l % adims.ny;
          const u64 k = l / adims.ny;
          f64* src = w + l * adims.nx;
          f64* dst =
              full + ((k * stride) * pdims.ny + j * stride) * pdims.nx;
          if (cascade_x) ops.cascade_inv_x(src, adims.nx);
          ops.scatter_stride(dst, src, adims.nx, stride);
        }
      },
      grain_for_lines(adims.nx * sizeof(f64)));
}

/// Closed-form geometry of one decomposition level: the level's nodes are
/// the stride-2^c sub-grid (c = L for d = 0, L-d otherwise) minus, for
/// d >= 1, its even-in-all-axes subset. Rows (kk, jj) with jj or kk odd keep
/// every ii; both-even rows keep odd ii only. Row offsets are closed-form,
/// so rows gather/scatter independently and in parallel, in exactly
/// level_nodes(d) order (ascending flattened index).
struct LevelGeom {
  u64 stride;          ///< node stride in the padded grid
  u64 ex, ey, ez;      ///< sub-grid extents
  u64 half;            ///< odd-ii count per both-even row
  u64 ejy;             ///< even-jj count per slab
  bool base;           ///< d == 0: no even-in-all-axes exclusion
  u64 total;           ///< node count of the level

  u64 row_offset(u64 kk, u64 jj) const {
    const u64 r = kk * ey + jj;
    if (base) return r * ex;
    // Rows before (kk, jj) with both coordinates even.
    const u64 be = ((kk + 1) / 2) * ejy + ((kk & 1) == 0 ? (jj + 1) / 2 : 0);
    return (r - be) * ex + be * half;
  }
};

LevelGeom level_geometry(const GridHierarchy& h, u32 d) {
  const u32 levels = h.levels();
  RAPIDS_REQUIRE(d <= levels);
  const u32 c = d == 0 ? levels : levels - d;
  const Dims p = h.padded();
  auto sub = [&](u64 s) { return s <= 1 ? u64{1} : ((s - 1) >> c) + 1; };
  LevelGeom g;
  g.stride = u64{1} << c;
  g.ex = sub(p.nx);
  g.ey = sub(p.ny);
  g.ez = sub(p.nz);
  g.half = g.ex / 2;
  g.ejy = (g.ey + 1) / 2;
  g.base = d == 0;
  if (g.base) {
    g.total = g.ex * g.ey * g.ez;
  } else {
    const u64 be_rows = g.ejy * ((g.ez + 1) / 2);
    g.total = (g.ey * g.ez - be_rows) * g.ex + be_rows * g.half;
  }
  return g;
}

}  // namespace

void decompose(std::span<f64> data, const GridHierarchy& h,
               const DecomposeOptions& opt, ThreadPool* pool,
               RefactorWorkspace* ws) {
  RAPIDS_REQUIRE(data.size() == h.padded().total());
  RefactorWorkspace local_ws;
  RefactorWorkspace& work = ws != nullptr ? *ws : local_ws;
  const Dims pdims = h.padded();
  for (u32 t = 1; t <= h.levels(); ++t) {
    const Dims adims = h.grid_at_step(t - 1);
    const u64 stride = u64{1} << (t - 1);
    f64* w;
    if (stride == 1) {
      // Active grid == padded grid: transform in place, no copy.
      w = data.data();
      if (adims.nx > 1) cascade_axis(w, adims, 0, /*forward=*/true, pool);
    } else {
      w = grow_only(work.active, adims.total()).data();
      gather_active_cascade(data.data(), pdims, w, adims, stride,
                            adims.nx > 1, pool);
    }
    if (adims.ny > 1) cascade_axis(w, adims, 1, true, pool);
    if (adims.nz > 1) cascade_axis(w, adims, 2, true, pool);
    if (opt.l2_correction) {
      const auto [z, cdims] = compute_correction(w, adims, work, pool);
      apply_correction(w, adims, z, cdims, 1.0, pool);
    }
    if (stride != 1) {
      cascade_scatter_active(data.data(), pdims, w, adims, stride,
                             /*cascade_x=*/false, pool);
    }
  }
}

void recompose(std::span<f64> data, const GridHierarchy& h,
               const DecomposeOptions& opt, ThreadPool* pool,
               RefactorWorkspace* ws) {
  RAPIDS_REQUIRE(data.size() == h.padded().total());
  RefactorWorkspace local_ws;
  RefactorWorkspace& work = ws != nullptr ? *ws : local_ws;
  const Dims pdims = h.padded();
  for (u32 t = h.levels(); t >= 1; --t) {
    const Dims adims = h.grid_at_step(t - 1);
    const u64 stride = u64{1} << (t - 1);
    f64* w;
    if (stride == 1) {
      w = data.data();
    } else {
      w = grow_only(work.active, adims.total()).data();
      gather_active_cascade(data.data(), pdims, w, adims, stride,
                            /*cascade_x=*/false, pool);
    }
    if (opt.l2_correction) {
      const auto [z, cdims] = compute_correction(w, adims, work, pool);
      apply_correction(w, adims, z, cdims, -1.0, pool);
    }
    if (adims.nz > 1) cascade_axis(w, adims, 2, /*forward=*/false, pool);
    if (adims.ny > 1) cascade_axis(w, adims, 1, false, pool);
    if (stride == 1) {
      if (adims.nx > 1) cascade_axis(w, adims, 0, false, pool);
    } else {
      cascade_scatter_active(data.data(), pdims, w, adims, stride,
                             adims.nx > 1, pool);
    }
  }
}

void gather_level(std::span<const f64> data, const GridHierarchy& h, u32 d,
                  std::span<f64> out, ThreadPool* pool) {
  RAPIDS_REQUIRE(data.size() == h.padded().total());
  const LevelGeom g = level_geometry(h, d);
  RAPIDS_REQUIRE(g.total == h.decomp_level_size(d));
  RAPIDS_REQUIRE(out.size() == g.total);
  const Dims p = h.padded();
  const RowOps& ops = kernels::row_ops();
  const f64* src0 = data.data();
  f64* o = out.data();
  parallel_for_chunks(
      pool, 0, g.ey * g.ez,
      [&](u64 lo, u64 hi) {
        for (u64 row = lo; row < hi; ++row) {
          const u64 jj = row % g.ey;
          const u64 kk = row / g.ey;
          const f64* src =
              src0 +
              ((kk * g.stride) * p.ny + jj * g.stride) * p.nx;
          f64* dst = o + g.row_offset(kk, jj);
          if (g.base || ((jj | kk) & 1)) {
            ops.gather_stride(dst, src, g.ex, g.stride);
          } else {
            ops.gather_stride(dst, src + g.stride, g.half,
                              2 * g.stride);
          }
        }
      },
      grain_for_lines(2 * g.ex * sizeof(f64)));
}

void scatter_level(std::span<f64> data, const GridHierarchy& h, u32 d,
                   std::span<const f64> coeffs, ThreadPool* pool) {
  RAPIDS_REQUIRE(data.size() == h.padded().total());
  const LevelGeom g = level_geometry(h, d);
  RAPIDS_REQUIRE(g.total == h.decomp_level_size(d));
  RAPIDS_REQUIRE(coeffs.size() == g.total);
  const Dims p = h.padded();
  const RowOps& ops = kernels::row_ops();
  f64* dst0 = data.data();
  const f64* src0 = coeffs.data();
  parallel_for_chunks(
      pool, 0, g.ey * g.ez,
      [&](u64 lo, u64 hi) {
        for (u64 row = lo; row < hi; ++row) {
          const u64 jj = row % g.ey;
          const u64 kk = row / g.ey;
          f64* dst = dst0 +
                     ((kk * g.stride) * p.ny + jj * g.stride) * p.nx;
          const f64* src = src0 + g.row_offset(kk, jj);
          if (g.base || ((jj | kk) & 1)) {
            ops.scatter_stride(dst, src, g.ex, g.stride);
          } else {
            ops.scatter_stride(dst + g.stride, src, g.half,
                               2 * g.stride);
          }
        }
      },
      grain_for_lines(2 * g.ex * sizeof(f64)));
}

}  // namespace rapids::mgard
