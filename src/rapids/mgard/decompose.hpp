#pragma once

/// \file decompose.hpp
/// The multigrid transform at the heart of the refactorer. One coarsening
/// step over a (2N_x+1, 2N_y+1, 2N_z+1) grid:
///
///  1. *Interpolation cascade* — per axis, at odd positions:
///     u[i] -= (u[i-1] + u[i+1]) / 2. After all axes, nodes that are odd in
///     at least one axis hold the residual of the multilinear interpolant of
///     the coarse (even-in-every-axis) nodes; this cascade annihilates any
///     function in the coarse space exactly.
///  2. *L2 correction* — the coarse nodes are replaced by the L2 projection
///     of the original function onto the coarse space: solve
///     (M_x (x) M_y (x) M_z) z = (L_x o L_y o L_z) r, where r is the residual
///     field (zero at coarse nodes), L is the 1-D piecewise-linear load
///     operator with stencil (1/6)[0.5 3 5 3 0.5], M is the coarse mass
///     matrix (1/3)[1 4 1] (boundary diag 2/3), and add z to the coarse
///     values. This is MGARD's projection step; it is what gives the L2-
///     orthogonal multilevel decomposition and its error guarantees.
///
/// The full decomposition repeats this step L times on grids of stride
/// 2^(t-1). The transform is f64 only: Refactorer widens every field before
/// it runs. Everything is in place over the padded array; per-step working
/// copies of the active sub-grid keep the kernels contiguous and
/// cache-friendly (at step 1, where active == padded, the transform runs
/// directly in place and skips the copy entirely).
///
/// Execution model (see kernels/kernels.hpp): every sweep is panel-major —
/// cross-axis passes along y and z walk whole contiguous x-rows through the
/// dispatched unit-stride row kernels, and the x-axis Thomas solve batches
/// kThomasPanelWidth independent lines per register sweep via a small panel
/// transpose. The gather from the padded array is fused with the first x
/// cascade (decompose) and the last inverse x cascade is fused with the
/// scatter back (recompose). All heavy loops stripe across an optional
/// ThreadPool with an L2-sized chunk grain. Results are bit-identical across
/// ISA tiers and to the pre-panel per-line implementation.

#include <span>

#include "rapids/mgard/grid.hpp"
#include "rapids/util/common.hpp"

namespace rapids {
class ThreadPool;
}

namespace rapids::mgard {

struct RefactorWorkspace;

/// Tuning knobs for the transform.
struct DecomposeOptions {
  /// Apply the L2 correction (true = full MGARD-style projection; false =
  /// plain hierarchical interpolation basis). Ablated in bench/ablation.
  bool l2_correction = true;
};

/// In-place multilevel decomposition of `data` (padded extents of `h`).
/// After the call, the coarse base values live at stride-2^L nodes and the
/// detail coefficients of decomposition level d at their nodes (see grid.hpp).
/// Pass a RefactorWorkspace to reuse the per-level scratch buffers across
/// calls; omitted, the call allocates a private one.
void decompose(std::span<f64> data, const GridHierarchy& h,
               const DecomposeOptions& opt = {}, ThreadPool* pool = nullptr,
               RefactorWorkspace* ws = nullptr);

/// Exact inverse of decompose() (up to floating-point rounding).
void recompose(std::span<f64> data, const GridHierarchy& h,
               const DecomposeOptions& opt = {}, ThreadPool* pool = nullptr,
               RefactorWorkspace* ws = nullptr);

/// Gather the coefficients of decomposition level `d` into `out`
/// (h.decomp_level_size(d) elements, every one written), ordered exactly
/// like the hierarchy's level_nodes(d) map. Walks the level geometry directly
/// (strided sub-grid rows minus their even-in-all-axes prefix) instead of
/// chasing the index vector, so it parallelizes and never materializes
/// level_nodes.
void gather_level(std::span<const f64> data, const GridHierarchy& h, u32 d,
                  std::span<f64> out, ThreadPool* pool = nullptr);

/// Scatter a contiguous coefficient vector back into the full array. Every
/// padded node belongs to exactly one level, so scattering all of them
/// writes the whole array.
void scatter_level(std::span<f64> data, const GridHierarchy& h, u32 d,
                   std::span<const f64> coeffs, ThreadPool* pool = nullptr);

}  // namespace rapids::mgard
