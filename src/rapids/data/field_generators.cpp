#include "rapids/data/field_generators.hpp"

#include <cmath>

#include "rapids/data/noise.hpp"
#include "rapids/parallel/thread_pool.hpp"

namespace rapids::data {

namespace {

/// Evaluate `fn(x, y, z)` at every node, where (x, y, z) are normalized to
/// [0, 1] per axis, striping planes across the pool.
template <typename Fn>
std::vector<f32> evaluate(Dims dims, ThreadPool* pool, const Fn& fn) {
  std::vector<f32> out(dims.total());
  const f64 sx = dims.nx > 1 ? 1.0 / static_cast<f64>(dims.nx - 1) : 0.0;
  const f64 sy = dims.ny > 1 ? 1.0 / static_cast<f64>(dims.ny - 1) : 0.0;
  const f64 sz = dims.nz > 1 ? 1.0 / static_cast<f64>(dims.nz - 1) : 0.0;
  auto run = [&](u64 klo, u64 khi) {
    for (u64 k = klo; k < khi; ++k) {
      const f64 z = static_cast<f64>(k) * sz;
      for (u64 j = 0; j < dims.ny; ++j) {
        const f64 y = static_cast<f64>(j) * sy;
        f32* row = out.data() + (k * dims.ny + j) * dims.nx;
        for (u64 i = 0; i < dims.nx; ++i)
          row[i] = static_cast<f32>(fn(static_cast<f64>(i) * sx, y, z));
      }
    }
  };
  parallel_for_chunks(pool, 0, dims.nz, run, 1);
  return out;
}

}  // namespace

std::vector<f32> hurricane_pressure(Dims dims, u64 seed, ThreadPool* pool) {
  return evaluate(dims, pool, [seed](f64 x, f64 y, f64 z) {
    // Eye wanders slightly with height, like a tilted vortex.
    const f64 cx = 0.5 + 0.08 * std::sin(3.0 * z);
    const f64 cy = 0.5 + 0.08 * std::cos(2.5 * z);
    const f64 r = std::hypot(x - cx, y - cy);
    // Low-pressure core with exponential recovery, hPa-like magnitudes.
    const f64 vortex = -55.0 * std::exp(-r * r / 0.02);
    const f64 background = 1013.0 - 90.0 * z;  // vertical stratification
    const f64 synoptic = 6.0 * fbm(seed, 3.0 * x, 3.0 * y, 2.0 * z, 3);
    // Small-scale turbulence is concentrated in the storm, as in the real
    // Isabel fields (the far field is nearly hydrostatic and smooth).
    const f64 storm = std::exp(-r * r / 0.08);
    const f64 turb = 1.5 * storm * fbm(seed ^ 0x17, 6.0 * x, 6.0 * y, 4.0 * z, 3);
    return background + vortex + synoptic + turb;
  });
}

std::vector<f32> hurricane_temperature(Dims dims, u64 seed, ThreadPool* pool) {
  return evaluate(dims, pool, [seed](f64 x, f64 y, f64 z) {
    const f64 cx = 0.5 + 0.08 * std::sin(3.0 * z);
    const f64 cy = 0.5 + 0.08 * std::cos(2.5 * z);
    const f64 dx = x - cx, dy = y - cy;
    const f64 r = std::hypot(dx, dy);
    const f64 theta = std::atan2(dy, dx);
    // Spiral rain bands: angular waves advected by radius.
    const f64 bands = 4.0 * std::sin(6.0 * theta + 24.0 * r) * std::exp(-r / 0.25);
    const f64 core = 8.0 * std::exp(-r * r / 0.01);  // warm core
    const f64 lapse = 30.0 - 70.0 * z;               // cooling with height
    // Convective turbulence rides on the rain bands, not the far field.
    const f64 band_mask = std::exp(-r / 0.3);
    const f64 turb =
        2.0 * band_mask * fbm(seed ^ 0xBEEF, 5.0 * x, 5.0 * y, 3.0 * z, 3);
    return lapse + core + bands + turb;
  });
}

std::vector<f32> nyx_temperature(Dims dims, u64 seed, ThreadPool* pool) {
  return evaluate(dims, pool, [seed](f64 x, f64 y, f64 z) {
    // Lognormal contrast: exp of long-correlation fbm gives filament/void
    // dynamic range like baryon temperature (~1e3..1e7 K). Shock-heated
    // small-scale structure lives in the overdense filaments; voids are
    // smooth.
    const f64 large = fbm(seed, 2.0 * x, 2.0 * y, 2.0 * z, 3);
    const f64 filament = std::max(0.0, large);  // nonzero only when overdense
    const f64 small = fbm(seed ^ 0xA51C, 6.0 * x, 6.0 * y, 6.0 * z, 3);
    return 1.0e4 * std::exp(2.2 * large + 1.2 * filament * small);
  });
}

std::vector<f32> nyx_velocity(Dims dims, u64 seed, ThreadPool* pool) {
  return evaluate(dims, pool, [seed](f64 x, f64 y, f64 z) {
    // Signed bulk flows (~1e7 cm/s scale in NYX units); velocity dispersion
    // is generated where matter collapses (overdense regions), leaving the
    // large-scale Hubble-like flow smooth elsewhere.
    const f64 bulk = fbm(seed, 1.5 * x, 1.5 * y, 1.5 * z, 3);
    const f64 collapse =
        std::max(0.0, fbm(seed ^ 0x33, 2.5 * x, 2.5 * y, 2.5 * z, 2));
    const f64 disp = fbm(seed ^ 0x7E10, 6.0 * x, 6.0 * y, 6.0 * z, 3);
    return 2.0e7 * bulk + 6.0e6 * collapse * disp;
  });
}

std::vector<f32> scale_pressure(Dims dims, u64 seed, ThreadPool* pool) {
  return evaluate(dims, pool, [seed](f64 x, f64 y, f64 z) {
    // Hydrostatic exponential decay with height + synoptic waves (Pa).
    const f64 column = 101325.0 * std::exp(-z * 1.4);
    const f64 wave = 800.0 * std::sin(4.0 * 6.28318 * x + 2.0 * 6.28318 * y);
    // Mesoscale activity is strongest in the boundary layer and fades aloft.
    const f64 boundary_layer = std::exp(-z * 3.0);
    const f64 meso =
        350.0 * boundary_layer * fbm(seed, 4.0 * x, 4.0 * y, 2.0 * z, 3);
    return column + wave + meso;
  });
}

std::vector<f32> scale_temperature(Dims dims, u64 seed, ThreadPool* pool) {
  return evaluate(dims, pool, [seed](f64 x, f64 y, f64 z) {
    // Lapse rate with a tropopause kink + fronts (K).
    const f64 lapse = z < 0.75 ? 288.0 - 75.0 * z : 231.75 + 20.0 * (z - 0.75);
    const f64 frontal_pos = y - 0.5 - 0.15 * std::sin(6.28318 * x);
    const f64 front = 5.0 * std::tanh(12.0 * frontal_pos);
    // Eddy mixing happens along the front; the air masses either side are
    // comparatively uniform.
    const f64 frontal_zone = std::exp(-frontal_pos * frontal_pos / 0.02);
    const f64 eddies = 2.2 * frontal_zone *
                       fbm(seed ^ 0x5CA1E, 5.0 * x, 5.0 * y, 3.0 * z, 3);
    return lapse + front + eddies;
  });
}

}  // namespace rapids::data
