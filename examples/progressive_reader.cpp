// Progressive reader: the refactorer on its own, without the distribution
// machinery — the use case where an analyst wants a quick low-accuracy view
// of a huge remote dataset and progressively refines it as more retrieval
// levels arrive (the paper's Section 2.2 capability).
//
// Refactors a weather temperature volume, then "streams in" one retrieval
// level at a time, printing bytes transferred so far, the guaranteed bound,
// the measured error, and a tiny ASCII rendering of a mid-volume slice so
// the refinement is visible.
//
// Run:  ./progressive_reader

#include <cstdio>

#include "rapids/rapids.hpp"

using namespace rapids;

namespace {

/// Render a coarse ASCII view of the k = nz/2 slice.
void render_slice(std::span<const f32> field, mgard::Dims dims) {
  const char* shades = " .:-=+*#%@";
  f32 lo = field[0], hi = field[0];
  for (f32 v : field) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const u64 k = dims.nz / 2;
  const u64 rows = 12, cols = 40;
  for (u64 r = 0; r < rows; ++r) {
    std::printf("    ");
    for (u64 c = 0; c < cols; ++c) {
      const u64 i = c * (dims.nx - 1) / (cols - 1);
      const u64 j = r * (dims.ny - 1) / (rows - 1);
      const f32 v = field[(k * dims.ny + j) * dims.nx + i];
      const int shade =
          static_cast<int>((v - lo) / (hi - lo + 1e-30f) * 9.0f);
      std::printf("%c", shades[std::clamp(shade, 0, 9)]);
    }
    std::printf("\n");
  }
}

}  // namespace

int main() {
  const mgard::Dims dims{129, 129, 33};
  const auto field = data::scale_temperature(dims, 31);
  const u64 original_bytes = dims.total() * sizeof(f32);

  ThreadPool pool;
  mgard::RefactorOptions opt;
  opt.decomp_levels = 4;
  opt.num_retrieval_levels = 4;
  opt.target_rel_errors = {4e-3, 5e-4, 6e-5, 1e-7};
  const mgard::Refactorer rf(opt, &pool);
  const auto obj = rf.refactor(field, dims, "scale/T");

  std::printf("original: %.2f MB; refactored: %.2f MB in %zu retrieval levels\n",
              original_bytes / 1e6, obj.refactored_bytes() / 1e6,
              obj.levels.size());

  std::vector<Bytes> received;
  u64 transferred = 0;
  for (u32 j = 1; j <= obj.levels.size(); ++j) {
    received.push_back(obj.levels[j - 1].payload);
    transferred += obj.level_bytes(j - 1);
    const auto approx = rf.reconstruct(obj, received);
    const f64 err = data::relative_linf_error(field, approx);
    std::printf(
        "\nafter level %u: %.2f MB transferred (%.1f%% of original), "
        "bound <= %.1e, measured %.1e\n",
        j, transferred / 1e6, 100.0 * transferred / original_bytes,
        obj.rel_error_bound(j), err);
    render_slice(approx, dims);
  }
  return 0;
}
