#include "rapids/mgard/refactorer.hpp"

#include "rapids/mgard/workspace.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::mgard {

u64 RefactoredObject::refactored_bytes() const {
  u64 total = 0;
  for (const auto& l : levels) total += l.payload.size();
  return total;
}

u32 RefactoredObject::levels_for_bound(f64 rel_bound) const {
  const u32 n = static_cast<u32>(levels.size());
  for (u32 j = 1; j <= n; ++j)
    if (rel_error_bound(j) <= rel_bound) return j;
  return n;
}

Bytes RefactoredObject::serialize_metadata() const {
  ByteWriter w;
  w.put_u32(0x5246524Du);  // "RFRM"
  w.put_u16(1);
  w.put_string(name);
  w.put_u64(dims.nx);
  w.put_u64(dims.ny);
  w.put_u64(dims.nz);
  w.put_u32(decomp_levels);
  w.put_u8(l2_correction ? 1 : 0);
  w.put_f64(bound_factor);
  w.put_f64(data_max_abs);
  w.put_u32(static_cast<u32>(dlevels.size()));
  for (const auto& d : dlevels) {
    w.put_u64(d.count);
    w.put_f64(d.max_abs);
    w.put_i64(d.exponent);
  }
  w.put_u32(static_cast<u32>(levels.size()));
  for (const auto& l : levels) {
    w.put_u64(l.payload.size());
    w.put_f64(l.abs_error_bound);
    w.put_f64(l.rel_error_bound);
  }
  return w.take();
}

RefactoredObject RefactoredObject::deserialize_metadata(
    std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.get_u32() != 0x5246524Du) throw io_error("RefactoredObject: bad magic");
  if (r.get_u16() != 1) throw io_error("RefactoredObject: bad version");
  RefactoredObject o;
  o.name = r.get_string();
  o.dims.nx = r.get_u64();
  o.dims.ny = r.get_u64();
  o.dims.nz = r.get_u64();
  o.decomp_levels = r.get_u32();
  o.l2_correction = r.get_u8() != 0;
  o.bound_factor = r.get_f64();
  o.data_max_abs = r.get_f64();
  const u32 nd = r.get_u32();
  if (u64{nd} * 24 > r.remaining())
    throw io_error("RefactoredObject: bad decomposition-level count");
  o.dlevels.resize(nd);
  for (auto& d : o.dlevels) {
    d.count = r.get_u64();
    d.max_abs = r.get_f64();
    d.exponent = static_cast<i32>(r.get_i64());
  }
  const u32 nl = r.get_u32();
  if (u64{nl} * 24 > r.remaining())
    throw io_error("RefactoredObject: bad retrieval-level count");
  o.levels.resize(nl);
  for (auto& l : o.levels) {
    (void)r.get_u64();  // payload size: informational, payloads travel apart
    l.abs_error_bound = r.get_f64();
    l.rel_error_bound = r.get_f64();
  }
  return o;
}

RefactoredObject Refactorer::refactor(std::span<const f32> data, Dims dims,
                                      const std::string& name,
                                      RefactorTimings* timings) const {
  RAPIDS_REQUIRE(data.size() == dims.total());
  RAPIDS_REQUIRE(options_.decomp_levels >= 1);

  const GridHierarchy h(dims, options_.decomp_levels);
  Timer t;

  // One leased workspace carries the call from the staging pass to the last
  // encoded level: the padded grid, each level's coefficients and its sliced
  // plane words live in its grow-only buffers instead of field-sized vectors
  // allocated per call.
  f64 max_abs = 0.0;
  std::vector<PlaneSet> plane_sets(h.num_decomp_levels());
  {
    auto ws = WorkspacePool::global().acquire();
    // Work in f64: the transform and quantization stay well below f32 noise.
    const std::span<f64> grid = grow_only(ws->grid, h.padded().total());
    const FieldScan scan = widen_into_grid(data, dims, h.padded(), grid, pool_);
    RAPIDS_REQUIRE_MSG(scan.finite, "refactor: input contains NaN or infinity");
    RAPIDS_REQUIRE_MSG(scan.max_abs > 0.0,
                       "refactor: all-zero input has no scale");
    max_abs = scan.max_abs;
    decompose(grid, h, DecomposeOptions{options_.l2_correction}, pool_,
              ws.get());
    if (timings != nullptr) timings->transform_seconds = t.seconds();

    // Encode every decomposition level's coefficients into planes.
    t.reset();
    CodecStats* codec = timings != nullptr ? &timings->plane_codec : nullptr;
    for (u32 d = 0; d < h.num_decomp_levels(); ++d) {
      const std::span<f64> coeffs =
          grow_only(ws->coeffs, h.decomp_level_size(d));
      gather_level(grid, h, d, coeffs, pool_);
      plane_sets[d] =
          encode_planes(coeffs, kMagnitudePlanes, pool_, codec, ws.get());
    }
    if (timings != nullptr) timings->plane_encode_seconds = t.seconds();
  }

  RetrievalOptions ropt;
  ropt.num_levels = options_.num_retrieval_levels;
  ropt.target_rel_errors = options_.target_rel_errors;

  RefactoredObject out;
  out.name = name;
  out.dims = dims;
  out.decomp_levels = options_.decomp_levels;
  out.l2_correction = options_.l2_correction;
  out.data_max_abs = max_abs;
  out.dlevels.resize(plane_sets.size());
  for (u32 d = 0; d < plane_sets.size(); ++d) {
    out.dlevels[d] =
        DLevelMeta{plane_sets[d].count, plane_sets[d].max_abs, plane_sets[d].exponent};
  }

  t.reset();
  out.levels = assemble_retrieval_levels(plane_sets, max_abs, ropt);
  if (timings != nullptr) timings->assemble_seconds = t.seconds();
  return out;
}

FieldBuffer Refactorer::reconstruct(
    const RefactoredObject& meta, std::span<const Bytes> level_payloads,
    CodecStats* codec) const {
  RAPIDS_REQUIRE_MSG(!level_payloads.empty(),
                     "reconstruct: need at least retrieval level 1");
  RAPIDS_REQUIRE(level_payloads.size() <= meta.levels.size());
  const std::vector<PlaneSet> sets =
      collect_plane_sets(meta.dlevels, level_payloads);
  return reconstruct_from_sets(meta, sets, nullptr, codec);
}

FieldBuffer Refactorer::reconstruct_incremental(
    const RefactoredObject& meta, const std::vector<PlaneSet>& sets,
    std::vector<ProgressiveState>& states, CodecStats* codec) const {
  if (states.empty()) states.resize(sets.size());
  RAPIDS_REQUIRE_MSG(states.size() == sets.size(),
                     "reconstruct: progressive states do not match plane sets");
  return reconstruct_from_sets(meta, sets, &states, codec);
}

FieldBuffer Refactorer::reconstruct_from_sets(
    const RefactoredObject& meta, const std::vector<PlaneSet>& sets,
    std::vector<ProgressiveState>* states, CodecStats* codec) const {
  const GridHierarchy h(meta.dims, meta.decomp_levels);
  RAPIDS_REQUIRE(sets.size() == h.num_decomp_levels());

  // Decode each level into the leased coefficient buffer and scatter it into
  // the leased grid. The grid needs no zero fill: every padded node belongs
  // to exactly one decomposition level, so the scatters write all of it.
  auto ws = WorkspacePool::global().acquire();
  const std::span<f64> grid = grow_only(ws->grid, h.padded().total());
  for (u32 d = 0; d < sets.size(); ++d) {
    const std::span<f64> coeffs = grow_only(ws->coeffs, sets[d].count);
    ProgressiveState scratch;
    ProgressiveState& state = states != nullptr ? (*states)[d] : scratch;
    decode_planes_incremental(sets[d], static_cast<u32>(sets[d].planes.size()),
                              state, coeffs, pool_, codec, ws.get());
    scatter_level(grid, h, d, coeffs, pool_);
  }
  recompose(grid, h, DecomposeOptions{meta.l2_correction}, pool_, ws.get());

  // Allocated unwritten: the narrow's parallel pass takes every first touch.
  FieldBuffer out(meta.dims.total());
  narrow_from_grid(grid, h.padded(), meta.dims, out, pool_);
  return out;
}

}  // namespace rapids::mgard
