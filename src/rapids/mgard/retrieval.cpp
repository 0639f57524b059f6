#include "rapids/mgard/retrieval.hpp"

#include <algorithm>
#include <cmath>

namespace rapids::mgard {

namespace {

/// Remaining absolute bound of decomposition level l with p planes consumed.
f64 level_bound(const PlaneSet& ps, u32 p) {
  if (ps.count == 0 || ps.max_abs == 0.0) return 0.0;
  if (p == 0) return ps.max_abs;  // nothing decoded yet: coefficients are zero
  return ps.error_bound(p);
}

void append_segment(ByteWriter& w, u32 dlevel, u32 plane,
                    const PlaneSegment& seg) {
  w.put_u32(dlevel);
  w.put_u32(plane);
  w.put_bytes(as_bytes_view(seg.data));
}

/// Wire bytes one segment occupies in a retrieval payload: dlevel (u32) +
/// plane (u32) + the u32 length prefix put_bytes writes + the body.
u64 segment_wire_bytes(u64 body) { return 4 + 4 + 4 + body; }

}  // namespace

std::vector<RetrievalLevelPlan> plan_retrieval_levels(
    const std::vector<PlaneSet>& plane_sets, f64 data_max_abs,
    const RetrievalOptions& opt) {
  RAPIDS_REQUIRE(opt.num_levels >= 1);
  RAPIDS_REQUIRE(data_max_abs > 0.0);
  const u32 nd = static_cast<u32>(plane_sets.size());

  // Per-decomposition-level plane cursors.
  std::vector<u32> cursor(nd, 0);
  auto total_bound = [&] {
    f64 b = 0.0;
    for (u32 l = 0; l < nd; ++l) b += level_bound(plane_sets[l], cursor[l]);
    return b * kBoundFactor;
  };

  // Resolve targets.
  std::vector<f64> targets = opt.target_rel_errors;
  if (targets.empty()) {
    // First target: bound after giving every level its first plane would be
    // too eager; instead take the initial bound and space geometrically down
    // to kFinalRelError.
    const f64 first =
        std::max(total_bound() / data_max_abs / 4.0, kFinalRelError);
    const f64 last = kFinalRelError;
    targets.resize(opt.num_levels);
    if (opt.num_levels == 1) {
      targets[0] = last;
    } else {
      const f64 ratio = std::pow(last / first,
                                 1.0 / static_cast<f64>(opt.num_levels - 1));
      f64 t = first;
      for (u32 j = 0; j < opt.num_levels; ++j, t *= ratio) targets[j] = t;
    }
  }
  RAPIDS_REQUIRE_MSG(targets.size() == opt.num_levels,
                     "target_rel_errors size must equal num_levels");
  for (u32 j = 1; j < targets.size(); ++j)
    RAPIDS_REQUIRE_MSG(targets[j] < targets[j - 1],
                       "target relative errors must strictly decrease");

  std::vector<RetrievalLevelPlan> out;
  out.reserve(opt.num_levels);

  RetrievalLevelPlan plan;
  auto take_segment = [&](u32 dlevel, u32 plane, const PlaneSegment& seg) {
    plan.segments.push_back(SegmentRef{dlevel, plane, seg.size()});
    plan.payload_bytes += segment_wire_bytes(seg.size());
  };

  for (u32 j = 0; j < opt.num_levels; ++j) {
    const f64 abs_target = targets[j] * data_max_abs;
    // Emit planes greedily until the bound meets this level's target or we
    // run out of planes.
    for (;;) {
      const f64 bound = total_bound();
      if (bound <= abs_target) break;
      // Pick the level with the largest remaining bound that still has
      // planes left.
      u32 best = nd;
      f64 best_bound = -1.0;
      for (u32 l = 0; l < nd; ++l) {
        if (cursor[l] >= plane_sets[l].planes.size()) continue;
        const f64 b = level_bound(plane_sets[l], cursor[l]);
        if (b > best_bound) {
          best_bound = b;
          best = l;
        }
      }
      if (best == nd) break;  // exhausted: bound is at the quantization floor
      if (cursor[best] == 0)
        take_segment(best, 0, plane_sets[best].sign);
      take_segment(best, cursor[best] + 1,
                   plane_sets[best].planes[cursor[best]]);
      cursor[best] += 1;
    }
    plan.abs_error_bound = total_bound();
    plan.rel_error_bound = plan.abs_error_bound / data_max_abs;
    out.push_back(std::move(plan));
    plan = RetrievalLevelPlan{};
  }
  return out;
}

namespace {

/// Serialize one planned level's payload from the plane sets.
RetrievalLevel materialize_retrieval_level(
    const std::vector<PlaneSet>& plane_sets, const RetrievalLevelPlan& plan) {
  RetrievalLevel lvl;
  ByteWriter writer(plan.payload_bytes);
  for (const SegmentRef& ref : plan.segments) {
    RAPIDS_REQUIRE_MSG(ref.dlevel < plane_sets.size(),
                       "materialize: plan references unknown level");
    const PlaneSet& ps = plane_sets[ref.dlevel];
    const PlaneSegment& seg =
        ref.plane == 0 ? ps.sign : ps.planes.at(ref.plane - 1);
    append_segment(writer, ref.dlevel, ref.plane, seg);
  }
  lvl.payload = writer.take();
  RAPIDS_REQUIRE_MSG(lvl.payload.size() == plan.payload_bytes,
                     "materialize: payload size disagrees with the plan");
  lvl.abs_error_bound = plan.abs_error_bound;
  lvl.rel_error_bound = plan.rel_error_bound;
  return lvl;
}

}  // namespace

std::vector<RetrievalLevel> assemble_retrieval_levels(
    const std::vector<PlaneSet>& plane_sets, f64 data_max_abs,
    const RetrievalOptions& opt) {
  const auto plans = plan_retrieval_levels(plane_sets, data_max_abs, opt);
  std::vector<RetrievalLevel> out;
  out.reserve(plans.size());
  for (const auto& plan : plans)
    out.push_back(materialize_retrieval_level(plane_sets, plan));
  return out;
}

std::vector<std::pair<SegmentRef, PlaneSegment>> parse_retrieval_payload(
    std::span<const std::byte> payload) {
  std::vector<std::pair<SegmentRef, PlaneSegment>> out;
  ByteReader r(payload);
  while (!r.at_end()) {
    SegmentRef ref;
    ref.dlevel = r.get_u32();
    ref.plane = r.get_u32();
    auto body = r.get_bytes();
    ref.bytes = body.size();
    PlaneSegment seg;
    seg.data.assign(body.begin(), body.end());
    out.emplace_back(ref, std::move(seg));
  }
  return out;
}

std::vector<PlaneSet> collect_plane_sets(
    const std::vector<DLevelMeta>& dlevel_meta,
    std::span<const Bytes> level_payloads) {
  std::vector<PlaneSet> sets(dlevel_meta.size());
  for (u32 l = 0; l < dlevel_meta.size(); ++l) {
    sets[l].count = dlevel_meta[l].count;
    sets[l].max_abs = dlevel_meta[l].max_abs;
    sets[l].exponent = dlevel_meta[l].exponent;
  }
  for (const Bytes& payload : level_payloads)
    append_plane_sets(sets, as_bytes_view(payload));
  return sets;
}

u64 append_plane_sets(std::vector<PlaneSet>& sets,
                      std::span<const std::byte> level_payload) {
  u64 planes = 0;
  for (auto& [ref, seg] : parse_retrieval_payload(level_payload)) {
    RAPIDS_REQUIRE_MSG(ref.dlevel < sets.size(),
                       "retrieval payload references unknown level");
    PlaneSet& ps = sets[ref.dlevel];
    if (ref.plane == 0) {
      ps.sign = std::move(seg);
    } else {
      // Planes arrive MSB-first in stream order; enforce contiguity.
      RAPIDS_REQUIRE_MSG(ref.plane == ps.planes.size() + 1,
                         "retrieval payload planes out of order");
      ps.planes.push_back(std::move(seg));
      ++planes;
    }
  }
  return planes;
}

}  // namespace rapids::mgard
