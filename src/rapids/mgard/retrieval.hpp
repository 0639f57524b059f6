#pragma once

/// \file retrieval.hpp
/// Reorders the bitplane segments of all decomposition levels into a small
/// number of *retrieval levels* — the units the paper erasure-codes and
/// distributes. Segments are emitted greedily by error impact: at every step
/// the decomposition level whose remaining error bound is largest contributes
/// its next magnitude plane (its sign plane rides along in front of its first
/// magnitude plane). The running total of per-level bounds, scaled by the
/// multilevel amplification factor, gives a guaranteed absolute error bound
/// for every prefix of the stream; the stream is then cut into retrieval
/// levels at user-specified (or geometrically spaced) relative-error targets.
/// Everything past the last target is dropped — that lossy tail cut plus the
/// sparse plane encoding is where the compression comes from.

#include <string>
#include <vector>

#include "rapids/mgard/bitplane.hpp"
#include "rapids/util/bytes.hpp"
#include "rapids/util/common.hpp"

namespace rapids::mgard {

/// Reference to one plane segment inside the global stream.
struct SegmentRef {
  u32 dlevel = 0;    ///< decomposition level the segment came from
  u32 plane = 0;     ///< 0 = sign plane, p >= 1 = magnitude plane p-1
  u64 bytes = 0;     ///< encoded size
};

/// One retrieval level: a self-contained payload (parseable stream of
/// segments) plus the guaranteed error bounds after consuming levels 1..j.
struct RetrievalLevel {
  Bytes payload;
  f64 abs_error_bound = 0.0;  ///< absolute L-infinity bound using levels 1..j
  f64 rel_error_bound = 0.0;  ///< abs bound / max|original data|
};

/// Accuracy of the full representation: the tail cut when targets are
/// auto-spaced.
inline constexpr f64 kFinalRelError = 1e-7;
/// Multilevel L-inf amplification constant applied to the summed per-level
/// bounds.
inline constexpr f64 kBoundFactor = 2.0;

/// Controls for the stream partitioning.
struct RetrievalOptions {
  u32 num_levels = 4;  ///< retrieval levels to produce
  /// Target relative errors e_1 > e_2 > ... > e_l. Empty = geometric spacing
  /// from the first achievable bound down to kFinalRelError.
  std::vector<f64> target_rel_errors;
};

/// The plan of one retrieval level before any payload is serialized: the
/// segment sequence the greedy partitioner chose, the exact wire size that
/// sequence will occupy, and the guaranteed bounds. Planning every level up
/// front yields all level sizes without copying a byte; each level's payload
/// is then materialized from its plan.
struct RetrievalLevelPlan {
  std::vector<SegmentRef> segments;
  u64 payload_bytes = 0;      ///< serialized size of the segment sequence
  f64 abs_error_bound = 0.0;  ///< after consuming levels 1..j
  f64 rel_error_bound = 0.0;
};

/// Run the greedy partitioner over the plane sets without serializing any
/// payload. `data_max_abs` is max|original data| (relative-error
/// denominator).
std::vector<RetrievalLevelPlan> plan_retrieval_levels(
    const std::vector<PlaneSet>& plane_sets, f64 data_max_abs,
    const RetrievalOptions& opt);

/// Assemble retrieval levels from the per-decomposition-level plane sets.
/// `data_max_abs` is max|original data| (denominator of the relative error).
/// Implemented as plan_retrieval_levels, then one serialization per planned
/// level.
std::vector<RetrievalLevel> assemble_retrieval_levels(
    const std::vector<PlaneSet>& plane_sets, f64 data_max_abs,
    const RetrievalOptions& opt);

/// Parse a retrieval-level payload back into (ref, bytes) segments.
std::vector<std::pair<SegmentRef, PlaneSegment>> parse_retrieval_payload(
    std::span<const std::byte> payload);

/// Rebuild per-decomposition-level truncated PlaneSets from the payloads of
/// the first j retrieval levels. `dlevel_meta` carries (count, max_abs,
/// exponent) per decomposition level as recorded at refactor time. The
/// returned PlaneSets contain only the planes present in the prefix; decode
/// with planes.size().
struct DLevelMeta {
  u64 count = 0;
  f64 max_abs = 0.0;
  i32 exponent = 0;
};
std::vector<PlaneSet> collect_plane_sets(
    const std::vector<DLevelMeta>& dlevel_meta,
    std::span<const Bytes> level_payloads);

/// Append one more retrieval level's payload to plane sets previously built
/// by collect_plane_sets (possibly from an empty payload prefix). The
/// payload must continue the retrieval prefix exactly where `sets` left off
/// — plane contiguity per decomposition level is enforced. This is how a
/// refinement session grows its plane sets one level at a time without
/// reparsing the levels it already holds. Returns the number of magnitude
/// planes appended (sign planes excluded): the restore path reports the sum
/// over its new levels as "planes decoded".
u64 append_plane_sets(std::vector<PlaneSet>& sets,
                      std::span<const std::byte> level_payload);

}  // namespace rapids::mgard
