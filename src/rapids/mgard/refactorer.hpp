#pragma once

/// \file refactorer.hpp
/// Public facade of the refactoring subsystem: turn a float field into a
/// hierarchical, error-bounded representation (refactor) and rebuild an
/// approximation from any prefix of retrieval levels (reconstruct). This is
/// the role pMGARD plays in the paper.

#include <string>
#include <vector>

#include "rapids/mgard/decompose.hpp"
#include "rapids/mgard/grid.hpp"
#include "rapids/mgard/retrieval.hpp"
#include "rapids/util/bytes.hpp"
#include "rapids/util/common.hpp"
#include "rapids/util/default_init.hpp"

namespace rapids {
class ThreadPool;
}

namespace rapids::mgard {

/// A reconstructed field (extents of the object, row-major, x fastest). Its
/// allocator leaves the elements unwritten, so `narrow_from_grid`'s pass on
/// the pool is the first and only write to each page. Readers take it as
/// `std::span<const f32>`.
using FieldBuffer = std::vector<f32, DefaultInitAllocator<f32>>;

/// Options for a refactor run.
struct RefactorOptions {
  u32 decomp_levels = 4;        ///< dyadic coarsening steps L
  u32 num_retrieval_levels = 4; ///< hierarchy depth the paper calls "l"
  /// Explicit relative-error targets per retrieval level (e_1 > ... > e_l).
  /// Empty = geometric spacing down to kFinalRelError.
  std::vector<f64> target_rel_errors;
  bool l2_correction = true;    ///< MGARD projection step (ablatable)
};

/// A refactored data object: metadata + the retrieval-level payloads.
/// The payloads are what gets erasure-coded and distributed; the metadata is
/// what the metadata-management component persists in the key-value store.
struct RefactoredObject {
  std::string name;
  Dims dims;                  ///< original extents
  u32 decomp_levels = 0;
  bool l2_correction = true;
  f64 bound_factor = kBoundFactor;
  f64 data_max_abs = 0.0;     ///< max |original| (relative-error denominator)
  std::vector<DLevelMeta> dlevels;
  std::vector<RetrievalLevel> levels;

  /// Bytes of the original (uncompressed f32) data.
  u64 original_bytes() const { return dims.total() * sizeof(f32); }

  /// Total bytes across all retrieval-level payloads.
  u64 refactored_bytes() const;

  /// Payload size of retrieval level j (0-based) — the paper's s_{j+1}.
  u64 level_bytes(u32 j) const { return levels.at(j).payload.size(); }

  /// Guaranteed relative L-infinity error when reconstructing from the first
  /// j retrieval levels (j >= 1) — the paper's e_j.
  f64 rel_error_bound(u32 j) const { return levels.at(j - 1).rel_error_bound; }

  /// The retrieval prefix a relative bound asks for: the fewest levels whose
  /// e_j meets `rel_bound`, or all of them when none does.
  u32 levels_for_bound(f64 rel_bound) const;

  /// Serialize everything except the payloads (for the metadata store).
  Bytes serialize_metadata() const;

  /// Inverse of serialize_metadata(); `levels[i].payload` stay empty.
  static RefactoredObject deserialize_metadata(std::span<const std::byte> data);
};

/// Wall-time breakdown of one refactor run (all stages run on the calling
/// thread; parallel_for fan-out is included in its stage).
struct RefactorTimings {
  f64 transform_seconds = 0.0;     ///< widen + pad + multigrid decompose
  f64 plane_encode_seconds = 0.0;  ///< per-dlevel gather + bitplane encode
  f64 assemble_seconds = 0.0;      ///< retrieval-level plan + materialize
  CodecStats plane_codec;          ///< entropy-codec substage of plane encode
};

/// The refactoring engine. Stateless apart from options and the worker pool;
/// safe to reuse across objects.
class Refactorer {
 public:
  explicit Refactorer(RefactorOptions options = {}, ThreadPool* pool = nullptr)
      : options_(std::move(options)), pool_(pool) {}

  const RefactorOptions& options() const { return options_; }

  /// Decompose, quantize, and pack `data` (extents `dims`, row-major,
  /// x fastest) into a RefactoredObject named `name`. `timings`, when
  /// non-null, receives the per-stage wall-time breakdown.
  RefactoredObject refactor(std::span<const f32> data, Dims dims,
                            const std::string& name,
                            RefactorTimings* timings = nullptr) const;

  /// Rebuild an approximation using the first `level_payloads.size()`
  /// retrieval levels (must be a prefix: levels 1..j). `meta` may come from
  /// refactor() or deserialize_metadata(). `codec`, when non-null, receives
  /// the entropy-codec substage accounting of the plane decode.
  FieldBuffer reconstruct(const RefactoredObject& meta,
                          std::span<const Bytes> level_payloads,
                          CodecStats* codec = nullptr) const;

  /// Incremental counterpart of reconstruct() for refinement sessions.
  /// `sets` are the accumulated plane sets of a retrieval prefix (grown with
  /// append_plane_sets); `states` (initially empty, owned by the caller
  /// across rungs) lets the bitplane decode pay only for planes added since
  /// the last call — the recompose itself still runs over the full grid.
  /// Bit-identical to reconstruct() over the same prefix.
  FieldBuffer reconstruct_incremental(
      const RefactoredObject& meta, const std::vector<PlaneSet>& sets,
      std::vector<ProgressiveState>& states, CodecStats* codec = nullptr) const;

 private:
  /// Shared tail of the two reconstruct flavors: decode (incrementally when
  /// `states` is non-null), scatter, recompose, crop.
  FieldBuffer reconstruct_from_sets(
      const RefactoredObject& meta, const std::vector<PlaneSet>& sets,
      std::vector<ProgressiveState>* states, CodecStats* codec) const;

  RefactorOptions options_;
  ThreadPool* pool_;
};

}  // namespace rapids::mgard
