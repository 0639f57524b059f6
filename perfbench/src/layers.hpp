#pragma once

/// \file layers.hpp
/// Per-layer accounting of the traced run: a span per public pipeline call,
/// child spans derived from the stage fields of the report it returned, and
/// running sums that become the per-layer metrics (mean per operation).

#include "common.hpp"

namespace perfbench {

class LayerAcc {
 public:
  explicit LayerAcc(Tracer& tracer) : tracer_(tracer) {}

  Tracer& tracer() { return tracer_; }

  /// Derive the children of prepare span `span` and account the report.
  void prepare(i64 span, const core::PrepareReport& rep, u64 wan_bytes);
  /// Derive the children of restore/refine span `span` and account it.
  void read(i64 span, const core::RestoreReport& rep);

  /// Median wall time of the traced prepare calls / pipeline reconstructs.
  f64 prepare_wall_p50() const { return median(prepare_wall_); }
  f64 reconstruct_p50() const { return median(reconstruct_); }

  /// Write the mgard / core / ec / solver / storage / net metrics.
  void emit(RunResult& r) const;

 private:
  Tracer& tracer_;
  u64 prepares_ = 0, reads_ = 0;
  // prepare side
  f64 transform_ = 0, plane_encode_ = 0, codec_enc_s_ = 0, codec_enc_bytes_ = 0;
  f64 optimize_ = 0, encode_ = 0, encode_bytes_ = 0, store_ = 0, put_bytes_ = 0;
  f64 dist_sim_ = 0, prepare_self_ = 0;
  std::vector<f64> prepare_wall_;
  // read side
  f64 reconstruct_s_ = 0, codec_dec_s_ = 0, planes_ = 0, decode_ = 0;
  f64 fetched_bytes_ = 0, plan_ = 0, fetch_ = 0, gather_sim_ = 0;
  f64 restore_self_ = 0;
  u64 hits_ = 0, misses_ = 0, replans_ = 0, plan_reused_ = 0;
  std::vector<f64> reconstruct_;
  // both
  u64 retries_ = 0;
};

}  // namespace perfbench
