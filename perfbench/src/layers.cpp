#include "layers.hpp"

#include <algorithm>

namespace perfbench {

void LayerAcc::prepare(i64 span, const core::PrepareReport& rep,
                       u64 wan_bytes) {
  ++prepares_;
  const Span s = tracer_.span(span);
  // The refactor blocks the caller; the optimizer runs inside it (at the
  // plan point), while RS encode and the puts stream beside it.
  const f64 refactor = rep.refactor_seconds;
  const f64 assemble = std::max(
      0.0, refactor - rep.transform_seconds - rep.plane_encode_seconds);
  const i64 rf = tracer_.add("mgard.refactor", s.start,
                             std::min(s.start + refactor, s.end), span, s.request);
  const auto stages =
      tracer_.add_sequence(rf, {{"mgard.transform", rep.transform_seconds},
                                {"mgard.plane_encode", rep.plane_encode_seconds},
                                {"mgard.assemble", assemble}});
  if (stages.size() == 3) {
    const Span pe = tracer_.span(stages[1]);
    tracer_.add("mgard.codec_encode", pe.start,
                std::min(pe.start + rep.plane_codec.seconds, pe.end), stages[1],
                pe.request);
  }
  const f64 stream_start = s.start + rep.transform_seconds + rep.plane_encode_seconds;
  tracer_.add("core.optimize", stream_start, stream_start + rep.optimize_seconds,
              rf, s.request, false);
  tracer_.add("ec.encode", stream_start, stream_start + rep.encode_seconds, span,
              s.request, false);
  tracer_.add("storage.store", stream_start, stream_start + rep.store_seconds,
              span, s.request, false);

  u64 payload = 0;
  for (u64 b : rep.record.level_sizes) payload += b;
  transform_ += rep.transform_seconds;
  plane_encode_ += rep.plane_encode_seconds;
  codec_enc_s_ += rep.plane_codec.seconds;
  codec_enc_bytes_ += static_cast<f64>(rep.plane_codec.bytes);
  optimize_ += rep.optimize_seconds;
  encode_ += rep.encode_seconds;
  encode_bytes_ += static_cast<f64>(payload);
  store_ += rep.store_seconds;
  put_bytes_ += static_cast<f64>(wan_bytes);
  dist_sim_ += rep.distribution_latency;
  retries_ += rep.put_retries;
  prepare_self_ += tracer_.self_time(span);
  prepare_wall_.push_back(tracer_.duration(span));
  tracer_.count("fragments_stored", static_cast<f64>(rep.fragments_stored));
  tracer_.count("put_bytes", static_cast<f64>(wan_bytes));
}

void LayerAcc::read(i64 span, const core::RestoreReport& rep) {
  ++reads_;
  const auto kids =
      tracer_.add_sequence(span, {{"solver.plan", rep.planning_seconds},
                                  {"storage.fetch", rep.fetch_seconds},
                                  {"ec.decode", rep.decode_seconds},
                                  {"mgard.reconstruct", rep.reconstruct_seconds}});
  if (kids.size() == 4) {
    const Span rc = tracer_.span(kids[3]);
    tracer_.add("mgard.codec_decode", rc.start,
                std::min(rc.start + rep.plane_codec.seconds, rc.end), kids[3],
                rc.request);
  }

  reconstruct_s_ += rep.reconstruct_seconds;
  codec_dec_s_ += rep.plane_codec.seconds;
  planes_ += static_cast<f64>(rep.planes_decoded);
  decode_ += rep.decode_seconds;
  fetched_bytes_ += static_cast<f64>(rep.bytes_transferred);
  plan_ += rep.planning_seconds;
  fetch_ += rep.fetch_seconds;
  gather_sim_ += rep.gather_latency;
  hits_ += rep.cache_hits;
  misses_ += rep.cache_misses;
  replans_ += rep.replans;
  plan_reused_ += rep.plan_reused ? 1 : 0;
  retries_ += rep.fetch_retries + rep.hedged_fetches;
  restore_self_ += tracer_.self_time(span);
  reconstruct_.push_back(rep.reconstruct_seconds);
  tracer_.count("planes_decoded", static_cast<f64>(rep.planes_decoded));
  tracer_.count("get_bytes", static_cast<f64>(rep.bytes_transferred));
  tracer_.count("cache_hits", rep.cache_hits);
  tracer_.count("cache_misses", rep.cache_misses);
}

void LayerAcc::emit(RunResult& r) const {
  const auto per = [](f64 sum, u64 n) { return n ? sum / static_cast<f64>(n) : 0.0; };
  const auto rate = [](f64 amount, f64 s) { return s > 0 ? amount / s : 0.0; };
  const u64 p = prepares_, q = reads_;
  auto& m = r.metrics;
  m["mgard.transform_s"] = per(transform_, p);
  m["mgard.plane_encode_s"] = per(plane_encode_, p);
  m["mgard.codec_encode_s"] = per(codec_enc_s_, p);
  m["mgard.codec_encode_mb"] = per(codec_enc_bytes_ / 1e6, p);
  m["core.optimize_s"] = per(optimize_, p);
  m["core.prepare_self_s"] = per(prepare_self_, p);
  m["ec.encode_s"] = per(encode_, p);
  m["ec.encode_gbps"] = rate(encode_bytes_ / 1e9, encode_);
  m["storage.store_s"] = per(store_, p);
  m["storage.put_mb"] = per(put_bytes_ / 1e6, p);
  m["net.distribution_sim_s"] = per(dist_sim_, p);

  m["mgard.reconstruct_s"] = per(reconstruct_s_, q);
  m["mgard.codec_decode_s"] = per(codec_dec_s_, q);
  m["mgard.planes_decoded"] = per(planes_, q);
  m["core.restore_self_s"] = per(restore_self_, q);
  m["ec.decode_s"] = per(decode_, q);
  m["ec.decode_gbps"] = rate(fetched_bytes_ / 1e9, decode_);
  m["solver.plan_s"] = per(plan_, q);
  m["solver.plan_reuse_frac"] = per(static_cast<f64>(plan_reused_), q);
  m["solver.replans"] = per(static_cast<f64>(replans_), q);
  m["storage.fetch_s"] = per(fetch_, q);
  m["storage.get_mb"] = per(fetched_bytes_ / 1e6, q);
  m["storage.cache_hit_frac"] =
      hits_ + misses_ ? static_cast<f64>(hits_) / static_cast<f64>(hits_ + misses_) : 0.0;
  m["net.gather_sim_s"] = per(gather_sim_, q);
  m["storage.retries"] = per(static_cast<f64>(retries_), p + q);
}

}  // namespace perfbench
