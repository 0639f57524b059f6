#include "rapids/core/pipeline.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>
#include <limits>
#include <set>
#include <utility>

#include "rapids/core/baselines.hpp"
#include "rapids/parallel/thread_pool.hpp"
#include "rapids/util/logging.hpp"
#include "rapids/util/retry.hpp"
#include "rapids/util/timer.hpp"

namespace rapids::core {

namespace {
constexpr u32 kRecordMagic = 0x524F4252u;  // "ROBR"

/// Bounded retry with deterministic backoff for every remote storage op
/// (distribution puts, restore/repair/scrub gets). Backoff runs on the
/// simulated clock; jitter seeds derive from the op identity, so retry
/// schedules are reproducible under any thread interleaving.
constexpr RetryPolicy kRetryPolicy{};
/// A fetch is hedged once its simulated transfer time exceeds this multiple
/// of the plan median.
constexpr f64 kHedgeThreshold = 2.0;
/// A refine session reuses its ladder plan while availability is unchanged
/// and no bandwidth estimate has drifted by more than this relative amount.
constexpr f64 kPlanReuseBwTolerance = 0.25;
/// A bound no retrieval level meets (bounds are >= 0), so a rung toward it
/// targets the object's deepest level: what restore() asks for.
constexpr f64 kDeepestLevel = -1.0;

/// Metadata-store keys: one record per object, plus the two learned-state
/// records the planner and the breakers read.
std::string object_key(const std::string& name) { return "obj/" + name; }
constexpr char kTrackerKey[] = "net/bandwidth_tracker";
constexpr char kHealthKey[] = "net/system_health";

std::string to_value(const Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// The one load rule for the learned-state records: a stored record that
/// does not parse, or that covers another number of systems, is replaced by
/// `fallback`, as is a missing one.
template <typename State>
State load_state(kv::Db& db, const std::string& key, u32 systems,
                 State fallback) {
  if (const auto raw = db.get(key)) {
    try {
      State stored =
          State::deserialize(as_bytes_view(std::span<const char>(*raw)));
      if (stored.size() == systems) return stored;
    } catch (const io_error&) {
      // Damaged: start over from the fallback.
    }
  }
  return fallback;
}

/// Persist a learned-state record; a record never loaded is left as stored.
template <typename State>
void save_state(kv::Db& db, const std::string& key,
                const std::optional<State>& state) {
  if (state) db.put(key, to_value(state->serialize()));
}

std::span<const u8> payload_u8(const Bytes& payload) {
  return {reinterpret_cast<const u8*>(payload.data()), payload.size()};
}

f64 median_of(std::vector<f64> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

/// Deepest restorable prefix when some levels are already on hand: a cached
/// level needs no fragments, so it only requires the levels before it —
/// during a total outage an object can still be served entirely from cache.
u32 recoverable_prefix(const GatherProblem& problem,
                       const std::vector<bool>& cached) {
  u32 failed = 0;
  for (const bool a : problem.available) failed += a ? 0 : 1;
  u32 j = 0;
  while (j < problem.m.size() && (cached[j] || failed <= problem.m[j])) ++j;
  return j;
}

/// The gathering problem restricted to `levels` (0-based, ascending). Level
/// order is kept, so the m_j stay strictly decreasing and the FT config
/// remains valid.
GatherProblem sub_problem(const GatherProblem& problem,
                          const std::vector<u32>& levels) {
  GatherProblem sub;
  sub.n = problem.n;
  sub.bandwidths = problem.bandwidths;
  sub.available = problem.available;
  for (const u32 j : levels) {
    sub.m.push_back(problem.m[j]);
    sub.level_sizes.push_back(problem.level_sizes[j]);
  }
  return sub;
}
}  // namespace

std::string generation_storage_name(const std::string& name, u32 generation) {
  if (generation == 0) return name;
  return name + "@g" + std::to_string(generation);
}

Bytes ObjectRecord::serialize() const {
  ByteWriter w;
  w.put_u32(kRecordMagic);
  w.put_u16(3);
  w.put_bytes(as_bytes_view(meta.serialize_metadata()));
  w.put_u32(static_cast<u32>(ft.size()));
  for (u32 m : ft) w.put_u32(m);
  w.put_u32(static_cast<u32>(level_sizes.size()));
  for (u64 s : level_sizes) w.put_u64(s);
  w.put_u8(matrix_kind == ec::MatrixKind::kVandermonde ? 0 : 1);
  w.put_u8(1);  // placement: always rotation (old records may carry 0)
  // v2 tail: the control plane's migration/drift state.
  w.put_u32(generation);
  w.put_f64(planned_p);
  w.put_f64(planned_error);
  // v3 tail: the prepare epoch.
  w.put_u64(epoch);
  return w.take();
}

ObjectRecord ObjectRecord::deserialize(std::span<const std::byte> data) {
  ByteReader r(data);
  if (r.get_u32() != kRecordMagic) throw io_error("ObjectRecord: bad magic");
  const u16 version = r.get_u16();
  if (version < 1 || version > 3)
    throw io_error("ObjectRecord: bad version");
  ObjectRecord rec;
  rec.meta = mgard::RefactoredObject::deserialize_metadata(r.get_bytes());
  const u32 nft = r.get_u32();
  if (u64{nft} * 4 > r.remaining()) throw io_error("ObjectRecord: bad ft count");
  rec.ft.resize(nft);
  for (auto& m : rec.ft) m = r.get_u32();
  const u32 nsz = r.get_u32();
  if (u64{nsz} * 8 > r.remaining())
    throw io_error("ObjectRecord: bad level count");
  rec.level_sizes.resize(nsz);
  for (auto& s : rec.level_sizes) s = r.get_u64();
  rec.matrix_kind =
      r.get_u8() == 0 ? ec::MatrixKind::kVandermonde : ec::MatrixKind::kCauchy;
  (void)r.get_u8();  // placement: fragment locations come from frag/ keys
  if (version >= 2) {
    // v1 records predate migrations: generation 0 and no drift baseline.
    rec.generation = r.get_u32();
    rec.planned_p = r.get_f64();
    rec.planned_error = r.get_f64();
  }
  // v1/v2 records predate prepare epochs: they read as epoch 0.
  if (version >= 3) rec.epoch = r.get_u64();
  return rec;
}

RapidsPipeline::RapidsPipeline(storage::Cluster& cluster, kv::Db& db,
                               PipelineConfig config, ThreadPool* pool)
    : cluster_(cluster),
      db_(db),
      config_(std::move(config)),
      pool_(pool),
      refactorer_(config_.refactor, pool),
      restore_cache_(config_.restore_cache_bytes) {}

ec::ReedSolomon RapidsPipeline::codec_for(const ObjectRecord& record,
                                          u32 level) const {
  const u32 n = cluster_.size();
  const u32 m = record.ft.at(level);
  return ec::ReedSolomon(n - m, m, record.matrix_kind);
}

void RapidsPipeline::store_level_locked(const std::string& name, u32 level,
                                        std::vector<ec::Fragment>& frags,
                                        StoreStats& stats) {
  std::vector<kv::WalRecord> locations;
  locations.reserve(frags.size());
  for (u32 idx = 0; idx < frags.size(); ++idx) {
    ec::Fragment& frag = frags[idx];
    // Read before the put that stores the fragment moves it away.
    const std::string key = frag.id.key();
    const u64 bytes = frag.payload.size();
    const u32 preferred = storage::place_fragment(cluster_.size(), level, idx);

    const auto try_put = [&](u32 sys, u64 salt) {
      const auto r = put_with_retry(
          sys, frag, stable_hash(name, (u64{level} << 32) | idx, salt));
      stats.put_retries += r.attempts > 0 ? r.attempts - 1 : 0;
      stats.backoff_seconds += r.backoff_seconds;
      return r.ok();
    };

    std::optional<u32> target = preferred;
    if (!try_put(preferred, 0xA0)) {  // persistent failure: re-place it
      ++stats.relocations;
      target = place_elsewhere(preferred,
                               [&](u32 s) { return try_put(s, 0xB0); });
    }
    if (!target)
      throw io_error("prepare: no storage system accepted fragment " + key);
    locations.push_back({kv::WalOp::kPut, key, std::to_string(*target)});
    ++stats.fragments_stored;
    stats.transfers.push_back(net::Transfer{*target, bytes});
  }
  db_.write(locations);
}

std::optional<u32> RapidsPipeline::place_elsewhere(
    u32 excluded, const std::function<bool(u32)>& try_put) {
  std::vector<std::tuple<u32, u64, u32>> order;  // (breaker open, load, id)
  for (u32 s = 0; s < cluster_.size(); ++s) {
    if (s == excluded || !cluster_.system(s).available()) continue;
    order.emplace_back(health().allow(s) ? 0u : 1u,
                       cluster_.system(s).fragment_count(), s);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [open, load, s] : order)
    if (try_put(s)) return s;
  return std::nullopt;
}

PrepareReport RapidsPipeline::prepare(std::span<const f32> data,
                                      mgard::Dims dims, const std::string& name) {
  RAPIDS_REQUIRE_MSG(name.find('@') == std::string::npos,
                     "prepare: object names may not contain '@': " + name);
  const u32 n = cluster_.size();
  PrepareReport report;
  Timer total;

  mgard::RefactorTimings rt;
  mgard::RefactoredObject obj = refactorer_.refactor(data, dims, name, &rt);
  report.transform_seconds = rt.transform_seconds;
  report.plane_encode_seconds = rt.plane_encode_seconds;
  report.plane_codec = rt.plane_codec;
  report.refactor_seconds =
      rt.transform_seconds + rt.plane_encode_seconds + rt.assemble_seconds;

  // FT optimization (Algorithm 1) over every level's size and bound.
  Timer ot;
  FtProblem problem;
  problem.n = n;
  problem.p = cluster_.config().failure_prob;
  problem.original_size = obj.original_bytes();
  problem.overhead_budget = config_.overhead_budget;
  for (u32 j = 0; j < obj.levels.size(); ++j) {
    problem.level_sizes.push_back(obj.level_bytes(j));
    problem.level_errors.push_back(obj.rel_error_bound(j + 1));
  }
  const auto solution = ft_optimize_heuristic(problem);
  RAPIDS_REQUIRE_MSG(solution.has_value(),
                     "prepare: no FT configuration fits the overhead budget");
  report.optimize_seconds = ot.seconds();

  // Every level erasure-codes on its own task group at once, so level j's
  // puts overlap the encodes of the levels after it (without a pool to fork
  // onto, each encode runs inline as it is forked). Stores stay on this
  // thread in level order: fault draws and location batches are the same
  // whatever the pool does.
  const u32 levels = static_cast<u32>(obj.levels.size());
  std::vector<std::vector<ec::Fragment>> frags(levels);
  std::vector<f64> encode_wall(levels, 0.0);
  const auto encode_level = [&](u32 j) {
    Timer et;
    const u32 m = solution->m[j];
    frags[j] = ec::ReedSolomon(n - m, m).encode(
        payload_u8(obj.levels[j].payload), name, j, pool_);
    encode_wall[j] = et.seconds();
  };
  // Declared after everything the forked encodes touch: on a throw the
  // groups are destroyed first, and each destructor joins its task.
  std::deque<TaskGroup> encodes;
  for (u32 j = 0; j < levels; ++j)
    encodes.emplace_back(pool_).run([&encode_level, j] { encode_level(j); });

  f64 sim_finish = 0.0;  // max over levels: store-start wall + WAN latency
  for (u32 j = 0; j < levels; ++j) {
    encodes[j].wait();
    report.encode_seconds += encode_wall[j];
    const f64 begin_wall = total.seconds();
    Timer st;
    StoreStats stats;
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      store_level_locked(name, j, frags[j], stats);
    }
    report.store_seconds += st.seconds();
    frags[j] = {};
    sim_finish = std::max(sim_finish,
                          begin_wall + net::equal_share_latency(
                                           stats.transfers, cluster_.bandwidths()));
    report.fragments_stored += stats.fragments_stored;
    report.put_retries += stats.put_retries;
    report.relocations += stats.relocations;
    report.backoff_seconds += stats.backoff_seconds;
  }

  ObjectRecord record;
  record.meta = std::move(obj);
  record.ft = solution->m;
  record.level_sizes = std::move(problem.level_sizes);
  record.planned_p = cluster_.config().failure_prob;
  record.planned_error = solution->expected_error;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    const auto prior = lookup(name);
    if (prior) record.epoch = prior->epoch + 1;
    write_record(name, record);
    // Re-preparing a migrated object rewinds it to generation 0; its old
    // generation's fragments are garbage now.
    if (prior && prior->generation > 0)
      gc_generation_locked(name, prior->generation);
    save_state(db_, kHealthKey, health_);
  }
  restore_cache_.invalidate(name);

  report.expected_error = solution->expected_error;
  report.storage_overhead = solution->storage_overhead;
  report.network_overhead = ft_network_overhead(
      n, solution->m, record.level_sizes, record.meta.original_bytes());
  report.distribution_latency = net::equal_share_latency(
      rfec_distribution_plan(record.level_sizes, solution->m, n),
      cluster_.bandwidths());
  // Level j's puts start once it is encoded, after the whole refactor, so
  // the end-to-end latency is the worst (store-start wall + that level's
  // WAN share).
  report.prepare_latency = sim_finish + report.backoff_seconds;
  report.record = std::move(record);
  return report;
}

std::optional<ObjectRecord> RapidsPipeline::lookup(const std::string& name) const {
  const auto raw = db_.get(object_key(name));
  if (!raw) return std::nullopt;
  return ObjectRecord::deserialize(as_bytes_view(std::span<const char>(*raw)));
}

void RapidsPipeline::write_record(const std::string& name,
                                  const ObjectRecord& record,
                                  std::vector<kv::WalRecord> batch) {
  batch.push_back(
      {kv::WalOp::kPut, object_key(name), to_value(record.serialize())});
  db_.write(batch);
}

std::vector<std::pair<ec::FragmentId, u32>> RapidsPipeline::fragment_locations(
    const std::string& sname, std::optional<u32> level) const {
  std::vector<std::pair<ec::FragmentId, u32>> out;
  for (const auto& [key, value] :
       db_.scan_prefix(ec::FragmentId::key_prefix(sname, level))) {
    auto id = ec::FragmentId::parse(key);  // "sname/..." names share the prefix
    u32 system = 0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), system);
    if (id && id->object_name == sname && ec == std::errc{} &&
        end == value.data() + value.size() && system < cluster_.size())
      out.emplace_back(std::move(*id), system);
  }
  std::sort(out.begin(), out.end());  // one object: (level, index) order
  return out;
}

u64 RapidsPipeline::drop_fragments_locked(
    const std::string& sname, std::optional<u32> level,
    std::vector<kv::WalRecord>& tombstones) {
  for (const auto& [id, system] : fragment_locations(sname, level))
    tombstones.push_back({kv::WalOp::kDelete, id.key(), {}});
  // Every copy on any system goes, recorded or not: a phase-1 crash leaves
  // copies no location records (store_level_locked writes a level's
  // locations after all its puts).
  u64 erased = 0;
  const std::string prefix = ec::FragmentId::key_prefix(sname, level);
  for (u32 s = 0; s < cluster_.size(); ++s)
    for (const auto& key : cluster_.system(s).keys_with_prefix(prefix))
      if (const auto id = ec::FragmentId::parse(key);
          id && id->object_name == sname) {
        cluster_.system(s).erase(key);
        ++erased;
      }
  return erased;
}

net::BandwidthTracker& RapidsPipeline::tracker() {
  if (!tracker_)
    tracker_ = load_state(db_, kTrackerKey, cluster_.size(),
                          net::BandwidthTracker(cluster_.bandwidths()));
  return *tracker_;
}

storage::SystemHealth& RapidsPipeline::health() {
  if (!health_)
    health_ = load_state(db_, kHealthKey, cluster_.size(),
                         storage::SystemHealth(cluster_.size()));
  return *health_;
}

storage::SystemHealth& RapidsPipeline::system_health() {
  std::lock_guard<std::mutex> lock(io_mu_);
  return health();
}

void RapidsPipeline::record_health(u32 system, bool ok) {
  if (ok)
    health().record_success(system);
  else
    health().record_failure(system);
}

RetryResult<bool> RapidsPipeline::put_with_retry(u32 system,
                                                 ec::Fragment& fragment,
                                                 u64 seed) {
  auto r = retry_io(kRetryPolicy, seed, [&] {
    // A put that throws leaves `fragment` intact for the next attempt.
    cluster_.system(system).put(std::move(fragment));
    return true;
  });
  record_health(system, r.ok());
  return r;
}

std::vector<f64> RapidsPipeline::bandwidth_estimates() {
  std::lock_guard<std::mutex> lock(io_mu_);
  return tracker().estimates();
}

RapidsPipeline::FetchOutcome RapidsPipeline::fetch_with_retry(
    u32 system, const ec::FragmentId& id, f64 budget_s) {
  // CRC of the last damaged copy read. A re-read with the same CRC returned
  // the same bytes: the damage is at rest, and no retry can mend it.
  std::optional<u32> damaged_crc;
  bool at_rest = false;
  auto r = retry_io_within(
      kRetryPolicy, stable_hash(id.key(), system, 0xFE7C4ull), budget_s, [&] {
        auto frag = cluster_.system(system).get(id.key());
        if (!frag) return frag;  // missing: permanent, so no retry
        const u32 crc = ec::fragment_crc(frag->payload);
        if (crc == frag->payload_crc) return frag;
        if (crc == damaged_crc) {
          at_rest = true;
          return std::optional<ec::Fragment>{};
        }
        // In-flight corruption, maybe: a re-read may verify.
        damaged_crc = crc;
        throw io_error("fragment " + id.key() + " failed its CRC");
      });
  const bool missing = r.value && !*r.value && !at_rest;
  return {std::move(r.value).value_or(std::nullopt), r.attempts,
          r.backoff_seconds, missing};
}

RestoreReport RapidsPipeline::restore(const std::string& name,
                                      const RestoreOptions& opts) {
  // A transient session: never entered in sessions_, so no other thread can
  // reach it and its lock is not taken. Its field is ours to move out.
  RefineSession session(name);
  RestoreReport report = advance(session, kDeepestLevel, opts);
  report.data = std::move(session.data_);
  return report;
}

void RapidsPipeline::snapshot_problem(const std::string& name,
                                      std::optional<ObjectRecord>& record,
                                      GatherProblem& problem) {
  const u32 n = cluster_.size();
  // Build the gathering problem from current availability; bandwidths come
  // from the learned tracker when adaptation is on (paper Section 4.3).
  // Metadata lookup + availability/bandwidth snapshot touch shared state.
  std::lock_guard<std::mutex> lock(io_mu_);
  record = lookup(name);
  RAPIDS_REQUIRE_MSG(record.has_value(), "restore: unknown object " + name);
  problem.n = n;
  problem.m = record->ft;
  problem.level_sizes = record->level_sizes;
  problem.bandwidths = tracker().estimates();
  problem.available.resize(n);
  for (u32 i = 0; i < n; ++i)
    problem.available[i] = cluster_.system(i).available();
  // Route around circuit-open systems — but only when skipping them does
  // not shrink the recoverable prefix (degradation must stay availability-
  // driven, never health-heuristic-driven). allow() doubles as the
  // half-open transition, so cooled-down systems get their probe here.
  std::vector<bool> healthy = problem.available;
  bool any_excluded = false;
  for (u32 i = 0; i < n; ++i) {
    if (healthy[i] && !health().allow(i)) {
      healthy[i] = false;
      any_excluded = true;
    }
  }
  if (any_excluded) {
    GatherProblem alt = problem;
    alt.available = healthy;
    if (alt.recoverable_levels() == problem.recoverable_levels())
      problem.available = std::move(healthy);
  }
}

void RapidsPipeline::fetch_levels(const ObjectRecord& record,
                                  const std::string& name,
                                  GatherProblem& problem,
                                  const std::vector<u32>& levels,
                                  const solver::Selection* preplanned,
                                  RestoreReport& report,
                                  std::vector<storage::SharedPayload>& payloads,
                                  std::vector<std::optional<f64>>& landed_at,
                                  const RestoreOptions& opts) {
  const u32 n = cluster_.size();
  // Fragment keys live under the record's current generation.
  const std::string sname = record.storage_name(name);
  Timer t;

  // Remaining deadline budget for the resilience extras of this call:
  // every retry backoff spends from it, and a hedge whose simulated launch
  // point lies past it is never issued — no I/O outlives the request.
  f64 budget_s = opts.sim_budget_s;

  // The bookkeeping of one fragment read, planned or hedge. A missing
  // fragment is a metadata miss, not the system's fault: health skips it.
  const auto account = [&](u32 system, const FetchOutcome& read) {
    report.fetch_retries += read.attempts - 1;
    report.backoff_seconds += read.backoff_seconds;
    if (std::isfinite(budget_s)) budget_s -= read.backoff_seconds;
    if (!read.missing) record_health(system, read.fragment.has_value());
    if (read.fragment) report.bytes_transferred += read.fragment->payload.size();
  };

  struct PlannedFetch {
    u32 level = 0;  ///< index into the round's levels, not the real level
    u32 system = 0;
    u32 index = 0;
    u64 bytes = 0;
    f64 time = 0.0;  ///< simulated completion under equal share
  };
  struct Round {
    GatherProblem sub;  ///< the gathering problem over the round's levels
    /// Per level: system -> the lowest fragment index it holds.
    std::vector<std::map<u32, u32>> locations;
    GatherPlan plan;
    std::vector<PlannedFetch> fetches;  ///< in plan order
    f64 hedge_launch = 0.0;
    std::optional<u32> unrecorded;  ///< planned system holding no fragment
  };

  // Stage: plan a round over `rem` (real levels, ascending). Systems that
  // hold none of these levels' fragments (migrated or repaired away) are
  // excluded before planning while the deepest level tolerates it, instead
  // of planning a fetch there and replanning after the miss. The caller's
  // rows are scored, not re-optimized, when still placeable. The round's
  // clock starts here: equal-share contention over the whole plan, scaled
  // by straggler draws sampled up front in plan order. A planned system with
  // no fragment recorded forces a replan without charging its health.
  const auto plan_round = [&](const std::vector<u32>& rem,
                              const solver::Selection* rows) {
    const u32 nsub = static_cast<u32>(rem.size());
    Round r;
    r.sub = sub_problem(problem, rem);
    r.locations.resize(nsub);
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      for (u32 j = 0; j < nsub; ++j)
        for (const auto& [id, sys] : fragment_locations(sname, rem[j]))
          r.locations[j].emplace(sys, id.index);  // index order: lowest wins
    }
    std::vector<bool> trial(n, false);
    for (const auto& loc : r.locations)
      for (const auto& [sys, idx] : loc) trial[sys] = r.sub.available[sys];
    if (static_cast<u32>(std::count(trial.begin(), trial.end(), false)) <=
        r.sub.m.back())
      r.sub.available = std::move(trial);

    bool placeable = rows != nullptr && rows->size() == nsub;
    for (u32 i = 0; i < nsub && placeable; ++i) {
      placeable = (*rows)[i].size() == n - r.sub.m[i];
      for (const u32 sys : (*rows)[i])
        placeable = placeable && sys < n && r.sub.available[sys];
    }
    r.plan = placeable ? evaluate_plan(r.sub, *rows)  // score only
                       : optimized_plan(r.sub, config_.aco);  // lock-free
    report.planning_seconds += r.plan.planning_seconds;

    t.reset();
    {
      std::lock_guard<std::mutex> lock(io_mu_);
      for (u32 j = 0; j < nsub && !r.unrecorded; ++j) {
        for (const u32 sys : r.plan.systems_per_level[j]) {
          const auto loc = r.locations[j].find(sys);
          if (loc == r.locations[j].end()) {
            log::warn("pipeline", "no level-", rem[j],
                      " fragment recorded on system ", sys, "; replanning");
            r.unrecorded = sys;
            break;
          }
          r.fetches.push_back({j, sys, loc->second, r.sub.fragment_bytes(j + 1)});
        }
      }
      if (!r.unrecorded) {
        std::vector<net::Transfer> transfers;
        std::vector<f64> mults;
        for (const auto& f : r.fetches) {
          transfers.push_back(net::Transfer{f.system, f.bytes});
          mults.push_back(
              cluster_.system(f.system).sample_transfer_multiplier());
        }
        const auto times = net::equal_share_times_scaled(
            transfers, problem.bandwidths, mults);
        for (std::size_t i = 0; i < times.size(); ++i)
          r.fetches[i].time = times[i];
        r.hedge_launch = kHedgeThreshold * median_of(times);
      }
    }
    report.fetch_seconds += t.seconds();
    return r;
  };

  // Stage: fetch the round's level j (real level `real`) under io_mu_. A
  // straggling or failed read is hedged against the fastest unplanned holder
  // of a *sibling* fragment of the same level (any k distinct fragments
  // decode); the hedge launches at hedge_launch on the simulated clock and
  // runs at an exclusive share. Returns the level's fragments and when the
  // slowest landed, or sets `bad` to the system whose fragment stayed
  // missing or damaged.
  const auto fetch_level = [&](const Round& r, u32 j, u32 real,
                               std::optional<u32>& bad) {
    std::vector<ec::Fragment> frags;
    f64 slowest = 0.0;
    // Systems already serving the level (planned or hedge), so hedges never
    // duplicate a fragment index.
    std::set<u32> used;
    for (const auto& f : r.fetches)
      if (f.level == j) used.insert(f.system);
    t.reset();
    std::lock_guard<std::mutex> lock(io_mu_);
    for (const auto& f : r.fetches) {
      if (f.level != j) continue;
      auto primary = fetch_with_retry(f.system, {sname, real, f.index}, budget_s);
      account(f.system, primary);
      const bool ok = primary.fragment.has_value();
      f64 effective = f.time;
      std::optional<ec::Fragment> winner = std::move(primary.fragment);
      if ((f.time > r.hedge_launch || !ok) && r.hedge_launch <= budget_s) {
        std::optional<u32> spare;
        for (const auto& [sys2, idx2] : r.locations[j]) {
          if (used.contains(sys2) || !cluster_.system(sys2).available() ||
              !health().allow(sys2))
            continue;
          if (!spare || problem.bandwidths[sys2] > problem.bandwidths[*spare])
            spare = sys2;
        }
        if (spare) {
          ++report.hedged_fetches;
          used.insert(*spare);
          auto hedge = fetch_with_retry(
              *spare, {sname, real, r.locations[j].at(*spare)}, budget_s);
          account(*spare, hedge);
          if (hedge.fragment) {
            const f64 hedge_time =
                r.hedge_launch +
                static_cast<f64>(f.bytes) / problem.bandwidths[*spare] *
                    cluster_.system(*spare).sample_transfer_multiplier();
            if (!ok || hedge_time < effective) {
              winner = std::move(hedge.fragment);
              effective = hedge_time;
              ++report.hedge_wins;
            }
          }
        }
      }
      if (!winner) {
        log::warn("pipeline", "fragment ", sname, "/", real, "/", f.index,
                  " missing or damaged on system ", f.system, "; replanning");
        bad = f.system;
        break;
      }
      frags.push_back(std::move(*winner));
      slowest = std::max(slowest, effective);
    }
    save_state(db_, kHealthKey, health_);
    report.fetch_seconds += t.seconds();
    return std::pair{std::move(frags), slowest};
  };

  // Stage: decode one landed level outside the lock, cache it, and stamp
  // when it became decodable. The decoded bytes are moved into one shared
  // buffer that the cache and payloads[real] both hold; nothing copies them.
  const auto decode_level = [&](u32 real, const std::vector<ec::Fragment>& frags,
                                f64 landing) {
    t.reset();
    payloads[real] = std::make_shared<const std::vector<u8>>(
        codec_for(record, real).decode(frags, pool_));
    report.decode_seconds += t.seconds();
    restore_cache_.put(name, record.epoch, real, payloads[real]);
    landed_at[real] = landing + report.backoff_seconds;
  };

  // Stage: fold a completed round's observed (simulated-WAN) per-transfer
  // throughput into the tracker, so later plans adapt to bandwidth changes.
  const auto observe = [&](const Round& r) {
    const auto transfers = plan_transfers(r.sub, r.plan.systems_per_level);
    std::vector<u32> load(n, 0);
    for (const auto& tr : transfers) load[tr.system] += 1;
    std::lock_guard<std::mutex> lock(io_mu_);
    const auto obs_times = net::equal_share_times(transfers, cluster_.bandwidths());
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      // Undo the contention share so the observation estimates the nominal
      // endpoint bandwidth, not this plan's slice of it.
      const f64 exclusive_seconds =
          obs_times[i] / static_cast<f64>(load[transfers[i].system]);
      if (exclusive_seconds > 0.0)
        tracker().observe(transfers[i].system, transfers[i].bytes,
                          exclusive_seconds);
    }
    save_state(db_, kTrackerKey, tracker_);
  };

  // Rounds: plan what is left, then fetch and decode it level by level,
  // ascending. A landed level is never refetched. A planned fragment that
  // stays missing or damaged after retry and hedging ends the round: its
  // system counts as down, exactly like one more concurrent outage, and the
  // next round replans. Each replan marks one more system down, so at most
  // n + 1 rounds run.
  std::optional<f64> latest;  // latest landing over every level that landed
  for (u32 round = 0; round <= n; ++round) {
    // The levels still to fetch that tolerate the outages so far. m_j falls
    // with j, so these are a prefix of the unlanded ones: the deeper levels
    // a replan put out of reach are dropped, and the rest is still fetched.
    u32 failed = 0;
    for (const bool a : problem.available) failed += a ? 0 : 1;
    std::vector<u32> rem;
    for (const u32 j : levels)
      if (!landed_at[j] && failed <= problem.m[j]) rem.push_back(j);
    if (rem.empty()) break;

    // The caller's rows predate any replan: only the first round may use them.
    Round r = plan_round(rem, round == 0 ? preplanned : nullptr);
    std::optional<u32> bad = r.unrecorded;
    for (u32 j = 0; j < rem.size() && !bad; ++j) {
      auto [frags, landing] = fetch_level(r, j, rem[j], bad);
      if (bad) break;
      decode_level(rem[j], frags, landing);
      latest = std::max(latest.value_or(0.0), landing);
    }
    if (!bad) {
      observe(r);
      report.plan = std::move(r.plan);
      break;
    }
    problem.available[*bad] = false;
    ++report.replans;
  }
  // Every landed level counts, whether or not its round completed.
  if (latest) report.gather_latency = *latest + report.backoff_seconds;
}

std::shared_ptr<RefineSession> RapidsPipeline::begin_refine(
    const std::string& name) {
  return std::make_shared<RefineSession>(name);
}

RestoreReport RapidsPipeline::refine(const std::string& name, f64 rel_bound,
                                     const RestoreOptions& opts) {
  std::shared_ptr<RefineSession> session;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(name);
    if (it == sessions_.end())
      it = sessions_.emplace(name, std::make_shared<RefineSession>(name)).first;
    session = it->second;
  }
  return refine(*session, rel_bound, opts);
}

void RapidsPipeline::end_refine(const std::string& name) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(name);
}

RestoreReport RapidsPipeline::refine(RefineSession& session, f64 rel_bound,
                                     const RestoreOptions& opts) {
  std::lock_guard<std::mutex> session_lock(session.mu_);
  RestoreReport report = advance(session, rel_bound, opts);
  // The session keeps its field for later rungs, so the report gets a copy:
  // allocated unwritten, then one memmove (FieldBuffer's copy constructor
  // would copy element by element).
  report.data.resize(session.data_.size());
  std::copy(session.data_.begin(), session.data_.end(), report.data.begin());
  return report;
}

RestoreReport RapidsPipeline::advance(RefineSession& session, f64 rel_bound,
                                      const RestoreOptions& opts) {
  RestoreReport report;

  std::optional<ObjectRecord> record;
  GatherProblem problem;
  snapshot_problem(session.name_, record, problem);
  const u32 nlevels = static_cast<u32>(record->ft.size());

  // A re-prepare replaced the payloads the session decoded, or an aging
  // dropped some: start over rather than merge planes of two payloads.
  if (session.epoch_ &&
      (*session.epoch_ != record->epoch || session.cursor_ > nlevels)) {
    session.restart();
    report.session_restarted = true;
  }
  session.epoch_ = record->epoch;

  const u32 target = record->meta.levels_for_bound(rel_bound);

  const auto current_state = [&](u32 used) {
    report.levels_used = used;
    report.rel_error_bound =
        used == 0 ? 1.0 : record->meta.rel_error_bound(used);
    return report;
  };

  // Already refined at least this far: nothing to transfer or decode.
  if (target <= session.cursor_) return current_state(session.cursor_);

  // Consult the shared cache for the levels this rung needs. Levels below
  // the cursor are already materialized in the session's plane sets.
  std::vector<storage::SharedPayload> payloads(nlevels);
  std::vector<bool> cached(nlevels, false);
  for (u32 j = 0; j < session.cursor_; ++j) cached[j] = true;
  for (u32 j = session.cursor_; j < target; ++j) {
    switch (restore_cache_.get(session.name_, record->epoch, j, payloads[j])) {
      case storage::RestoreCache::Outcome::kHit:
        cached[j] = true;
        ++report.cache_hits;
        break;
      case storage::RestoreCache::Outcome::kCorrupt:
        ++report.cache_corrupt;
        [[fallthrough]];
      case storage::RestoreCache::Outcome::kMiss:
        ++report.cache_misses;
        break;
    }
  }

  // One fetch_levels call for the uncached levels of the recoverable prefix.
  // It caches each level the moment it decodes and drops the deeper levels a
  // mid-fetch replan puts out of reach, so the rung serves the prefix up to
  // the first level still not on hand. The rung's time-to-first-level is the
  // landing of its first new level; it stays 0 when the cache served that
  // level, even if deeper levels were fetched.
  u32 usable = std::min(target, recoverable_prefix(problem, cached));
  std::vector<u32> uncached;
  for (u32 j = session.cursor_; j < usable; ++j)
    if (!cached[j]) uncached.push_back(j);
  if (!uncached.empty()) {
    // Reuse the session's ladder plan when it covers these levels and
    // neither availability nor the learned bandwidths drifted materially
    // since it was computed; otherwise plan the whole remaining ladder once
    // so later rungs can slice rows out of it without re-running the
    // optimizer.
    solver::Selection pre;
    bool have_pre = false;
    if (!session.planned_rows_.empty() &&
        session.plan_available_ == problem.available &&
        session.plan_bandwidths_.size() == problem.bandwidths.size()) {
      f64 max_delta = 0.0;
      for (std::size_t i = 0; i < problem.bandwidths.size(); ++i) {
        const f64 ref = std::max(std::fabs(session.plan_bandwidths_[i]), 1e-12);
        max_delta = std::max(
            max_delta,
            std::fabs(problem.bandwidths[i] - session.plan_bandwidths_[i]) / ref);
      }
      if (max_delta <= kPlanReuseBwTolerance) {
        have_pre = true;
        for (const u32 j : uncached) {
          const auto it = session.planned_rows_.find(j);
          if (it == session.planned_rows_.end()) {
            have_pre = false;
            break;
          }
          pre.push_back(it->second);
        }
        if (!have_pre) pre.clear();
      }
    }
    if (!have_pre) {
      session.clear_plan();
      const u32 reach = recoverable_prefix(problem, cached);
      std::vector<u32> ladder;
      for (u32 j = session.cursor_; j < reach; ++j)
        if (!cached[j]) ladder.push_back(j);
      GatherPlan ladder_plan =
          optimized_plan(sub_problem(problem, ladder), config_.aco);
      report.planning_seconds += ladder_plan.planning_seconds;
      for (std::size_t i = 0; i < ladder.size(); ++i)
        session.planned_rows_[ladder[i]] =
            std::move(ladder_plan.systems_per_level[i]);
      session.plan_bandwidths_ = problem.bandwidths;
      session.plan_available_ = problem.available;
      for (const u32 j : uncached) pre.push_back(session.planned_rows_[j]);
    }
    report.plan_reused = have_pre;

    std::vector<std::optional<f64>> landed_at(nlevels);
    fetch_levels(*record, session.name_, problem, uncached, &pre, report,
                 payloads, landed_at, opts);
    for (const u32 j : uncached) {
      if (!landed_at[j]) continue;
      cached[j] = true;
      ++report.levels_fetched;
      if (j == session.cursor_) report.first_level_latency = *landed_at[j];
    }
    if (report.replans > 0) {
      // Availability moved mid-fetch; the remaining ladder rows are stale.
      session.clear_plan();
    } else {
      for (const u32 j : uncached) session.planned_rows_.erase(j);
    }
    usable = static_cast<u32>(
        std::find(cached.begin() + session.cursor_, cached.begin() + usable,
                  false) -
        cached.begin());
  }
  if (usable <= session.cursor_) {
    // Outages block any improvement. Hold the session's current state —
    // degraded but monotone — rather than going backwards or throwing; with
    // nothing materialized yet that is the documented degraded report (no
    // data, the paper's e_0 = 1 penalty).
    log::warn("pipeline", "object ", session.name_, " cannot improve past ",
              session.cursor_, " levels under current outages");
    return current_state(session.cursor_);
  }

  // Grow the session's plane sets with the new levels only and decode just
  // the bitplanes those levels added; everything below the cursor keeps its
  // already-decoded quantized state.
  if (session.plane_sets_.empty())
    session.plane_sets_ = mgard::collect_plane_sets(record->meta.dlevels, {});
  for (u32 j = session.cursor_; j < usable; ++j) {
    report.planes_decoded += mgard::append_plane_sets(
        session.plane_sets_, as_bytes_view(*payloads[j]));
  }

  Timer t;
  session.data_ = refactorer_.reconstruct_incremental(
      record->meta, session.plane_sets_, session.pstates_,
      &report.plane_codec);
  report.reconstruct_seconds = t.seconds();

  session.cursor_ = usable;
  return current_state(usable);
}

void RapidsPipeline::repair_fragment(const std::string& name, u32 level,
                                     u32 index, u32 target_system) {
  std::lock_guard<std::mutex> lock(io_mu_);
  repair_fragment_locked(name, level, index, target_system);
  save_state(db_, kHealthKey, health_);
}

ec::Fragment RapidsPipeline::rebuild_locked(const ObjectRecord& record,
                                            const ec::FragmentId& lost) {
  const ec::ReedSolomon rs = codec_for(record, lost.level);
  std::vector<ec::Fragment> survivors;
  for (const auto& [id, sys] :
       fragment_locations(lost.object_name, lost.level)) {
    if (survivors.size() >= rs.k()) break;
    if (id == lost || !cluster_.system(sys).available()) continue;
    auto out = fetch_with_retry(sys, id);
    if (!out.missing) record_health(sys, out.fragment.has_value());
    if (out.fragment) survivors.push_back(std::move(*out.fragment));
  }
  RAPIDS_REQUIRE_MSG(survivors.size() >= rs.k(),
                     "repair: not enough surviving fragments");
  // Pool-free while io_mu_ is held: a helping waiter could steal a task
  // that needs this very lock.
  return rs.reconstruct_fragment(survivors, lost.index, nullptr);
}

void RapidsPipeline::repair_fragment_locked(const std::string& name, u32 level,
                                            u32 index, u32 target_system) {
  const auto record = lookup(name);
  RAPIDS_REQUIRE_MSG(record.has_value(), "repair: unknown object " + name);
  ec::Fragment rebuilt =
      rebuild_locked(*record, {record->storage_name(name), level, index});
  const std::string key = rebuilt.id.key();  // the put moves `rebuilt` away
  const auto put = put_with_retry(target_system, rebuilt,
                                  stable_hash(key, target_system, 0x9E9Aull));
  if (!put.ok())
    throw io_error("repair: target system rejected rebuilt fragment " + key +
                   ": " + put.last_error);
  db_.put(key, std::to_string(target_system));
}

std::vector<std::string> RapidsPipeline::list_objects() {
  const std::string prefix = object_key("");
  std::lock_guard<std::mutex> lock(io_mu_);
  std::vector<std::string> out;
  for (const auto& [key, value] : db_.scan_prefix(prefix))
    out.push_back(key.substr(prefix.size()));
  return out;
}

RapidsPipeline::ScrubReport RapidsPipeline::scrub(const std::string& name,
                                                  bool repair) {
  std::optional<ObjectRecord> record;
  std::vector<std::pair<ec::FragmentId, u32>> locations;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    record = lookup(name);
    RAPIDS_REQUIRE_MSG(record.has_value(), "scrub: unknown object " + name);
    locations = fragment_locations(record->storage_name(name), std::nullopt);
  }
  ScrubReport report;
  for (const auto& [id, sys] : locations) {
    // Fine-grained locking: one fragment's check+repair per critical
    // section, so concurrent batch traffic interleaves with a long scrub.
    std::lock_guard<std::mutex> lock(io_mu_);
    if (id.level >= record->ft.size() || !cluster_.system(sys).available())
      continue;  // a dropped level, or an outage (not damage)
    ++report.fragments_checked;
    auto out = fetch_with_retry(sys, id);
    if (!out.missing) record_health(sys, out.fragment.has_value());
    if (out.fragment) continue;
    report.damaged.emplace_back(id.level, id.index, sys);
    log::warn("pipeline", "scrub: fragment ", id.key(), " on system ", sys,
              out.missing ? " is missing" : " is damaged or unreadable");
    if (repair) {
      repair_fragment_locked(name, id.level, id.index, sys);
      ++report.repaired;
    }
  }
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    save_state(db_, kHealthKey, health_);
  }
  return report;
}

u64 RapidsPipeline::age_object(const std::string& name, u32 keep_levels) {
  std::lock_guard<std::mutex> lock(io_mu_);
  auto record = lookup(name);
  RAPIDS_REQUIRE_MSG(record.has_value(), "age: unknown object " + name);
  const u32 current = static_cast<u32>(record->ft.size());
  RAPIDS_REQUIRE_MSG(keep_levels >= 1 && keep_levels < current,
                     "age: keep_levels must be in [1, levels)");

  // Drop the deep levels' fragments everywhere and forget their locations.
  const std::string sname = record->storage_name(name);
  u64 reclaimed = 0;
  std::vector<kv::WalRecord> tombstones;
  for (u32 level = keep_levels; level < current; ++level)
    // Logical payload size: level bytes spread over k fragments.
    reclaimed += drop_fragments_locked(sname, level, tombstones) *
                 ceil_div(record->level_sizes[level],
                          cluster_.size() - record->ft[level]);

  // Truncate the record so future restores plan only the kept levels; the
  // tombstones and the record land in one metadata write. The epoch stays:
  // the kept levels' bytes did not change.
  record->ft.resize(keep_levels);
  record->level_sizes.resize(keep_levels);
  record->meta.levels.resize(keep_levels);
  write_record(name, *record, std::move(tombstones));
  // No restore plans the dropped levels any more; free their cached bytes.
  restore_cache_.invalidate_from(name, keep_levels);
  log::info("pipeline", "aged ", name, " to ", keep_levels,
            " levels, reclaimed ", reclaimed, " bytes");
  return reclaimed;
}

u32 RapidsPipeline::evacuate_system(const std::string& name, u32 system) {
  std::lock_guard<std::mutex> lock(io_mu_);
  const auto record = lookup(name);
  RAPIDS_REQUIRE_MSG(record.has_value(), "evacuate: unknown object " + name);
  RAPIDS_REQUIRE(system < cluster_.size());

  const std::string sname = record->storage_name(name);
  u32 moved = 0;
  std::vector<kv::WalRecord> new_locations;
  // One metadata batch for the whole evacuation, written also when a later
  // fragment throws, so every completed move is recorded.
  const auto record_moves = [&] {
    db_.write(new_locations);
    save_state(db_, kHealthKey, health_);
  };
  try {
    for (const auto& [id, holder] : fragment_locations(sname, std::nullopt)) {
      if (holder != system || id.level >= record->ft.size()) continue;
      const std::string key = id.key();
      // Move a copy it can read; rebuild one it cannot (damaged, missing,
      // or the system is down).
      std::optional<ec::Fragment> frag;
      if (cluster_.system(system).available())
        frag = fetch_with_retry(system, id).fragment;
      if (!frag) frag = rebuild_locked(*record, id);
      const auto target = place_elsewhere(system, [&](u32 s) {
        return put_with_retry(s, *frag, stable_hash(key, s, 0xE7A0ull)).ok();
      });
      if (!target)
        throw io_error("evacuate: no system accepted fragment " + key);
      cluster_.system(system).erase(key);
      new_locations.push_back({kv::WalOp::kPut, key, std::to_string(*target)});
      ++moved;
    }
  } catch (...) {
    record_moves();
    throw;
  }
  record_moves();
  return moved;
}

f64 RapidsPipeline::nominal_failure_prob() const {
  return cluster_.config().failure_prob;
}

std::optional<ObjectRecord> RapidsPipeline::snapshot_record(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(io_mu_);
  return lookup(name);
}

std::vector<f64> RapidsPipeline::failure_prob_estimates() {
  std::lock_guard<std::mutex> lock(io_mu_);
  const u32 n = cluster_.size();
  const f64 prior_p = cluster_.config().failure_prob;
  std::vector<f64> out(n, prior_p);
  for (u32 i = 0; i < n; ++i) {
    if (!cluster_.system(i).available()) {
      out[i] = 1.0;  // hard down right now, not a statistical estimate
    } else {
      out[i] = health().estimated_failure_prob(i, prior_p);
    }
  }
  return out;
}

std::vector<storage::CircuitState> RapidsPipeline::breaker_states() {
  std::lock_guard<std::mutex> lock(io_mu_);
  const u32 n = cluster_.size();
  std::vector<storage::CircuitState> out(n);
  for (u32 i = 0; i < n; ++i) out[i] = health().circuit_state(i);
  return out;
}

void RapidsPipeline::set_health_transition_callback(
    storage::SystemHealth::TransitionCallback cb) {
  std::lock_guard<std::mutex> lock(io_mu_);
  health().set_transition_callback(std::move(cb));
}

void RapidsPipeline::with_metadata_lock(
    const std::function<void(kv::Db&)>& fn) {
  std::lock_guard<std::mutex> lock(io_mu_);
  fn(db_);
}

Bytes RapidsPipeline::fetch_level_payload(const std::string& name, u32 level,
                                          u64* wan_bytes) {
  std::optional<ObjectRecord> record;
  GatherProblem problem;
  snapshot_problem(name, record, problem);
  RAPIDS_REQUIRE_MSG(level < record->ft.size(),
                     "fetch_level: level out of range for " + name);
  std::vector<storage::SharedPayload> payloads(record->ft.size());
  if (restore_cache_.get(name, record->epoch, level, payloads[level]) !=
      storage::RestoreCache::Outcome::kHit) {
    // fetch_levels replans around bad systems until the level lands or more
    // than m_j systems are out: then the level is gone for now.
    std::vector<std::optional<f64>> landed_at(record->ft.size());
    RestoreReport report;
    fetch_levels(*record, name, problem, {level}, nullptr, report, payloads,
                 landed_at);
    if (!landed_at[level])
      throw io_error("fetch_level: level " + std::to_string(level) + " of " +
                     name + " is not recoverable under current outages");
    if (wan_bytes != nullptr) *wan_bytes += report.bytes_transferred;
  }
  // The caller gets its own bytes; the shared buffer may stay cached.
  const auto view = as_bytes_view(*payloads[level]);
  return Bytes(view.begin(), view.end());
}

u64 RapidsPipeline::store_level_generation(const std::string& name,
                                           u32 generation, u32 level,
                                           u32 m_new,
                                           std::span<const std::byte> payload) {
  const u32 n = cluster_.size();
  RAPIDS_REQUIRE_MSG(m_new >= 1 && m_new < n,
                     "store_level_generation: parity count out of range");
  const auto record = snapshot_record(name);
  RAPIDS_REQUIRE_MSG(record.has_value(),
                     "store_level_generation: unknown object " + name);
  RAPIDS_REQUIRE_MSG(level < record->ft.size(),
                     "store_level_generation: level out of range");
  RAPIDS_REQUIRE_MSG(generation != record->generation,
                     "store_level_generation: target generation is live");

  // Encode outside the lock: pure compute over the caller's payload.
  const std::string sname = generation_storage_name(name, generation);
  const ec::ReedSolomon rs(n - m_new, m_new, record->matrix_kind);
  const std::span<const u8> data{reinterpret_cast<const u8*>(payload.data()),
                                 payload.size()};
  auto frags = rs.encode(data, sname, level, pool_);

  StoreStats stats;
  {
    std::lock_guard<std::mutex> lock(io_mu_);
    store_level_locked(sname, level, frags, stats);
    save_state(db_, kHealthKey, health_);
  }
  u64 bytes = 0;
  for (const auto& tr : stats.transfers) bytes += tr.bytes;
  return bytes;
}

void RapidsPipeline::flip_generation(const std::string& name,
                                     u32 new_generation,
                                     const FtConfig& new_ft, f64 planned_p,
                                     f64 planned_error) {
  std::lock_guard<std::mutex> lock(io_mu_);
  auto record = lookup(name);
  RAPIDS_REQUIRE_MSG(record.has_value(),
                     "flip_generation: unknown object " + name);
  RAPIDS_REQUIRE_MSG(new_ft.size() == record->ft.size(),
                     "flip_generation: ft level count mismatch");
  RAPIDS_REQUIRE_MSG(valid_ft_config(cluster_.size(), new_ft),
                     "flip_generation: invalid ft config");
  if (record->generation == new_generation && record->ft == new_ft)
    return;  // idempotent replay after a crash between flip and journal
  record->generation = new_generation;
  record->ft = new_ft;
  record->planned_p = planned_p;
  record->planned_error = planned_error;
  // The commit point: one put, one WAL barrier. Before it every restore
  // reads the old generation; after it, the new one. No torn state exists.
  // Cached levels stay: they are keyed by the epoch, which a flip keeps.
  write_record(name, *record);
}

u64 RapidsPipeline::gc_generation(const std::string& name, u32 generation) {
  std::lock_guard<std::mutex> lock(io_mu_);
  const auto record = lookup(name);
  RAPIDS_REQUIRE_MSG(!record || record->generation != generation,
                     "gc_generation: refusing to drop the live generation");
  return gc_generation_locked(name, generation);
}

u64 RapidsPipeline::gc_generation_locked(const std::string& name,
                                         u32 generation) {
  std::vector<kv::WalRecord> tombstones;
  const u64 erased = drop_fragments_locked(
      generation_storage_name(name, generation), std::nullopt, tombstones);
  db_.write(tombstones);
  return erased;
}

}  // namespace rapids::core
