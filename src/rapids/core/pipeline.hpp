#pragma once

/// \file pipeline.hpp
/// The end-to-end RAPIDS pipeline — the four software components of the
/// paper's Section 4 wired together:
///
///   prepare():  read -> refactor (pMGARD role) -> optimize FT configuration
///               (Algorithm 1) -> per-level erasure coding -> self-describing
///               fragments -> distribute across the cluster -> metadata into
///               the key-value store.
///   restore():  metadata lookup -> gathering plan (ACO optimizer, Eq. 10)
///               -> WAN transfer (simulated clock, real bytes) -> erasure
///               decode -> progressive reconstruction -> error accounting.
///
/// The cluster and metadata store are injected, so tests can drive outages
/// between prepare and restore and examples can persist across runs.

#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "rapids/core/availability.hpp"
#include "rapids/core/ft_optimizer.hpp"
#include "rapids/core/gather.hpp"
#include "rapids/ec/reed_solomon.hpp"
#include "rapids/kvstore/db.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/net/bandwidth_tracker.hpp"
#include "rapids/storage/cluster.hpp"
#include "rapids/storage/placement.hpp"
#include "rapids/storage/restore_cache.hpp"
#include "rapids/storage/system_health.hpp"
#include "rapids/util/common.hpp"
#include "rapids/util/retry.hpp"

namespace rapids::core {

/// Pipeline configuration. Everything else the pipeline does is fixed:
/// gathering plans come from the ACO optimizer, levels are Vandermonde RS
/// coded and placed by rotation, storage ops retry under one bounded backoff
/// policy, stragglers are always hedged, and every storage op feeds the
/// per-system circuit breakers (default HealthOptions unless a persisted
/// `net/system_health` record carries its own).
struct PipelineConfig {
  mgard::RefactorOptions refactor;  ///< refactoring knobs
  f64 overhead_budget = 0.5;        ///< omega for the FT optimizer
  solver::AcoOptions aco;           ///< budget of the gathering optimizer
  /// Byte budget of the CRC-verified LRU cache of fetched retrieval-level
  /// payloads, shared across restores and refine sessions. Consulted before
  /// gather planning; a hit skips the WAN fetch and erasure decode for that
  /// level. 0 disables caching (every restore refetches, the pre-cache
  /// behavior).
  u64 restore_cache_bytes = 256ull << 20;
};

/// Storage-key name of one encoding generation of an object: generation 0
/// keeps the plain object name (the pre-migration layout, and what prepare
/// always writes), generation g > 0 appends "@g<g>" so both generations'
/// fragments coexist on the systems while a background migration is in
/// flight. prepare() rejects names containing '@', so a generation's storage
/// name can never be another object's name.
std::string generation_storage_name(const std::string& name, u32 generation);

/// Everything persisted about one prepared object (the metadata record).
struct ObjectRecord {
  mgard::RefactoredObject meta;  ///< payloads empty when deserialized
  FtConfig ft;                   ///< chosen m_1..m_l
  std::vector<u64> level_sizes;  ///< encoded retrieval-level bytes s_1..s_l
  ec::MatrixKind matrix_kind = ec::MatrixKind::kVandermonde;
  /// Encoding generation the fragment keys live under (bumped by each
  /// completed background migration; 0 = as prepared).
  u32 generation = 0;
  /// Per-system failure probability the current ft was optimized against
  /// (mean across systems when heterogeneous) — the drift baseline.
  f64 planned_p = 0.0;
  /// Eq. 5 expected error the optimizer promised under planned_p; the
  /// controller re-evaluates against this margin as availability moves.
  f64 planned_error = 0.0;
  /// Payload epoch: the count of earlier prepares of the name, the one
  /// operation that changes a level's bytes (aging and a flip keep it). The
  /// restore cache keys levels by it; a refine session restarts when it moves.
  u64 epoch = 0;

  /// The name fragment keys of the current generation are stored under.
  std::string storage_name(const std::string& name) const {
    return generation_storage_name(name, generation);
  }

  Bytes serialize() const;
  static ObjectRecord deserialize(std::span<const std::byte> data);
};

/// prepare() outcome + instrumentation.
struct PrepareReport {
  ObjectRecord record;
  f64 expected_error = 1.0;      ///< Eq. 5 under the chosen configuration
  f64 storage_overhead = 0.0;    ///< Eq. 6 (parity bytes / original bytes)
  f64 network_overhead = 0.0;    ///< shipped bytes / original bytes
  f64 distribution_latency = 0;  ///< simulated WAN latency (equal share)
  /// End-to-end prepare latency: wall time of the compute stages plus the
  /// simulated WAN distribution. Level j's puts start after the whole
  /// refactor, once level j is encoded, while later levels may still encode,
  /// so this is max_j(store-start wall of level j + level j's simulated
  /// latency), plus the retry backoff.
  f64 prepare_latency = 0.0;
  f64 refactor_seconds = 0.0;       ///< transform + plane encode + assemble
  f64 transform_seconds = 0.0;      ///< widen/pad/multigrid share of refactor
  f64 plane_encode_seconds = 0.0;   ///< bitplane-encode share of refactor
  /// Entropy-codec substage of the plane encode: segment wall time, emitted
  /// bytes, and the raw/sparse/zero/Rice mode histogram.
  mgard::CodecStats plane_codec;
  f64 optimize_seconds = 0.0;
  f64 encode_seconds = 0.0;  ///< RS encode, summed across levels (which
                             ///< overlap, so the sum may exceed wall)
  f64 store_seconds = 0.0;   ///< distribution puts, summed across levels
  u64 fragments_stored = 0;
  u32 put_retries = 0;       ///< transient put failures absorbed by retry
  u32 relocations = 0;       ///< fragments re-placed after persistent failure
  f64 backoff_seconds = 0.0; ///< simulated backoff charged to distribution
};

/// restore() outcome + instrumentation.
struct RestoreReport {
  mgard::FieldBuffer data;      ///< reconstructed field (empty if nothing recoverable)
  u32 levels_used = 0;          ///< retrieval levels that survived the outage
  f64 rel_error_bound = 1.0;    ///< guaranteed bound for levels_used (1 = lost)
  GatherPlan plan;              ///< plan of the last gather round that fetched
                                ///< all its levels (empty when none did)
  f64 gather_latency = 0.0;     ///< simulated WAN latency actually observed
                                ///< over every level fetched (stragglers,
                                ///< hedges, retry backoff folded in; equals
                                ///< the plan latency when healthy)
  /// Simulated time until the first retrieval level the call needed was
  /// decodable: level 1 for a restore, the level past the session's cursor
  /// for a refine rung. 0 when that level came from the restore cache.
  f64 first_level_latency = 0.0;
  f64 planning_seconds = 0.0;   ///< optimizer wall time
  f64 fetch_seconds = 0.0;      ///< wall time in the fragment-fetch stage
  f64 decode_seconds = 0.0;
  f64 reconstruct_seconds = 0.0;
  u32 fetch_retries = 0;        ///< fetch attempts beyond the first
  u32 hedged_fetches = 0;       ///< hedge reads launched against stragglers
  u32 hedge_wins = 0;           ///< hedges that beat or rescued the primary
  u32 replans = 0;              ///< gathering replans forced by bad systems
  f64 backoff_seconds = 0.0;    ///< simulated retry backoff (in gather_latency)
  u64 bytes_transferred = 0;    ///< fragment payload bytes fetched over the
                                ///< (simulated) WAN, hedges included — zero
                                ///< for levels served from the restore cache
  u64 planes_decoded = 0;       ///< magnitude bitplane segments decoded (a
                                ///< refine rung decodes only its new planes)
  /// Entropy-codec substage of the plane decode: segment wall time, consumed
  /// bytes, and the raw/sparse/zero/Rice mode histogram.
  mgard::CodecStats plane_codec;
  u32 cache_hits = 0;           ///< retrieval levels served from the cache
  u32 cache_misses = 0;         ///< levels that had to be fetched
  u32 cache_corrupt = 0;        ///< cached levels evicted on CRC mismatch
  bool plan_reused = false;     ///< gathering plan reused from the session
  /// The session's object was re-prepared (its epoch moved) or aged below
  /// the session's cursor since its last rung, so this rung dropped
  /// everything the session held and restarted from level 0.
  bool session_restarted = false;
  u32 levels_fetched = 0;       ///< levels this call fetched over the WAN
};

/// Per-call resource bounds for one restore/refine. `sim_budget_s` is the
/// caller's remaining *simulated* deadline budget (e.g. the service layer's
/// `deadline - dispatch_time`): the fetch path charges every retry backoff
/// against it and refuses to launch a retry — or a hedged read whose launch
/// point lies beyond it — once the budget is spent, so no I/O outlives the
/// request that issued it. The default (+inf) reproduces the policy-only
/// retry behaviour bit-for-bit. The budget bounds the *extra* simulated
/// delay the resilience machinery may add; first attempts of planned
/// fragments always go out (degradation stays levels-first, never partial).
struct RestoreOptions {
  f64 sim_budget_s = std::numeric_limits<f64>::infinity();
};

/// A progressive-refinement session: everything already materialized for one
/// object — the accumulated plane sets of fetched retrieval levels, the
/// per-decomposition-level ProgressiveState, the last recomposed field, and
/// the cached gathering plan for the levels still to come — so each
/// RapidsPipeline::refine() rung pays only for retrieval levels beyond the
/// previous cursor. Obtain via begin_refine(); safe to share across threads
/// (refine serializes on the session's mutex).
class RefineSession {
 public:
  explicit RefineSession(std::string name) : name_(std::move(name)) {}

  RefineSession(const RefineSession&) = delete;
  RefineSession& operator=(const RefineSession&) = delete;

 private:
  friend class RapidsPipeline;

  /// Forget the cached ladder plan (availability or bandwidths moved).
  void clear_plan() {
    planned_rows_.clear();
    plan_bandwidths_.clear();
    plan_available_.clear();
  }

  /// Drop everything materialized: back to a session with no rung run.
  void restart() {
    cursor_ = 0;
    data_.clear();
    plane_sets_.clear();
    pstates_.clear();
    clear_plan();
  }

  mutable std::mutex mu_;
  const std::string name_;
  /// ObjectRecord::epoch of the record the session's state was built from
  /// (unset before the first rung).
  std::optional<u64> epoch_;
  u32 cursor_ = 0;  ///< retrieval levels materialized into data_
  mgard::FieldBuffer data_;
  std::vector<mgard::PlaneSet> plane_sets_;
  std::vector<mgard::ProgressiveState> pstates_;
  /// Ladder plan computed once for all then-remaining levels: row of serving
  /// systems per retrieval level, plus the bandwidth/availability snapshot it
  /// was computed against (for the staleness check).
  std::map<u32, std::vector<u32>> planned_rows_;
  std::vector<f64> plan_bandwidths_;
  std::vector<bool> plan_available_;
};

/// The orchestrator.
class RapidsPipeline {
 public:
  RapidsPipeline(storage::Cluster& cluster, kv::Db& db,
                 PipelineConfig config = {}, ThreadPool* pool = nullptr);

  const PipelineConfig& config() const { return config_; }

  /// The cluster's nominal per-system outage probability (immutable config,
  /// safe without the I/O lock) — the prior behind failure_prob_estimates()
  /// and the fallback plan baseline for records that predate the control
  /// plane.
  f64 nominal_failure_prob() const;

  /// Full data-preparation phase for one object: refactor, FT optimization,
  /// then every level erasure-coded on the pool at once while this thread
  /// stores levels in ascending order. Safe to call from several threads (or
  /// pool tasks) at once: stores serialize on the I/O lock, and on a healthy
  /// cluster the prepared state is byte-identical to a serial loop's. Throws
  /// invariant_error on a name containing '@', on non-finite input or when no
  /// FT configuration fits the overhead budget, and io_error when no system
  /// accepts a fragment; a failed prepare writes no object record.
  PrepareReport prepare(std::span<const f32> data, mgard::Dims dims,
                        const std::string& name);

  /// Full data-restoration phase under the cluster's *current* availability:
  /// one refine rung to the object's deepest level on a fresh session.
  /// Transient fetch failures and in-flight corruption are retried with
  /// deterministic backoff; stragglers are hedged against sibling fragment
  /// holders; if a planned fragment stays missing or damaged, the affected
  /// system is excluded and the gathering is replanned (bounded) instead of
  /// failing the restore. Degradation is levels-first, never wrong: the
  /// returned rel_error_bound always holds for levels_used, and exhausted
  /// replanning yields the documented degraded report (empty data,
  /// rel_error_bound = 1.0) rather than a throw. `opts` bounds the call's
  /// retries and hedges by a simulated deadline budget (see RestoreOptions).
  RestoreReport restore(const std::string& name,
                        const RestoreOptions& opts = {});

  /// Open a progressive-refinement session for `name`. refine() on the
  /// returned handle fetches only retrieval levels beyond the session's
  /// cursor. Multiple sessions — even for the same object — may be active
  /// concurrently, and all share the pipeline's restore cache.
  std::shared_ptr<RefineSession> begin_refine(const std::string& name);

  /// Advance `session` until its guaranteed bound is <= rel_bound (or to the
  /// object's deepest level when no level bound is that tight): consult the
  /// restore cache, fetch only the uncached levels past the cursor (reusing
  /// the session's gathering plan while availability is unchanged and no
  /// bandwidth estimate has drifted by more than 25%), decode only the new
  /// bitplanes, and recompose. The returned field is byte-identical to a
  /// from-scratch restore of the same level prefix. If outages put the
  /// requested bound out of reach, the rung degrades to the deepest reachable
  /// level — possibly the session's current state — instead of throwing.
  /// `opts` bounds retries and hedges as for restore().
  RestoreReport refine(RefineSession& session, f64 rel_bound,
                       const RestoreOptions& opts = {});

  /// Convenience overload against a pipeline-owned session for `name`,
  /// created on first use and dropped by end_refine().
  RestoreReport refine(const std::string& name, f64 rel_bound,
                       const RestoreOptions& opts = {});

  /// Drop the pipeline-owned refine session for `name` (no-op when absent).
  void end_refine(const std::string& name);

  /// The shared CRC-verified retrieval-level payload cache.
  storage::RestoreCache& restore_cache() { return restore_cache_; }

  /// The pipeline's current per-system bandwidth estimates: the learned
  /// tracker's, loaded from the metadata store on first use. Takes the I/O
  /// lock.
  std::vector<f64> bandwidth_estimates();

  /// Metadata lookup (nullopt if the object was never prepared).
  std::optional<ObjectRecord> lookup(const std::string& name) const;

  /// The per-system health tracker (circuit breakers + success/failure
  /// counters), lazily loaded from the metadata store. Mutating it directly
  /// is for tests/tools; the pipeline records outcomes on its own.
  storage::SystemHealth& system_health();

  /// Rebuild one lost/damaged fragment from survivors and re-store it on
  /// `target_system` (the repair flow of Section 4.2). Throws if fewer than
  /// k survivors are reachable.
  void repair_fragment(const std::string& name, u32 level, u32 index,
                       u32 target_system);

  /// Move every fragment of `name` recorded on `system` elsewhere (retiring a
  /// system): a readable copy moves, any other is rebuilt from survivors, and
  /// each lands by place_elsewhere's order. Completed moves are recorded even
  /// when a later one throws. Returns fragments moved.
  u32 evacuate_system(const std::string& name, u32 system);

  /// Names of every prepared object, in key order. Takes the I/O lock.
  std::vector<std::string> list_objects();

  /// Outcome of a scrub pass over one object.
  struct ScrubReport {
    u64 fragments_checked = 0;
    /// (level, index, system) of fragments found missing or CRC-damaged.
    std::vector<std::tuple<u32, u32, u32>> damaged;
    u64 repaired = 0;  ///< rebuilt in place (when repair = true)
  };

  /// Periodic integrity scrub: verify the CRC of every recorded fragment on
  /// every reachable system; optionally rebuild damaged/missing ones in
  /// place from survivors. Unreachable (down) systems are skipped, not
  /// flagged — outage is the availability model's job, bit rot is scrub's.
  ScrubReport scrub(const std::string& name, bool repair = true);

  /// Graceful data aging: drop retrieval levels `keep_levels+1..l` of `name`
  /// from every storage system, reclaiming their space. The object remains
  /// restorable at the (coarser) guaranteed error of level `keep_levels` —
  /// the accuracy-for-capacity trade the hierarchy makes possible for cold
  /// timesteps. Irreversible. Returns the logical bytes reclaimed
  /// (fragments including parity). Requires 1 <= keep_levels < current.
  u64 age_object(const std::string& name, u32 keep_levels);

  // --- control-plane surface (background controller, CLI status) ---
  //
  // Everything below takes the pipeline's I/O lock internally, so a
  // background controller thread can drive it while foreground prepares /
  // restores are in flight.

  /// Metadata lookup under the I/O lock (lookup() itself is unsynchronized
  /// and meant for single-threaded callers).
  std::optional<ObjectRecord> snapshot_record(const std::string& name);

  /// Per-system failure-probability estimates for re-evaluation: the health
  /// tracker's Beta-smoothed counter estimate (prior = the cluster's nominal
  /// p), floored at 0.5 while a breaker is open, and 1.0 for systems the
  /// cluster currently marks unavailable.
  std::vector<f64> failure_prob_estimates();

  /// Per-system breaker states (non-mutating peek under the I/O lock).
  std::vector<storage::CircuitState> breaker_states();

  /// Register (or with an empty function, detach) the health tracker's
  /// breaker-transition callback. It fires while the pipeline holds its I/O
  /// lock, so the callback must only hand the event off (enqueue under its
  /// own leaf lock) — it must not call back into the pipeline.
  void set_health_transition_callback(
      storage::SystemHealth::TransitionCallback cb);

  /// Run `fn` with exclusive access to the metadata store. The control
  /// plane's migration journal shares the KV database with the pipeline,
  /// whose own accesses all serialize on the same internal lock; routing
  /// journal reads/writes through here keeps that invariant. `fn` must not
  /// call back into the pipeline.
  void with_metadata_lock(const std::function<void(kv::Db&)>& fn);

  // --- crash-safe two-phase migration primitives (control::MigrationEngine
  //     sequences these; each call is individually atomic/idempotent) ---

  /// Fetch and erasure-decode one retrieval level of `name`'s *current*
  /// generation (restore cache consulted first). Adds the fragment bytes
  /// actually fetched over the simulated WAN to *wan_bytes when non-null.
  /// Throws io_error when the level is not recoverable right now.
  Bytes fetch_level_payload(const std::string& name, u32 level,
                            u64* wan_bytes = nullptr);

  /// Phase 1 of a migration step: re-encode one level payload with parity
  /// count `m_new` and store its fragments under generation `generation`'s
  /// keys (whole-fragment puts, with the usual retry / relocate / health
  /// machinery). The object's live record is untouched — restores keep
  /// serving the old generation. Re-running the same call overwrites the
  /// same keys, so phase-1 resume after a crash is a plain replay. Returns
  /// fragment bytes shipped.
  u64 store_level_generation(const std::string& name, u32 generation,
                             u32 level, u32 m_new,
                             std::span<const std::byte> payload);

  /// Phase 2, the commit point: durably flip `name` to `new_generation` /
  /// `new_ft` with one atomic ObjectRecord write (single KV put → single
  /// WAL barrier), stamping the re-optimizer's planned_p / planned_error.
  /// The epoch stays, so cached levels keep serving. Idempotent.
  void flip_generation(const std::string& name, u32 new_generation,
                       const FtConfig& new_ft, f64 planned_p,
                       f64 planned_error);

  /// Phase 3 / rollback: drop every fragment of `name`'s generation
  /// `generation` by the drop sweep (locations tombstoned in one batch, and
  /// orphans a phase-1 crash left found on every system). Idempotent.
  /// Returns fragments erased.
  u64 gc_generation(const std::string& name, u32 generation);

 private:
  // prepare() and the restore engine may run on several threads at once
  // (service lanes fork them on the pool). Their compute stages run lock-free;
  // every touch of shared state (cluster stores/fetches, metadata
  // reads/writes, the bandwidth tracker) happens under io_mu_. Invariant:
  // code holding io_mu_ never calls into the pool (a helping waiter could
  // steal a task that needs the same lock).

  /// The one restore engine behind restore() and refine():
  /// consult the cache -> find the recoverable prefix -> plan the ladder (or
  /// reuse the session's plan) -> fetch_levels -> merge the new levels into
  /// the session's plane sets -> exactly one recompose. Advances `session`
  /// toward the fewest levels whose bound is <= rel_bound (the deepest level
  /// when none is). Fills every report field except data, which the caller
  /// copies or moves out of the session. The caller holds session.mu_, or
  /// owns a session no other thread can see.
  RestoreReport advance(RefineSession& session, f64 rel_bound,
                        const RestoreOptions& opts);
  /// Outcome counters of one level's fragment distribution.
  struct StoreStats {
    u64 fragments_stored = 0;
    u32 put_retries = 0;
    u32 relocations = 0;
    f64 backoff_seconds = 0.0;
    std::vector<net::Transfer> transfers;  ///< (target system, bytes) per put
  };
  /// Distribute one level's fragments (placement, retry, relocation, health,
  /// per-level location batch). Caller holds io_mu_. Each fragment goes to
  /// its placed system through put_with_retry, and on failure by
  /// place_elsewhere. The stored fragments are moved into the systems, so
  /// `frags` is consumed.
  void store_level_locked(const std::string& name, u32 level,
                          std::vector<ec::Fragment>& frags, StoreStats& stats);
  ec::ReedSolomon codec_for(const ObjectRecord& record, u32 level) const;
  /// Write `name`'s record with one Db::write, after the records in `batch`
  /// (the one way an ObjectRecord reaches the metadata store). Caller holds
  /// io_mu_.
  void write_record(const std::string& name, const ObjectRecord& record,
                    std::vector<kv::WalRecord> batch = {});
  /// Per-system bandwidth learned from observed transfer throughput (paper
  /// Section 4.3), so gathering plans adapt to network variation across
  /// restores, and the per-system breakers. Each is loaded from the metadata
  /// store on first use (a stored record that does not parse, or that covers
  /// another number of systems, reads as the default) and persisted after
  /// the ops that move it. Caller holds io_mu_.
  net::BandwidthTracker& tracker();
  storage::SystemHealth& health();
  /// Record one storage-op outcome in the health tracker. Must be called
  /// under io_mu_.
  void record_health(u32 system, bool ok);
  /// Put one fragment with bounded retry (every io_error is transient; the
  /// jitter stream comes from `seed`), then record the outcome in the health
  /// tracker once. The attempt that stores `fragment` moves it into the
  /// system; a failed attempt leaves it intact, so after a failed call the
  /// caller still holds the same bytes to relocate. Must be called under
  /// io_mu_.
  RetryResult<bool> put_with_retry(u32 system, ec::Fragment& fragment,
                                   u64 seed);
  /// Fetch one fragment with bounded retry, classifying failures: io_error
  /// is transient (retried with backoff), a missing fragment is permanent
  /// (no retry), a CRC mismatch may be in-flight corruption (retried — a
  /// re-read may come back clean) until a re-read returns the same damaged
  /// bytes: that copy is damaged at rest, so the read stops and reports it
  /// damaged, not missing. Must be called under io_mu_.
  struct FetchOutcome {
    std::optional<ec::Fragment> fragment;  ///< set iff a verified copy landed
    u32 attempts = 1;
    f64 backoff_seconds = 0.0;
    bool missing = false;  ///< permanent: no fragment recorded/stored
  };
  /// `budget_s` is the remaining simulated deadline budget: retries stop as
  /// soon as the next backoff would overrun it (default: unbounded).
  FetchOutcome fetch_with_retry(
      u32 system, const ec::FragmentId& id,
      f64 budget_s = std::numeric_limits<f64>::infinity());
  /// The one placement rule for a fragment displaced from `excluded`: the
  /// available other systems, breaker-allowed first, then fewest fragments,
  /// then lowest id, until `try_put` stores it there. Caller holds io_mu_.
  std::optional<u32> place_elsewhere(
      u32 excluded, const std::function<bool(u32)>& try_put);
  /// Rebuild fragment `lost` of `record`'s object from the first k other
  /// recorded fragments of its level that verify. Caller holds io_mu_ (runs
  /// pool-free: a helping waiter inside the lock could steal a task).
  ec::Fragment rebuild_locked(const ObjectRecord& record,
                              const ec::FragmentId& lost);
  /// repair_fragment body; caller must hold io_mu_.
  void repair_fragment_locked(const std::string& name, u32 level, u32 index,
                              u32 target_system);
  /// gc_generation body; caller must hold io_mu_.
  u64 gc_generation_locked(const std::string& name, u32 generation);
  /// The one location reader: every recorded fragment of `sname` (of `level`
  /// only, when given) and its system, in (level, index) order; one system
  /// may hold several fragments of a level. Caller holds io_mu_.
  std::vector<std::pair<ec::FragmentId, u32>> fragment_locations(
      const std::string& sname, std::optional<u32> level) const;
  /// The one drop sweep (aging, per level; GC, per generation): tombstone
  /// every recorded location into `tombstones` and erase every copy on any
  /// system, recorded or not. Returns fragments erased.
  u64 drop_fragments_locked(const std::string& sname, std::optional<u32> level,
                            std::vector<kv::WalRecord>& tombstones);
  /// Metadata lookup + gathering-problem snapshot (availability, bandwidth
  /// estimates, health exclusions) under io_mu_. Throws on unknown objects.
  void snapshot_problem(const std::string& name,
                        std::optional<ObjectRecord>& record,
                        GatherProblem& problem);
  /// The restore engine's one replan loop: plan, fetch, and erasure-decode
  /// the given retrieval levels (0-based, ascending) into payloads[level].
  /// Each round plans the levels still to fetch, then fetches and decodes
  /// them one at a time in ascending order; each landed level is one shared
  /// buffer, handed to both the restore cache and payloads[level], and sets
  /// landed_at[level] (unset on entry) to the simulated time it became
  /// decodable (equal-share completion of its slowest fragment,
  /// stragglers/hedges/backoff folded in). A planned
  /// fragment that stays missing or damaged marks its system down in
  /// `problem` (counted in report.replans) and the next round replans the
  /// rest, dropping the levels that no longer tolerate the outages. Since
  /// m_j falls with j, the levels that land are a prefix of `levels`.
  /// `preplanned`, when non-null, carries one row of serving systems per
  /// requested level for the first round. report.gather_latency covers
  /// every landed level; report.plan is the last completed round's plan.
  void fetch_levels(const ObjectRecord& record, const std::string& name,
                    GatherProblem& problem, const std::vector<u32>& levels,
                    const solver::Selection* preplanned, RestoreReport& report,
                    std::vector<storage::SharedPayload>& payloads,
                    std::vector<std::optional<f64>>& landed_at,
                    const RestoreOptions& opts = {});

  storage::Cluster& cluster_;
  kv::Db& db_;
  PipelineConfig config_;
  ThreadPool* pool_;
  /// Shared across prepare/restore/refine calls (it is stateless apart from
  /// options and pool) instead of being rebuilt per call; the heavy per-call
  /// scratch lives in the WorkspacePool the refactorer leases from.
  mgard::Refactorer refactorer_;
  std::optional<net::BandwidthTracker> tracker_;
  std::optional<storage::SystemHealth> health_;
  /// Serializes shared-state stages when prepares and restores run
  /// concurrently. Maintenance APIs (repair, scrub, evacuate, age) take it
  /// too, so chaos runs may scrub while prepares are in flight.
  std::mutex io_mu_;
  /// Retrieval-level payload cache (self-locking; a leaf in the lock order:
  /// never held while taking io_mu_ or a session mutex).
  storage::RestoreCache restore_cache_;
  /// Pipeline-owned sessions for the refine(name, bound) convenience API.
  /// Lock order: session.mu_ -> io_mu_; sessions_mu_ only guards the map.
  std::mutex sessions_mu_;
  std::map<std::string, std::shared_ptr<RefineSession>> sessions_;
};

}  // namespace rapids::core
