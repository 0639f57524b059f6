#pragma once

/// \file request.hpp
/// Request/response vocabulary of the multi-tenant object service. A request
/// is a first-class schedulable unit (bscheduler's kernel idea): it carries
/// its tenant, priority band, absolute simulated deadline, and verb; the
/// service answers either with a typed `Overloaded` rejection at admission
/// time (never queue forever) or, later, with a `Response` that reports
/// exactly what was served — including any deliberate accuracy degradation
/// (brownout) and whether the deadline was met. Nothing here is silent:
/// every coarsened bound is visible in the response.

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "rapids/mgard/grid.hpp"
#include "rapids/mgard/refactorer.hpp"
#include "rapids/util/common.hpp"

namespace rapids::service {

/// What the caller wants done.
enum class Verb : u8 {
  kRestore,  ///< full-precision restore (rel_bound == 0) or bounded restore
  kRefine,   ///< progressive refinement to rel_bound via the session ladder
  kPrepare,  ///< archive a new field through the prepare pipeline
};

/// Priority bands, strongest first. Scheduling is strict across bands;
/// weighted-fair across tenants inside a band; EDF within a tenant.
enum class Priority : u8 { kHigh = 0, kNormal = 1, kBatch = 2 };
inline constexpr u32 kPriorityBands = 3;

/// One service request. `deadline_s` is an absolute simulated time; +inf
/// means "no deadline". For kPrepare the caller keeps `data` alive until the
/// response arrives.
struct Request {
  u32 tenant = 0;
  Verb verb = Verb::kRestore;
  Priority priority = Priority::kNormal;
  std::string object;
  f64 rel_bound = 0.0;  ///< requested error bound; 0 = full precision
  f64 deadline_s = std::numeric_limits<f64>::infinity();
  std::span<const f32> data;  ///< kPrepare payload
  mgard::Dims dims;           ///< kPrepare field shape
};

/// Why admission refused a request.
enum class OverloadReason : u8 {
  kTenantQueueFull,  ///< this tenant's queue depth bound was hit
  kGlobalQueueFull,  ///< the service-wide depth bound was hit
};

/// Service load states — the brownout state machine. Saturated is the
/// backpressure warning (callers should slow down; the controller pauses
/// background migration traffic); brownout additionally coarsens served
/// error bounds to shed WAN bytes.
enum class LoadState : u8 { kNormal = 0, kSaturated = 1, kBrownout = 2 };

inline const char* to_string(LoadState s) {
  switch (s) {
    case LoadState::kNormal: return "normal";
    case LoadState::kSaturated: return "saturated";
    case LoadState::kBrownout: return "brownout";
  }
  return "?";
}

/// Typed fast-reject result: enough for the caller to make a real decision
/// (back off for `retry_after_s`, spill to another region, or drop).
struct Overloaded {
  OverloadReason reason = OverloadReason::kGlobalQueueFull;
  f64 retry_after_s = 0.0;  ///< simulated seconds until capacity likely frees
  u32 tenant_depth = 0;
  u32 tenant_limit = 0;
  u32 global_depth = 0;
  u32 global_limit = 0;
  LoadState load_state = LoadState::kNormal;
};

/// Outcome of submit(): admitted (ticket id) xor rejected (Overloaded).
struct SubmitResult {
  u64 id = 0;             ///< valid iff admitted()
  f64 est_cost_s = 0.0;   ///< admission's service-time estimate
  bool accepted = false;
  Overloaded overloaded;  ///< valid iff !accepted
  bool admitted() const { return accepted; }
};

/// Terminal outcome of an admitted request.
enum class Outcome : u8 {
  kOk,        ///< served at the requested bound
  kBrownout,  ///< served, but deliberately coarser — see achieved_bound
  kShed,      ///< dropped before execution (deadline expired / hopeless)
  kFailed,    ///< pipeline error after admission
};

inline const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kOk: return "ok";
    case Outcome::kBrownout: return "brownout";
    case Outcome::kShed: return "shed";
    case Outcome::kFailed: return "failed";
  }
  return "?";
}

/// Completion record for one admitted request. All times are simulated
/// seconds on the service clock. `completed_s` is the scheduling timeline's
/// (deterministic) completion; `sim_latency_s` is the pipeline's actual
/// simulated duration for the operation, which is what deadline_met judges.
struct Response {
  u64 id = 0;
  u32 tenant = 0;
  Verb verb = Verb::kRestore;
  std::string object;
  Outcome outcome = Outcome::kOk;

  f64 submitted_s = 0.0;
  f64 dispatched_s = 0.0;   ///< 0-meaningful only when executed
  f64 completed_s = 0.0;    ///< virtual completion (submit time for sheds)
  f64 est_cost_s = 0.0;     ///< the estimate scheduling charged
  f64 sim_latency_s = 0.0;  ///< actual simulated op latency (gather/prepare)
  bool deadline_met = true; ///< dispatched_s + sim_latency_s <= deadline

  f64 requested_bound = 0.0;  ///< what the caller asked for (0 = full)
  f64 effective_bound = 0.0;  ///< what the service aimed for after brownout
  f64 achieved_bound = 0.0;   ///< what the pipeline actually guarantees
  bool brownout = false;      ///< bound was coarsened by the load shedder
  bool degraded = false;      ///< achieved is coarser than requested (any cause)
  u32 levels_used = 0;
  u64 wan_bytes = 0;

  std::string error;          ///< diagnostic for kShed / kFailed
  mgard::FieldBuffer result;  ///< restored field (empty if keep_data off)
};

}  // namespace rapids::service
