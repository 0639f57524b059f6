#pragma once

/// \file workspace.hpp
/// Reusable scratch memory for the multigrid refactor/reconstruct path. One
/// decompose() or recompose() call needs an active-subgrid buffer plus two
/// load buffers for the L2 correction *per level*; before this arena existed
/// every level of every pipeline call allocated them fresh. A
/// RefactorWorkspace owns those buffers and is handed down through
/// decompose/recompose.
///
/// The Refactorer also stages each call's field through the workspace: the
/// padded f64 grid the transform runs on, one decomposition level's
/// coefficients at a time, and that level's plane words -- sliced by
/// encode_planes on prepare, decoded by decode_planes_incremental on
/// restore. Every buffer whose size follows the field is grow-only (see
/// grow_only): levels and calls of a smaller shape reuse it without
/// shrinking or re-zeroing it, so a workspace retains at most the buffers
/// of the largest shape it has served, a steady stream of calls allocates
/// none of them, and no call pays a value-initializing pass over a regrown
/// tail. Each user writes every element it reads.
///
/// Lifetime: a workspace is single-owner while in use (the transform writes
/// into its buffers), so concurrent refactor calls each need their own. The
/// WorkspacePool hands out leases RAII-style: acquire() pops a free workspace
/// (or creates one when the pool is empty — the pool never blocks), and the
/// lease returns it on destruction. The Refactorer leases one per
/// refactor/reconstruct call from the process-wide pool, so steady-state
/// pipeline traffic reuses a small set of warm workspaces sized by the
/// observed concurrency.

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "rapids/util/common.hpp"

namespace rapids::mgard {

/// All scratch one decompose()/recompose() call needs, plus the Refactorer's
/// staging buffers. Not thread-safe: one workspace, one transform at a time.
/// Every vector but the per-axis Thomas coefficients is sized through
/// grow_only.
struct RefactorWorkspace {
  std::vector<f64> active;  ///< gathered active sub-grid of the current level
  std::vector<f64> load_a;  ///< load-operator ping buffer
  std::vector<f64> load_b;  ///< load-operator pong buffer
  std::vector<f64> cp;      ///< Thomas c' coefficients (per mass_solve call)
  std::vector<f64> denom;   ///< Thomas forward denominators
  std::vector<f64> grid;    ///< padded f64 field of one Refactorer call
  std::vector<f64> coeffs;  ///< one decomposition level's coefficients
  std::vector<u64> planes;  ///< one level's plane words: sign + magnitudes
                            ///< on encode, the newly decoded planes on decode
};

/// The first `n` elements of `buf`, growing it first when it is shorter.
/// Grow-only: a smaller request neither shrinks nor re-zeroes the buffer, so
/// the span holds whatever its last user left there and the caller must
/// write every element before reading it.
template <typename T>
std::span<T> grow_only(std::vector<T>& buf, u64 n) {
  if (buf.size() < n) {
    buf.clear();  // the old contents are dead: do not copy them over
    buf.resize(n);
  }
  return {buf.data(), n};
}

/// Free-list of RefactorWorkspaces. acquire() never blocks: it reuses a free
/// workspace when one exists and creates one otherwise.
class WorkspacePool {
 public:
  /// RAII lease; returns the workspace to the pool on destruction.
  class Lease {
   public:
    Lease(WorkspacePool* pool, std::unique_ptr<RefactorWorkspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      if (pool_ != nullptr && ws_ != nullptr) pool_->release(std::move(ws_));
    }

    RefactorWorkspace* get() const { return ws_.get(); }
    RefactorWorkspace& operator*() const { return *ws_; }
    RefactorWorkspace* operator->() const { return ws_.get(); }

   private:
    WorkspacePool* pool_;
    std::unique_ptr<RefactorWorkspace> ws_;
  };

  Lease acquire();

  /// Number of workspaces ever constructed by this pool (== observed peak
  /// concurrency; steady state allocates none).
  u64 created() const;

  /// Number of workspaces currently parked in the free list.
  u64 idle() const;

  /// The process-wide pool the Refactorer leases from.
  static WorkspacePool& global();

 private:
  friend class Lease;
  void release(std::unique_ptr<RefactorWorkspace> ws);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<RefactorWorkspace>> free_;
  u64 created_ = 0;
};

}  // namespace rapids::mgard
