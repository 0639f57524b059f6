#pragma once

/// \file workspace.hpp
/// Reusable scratch memory for the multigrid refactor/reconstruct path. One
/// decompose() or recompose() call needs an active-subgrid buffer plus two or
/// three correction buffers *per level*; before this arena existed every level
/// of every pipeline call allocated them fresh. A RefactorWorkspace owns those
/// buffers and is handed down through decompose/recompose so the vectors are
/// resized (capacity retained) instead of reallocated across levels and calls.
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
#include <vector>

#include "rapids/util/common.hpp"

namespace rapids::mgard {

/// All scratch one decompose()/recompose() call needs. Not thread-safe:
/// one workspace, one transform at a time.
struct RefactorWorkspace {
  std::vector<f64> active;  ///< gathered active sub-grid of the current level
  std::vector<f64> resid;   ///< residual field (zeroed coarse nodes)
  std::vector<f64> load_a;  ///< load-operator ping buffer
  std::vector<f64> load_b;  ///< load-operator pong buffer
  std::vector<f64> cp;      ///< Thomas c' coefficients (per mass_solve call)
  std::vector<f64> denom;   ///< Thomas forward denominators
};

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
