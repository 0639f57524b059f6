#pragma once

/// \file bench_common.hpp
/// Shared scaffolding for the table/figure reproduction binaries: fixed-width
/// table printing, human-readable units, the standard evaluation setup
/// (n = 16 systems, p = 0.01, the paper's e_j targets), and cached
/// per-object refactoring results so benches that need real level sizes
/// don't redo the work, and the host fingerprint every JSON record carries.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "rapids/rapids.hpp"

namespace rapids::bench {

/// The paper's evaluation constants (Section 5.1).
struct EvalSetup {
  u32 n = 16;                 ///< storage systems (1 local + 15 remote rows in Fig. 3)
  f64 p = 0.01;               ///< OLCF 2020 availability assessment
  u64 bandwidth_seed = 2023;  ///< Globus-log sampler seed
  /// Fig. 2's per-level relative L-infinity errors e_1..e_4.
  std::vector<f64> targets = {4e-3, 5e-4, 6e-5, 1e-7};
  u32 object_scale = 1;       ///< catalog extent multiplier
};

/// One refactored catalog object with its paper-scale level sizes.
struct RefactoredCatalogEntry {
  data::DataObject object;
  std::vector<f32> field;
  mgard::RefactoredObject refactored;
  /// Level sizes scaled so their total relates to the paper-scale object the
  /// same way the bench-scale levels relate to the bench-scale object.
  std::vector<u64> paper_level_sizes;
  std::vector<u64> bench_level_sizes;
  std::vector<f64> level_errors;  ///< guaranteed e_1..e_4 of this refactoring
};

/// Refactor every catalog object once (parallel pool) and derive scaled
/// level sizes. Deterministic.
inline std::vector<RefactoredCatalogEntry> refactor_catalog(const EvalSetup& setup,
                                                            ThreadPool* pool) {
  std::vector<RefactoredCatalogEntry> out;
  for (const auto& obj : data::paper_objects(setup.object_scale)) {
    RefactoredCatalogEntry e;
    e.object = obj;
    e.field = obj.generate(pool);
    mgard::RefactorOptions opt;
    opt.decomp_levels = 4;
    opt.num_retrieval_levels = static_cast<u32>(setup.targets.size());
    opt.target_rel_errors = setup.targets;
    const mgard::Refactorer rf(opt, pool);
    e.refactored = rf.refactor(e.field, obj.dims, obj.label());
    const f64 scale = static_cast<f64>(obj.full_size_bytes) /
                      static_cast<f64>(e.refactored.original_bytes());
    for (u32 j = 0; j < e.refactored.levels.size(); ++j) {
      e.bench_level_sizes.push_back(e.refactored.level_bytes(j));
      e.paper_level_sizes.push_back(static_cast<u64>(
          static_cast<f64>(e.refactored.level_bytes(j)) * scale));
      e.level_errors.push_back(e.refactored.rel_error_bound(j + 1));
    }
    out.push_back(std::move(e));
  }
  return out;
}

/// Simple fixed-width text table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
        width[c] = std::max(width[c], row[c].size());
    auto print_row = [&](const std::vector<std::string>& row) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      for (std::size_t i = 0; i < width[c] + 2; ++i) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(const char* format, f64 v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

inline std::string fmt_seconds(f64 s) { return fmt("%.1f", s); }
inline std::string fmt_sci(f64 v) { return fmt("%.2e", v); }

inline std::string fmt_bytes(f64 bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (bytes >= 1000.0 && u < 5) {
    bytes /= 1000.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", bytes, units[u]);
  return buf;
}

inline std::string fmt_config(const core::FtConfig& m) {
  std::string out = "[";
  for (std::size_t j = 0; j < m.size(); ++j) {
    if (j) out += ",";
    out += std::to_string(m[j]);
  }
  return out + "]";
}

inline void banner(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n%s\n\n", title.c_str(), subtitle.c_str());
}

/// Host fingerprint for a JSON context: the CPU model. Rows recorded on
/// different hosts are not comparable in absolute terms.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string model;
    for (char c : line.substr(colon + 1)) {
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
        continue;  // keep the value a plain JSON string
      if (c == ' ' && model.empty()) continue;
      model += c;
    }
    return model;
  }
  return "unknown";
}

/// Host fingerprint for a JSON context: the CPUs this process may run on.
inline unsigned nproc() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&set));
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Merge all transfers to the same destination into one (a Globus transfer
/// task batches the files for a destination into one session, so
/// distribution sees no self-contention; gathering, by contrast, issues
/// per-fragment requests and is modeled with equal-share contention as in
/// the paper's Eq. 10).
inline std::vector<net::Transfer> batch_per_system(
    std::span<const net::Transfer> transfers) {
  std::map<u32, u64> per_system;
  for (const auto& t : transfers) per_system[t.system] += t.bytes;
  std::vector<net::Transfer> out;
  out.reserve(per_system.size());
  for (const auto& [sys, bytes] : per_system) out.push_back({sys, bytes});
  return out;
}

}  // namespace rapids::bench
