#pragma once

/// \file trace.hpp
/// In-memory span recorder of the traced benchmark run. The benchmark opens a
/// span around each public call it makes (prepare, restore, refine, and the
/// ObjectService submit / advance_to / drain), derives child spans from the
/// stage fields of the report the call returned, and adds counts at the same
/// boundaries. Nothing is written until the run ends; then the spans go out
/// as Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).

#include <map>
#include <string>
#include <vector>

#include "rapids/util/common.hpp"
#include "rapids/util/timer.hpp"

namespace perfbench {

using rapids::f64;
using rapids::i64;
using rapids::u64;

struct Span {
  std::string name;
  f64 start = 0.0;  ///< seconds since the tracer started
  f64 end = 0.0;
  i64 parent = -1;  ///< index of the parent span, -1 for a root
  u64 request = 0;  ///< spans of one request share this id
  /// Overlapped busy time (e.g. streamed RS encode running beside the
  /// refactor) is recorded but does not count against the parent's self
  /// time, which is what blocks the caller.
  bool blocking = true;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  f64 now() const { return clock_.seconds(); }

  /// Open a span now; returns its index (-1 when disabled).
  i64 begin(const std::string& name, i64 parent = -1, u64 request = 0);
  /// Close span `id` now (no-op for -1).
  void end(i64 id);
  /// Record a finished span with explicit times (derived children).
  i64 add(const std::string& name, f64 start, f64 end, i64 parent,
          u64 request, bool blocking = true);
  /// Derive children of `parent` from consecutive stage durations, laid out
  /// back to back from the parent's start and clipped to its end. Returns
  /// the children's indices (empty when disabled).
  std::vector<i64> add_sequence(i64 parent,
                    const std::vector<std::pair<std::string, f64>>& stages);

  /// Accumulate a count at a call boundary.
  void count(const std::string& name, f64 value);

  const Span& span(i64 id) const { return spans_.at(static_cast<size_t>(id)); }
  f64 duration(i64 id) const { return span(id).end - span(id).start; }

  /// Duration minus the union of the blocking children's intervals.
  f64 self_time(i64 id) const;

  size_t size() const { return spans_.size(); }

  /// Write every span as Chrome trace-event JSON. Returns false on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  bool enabled_;
  rapids::Timer clock_;
  std::vector<Span> spans_;
  std::map<std::string, f64> counts_;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, i64 parent = -1, u64 request = 0)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  i64 id() const { return id_; }

 private:
  Tracer& t_;
  i64 id_;
};

}  // namespace perfbench
