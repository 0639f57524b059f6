#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

i64 Tracer::begin(const std::string& name, i64 parent, u64 request) {
  if (!enabled_) return -1;
  const f64 t = now();
  return add(name, t, t, parent, request);
}

void Tracer::end(i64 id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = now();
}

i64 Tracer::add(const std::string& name, f64 start, f64 end, i64 parent,
                u64 request, bool blocking) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start, end, parent, request, blocking});
  return static_cast<i64>(spans_.size()) - 1;
}

std::vector<i64> Tracer::add_sequence(
    i64 parent, const std::vector<std::pair<std::string, f64>>& stages) {
  std::vector<i64> ids;
  if (parent < 0) return ids;
  const Span p = span(parent);
  f64 at = p.start;
  for (const auto& [name, seconds] : stages) {
    const f64 end = std::min(at + std::max(seconds, 0.0), p.end);
    ids.push_back(add(name, at, end, parent, p.request));
    at = end;
  }
  return ids;
}

void Tracer::count(const std::string& name, f64 value) {
  if (enabled_) counts_[name] += value;
}

f64 Tracer::self_time(i64 id) const {
  const Span& p = span(id);
  std::vector<std::pair<f64, f64>> kids;
  for (const Span& s : spans_) {
    if (s.parent != id || !s.blocking) continue;
    const f64 lo = std::max(s.start, p.start);
    const f64 hi = std::min(s.end, p.end);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  f64 covered = 0.0;
  f64 reach = p.start;
  for (const auto& [lo, hi] : kids) {
    const f64 from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return std::max(0.0, (p.end - p.start) - covered);
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Call spans nest on one track; a request's spans share an async id.
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%llu,\"blocking\":%s}}%s\n",
                 s.name.c_str(), static_cast<unsigned long long>(s.request),
                 s.start * 1e6, (s.end - s.start) * 1e6, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.blocking ? "true" : "false",
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "],\"counts\":{");
  bool first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(), value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
