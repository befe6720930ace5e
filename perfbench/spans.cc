#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

void SpanLog::AddRequest(int request, std::vector<Span> spans) {
  std::lock_guard<std::mutex> lock(mu_);
  const int base = static_cast<int>(spans_.size());
  for (Span& span : spans) {
    span.id += base;
    if (span.parent >= 0) span.parent += base;
    span.request = request;
    span.layer = span.name.substr(0, span.name.find('.'));
    span.end = std::max(span.start, span.end);
    spans_.push_back(std::move(span));
  }
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanLog::ChromeTraceJson(double origin) const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,"
                  "\"parent\":%d}}",
                  first ? "" : ",\n", s.name.c_str(), s.layer.c_str(),
                  s.request, (s.start - origin) * 1e6,
                  (s.end - s.start) * 1e6, s.id, s.parent);
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

namespace {

/// Length of the part of [start, end] covered by the union of `children`.
double Covered(double start, double end,
               std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double cursor = start;
  for (const auto& [s, e] : children) {
    const double lo = std::max(s, cursor);
    const double hi = std::min(e, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

/// Self time of every span, indexed by id.
std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start, s.end});
  }
  std::vector<double> self(spans.size(), 0.0);
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double covered =
        it == children.end() ? 0.0 : Covered(s.start, s.end, it->second);
    self[s.id] = (s.end - s.start) - covered;
  }
  return self;
}

}  // namespace

std::map<std::string, SpanLog::LayerRow> SpanLog::LayerTable() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfTimes(all);
  std::map<std::string, LayerRow> table;
  for (const Span& s : all) {
    if (s.parent < 0) continue;  // request roots are not a layer
    LayerRow& row = table[s.layer];
    ++row.count;
    if (s.wait) {
      row.wait += s.end - s.start;
      continue;
    }
    row.self += self[s.id];
    if (all[s.parent].layer != s.layer) row.busy += s.end - s.start;
  }
  return table;
}

std::vector<double> SpanLog::UnattributedPerRequest() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = SelfTimes(all);
  std::vector<double> out;
  for (const Span& s : all) {
    if (s.parent < 0) out.push_back(self[s.id]);
  }
  return out;
}

}  // namespace perfbench
