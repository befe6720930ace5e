#ifndef IRES_PERFBENCH_SPANS_H_
#define IRES_PERFBENCH_SPANS_H_

// In-memory span log of the traced run. The benchmark records a span around
// each call it makes into a public function of a layer, and copies the
// phases the program already exposes for a job (its TraceContext spans) into
// the same log. Spans of one request share its index; each span names the
// span that caused it. Written out once, at exit, as Chrome trace JSON.

#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = 0;
  int parent = -1;   // id of the causing span; -1 for a request's root
  int request = -1;  // request index within the timed window
  std::string name;  // "<module>.<what>", e.g. "sql.prepare"
  std::string layer; // the module: core, sql, planner, ...
  bool wait = false; // time spent waiting for the layer, not in it
  double start = 0.0;  // wall-clock seconds
  double end = 0.0;
};

class SpanLog {
 public:
  /// Records one request's finished spans. Their `id`/`parent` fields are
  /// local (indexes into `spans`, root first) and are rebased here; the
  /// layer is taken from the name.
  void AddRequest(int request, std::vector<Span> spans);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON (one `X` event per span; tid = request).
  std::string ChromeTraceJson(double origin) const;

  /// Per-layer totals over every span: count, busy (time in the layer's
  /// outermost spans), self (busy minus the part its child spans cover)
  /// and wait.
  struct LayerRow {
    int count = 0;
    double busy = 0.0;
    double self = 0.0;
    double wait = 0.0;
  };
  std::map<std::string, LayerRow> LayerTable() const;

  /// Self time of each request's root span: the part of the request's
  /// lifetime that no recorded layer span covers.
  std::vector<double> UnattributedPerRequest() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // IRES_PERFBENCH_SPANS_H_
