// Open-loop serving benchmark over the work-stealing substrate: a Poisson
// arrival process drives a ~70% DAG / 30% SQL request mix through the REST
// front door at a swept offered rate, recording p50/p99/p999 latency from
// *scheduled* arrival (open-loop: client backlog counts, so saturation shows
// up as unbounded tails instead of silently shedding load), the achieved
// throughput, the measured saturation point, and the scheduler's steal rate
// per window.
//
// Two modes are swept A/B:
//   shared      one server whose TaskScheduler (N workers) runs both job
//               execution and model refits
//   partitioned the pre-substrate architecture: jobs and refits on private
//               schedulers splitting the same N workers 70/30, so neither
//               can soak up the other's idle capacity
//
// By default the offered rates are fractions of a capacity estimate
// measured at startup, which moves from run to run. `--rates a,b,...`
// fixes them instead (requests/s, calibration skipped), so two builds can
// be compared at the same offered load.
//
// Dumps BENCH_serving.json; CI runs `serving_bench --smoke`, archives the
// file, and fails when warm_requests_per_sec regresses >20% against the
// committed baseline (bench/BENCH_serving.baseline.json).

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/rest_api.h"
#include "service/control_plane.h"
#include "service/sql_service.h"
#include "sql/tpch_queries.h"
#include "threading/task_scheduler.h"

namespace {

using namespace ires;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr const char* kGraph =
    "asapServerLog,LineCount,0\n"
    "LineCount,d1,0\n"
    "d1,$$target\n";

bool RegisterLineCount(RestApi* api) {
  if (api->Handle("POST", "/apiv1/datasets/asapServerLog",
                  "Constraints.Engine.FS=HDFS\n"
                  "Execution.path=hdfs:///log\n"
                  "Optimization.size=5e8\n"
                  "Optimization.documents=1000\n")
          .code != 201) {
    return false;
  }
  if (api->Handle("POST", "/apiv1/abstractOperators/LineCount",
                  "Constraints.OpSpecification.Algorithm.name=LineCount\n")
          .code != 201) {
    return false;
  }
  if (api->Handle("POST", "/apiv1/operators/LineCount_Spark",
                  "Constraints.Engine=Spark\n"
                  "Constraints.OpSpecification.Algorithm.name=LineCount\n"
                  "Constraints.Input0.Engine.FS=HDFS\n"
                  "Constraints.Output0.Engine.FS=HDFS\n")
          .code != 201) {
    return false;
  }
  return api->Handle("POST", "/apiv1/workflows/lc", kGraph).code == 201;
}

/// Rewrites the first `> <number>` literal so every warm SQL request is a
/// different query text with the same shape (shape-cache hit, fresh job).
std::string VaryLiteral(const std::string& query, int salt) {
  const size_t gt = query.find("> ");
  if (gt == std::string::npos) return query;
  size_t end = gt + 2;
  while (end < query.size() && std::isdigit(query[end]) != 0) ++end;
  if (end == gt + 2) return query;
  return query.substr(0, gt + 2) + std::to_string(1000 + salt) +
         query.substr(end);
}

/// One serving deployment under test. Both modes run a single server (same
/// library, plan cache, refinement state and locks) and differ only in the
/// execution substrate:
///
///   shared      the server's TaskScheduler has all N workers and runs both
///               jobs and model refits
///   partitioned the pre-substrate architecture: the job service runs on a
///               private dag_workers-thread scheduler while model refits
///               keep the server scheduler's remaining workers, so neither
///               side can soak up the other's idle capacity
///
/// SQL optimization (DPccp) runs on the requesting client thread in both.
struct ServingStack {
  std::unique_ptr<IresServer> server;
  std::unique_ptr<TaskScheduler> job_sched;  // null in shared mode
  std::unique_ptr<ControlPlane> plane;
  std::unique_ptr<RestApi> api;

  static ServingStack Make(bool shared, int workers, int dag_workers,
                           int sql_workers) {
    ServingStack s;
    IresServer::Config config;
    config.scheduler_workers = shared ? workers : sql_workers;
    // NSGA-II provisioning on, as in serving. Its GA runs serially on the
    // planning thread and each front is memoized, so a DAG job's planning
    // spawns no scheduler tasks; model refits still run on the scheduler.
    config.provision_resources = true;
    s.server = std::make_unique<IresServer>(config);
    ControlPlane::Options plane_options;
    JobService::Options& jobs_options = plane_options.replica_options;
    jobs_options.workers = shared ? workers : dag_workers;
    jobs_options.queue_capacity = 512;
    if (!shared) {
      s.job_sched = std::make_unique<TaskScheduler>(dag_workers);
      jobs_options.scheduler = s.job_sched.get();
    }
    s.plane = std::make_unique<ControlPlane>(s.server.get(), plane_options);
    s.api = std::make_unique<RestApi>(s.server.get(), s.plane.get());
    return s;
  }

  bool Setup() { return RegisterLineCount(api.get()); }

  TaskScheduler::Stats SchedulerStats() const {
    TaskScheduler::Stats total = server->scheduler().stats();
    if (job_sched != nullptr) {
      const TaskScheduler::Stats job = job_sched->stats();
      total.submitted += job.submitted;
      total.executed += job.executed;
      total.rejected += job.rejected;
      total.steals += job.steals;
      total.parks += job.parks;
    }
    return total;
  }
};

/// Issues one DAG request through the async REST route and waits for the
/// job to reach a terminal state. Returns success.
bool RunDagRequest(ServingStack* stack) {
  ApiResponse submit = stack->api->Handle(
      "POST", "/apiv1/workflows/lc/execute?mode=async");
  if (submit.code != 202) return false;
  const size_t start = submit.body.find("job-");
  if (start == std::string::npos) return false;
  const std::string job_id =
      submit.body.substr(start, submit.body.find('"', start) - start);
  // Poll the single replica directly: a 2 kHz poll per client through the
  // plane's routing lock would contend with admission and perturb what the
  // bench measures.
  JobService* replica = stack->plane->replica(0);
  for (int spin = 0; spin < 400000; ++spin) {
    auto record = replica->Get(job_id);
    if (!record.ok()) return false;
    if (IsTerminal(record.value().state)) {
      return record.value().state == JobState::kSucceeded;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

bool RunSqlRequest(ServingStack* stack, const std::string& query, int salt) {
  return stack->api->Handle("POST", "/apiv1/sql", VaryLiteral(query, salt))
             .code == 200;
}

struct Arrival {
  double at = 0.0;  // seconds from window start
  bool is_sql = false;
  int salt = 0;
};

/// Pre-computed open-loop schedule: exponential interarrivals at `rate`,
/// ~30% SQL, fixed seed so every mode replays the identical arrival process.
std::vector<Arrival> PoissonSchedule(double rate, int count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> mix(0.0, 1.0);
  std::vector<Arrival> schedule(static_cast<size_t>(count));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += gap(rng);
    schedule[i].at = t;
    schedule[i].is_sql = mix(rng) < 0.3;
    schedule[i].salt = i;
  }
  return schedule;
}

struct RateResult {
  double offered_rps = 0.0;
  double achieved_rps = 0.0;
  int requests = 0;
  int errors = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double dag_p99_ms = 0.0;
  double sql_p99_ms = 0.0;
  double steal_rate = 0.0;  // steals per executed scheduler task
  uint64_t steals = 0;
  uint64_t parks = 0;
  bool saturated = false;
};

double Percentile(std::vector<double>* sorted, double q) {
  if (sorted->empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(index, sorted->size() - 1)];
}

/// Runs one open-loop window against a fresh stack. The dispatcher fires
/// requests at their scheduled instants into a client pool; latency is
/// measured from the *scheduled* arrival, so dispatcher/client backlog — the
/// signature of saturation — lands in the tail instead of throttling the
/// offered load (closed-loop coordination omission).
RateResult RunWindow(ServingStack* stack, const std::string& query,
                     double rate, int count, int clients) {
  RateResult r;
  r.offered_rps = rate;
  r.requests = count;

  const std::vector<Arrival> schedule = PoissonSchedule(rate, count, 1234567);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Arrival> queue;
  bool closed = false;

  std::vector<double> latencies_ms;
  std::vector<double> dag_ms;
  std::vector<double> sql_ms;
  latencies_ms.reserve(static_cast<size_t>(count));
  std::mutex result_mu;
  std::atomic<int> errors{0};

  const TaskScheduler::Stats before = stack->SchedulerStats();
  const double start = NowSeconds() + 0.05;

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        Arrival arrival;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          arrival = queue.front();
          queue.pop_front();
        }
        const bool ok =
            arrival.is_sql
                ? RunSqlRequest(stack, query, arrival.salt)
                : RunDagRequest(stack);
        const double latency = NowSeconds() - (start + arrival.at);
        if (ok) {
          std::lock_guard<std::mutex> lock(result_mu);
          latencies_ms.push_back(latency * 1e3);
          (arrival.is_sql ? sql_ms : dag_ms).push_back(latency * 1e3);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }

  for (const Arrival& arrival : schedule) {
    const double fire_at = start + arrival.at;
    for (;;) {
      const double remaining = fire_at - NowSeconds();
      if (remaining <= 0.0) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(remaining, 0.0005)));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      queue.push_back(arrival);
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& t : pool) t.join();
  const double end = NowSeconds();

  const TaskScheduler::Stats after = stack->SchedulerStats();
  const uint64_t executed = after.executed - before.executed;
  r.steals = after.steals - before.steals;
  r.parks = after.parks - before.parks;
  r.steal_rate =
      executed > 0 ? static_cast<double>(r.steals) / executed : 0.0;

  r.errors = errors.load();
  std::sort(latencies_ms.begin(), latencies_ms.end());
  std::sort(dag_ms.begin(), dag_ms.end());
  std::sort(sql_ms.begin(), sql_ms.end());
  r.p50_ms = Percentile(&latencies_ms, 0.50);
  r.p99_ms = Percentile(&latencies_ms, 0.99);
  r.p999_ms = Percentile(&latencies_ms, 0.999);
  r.dag_p99_ms = Percentile(&dag_ms, 0.99);
  r.sql_p99_ms = Percentile(&sql_ms, 0.99);
  const double window = end - start;
  r.achieved_rps = window > 0
                       ? static_cast<double>(latencies_ms.size()) / window
                       : 0.0;
  // Saturated when the deployment visibly falls behind the offered load:
  // completions lag arrivals by >10% or any requests failed outright.
  r.saturated = r.achieved_rps < 0.9 * rate || r.errors > 0;
  return r;
}

/// Closed-loop warmup: primes the shape cache, plan cache and refined
/// models so the measured window sees steady-state (warm) service times.
void Warmup(ServingStack* stack, const std::string& query) {
  for (int i = 0; i < 6; ++i) (void)RunDagRequest(stack);
  for (int i = 0; i < 3; ++i) (void)RunSqlRequest(stack, query, 100000 + i);
}

/// Measures the sustainable warm throughput directly: `clients` closed-loop
/// threads hammer a shared stack for a fixed wall window, and the completion
/// rate is the capacity the sweep brackets. A concurrent probe — unlike a
/// serial service-time probe — prices in lock contention, the scheduler's
/// queueing behaviour and the model-refinement work that grows with every
/// completed run, all of which an open-loop deployment actually pays.
double EstimateCapacityRps(int workers, int clients,
                           const std::string& query) {
  ServingStack stack = ServingStack::Make(true, workers, workers, workers);
  if (!stack.Setup()) return 0.0;
  Warmup(&stack, query);
  std::atomic<bool> stop{false};
  std::atomic<int> completed{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(clients));
  const double probe_seconds = 2.0;
  const double start = NowSeconds();
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const bool is_sql = (c * 131 + i) % 10 >= 7;  // ~30% SQL
        const bool ok = is_sql
                            ? RunSqlRequest(&stack, query,
                                            300000 + c * 10000 + i)
                            : RunDagRequest(&stack);
        if (ok) completed.fetch_add(1, std::memory_order_relaxed);
        if (NowSeconds() - start > probe_seconds) {
          stop.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double elapsed = NowSeconds() - start;
  return elapsed > 0.0 ? completed.load() / elapsed : 0.0;
}

struct ModeReport {
  std::string name;
  std::vector<RateResult> sweep;
  double saturation_rps = 0.0;  // highest pre-saturation achieved rate
};

ModeReport RunMode(const std::string& name, bool shared, int workers,
                   int dag_workers, int sql_workers, const std::string& query,
                   const std::vector<double>& rates, double seconds_per_rate,
                   int clients) {
  ModeReport report;
  report.name = name;
  for (const double rate : rates) {
    // A fresh stack per rate keeps windows independent: no refinement
    // backlog or journal growth bleeds from one rate into the next.
    ServingStack stack =
        ServingStack::Make(shared, workers, dag_workers, sql_workers);
    if (!stack.Setup()) {
      std::fprintf(stderr, "stack setup failed\n");
      continue;
    }
    Warmup(&stack, query);
    const int count = std::min(
        400, std::max(60, static_cast<int>(rate * seconds_per_rate)));
    RateResult r = RunWindow(&stack, query, rate, count, clients);
    std::printf(
        "%-11s rate=%7.1f rps  achieved=%7.1f  p50=%8.2fms p99=%8.2fms "
        "(dag %7.2f / sql %7.2f)  p999=%8.2fms  steal=%.3f  errors=%d%s\n",
        name.c_str(), r.offered_rps, r.achieved_rps, r.p50_ms, r.p99_ms,
        r.dag_p99_ms, r.sql_p99_ms, r.p999_ms, r.steal_rate, r.errors,
        r.saturated ? "  [saturated]" : "");
    report.sweep.push_back(r);
    if (!r.saturated) report.saturation_rps = r.achieved_rps;
  }
  return report;
}

std::string SweepJson(const ModeReport& report) {
  std::string json = "    {\"mode\": \"" + report.name + "\",\n";
  char buf[160];
  std::snprintf(buf, sizeof(buf), "     \"saturation_rps\": %.1f,\n",
                report.saturation_rps);
  json += buf;
  json += "     \"sweep\": [\n";
  for (size_t i = 0; i < report.sweep.size(); ++i) {
    const RateResult& r = report.sweep[i];
    char row[320];
    std::snprintf(row, sizeof(row),
                  "      {\"offered_rps\": %.1f, \"achieved_rps\": %.1f, "
                  "\"requests\": %d, \"errors\": %d, \"p50_ms\": %.2f, "
                  "\"p99_ms\": %.2f, \"p999_ms\": %.2f, "
                  "\"dag_p99_ms\": %.2f, \"sql_p99_ms\": %.2f, "
                  "\"steal_rate\": %.3f, \"steals\": %llu, \"parks\": %llu, "
                  "\"saturated\": %s}%s",
                  r.offered_rps, r.achieved_rps, r.requests, r.errors,
                  r.p50_ms, r.p99_ms, r.p999_ms, r.dag_p99_ms, r.sql_p99_ms,
                  r.steal_rate,
                  static_cast<unsigned long long>(r.steals),
                  static_cast<unsigned long long>(r.parks),
                  r.saturated ? "true" : "false",
                  i + 1 < report.sweep.size() ? ",\n" : "\n");
    json += row;
  }
  json += "     ]}";
  return json;
}

}  // namespace

/// Parses `--rates` "a,b,..." into positive requests/s; false on any
/// malformed, non-positive or non-finite entry.
bool ParseRates(const char* text, std::vector<double>* rates) {
  const char* p = text;
  while (*p != '\0') {
    char* end = nullptr;
    const double rate = std::strtod(p, &end);
    if (end == p || !(rate > 0.0) || !std::isfinite(rate) ||
        (*end != ',' && *end != '\0')) {
      return false;
    }
    rates->push_back(rate);
    p = *end == ',' ? end + 1 : end;
  }
  return !rates->empty();
}

int main(int argc, char** argv) {
  bool smoke = false;
  std::vector<double> rates;  // --rates: offered rps, no calibration
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--rates") == 0 && i + 1 < argc) {
      if (!ParseRates(argv[++i], &rates)) {
        std::fprintf(stderr, "--rates wants positive requests/s: a,b,...\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--rates a,b,...]\n",
                   argv[0]);
      return 2;
    }
  }

  int workers = static_cast<int>(std::thread::hardware_concurrency());
  if (workers < 4) workers = 4;
  if (workers > 8) workers = 8;
  const int dag_workers = std::max(1, (workers * 7 + 5) / 10);
  const int sql_workers = std::max(1, workers - dag_workers);
  const int clients = workers * 3;

  const std::string query = sql::MusqleQuerySet()[13];  // 2-table filtered

  // 0 in the JSON when --rates fixed the sweep.
  double capacity = 0.0;
  if (rates.empty()) {
    std::printf("calibrating capacity (workers=%d)...\n", workers);
    capacity = EstimateCapacityRps(workers, clients, query);
    if (capacity <= 0.0) {
      std::fprintf(stderr, "calibration failed\n");
      return 1;
    }
    std::printf("estimated capacity ~%.1f rps\n", capacity);

    // The sweep brackets the estimated capacity so the top rate
    // demonstrably saturates and the measured saturation point is interior
    // to the grid.
    const std::vector<double> fractions =
        smoke ? std::vector<double>{0.3, 0.6, 1.2}
              : std::vector<double>{0.25, 0.45, 0.65, 0.85, 1.3};
    for (const double f : fractions) {
      rates.push_back(std::max(2.0, capacity * f));
    }
  }
  const double seconds_per_rate = smoke ? 1.0 : 3.0;

  ModeReport shared_report =
      RunMode("shared", true, workers, dag_workers, sql_workers, query, rates,
              seconds_per_rate, clients);
  ModeReport partitioned_report =
      RunMode("partitioned", false, workers, dag_workers, sql_workers, query,
              rates, seconds_per_rate, clients);

  // A/B verdict: p99 at the highest rate both deployments survived.
  double ab_rate = 0.0, shared_p99 = 0.0, partitioned_p99 = 0.0;
  for (size_t i = 0; i < shared_report.sweep.size() &&
                     i < partitioned_report.sweep.size();
       ++i) {
    if (!shared_report.sweep[i].saturated &&
        !partitioned_report.sweep[i].saturated) {
      ab_rate = shared_report.sweep[i].offered_rps;
      shared_p99 = shared_report.sweep[i].p99_ms;
      partitioned_p99 = partitioned_report.sweep[i].p99_ms;
    }
  }
  const bool shared_wins = shared_p99 > 0.0 && shared_p99 <= partitioned_p99;
  if (ab_rate > 0.0) {
    std::printf(
        "A/B at %.1f rps: shared p99=%.2fms vs partitioned p99=%.2fms -> %s\n",
        ab_rate, shared_p99, partitioned_p99,
        shared_wins ? "shared wins" : "partitioned wins");
  }

  // The CI regression metric: best achieved warm throughput of the shared
  // deployment across the sweep.
  double warm_rps = 0.0;
  for (const RateResult& r : shared_report.sweep) {
    warm_rps = std::max(warm_rps, r.achieved_rps);
  }

  std::string json = "{\n  \"benchmark\": \"serving\",\n";
  json += smoke ? "  \"mode\": \"smoke\",\n" : "  \"mode\": \"full\",\n";
  char head[320];
  std::snprintf(head, sizeof(head),
                "  \"workers\": %d,\n  \"dag_workers\": %d,\n"
                "  \"sql_workers\": %d,\n  \"clients\": %d,\n"
                "  \"mix\": {\"dag\": 0.7, \"sql\": 0.3},\n"
                "  \"estimated_capacity_rps\": %.1f,\n"
                "  \"warm_requests_per_sec\": %.1f,\n",
                workers, dag_workers, sql_workers, clients, capacity,
                warm_rps);
  json += head;
  char ab[256];
  std::snprintf(ab, sizeof(ab),
                "  \"ab\": {\"rate_rps\": %.1f, \"shared_p99_ms\": %.2f, "
                "\"partitioned_p99_ms\": %.2f, \"shared_wins\": %s},\n",
                ab_rate, shared_p99, partitioned_p99,
                shared_wins ? "true" : "false");
  json += ab;
  json += "  \"modes\": [\n";
  json += SweepJson(shared_report);
  json += ",\n";
  json += SweepJson(partitioned_report);
  json += "\n  ]\n}\n";

  const char* out_path = "BENCH_serving.json";
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  return 0;
}
