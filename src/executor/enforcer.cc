#include "executor/enforcer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/logging.h"

namespace ires {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One scheduled simulation event. kFinish completes a running step, kKill
/// aborts a straggler attempt at its deadline, kRetry re-readies a step
/// after its backoff expires.
struct SimEvent {
  enum class Kind { kFinish, kKill, kRetry };

  double time = 0.0;
  int step_id = -1;
  int allocation_id = -1;  // kFinish / kKill only
  Kind kind = Kind::kFinish;

  bool operator>(const SimEvent& other) const {
    if (time != other.time) return time > other.time;
    if (step_id != other.step_id) return step_id > other.step_id;
    return static_cast<int>(kind) > static_cast<int>(other.kind);
  }
};

}  // namespace

ExecutionReport Enforcer::Execute(const ExecutionPlan& plan) {
  ExecutionReport report;
  report.steps.resize(plan.steps.size());

  std::vector<int> pending_deps(plan.steps.size(), 0);
  std::vector<std::vector<int>> dependents(plan.steps.size());
  for (const PlanStep& step : plan.steps) {
    pending_deps[step.id] = static_cast<int>(step.deps.size());
    for (int dep : step.deps) dependents[dep].push_back(step.id);
  }

  // Ready queue ordered by step id for determinism.
  std::vector<int> ready;
  for (const PlanStep& step : plan.steps) {
    if (pending_deps[step.id] == 0) ready.push_back(step.id);
  }
  std::sort(ready.begin(), ready.end());

  std::priority_queue<SimEvent, std::vector<SimEvent>, std::greater<SimEvent>>
      events;
  std::map<int, int> step_of_allocation;

  // Node events persist across Execute calls (replan attempts must see the
  // same schedule); events whose node is already in the scheduled state are
  // skipped, so a fired failure does not re-fire on the retry attempt.
  std::vector<NodeEvent> node_events = node_schedule_;
  std::stable_sort(node_events.begin(), node_events.end(),
                   [](const NodeEvent& a, const NodeEvent& b) {
                     return a.time < b.time;
                   });
  size_t next_node_event = 0;
  auto pending_node_event = [&]() -> const NodeEvent* {
    while (next_node_event < node_events.size()) {
      const NodeEvent& event = node_events[next_node_event];
      const NodeHealth current = cluster_->node(event.node).health;
      const NodeHealth target =
          event.fail ? NodeHealth::kUnhealthy : NodeHealth::kHealthy;
      if (current == target) {
        ++next_node_event;  // already in the scheduled state; no-op event
        continue;
      }
      return &event;
    }
    return nullptr;
  };

  double now = 0.0;
  int completed = 0;

  // Marks one completed step's outputs as materialized.
  auto complete_step = [&](const SimEvent& event) {
    (void)cluster_->Release(event.allocation_id);
    step_of_allocation.erase(event.allocation_id);
    StepResult& result = report.steps[event.step_id];
    result.finish_seconds = event.time;
    result.status = Status::OK();
    report.total_cost += result.cost;
    report.makespan_seconds = std::max(report.makespan_seconds, event.time);
    for (const DatasetInstance& out : plan.steps[event.step_id].outputs) {
      report.materialized[out.dataset_node] = out;
      if (step_observer_) step_observer_(event.step_id, out);
    }
  };

  // Aborts the workflow: `failed_steps` fail at `now` with `kind`;
  // everything else still running drains so its outputs count as
  // materialized for replanning. Straggler attempts pending a kill and
  // steps waiting out a retry backoff never complete — their attempt died
  // with the run.
  auto abort_workflow = [&](const Status& cause, FailureKind kind,
                            const std::vector<int>& failed_steps) {
    report.status = cause;
    report.failure_kind = kind;
    report.failed_step = failed_steps.empty() ? -1 : failed_steps.front();
    for (int step_id : failed_steps) {
      report.steps[step_id].status = cause;
      report.steps[step_id].failure_kind = kind;
      report.steps[step_id].finish_seconds = now;
    }
    report.makespan_seconds = std::max(report.makespan_seconds, now);
    while (!events.empty()) {
      const SimEvent event = events.top();
      events.pop();
      if (event.kind != SimEvent::Kind::kFinish ||
          std::find(failed_steps.begin(), failed_steps.end(),
                    event.step_id) != failed_steps.end()) {
        if (event.allocation_id >= 0) {
          (void)cluster_->Release(event.allocation_id);
        }
        continue;  // failed, killed or backing-off: no outputs
      }
      complete_step(event);
    }
  };

  // Outcome of one start attempt.
  enum class StartResult { kStarted, kNoCapacity, kFailed };
  Status start_failure;                 // valid when kFailed
  FailureKind start_failure_kind = FailureKind::kEngineCrash;

  // Schedules a retry of `step_id` after the policy backoff, or reports
  // that the retry budget is exhausted (false).
  auto schedule_retry = [&](int step_id) -> bool {
    StepResult& result = report.steps[step_id];
    if (result.attempts >= retry_policy_.max_attempts) return false;
    const double backoff =
        retry_policy_.BackoffSeconds(result.attempts, &rng_);
    ++report.step_retries;
    journal_.Emit(EventKind::kStepRetry, step_id,
                  plan.steps[step_id].engine, "", backoff,
                  "backoff after attempt " +
                      std::to_string(result.attempts));
    events.push(SimEvent{now + backoff, step_id, -1, SimEvent::Kind::kRetry});
    return true;
  };

  auto start_step = [&](int step_id) -> StartResult {
    const PlanStep& step = plan.steps[step_id];
    StepResult& result = report.steps[step_id];
    result.step_id = step_id;
    result.start_seconds = now;
    ++result.attempts;
    journal_.Emit(EventKind::kStepStart, step_id, step.engine, "",
                  result.attempts, step.name);

    auto fail = [&](Status status, FailureKind kind) {
      start_failure = std::move(status);
      start_failure_kind = kind;
      result.failure_kind = kind;
      return StartResult::kFailed;
    };

    // Execution monitoring: service availability + injected faults.
    SimulatedEngine* engine = engines_->Find(step.engine);
    if (engine == nullptr) {
      return fail(Status::NotFound("engine not deployed: " + step.engine),
                  FailureKind::kEngineCrash);
    }
    if (!engine->available()) {
      return fail(Status::Unavailable("engine " + step.engine + " is OFF"),
                  FailureKind::kEngineCrash);
    }

    bool injected_hang = false;
    FaultDecision decision;
    if (fault_oracle_) decision = fault_oracle_(step, now, result.attempts);
    if (decision.fail) {
      journal_.Emit(EventKind::kChaosInject, step_id, step.engine,
                    FailureKindName(decision.kind), result.attempts);
      switch (decision.kind) {
        case FailureKind::kTransient:
          if (schedule_retry(step_id)) return StartResult::kStarted;
          return fail(
              Status::ExecutionError(
                  "transient fault running " + step.name + " on " +
                  step.engine + "; retry budget exhausted after " +
                  std::to_string(result.attempts) + " attempts"),
              FailureKind::kTransient);
        case FailureKind::kTimeout:
          // The attempt hangs: it runs until the straggler deadline kills
          // it. Without an armed deadline it degrades to a transient.
          if (retry_policy_.DeadlineSeconds(step.estimated_seconds) > 0.0) {
            injected_hang = true;
            break;
          }
          if (schedule_retry(step_id)) return StartResult::kStarted;
          return fail(Status::ExecutionError(
                          "step " + step.name + " on " + step.engine +
                          " hung; retry budget exhausted after " +
                          std::to_string(result.attempts) + " attempts"),
                      FailureKind::kTimeout);
        default:
          return fail(Status::ExecutionError(
                          "fault injected while running " + step.name +
                          " on " + step.engine),
                      decision.kind);
      }
    }

    double duration;
    double cost;
    if (step.kind == PlanStep::Kind::kMove) {
      // Moves ship bytes between stores; noise mirrors network variance.
      duration = step.estimated_seconds * std::exp(rng_.Normal(0.0, 0.05));
      cost = step.resources.CostForDuration(duration);
    } else {
      OperatorRunRequest request;
      request.algorithm = step.algorithm;
      request.input_bytes = step.input_bytes;
      request.input_records = step.input_records;
      request.resources = step.resources;
      request.params = step.params;
      auto run = engine->Run(request, &rng_);
      if (!run.ok()) {
        return fail(run.status(), ClassifyFailure(run.status()));
      }
      duration = run.value().exec_seconds;
      cost = run.value().cost;
    }
    if (injected_hang) duration = kInf;

    auto allocation = cluster_->Allocate(step.resources);
    if (!allocation.ok()) {
      if (allocation.status().code() == StatusCode::kResourceExhausted) {
        --result.attempts;  // deferral is not a consumed attempt
        start_failure = allocation.status();
        return StartResult::kNoCapacity;
      }
      return fail(allocation.status(), FailureKind::kNodeCrash);
    }

    result.cost = cost;
    step_of_allocation[allocation.value().id] = step_id;

    // Step deadline: attempts running past k× the planner estimate are
    // killed (and retried) as stragglers.
    const double deadline =
        retry_policy_.DeadlineSeconds(step.estimated_seconds);
    if (deadline > 0.0 && duration > deadline) {
      events.push(SimEvent{now + deadline, step_id, allocation.value().id,
                           SimEvent::Kind::kKill});
    } else {
      events.push(SimEvent{now + duration, step_id, allocation.value().id,
                           SimEvent::Kind::kFinish});
    }
    return StartResult::kStarted;
  };

  while (true) {
    // Launch every ready step we can place right now.
    std::vector<int> deferred;
    for (int step_id : ready) {
      const StartResult started = start_step(step_id);
      if (started == StartResult::kStarted) continue;
      if (started == StartResult::kNoCapacity &&
          (!events.empty() || pending_node_event() != nullptr)) {
        // Cluster is momentarily full; retry after the next event.
        deferred.push_back(step_id);
        continue;
      }
      // Hard failure: engine down / fault injected / unplaceable. A
      // capacity failure that nothing pending can relieve is a cluster
      // problem, not an engine one.
      if (started == StartResult::kNoCapacity) {
        start_failure_kind = FailureKind::kNodeCrash;
      }
      abort_workflow(start_failure, start_failure_kind, {step_id});
      return report;
    }
    ready = std::move(deferred);

    const NodeEvent* node_event = pending_node_event();
    if (events.empty() && node_event == nullptr) break;

    // A scheduled node event may precede the next simulation event.
    const double next_sim_time = events.empty() ? kInf : events.top().time;
    if (node_event != nullptr && node_event->time <= next_sim_time) {
      now = std::max(now, node_event->time);
      const int node = node_event->node;
      const bool fail = node_event->fail;
      ++next_node_event;
      if (!fail) {
        // Node recovered: capacity is back; deferred steps retry at the
        // top of the loop.
        cluster_->SetNodeHealth(node, NodeHealth::kHealthy);
        continue;
      }
      cluster_->SetNodeHealth(node, NodeHealth::kUnhealthy);
      std::vector<int> dead_steps;
      for (int allocation_id : cluster_->FailedAllocations()) {
        auto it = step_of_allocation.find(allocation_id);
        if (it != step_of_allocation.end()) dead_steps.push_back(it->second);
      }
      std::sort(dead_steps.begin(), dead_steps.end());
      if (!dead_steps.empty()) {
        abort_workflow(
            Status::ExecutionError("cluster node " + std::to_string(node) +
                                   " became UNHEALTHY"),
            FailureKind::kNodeCrash, dead_steps);
        return report;
      }
      continue;  // node died idle; keep executing
    }

    const SimEvent event = events.top();
    events.pop();
    now = event.time;
    switch (event.kind) {
      case SimEvent::Kind::kFinish: {
        complete_step(event);
        ++completed;
        for (int dependent : dependents[event.step_id]) {
          if (--pending_deps[dependent] == 0) {
            ready.insert(
                std::upper_bound(ready.begin(), ready.end(), dependent),
                dependent);
          }
        }
        break;
      }
      case SimEvent::Kind::kKill: {
        // Straggler attempt hit its deadline: release its containers,
        // charge the burned time, then retry or escalate.
        (void)cluster_->Release(event.allocation_id);
        step_of_allocation.erase(event.allocation_id);
        const PlanStep& step = plan.steps[event.step_id];
        StepResult& result = report.steps[event.step_id];
        report.total_cost += step.resources.CostForDuration(
            now - result.start_seconds);
        journal_.Emit(EventKind::kStragglerKill, event.step_id, step.engine,
                      "", result.attempts,
                      "deadline hit after " +
                          std::to_string(now - result.start_seconds) + "s");
        if (!schedule_retry(event.step_id)) {
          abort_workflow(
              Status::ExecutionError(
                  "step " + step.name + " on " + step.engine +
                  " exceeded its deadline (" +
                  std::to_string(retry_policy_.straggler_multiplier) +
                  "x estimate); retry budget exhausted after " +
                  std::to_string(result.attempts) + " attempts"),
              FailureKind::kTimeout, {event.step_id});
          return report;
        }
        break;
      }
      case SimEvent::Kind::kRetry: {
        ready.insert(
            std::upper_bound(ready.begin(), ready.end(), event.step_id),
            event.step_id);
        break;
      }
    }
  }

  if (completed != static_cast<int>(plan.steps.size())) {
    report.status = Status::Internal("scheduler deadlock: " +
                                     std::to_string(completed) + "/" +
                                     std::to_string(plan.steps.size()) +
                                     " steps completed");
  } else {
    report.status = Status::OK();
  }
  report.makespan_seconds = std::max(report.makespan_seconds, now);
  return report;
}

}  // namespace ires
