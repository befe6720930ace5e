#include "planner/pareto_planner.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "analysis/plan_analyzer.h"
#include "common/arena.h"
#include "common/interner.h"
#include "common/logging.h"
#include "planner/planner_common.h"

namespace ires {

namespace {

using planner_internal::InstanceSatisfies;
using planner_internal::IoRequirement;

// How one input port of one candidate run is fed: a dpTable entry id plus
// an optional move.
struct InputChoice {
  int entry_id = -1;
  bool move = false;
  DatasetInstance moved_instance;
  double move_seconds = 0.0;
  double move_cost = 0.0;
};

// One Pareto record: a way to materialize a dataset node with a particular
// (seconds, cost) trade-off. Entries live in a global arena and are
// referenced by id so that back-pointers stay stable. Producer identity is
// a (op node, candidate index) reference into that node's candidate
// snapshot; name/engine/algorithm/params strings live there exactly once.
struct Entry {
  DatasetInstance instance;
  int32_t store_id = -1;   // interned at insert time
  int32_t format_id = -1;
  double seconds = 0.0;
  double cost = 0.0;
  int producer_op_node = -1;  // <0: source data
  int producer_cand = -1;
  Resources resources;
  OperatorRunEstimate op_estimate;
  std::vector<InputChoice> inputs;
  double op_input_bytes = 0.0;
  double op_input_records = 0.0;
};

bool Dominates(double s1, double c1, double s2, double c2) {
  return (s1 <= s2 && c1 <= c2) && (s1 < s2 || c1 < c2);
}

// Partial accumulation while combining the Pareto sets of multiple inputs.
struct Partial {
  double seconds = 0.0;
  double cost = 0.0;
  double bytes = 0.0;
  double records = 0.0;
  std::vector<InputChoice> choices;
};

// Keeps only non-dominated partials, capped at `cap` by keeping the
// extremes and evenly spread interior points (sorted by seconds).
void PrunePartials(std::vector<Partial>* partials, int cap) {
  std::sort(partials->begin(), partials->end(),
            [](const Partial& a, const Partial& b) {
              if (a.seconds != b.seconds) return a.seconds < b.seconds;
              return a.cost < b.cost;
            });
  std::vector<Partial> frontier;
  double best_cost = std::numeric_limits<double>::infinity();
  for (Partial& p : *partials) {
    if (p.cost < best_cost - 1e-12) {
      best_cost = p.cost;
      frontier.push_back(std::move(p));
    }
  }
  if (static_cast<int>(frontier.size()) > cap) {
    std::vector<Partial> kept;
    kept.reserve(cap);
    for (int i = 0; i < cap; ++i) {
      const size_t idx = static_cast<size_t>(
          std::llround(static_cast<double>(i) * (frontier.size() - 1) /
                       (cap - 1)));
      kept.push_back(std::move(frontier[idx]));
    }
    frontier = std::move(kept);
  }
  *partials = std::move(frontier);
}

}  // namespace

const PlannerContext& ParetoPlanner::context() const {
  if (context_ != nullptr) return *context_;
  std::call_once(owned_context_once_, [this] {
    owned_context_ = std::make_unique<PlannerContext>(library_, engines_);
  });
  return *owned_context_;
}

Result<std::vector<ParetoPlanner::FrontierPlan>> ParetoPlanner::PlanFrontier(
    const WorkflowGraph& graph, const Options& options) const {
  IRES_RETURN_IF_ERROR(graph.Validate());
  static const AnalyticCostEstimator kAnalytic;
  const CostEstimator& estimator =
      options.estimator != nullptr ? *options.estimator : kAnalytic;
  const DataMovementModel& movement = engines_->movement();
  const PlannerContext& ctx = context();
  const int cap = std::max(2, options.max_frontier_size);

  // The entry store and dp buckets live for one plan and are only ever
  // touched by the planning thread, so they draw from a per-plan bump arena.
  Arena plan_arena;
  using IdVec = std::vector<int, ArenaAllocator<int>>;
  std::vector<Entry, ArenaAllocator<Entry>> arena{
      ArenaAllocator<Entry>(&plan_arena)};
  // Per dataset node: ids of the current Pareto entries (across all
  // store/format variants; dominance is checked within a variant only,
  // since a "worse" location can still enable a cheaper downstream plan).
  std::vector<IdVec> dp(graph.size(), IdVec(ArenaAllocator<int>(&plan_arena)));
  // Candidate snapshots per operator node, kept for plan reconstruction.
  std::vector<CandidateSnapshot> snapshots(graph.size());
  StringInterner interner;

  auto insert_entry = [&](int node, Entry entry) {
    entry.store_id = interner.Intern(entry.instance.store);
    entry.format_id = interner.Intern(entry.instance.format);
    IdVec& bucket = dp[node];
    // Drop the new entry if a same-location entry dominates it; drop
    // dominated same-location entries.
    for (int id : bucket) {
      const Entry& other = arena[id];
      if (other.store_id == entry.store_id &&
          other.format_id == entry.format_id &&
          (Dominates(other.seconds, other.cost, entry.seconds, entry.cost) ||
           (other.seconds == entry.seconds && other.cost == entry.cost))) {
        return;
      }
    }
    bucket.erase(
        std::remove_if(bucket.begin(), bucket.end(),
                       [&](int id) {
                         const Entry& other = arena[id];
                         return other.store_id == entry.store_id &&
                                other.format_id == entry.format_id &&
                                Dominates(entry.seconds, entry.cost,
                                          other.seconds, other.cost);
                       }),
        bucket.end());
    const int id = static_cast<int>(arena.size());
    arena.push_back(std::move(entry));
    bucket.push_back(id);
    // Cap per (store, format): keep extremes + spread, by seconds order.
    std::map<std::pair<int32_t, int32_t>, std::vector<int>> groups;
    for (int e : bucket) {
      groups[{arena[e].store_id, arena[e].format_id}].push_back(e);
    }
    IdVec pruned{ArenaAllocator<int>(&plan_arena)};
    for (auto& [key, ids] : groups) {
      std::sort(ids.begin(), ids.end(), [&](int a, int b) {
        return arena[a].seconds < arena[b].seconds;
      });
      if (static_cast<int>(ids.size()) <= cap) {
        pruned.insert(pruned.end(), ids.begin(), ids.end());
      } else {
        for (int i = 0; i < cap; ++i) {
          const size_t idx = static_cast<size_t>(std::llround(
              static_cast<double>(i) * (ids.size() - 1) / (cap - 1)));
          pruned.push_back(ids[idx]);
        }
      }
    }
    bucket = std::move(pruned);
  };

  // ---- dpTable initialization. --------------------------------------------
  for (size_t id = 0; id < graph.size(); ++id) {
    const WorkflowGraph::Node& node = graph.node(static_cast<int>(id));
    if (node.kind != WorkflowGraph::NodeKind::kDataset) continue;
    auto pre_it = options.materialized_intermediates.find(node.name);
    if (pre_it != options.materialized_intermediates.end()) {
      Entry entry;
      entry.instance = pre_it->second;
      entry.instance.dataset_node = node.name;
      insert_entry(static_cast<int>(id), std::move(entry));
      continue;
    }
    if (!node.outputs.empty()) continue;
    const Dataset* dataset = library_->FindDatasetByName(node.name);
    if (dataset == nullptr) {
      return Status::NotFound("source dataset not in library: " + node.name);
    }
    if (!dataset->IsMaterialized()) {
      return Status::FailedPrecondition("source dataset is abstract: " +
                                        node.name);
    }
    Entry entry;
    entry.instance.dataset_node = node.name;
    entry.instance.store = dataset->store();
    entry.instance.format = dataset->format();
    entry.instance.bytes = dataset->size_bytes();
    entry.instance.records = dataset->record_count();
    insert_entry(static_cast<int>(id), std::move(entry));
  }

  IRES_ASSIGN_OR_RETURN(std::vector<int> topo, graph.TopologicalOperators());

  // ---- DP over operators, combining input Pareto sets. ---------------------
  for (int op_node : topo) {
    const WorkflowGraph::Node& node = graph.node(op_node);
    snapshots[op_node] = ctx.Resolve(node.name);
    const CandidateSnapshot& candidates = snapshots[op_node];

    // Per candidate, combine the input Pareto sets, estimate each run and
    // insert its output entries — in candidate-index order, which matters:
    // dominance pruning is insertion-order sensitive on ties.
    for (size_t cand_idx = 0; cand_idx < candidates.size(); ++cand_idx) {
      const ResolvedCandidate& cand = candidates[cand_idx];
      if (!cand.engine_available) continue;
      const SimulatedEngine* engine = cand.engine;

      // Combine the inputs' Pareto sets port by port.
      std::vector<Partial> partials = {Partial{}};
      for (size_t port = 0; port < node.inputs.size(); ++port) {
        const int in_node = node.inputs[port];
        const IoRequirement& req = cand.InputReq(port);
        std::vector<Partial> next;
        for (const Partial& base : partials) {
          for (int entry_id : dp[in_node]) {
            const Entry& tin = arena[entry_id];
            InputChoice choice;
            choice.entry_id = entry_id;
            choice.moved_instance = tin.instance;
            if (!InstanceSatisfies(tin.instance, req)) {
              if (!req.store.empty()) choice.moved_instance.store = req.store;
              const bool transform =
                  !req.format.empty() && req.format != tin.instance.format;
              if (transform) choice.moved_instance.format = req.format;
              choice.move = true;
              choice.move_seconds = movement.MoveSeconds(
                  tin.instance.bytes, tin.instance.store,
                  choice.moved_instance.store, transform);
              choice.move_cost =
                  Resources{1, 1, 1.0}.CostForDuration(choice.move_seconds);
            }
            Partial combined = base;
            combined.seconds += tin.seconds + choice.move_seconds;
            combined.cost += tin.cost + choice.move_cost;
            combined.bytes += choice.moved_instance.bytes;
            combined.records += choice.moved_instance.records;
            combined.choices.push_back(std::move(choice));
            next.push_back(std::move(combined));
          }
        }
        if (next.empty()) {  // infeasible on this candidate
          partials.clear();
          break;
        }
        PrunePartials(&next, cap);
        partials = std::move(next);
      }

      for (Partial& partial : partials) {
        OperatorRunRequest request;
        request.algorithm = cand.algorithm;
        request.input_bytes = partial.bytes;
        request.input_records = partial.records;
        request.params = cand.params;
        request.resources = engine->default_resources();
        auto estimate = estimator.Estimate(*engine, request);
        if (!estimate.ok()) continue;
        const OperatorRunEstimate& est = estimate.value();

        for (size_t port = 0; port < node.outputs.size(); ++port) {
          const int out_node = node.outputs[port];
          if (out_node < 0) continue;
          const IoRequirement& out_req = cand.OutputReq(port);
          Entry entry;
          entry.instance.dataset_node = graph.node(out_node).name;
          entry.instance.store =
              !out_req.store.empty() ? out_req.store : engine->native_store();
          entry.instance.format =
              !out_req.format.empty()
                  ? out_req.format
                  : (partial.choices.empty()
                         ? ""
                         : partial.choices[0].moved_instance.format);
          entry.instance.bytes = est.output_bytes;
          entry.instance.records = est.output_records;
          entry.seconds = partial.seconds + est.exec_seconds;
          entry.cost = partial.cost + est.cost;
          entry.producer_op_node = op_node;
          entry.producer_cand = static_cast<int>(cand_idx);
          entry.resources = request.resources;
          entry.op_estimate = est;
          // The last output port owns the choices; earlier ports copy.
          if (port + 1 == node.outputs.size()) {
            entry.inputs = std::move(partial.choices);
          } else {
            entry.inputs = partial.choices;
          }
          entry.op_input_bytes = partial.bytes;
          entry.op_input_records = partial.records;
          insert_entry(out_node, std::move(entry));
        }
      }
    }
  }

  // ---- Collect the target frontier (across locations). ---------------------
  std::vector<int> target_ids(dp[graph.target()].begin(),
                              dp[graph.target()].end());
  if (target_ids.empty()) {
    return Status::FailedPrecondition(
        "no feasible execution plan reaches the target dataset");
  }
  // Global dominance across locations for the final answer.
  std::sort(target_ids.begin(), target_ids.end(), [&](int a, int b) {
    if (arena[a].seconds != arena[b].seconds) {
      return arena[a].seconds < arena[b].seconds;
    }
    return arena[a].cost < arena[b].cost;
  });
  std::vector<int> frontier_ids;
  double best_cost = std::numeric_limits<double>::infinity();
  for (int id : target_ids) {
    if (arena[id].cost < best_cost - 1e-12) {
      best_cost = arena[id].cost;
      frontier_ids.push_back(id);
    }
  }

  // ---- Reconstruct one plan per frontier point. ----------------------------
  std::vector<FrontierPlan> frontier;
  for (int target_id : frontier_ids) {
    FrontierPlan out;
    out.seconds = arena[target_id].seconds;
    out.cost = arena[target_id].cost;
    ExecutionPlan& plan = out.plan;
    std::map<int, int> step_of_entry;  // entry id -> producing plan step

    // Explicit worklist (deep chains must not overflow the stack). A frame
    // suspends before an unbuilt producer and retries the same input once
    // that producer's step is memoized, reproducing the recursive step
    // order exactly.
    struct Frame {
      int entry_id;
      size_t next_input = 0;
      PlanStep step;
    };
    std::vector<Frame> stack;
    auto push_frame = [&](int entry_id) -> bool {
      const Entry& entry = arena[entry_id];
      if (entry.producer_op_node < 0) return false;  // source data
      if (step_of_entry.count(entry_id) > 0) return false;
      const ResolvedCandidate& cand =
          snapshots[entry.producer_op_node][entry.producer_cand];
      Frame frame;
      frame.entry_id = entry_id;
      PlanStep& step = frame.step;
      step.kind = PlanStep::Kind::kOperator;
      step.name = cand.op.name();
      step.engine = cand.engine_name;
      step.algorithm = cand.algorithm;
      step.resources = entry.resources;
      step.estimated_seconds = entry.op_estimate.exec_seconds;
      step.estimated_cost = entry.op_estimate.cost;
      step.params = cand.params;
      step.input_bytes = entry.op_input_bytes;
      step.input_records = entry.op_input_records;
      step.outputs.push_back(entry.instance);
      stack.push_back(std::move(frame));
      return true;
    };

    push_frame(target_id);
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const Entry& entry = arena[frame.entry_id];
      bool suspended = false;
      while (frame.next_input < entry.inputs.size()) {
        const InputChoice& choice = entry.inputs[frame.next_input];
        const Entry& in_entry = arena[choice.entry_id];
        int producer_step = -1;
        if (in_entry.producer_op_node >= 0) {
          auto it = step_of_entry.find(choice.entry_id);
          if (it == step_of_entry.end()) {
            push_frame(choice.entry_id);
            suspended = true;
            break;
          }
          producer_step = it->second;
        }
        int upstream = producer_step;
        if (choice.move) {
          PlanStep move_step;
          move_step.kind = PlanStep::Kind::kMove;
          move_step.name = "move(" + in_entry.instance.dataset_node + ":" +
                           in_entry.instance.store + "->" +
                           choice.moved_instance.store + ")";
          move_step.engine = frame.step.engine;
          move_step.algorithm = "Move";
          move_step.resources = Resources{1, 1, 1.0};
          move_step.estimated_seconds = choice.move_seconds;
          move_step.estimated_cost = choice.move_cost;
          move_step.outputs.push_back(choice.moved_instance);
          move_step.input_bytes = in_entry.instance.bytes;
          move_step.input_records = in_entry.instance.records;
          if (producer_step >= 0) {
            move_step.deps.push_back(producer_step);
          } else {
            move_step.source_datasets.push_back(
                in_entry.instance.dataset_node);
          }
          move_step.id = static_cast<int>(plan.steps.size());
          plan.steps.push_back(move_step);
          upstream = move_step.id;
        }
        if (upstream >= 0) {
          frame.step.deps.push_back(upstream);
        } else {
          frame.step.source_datasets.push_back(in_entry.instance.dataset_node);
        }
        ++frame.next_input;
      }
      if (suspended) continue;

      frame.step.id = static_cast<int>(plan.steps.size());
      step_of_entry.emplace(frame.entry_id, frame.step.id);
      plan.steps.push_back(std::move(frame.step));
      stack.pop_back();
    }

    std::vector<double> finish(plan.steps.size(), 0.0);
    double makespan = 0.0, total_cost = 0.0;
    for (const PlanStep& step : plan.steps) {
      double start = 0.0;
      for (int dep : step.deps) start = std::max(start, finish[dep]);
      finish[step.id] = start + step.estimated_seconds;
      makespan = std::max(makespan, finish[step.id]);
      total_cost += step.estimated_cost;
    }
    plan.estimated_seconds = makespan;
    plan.estimated_cost = total_cost;
    plan.metric = out.seconds;
#ifndef NDEBUG
    // Debug-only self-check mirroring DpPlanner: every frontier plan must
    // pass the structural plan verifier.
    {
      PlanAnalyzer::Options check;
      check.library = library_;
      check.engines = engines_;
      check.materialized_intermediates = &options.materialized_intermediates;
      const std::vector<Diagnostic> findings =
          PlanAnalyzer(check).Analyze(plan);
      if (HasErrors(findings)) {
        IRES_LOG(kError) << "ParetoPlanner produced an invalid plan:\n"
                         << RenderText(findings);
        assert(false &&
               "ParetoPlanner emitted a plan that fails PlanAnalyzer");
      }
    }
#endif
    frontier.push_back(std::move(out));
  }
  return frontier;
}

}  // namespace ires
