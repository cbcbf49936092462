#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/graph_checks.h"
#include "analysis/static/static_analyzer.h"
#include "common/antichain.h"
#include "common/hash.h"
#include "common/object_pool.h"
#include "hypergraph/algorithms.h"

namespace hyppo::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kCostEps = 1e-15;

using SearchStats = PlanGenerator::SearchStats;
using Strategy = PlanGenerator::Strategy;

// An incomplete plan (paper: Π with cost, visited, frontier, plan edges).
struct Partial {
  double cost = 0.0;
  double priority = 0.0;  // admissible lower bound on completion, else cost
  std::vector<uint64_t> visited;  // bitset over augmentation nodes
  std::vector<NodeId> frontier;   // sorted; never contains the source
  std::vector<EdgeId> edges;
};

bool TestBit(const std::vector<uint64_t>& bits, NodeId node) {
  return (bits[static_cast<size_t>(node) >> 6] >>
          (static_cast<size_t>(node) & 63)) &
         1;
}

void SetBit(std::vector<uint64_t>& bits, NodeId node) {
  bits[static_cast<size_t>(node) >> 6] |=
      uint64_t{1} << (static_cast<size_t>(node) & 63);
}

// Antichain dominance, keyed by the exact frontier. Two partial plans
// with the same frontier face the same remaining choices, so one that has
// visited a superset of the other's nodes at no greater cost can replay
// any completion of the weaker plan at most as expensively — the weaker
// plan is prunable. The table stores, per frontier, the antichain of
// (visited, cost) entries; a full-state min-table (the previous
// structure) is the degenerate case that only prunes exact revisits.
// The full frontier is stored as the key — a bare 64-bit hash would merge
// colliding states and could prune a cheaper optimal plan.
struct FrontierHash {
  size_t operator()(const std::vector<NodeId>& frontier) const {
    uint64_t hash = 0x9e3779b97f4a7c15ULL;
    for (NodeId v : frontier) {
      hash = HashCombine(hash, static_cast<uint64_t>(v) + 1);
    }
    return static_cast<size_t>(hash);
  }
};

using DominanceTable = AntichainTable<std::vector<NodeId>, FrontierHash>;

// Admissible lower bounds over an augmentation. They depend only on the
// graph and edge weights, not on the targets; each kAStar search computes
// its own.
struct LowerBounds {
  // dist(v): lower bound on the cost of any B-derivation of v from the
  // source (min over incoming edges of weight + max over tail dists).
  std::vector<double> derive_cost;
  // Cheapest live incoming edge weight per node: any completion must still
  // pay at least this much for a frontier node's final edge, even when
  // every tail is already planned.
  std::vector<double> min_incoming;
};

LowerBounds ComputeLowerBounds(const Augmentation& aug) {
  const Hypergraph& graph = aug.graph.hypergraph();
  const NodeId source = aug.graph.source();
  LowerBounds lb;
  lb.derive_cost.assign(static_cast<size_t>(graph.num_nodes()), kInf);
  lb.min_incoming.assign(static_cast<size_t>(graph.num_nodes()), kInf);
  lb.derive_cost[static_cast<size_t>(source)] = 0.0;
  lb.min_incoming[static_cast<size_t>(source)] = 0.0;
  for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
    if (!graph.IsLiveEdge(e)) {
      continue;
    }
    const double weight = aug.edge_weight[static_cast<size_t>(e)];
    for (NodeId h : graph.edge(e).head) {
      lb.min_incoming[static_cast<size_t>(h)] =
          std::min(lb.min_incoming[static_cast<size_t>(h)], weight);
    }
  }
  // dist(v) = min over incoming edges e of w(e) + max over non-source tail
  // nodes of dist(u): a lower bound on any B-derivation of v (max instead
  // of sum over the tail underestimates). Fixed-point iteration; converges
  // in at most the longest-path length.
  bool changed = true;
  while (changed) {
    changed = false;
    for (EdgeId e = 0; e < graph.num_edge_slots(); ++e) {
      if (!graph.IsLiveEdge(e)) {
        continue;
      }
      double tail_max = 0.0;
      for (NodeId u : graph.edge(e).tail) {
        if (u == source) {
          continue;
        }
        tail_max = std::max(tail_max, lb.derive_cost[static_cast<size_t>(u)]);
        if (tail_max == kInf) {
          break;
        }
      }
      if (tail_max == kInf) {
        continue;
      }
      const double through = aug.edge_weight[static_cast<size_t>(e)] + tail_max;
      for (NodeId h : graph.edge(e).head) {
        if (through < lb.derive_cost[static_cast<size_t>(h)]) {
          lb.derive_cost[static_cast<size_t>(h)] = through;
          changed = true;
        }
      }
    }
  }
  return lb;
}

// Admissible priority (lower bound on the final cost of any completion):
//   max( cost + max_{v in frontier} min_incoming(v),
//        max_{v in frontier} derive_cost(v) ).
// The first term is sound because every frontier node still needs at least
// one more edge that the partial has not paid for (and one edge can cover
// several frontier nodes, hence max, not sum). The second is sound because
// the final plan contains a full B-derivation of each frontier node, which
// costs at least derive_cost(v) — but it must NOT be added to `cost`: the
// partial may already have paid for parts of that derivation (visited
// tails), and cost + derive_cost would double-count them. The previous A*
// heuristic made exactly that mistake and could prune the optimum
// (regression-tested in core_optimizer_test.cc).
double AdmissiblePriority(const Partial& p, const LowerBounds& lb) {
  double final_edge = 0.0;
  double total = p.cost;
  for (NodeId v : p.frontier) {
    final_edge = std::max(final_edge, lb.min_incoming[static_cast<size_t>(v)]);
    total = std::max(total, lb.derive_cost[static_cast<size_t>(v)]);
  }
  return std::max(p.cost + final_edge, total);
}

bool WorsePriority(const Partial& a, const Partial& b) {
  return a.priority > b.priority;
}

// Applies one move (a set of hyperedges, one per frontier node) to a
// partial plan — the body of EXPAND (Algorithm 2, lines 6-14). Writes into
// `next` (typically recycled from an ObjectPool, so its vectors keep their
// capacity and the steady-state search stops allocating).
void ApplyMoveInto(const Augmentation& aug, const Partial& base,
                   const std::vector<EdgeId>& move, NodeId source,
                   std::vector<NodeId>& scratch, Partial& next) {
  next.cost = base.cost;
  next.priority = 0.0;
  next.visited = base.visited;
  next.edges = base.edges;
  next.frontier.clear();
  scratch.clear();
  const Hypergraph& graph = aug.graph.hypergraph();
  for (EdgeId e : move) {
    const Hyperedge& edge = graph.edge(e);
    bool contributes = false;
    for (NodeId h : edge.head) {
      if (!TestBit(next.visited, h)) {
        contributes = true;
        break;
      }
    }
    if (!contributes) {
      continue;  // everything this edge produces is already planned
    }
    next.cost += aug.edge_weight[static_cast<size_t>(e)];
    for (NodeId h : edge.head) {
      SetBit(next.visited, h);
    }
    next.edges.push_back(e);
    for (NodeId u : edge.tail) {
      if (u != source && !TestBit(next.visited, u)) {
        scratch.push_back(u);
      }
    }
  }
  // Candidates may have become visited by a later edge in the same move.
  for (NodeId u : scratch) {
    if (!TestBit(next.visited, u)) {
      next.frontier.push_back(u);
    }
  }
  std::sort(next.frontier.begin(), next.frontier.end());
  next.frontier.erase(
      std::unique(next.frontier.begin(), next.frontier.end()),
      next.frontier.end());
}

// Enumerates the cross product of backward-star options over the frontier
// (Algorithm 2, lines 2-5) and invokes `emit` per move. `take_budget` is
// charged once per move; returning false aborts the enumeration (budget
// exhausted).
template <typename Budget, typename Emit>
bool ForEachMove(const Augmentation& aug, const Partial& partial,
                 Budget&& take_budget, const Emit& emit) {
  const Hypergraph& graph = aug.graph.hypergraph();
  const size_t k = partial.frontier.size();
  std::vector<const std::vector<EdgeId>*> options(k);
  for (size_t i = 0; i < k; ++i) {
    options[i] = &graph.bstar(partial.frontier[i]);
    if (options[i]->empty()) {
      return true;  // dead end: some frontier node cannot be derived
    }
  }
  std::vector<size_t> index(k, 0);
  std::vector<EdgeId> move;
  while (true) {
    if (!take_budget()) {
      return false;
    }
    move.clear();
    for (size_t i = 0; i < k; ++i) {
      move.push_back((*options[i])[index[i]]);
    }
    std::sort(move.begin(), move.end());
    move.erase(std::unique(move.begin(), move.end()), move.end());
    emit(move);
    // Advance the odometer.
    size_t pos = 0;
    while (pos < k && ++index[pos] == options[pos]->size()) {
      index[pos] = 0;
      ++pos;
    }
    if (pos == k) {
      return true;
    }
  }
}

Partial MakeInitialPartial(const Augmentation& aug,
                           const PlanGenerator::Options& options) {
  const Hypergraph& graph = aug.graph.hypergraph();
  const NodeId source = aug.graph.source();
  Partial initial;
  initial.visited.assign(
      (static_cast<size_t>(graph.num_nodes()) + 63) / 64, 0);
  for (NodeId t : aug.targets) {
    initial.frontier.push_back(t);
  }
  // Exploration mode: force mo = ceil(#new_tasks * c_exp) new tasks into
  // the initial plan (§IV-E).
  if (options.exploration > 0.0 && !aug.new_tasks.empty()) {
    const int64_t mo = static_cast<int64_t>(
        std::ceil(static_cast<double>(aug.new_tasks.size()) *
                  std::min(1.0, options.exploration)));
    for (int64_t i = 0; i < mo; ++i) {
      const EdgeId e = aug.new_tasks[static_cast<size_t>(i)];
      const Hyperedge& edge = graph.edge(e);
      bool contributes = false;
      for (NodeId h : edge.head) {
        if (!TestBit(initial.visited, h)) {
          contributes = true;
        }
      }
      if (!contributes) {
        continue;
      }
      initial.cost += aug.edge_weight[static_cast<size_t>(e)];
      initial.edges.push_back(e);
      for (NodeId h : edge.head) {
        SetBit(initial.visited, h);
      }
      for (NodeId u : edge.tail) {
        if (u != source) {
          initial.frontier.push_back(u);
        }
      }
    }
  }
  std::sort(initial.frontier.begin(), initial.frontier.end());
  initial.frontier.erase(
      std::unique(initial.frontier.begin(), initial.frontier.end()),
      initial.frontier.end());
  // Frontier nodes already produced by forced tasks need no derivation.
  std::vector<NodeId> frontier;
  for (NodeId v : initial.frontier) {
    if (!TestBit(initial.visited, v)) {
      frontier.push_back(v);
    }
  }
  initial.frontier = std::move(frontier);
  return initial;
}

}  // namespace

const char* PlanGenerator::StrategyToString(Strategy strategy) {
  switch (strategy) {
    case Strategy::kStack:
      return "HYPPO-STACK";
    case Strategy::kPriority:
      return "HYPPO-PRIORITY";
    case Strategy::kGreedy:
      return "HYPPO-GREEDY";
    case Strategy::kAStar:
      return "HYPPO-ASTAR";
  }
  return "unknown";
}

Status VerifyPlanStructure(const Augmentation& aug,
                           const std::vector<NodeId>& targets,
                           const Plan& plan) {
  analysis::PlanSpec spec;
  spec.graph = &aug.graph.hypergraph();
  spec.edges = &plan.edges;
  spec.source = aug.graph.source();
  spec.targets = &targets;
  spec.edge_weight = &aug.edge_weight;
  spec.claimed_cost = plan.cost;
  spec.edge_seconds = &aug.edge_seconds;
  spec.claimed_seconds = plan.seconds;
  analysis::AnalysisReport report = analysis::CheckPlanStructure(spec);
  // Every weight, planned or not, must be finite and non-negative: the
  // search's pruning and lower bounds are only sound on such weights.
  report.Merge(analysis::StaticAnalyzer().CheckCostMonotonicity(
      aug.edge_weight, aug.edge_seconds));
  if (!report.ok()) {
    return Status::Internal("plan verification failed (" + report.Summary() +
                            "):\n" + report.ToString());
  }
  return Status::OK();
}

Status VerifyAugmentationStructure(const Augmentation& aug) {
  analysis::AugmentationSpec spec;
  spec.graph = &aug.graph.hypergraph();
  spec.source = aug.graph.source();
  spec.targets = &aug.targets;
  spec.edge_weight = &aug.edge_weight;
  spec.edge_seconds = &aug.edge_seconds;
  analysis::AnalysisReport report = analysis::CheckAugmentationStructure(spec);
  if (!report.ok()) {
    return Status::Internal("augmentation verification failed (" +
                            report.Summary() + "):\n" + report.ToString());
  }
  return Status::OK();
}

Result<Plan> PlanGenerator::Optimize(const Augmentation& aug,
                                     const Options& options,
                                     SearchStats* stats) const {
  const std::vector<NodeId>& targets = aug.targets;
  if (targets.empty()) {
    return Status::InvalidArgument("no target artifacts");
  }
  const Hypergraph& graph = aug.graph.hypergraph();
  const NodeId source = aug.graph.source();
  for (NodeId t : targets) {
    if (!graph.IsValidNode(t) || t == source) {
      return Status::InvalidArgument("invalid target node");
    }
  }
  SearchStats local_stats;
  SearchStats& st = stats != nullptr ? *stats : local_stats;
  Partial initial = MakeInitialPartial(aug, options);

  // Greedy variant: follow the minimum-weight edge per frontier node;
  // each node is expanded at most once (linear time).
  if (options.strategy == Strategy::kGreedy) {
    Partial current = std::move(initial);
    std::vector<NodeId> scratch;
    ObjectPool<Partial> pool;
    while (!current.frontier.empty()) {
      std::vector<EdgeId> move;
      for (NodeId v : current.frontier) {
        const std::vector<EdgeId>& choices = graph.bstar(v);
        if (choices.empty()) {
          return Status::FailedPrecondition(
              "greedy search: artifact cannot be derived");
        }
        EdgeId best = choices[0];
        for (EdgeId e : choices) {
          if (aug.edge_weight[static_cast<size_t>(e)] <
              aug.edge_weight[static_cast<size_t>(best)]) {
            best = e;
          }
        }
        move.push_back(best);
      }
      std::sort(move.begin(), move.end());
      move.erase(std::unique(move.begin(), move.end()), move.end());
      Partial next = pool.Acquire();
      ApplyMoveInto(aug, current, move, source, scratch, next);
      ++st.expansions;
      if (next.frontier == current.frontier) {
        return Status::Internal("greedy search made no progress");
      }
      pool.Release(std::move(current));
      current = std::move(next);
    }
    Plan plan;
    plan.edges = std::move(current.edges);
    plan.cost = current.cost;
    for (EdgeId e : plan.edges) {
      plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
    }
    return plan;
  }

  const bool use_astar = options.strategy == Strategy::kAStar;
  const LowerBounds lb = use_astar ? ComputeLowerBounds(aug) : LowerBounds();
  initial.priority = use_astar ? AdmissiblePriority(initial, lb) : initial.cost;

  double best_cost = kInf;
  Partial best_plan;
  bool found = false;
  int64_t budget = options.max_expansions;
  auto take_budget = [&budget]() { return --budget >= 0; };
  // Antichain dominance. With dominance pruning on, states are also
  // filtered at insertion time; this bounds the open containers' memory,
  // which would otherwise balloon on alternative-rich augmentations before
  // the expansion budget triggers.
  DominanceTable dominance;
  auto dominated_at_push = [&](const Partial& p) {
    if (!options.dominance_pruning) {
      return false;
    }
    if (!dominance.Improve(p.frontier, p.visited, p.cost)) {
      ++st.pruned_by_dominance;
      return true;
    }
    return false;
  };
  // A strictly better dominating plan was pushed since.
  auto dominated_at_pop = [&](const Partial& p) {
    if (!options.dominance_pruning) {
      return false;
    }
    if (dominance.BestDominating(p.frontier, p.visited, kInf) <
        p.cost - kCostEps) {
      ++st.pruned_by_dominance;
      return true;
    }
    return false;
  };
  auto consider_complete = [&](const Partial& p) {
    // Guard: accept only executable plans (cycle-safety; see DESIGN.md).
    if (p.cost < best_cost &&
        IsValidPlan(graph, p.edges, {source}, targets)) {
      best_cost = p.cost;
      best_plan = p;
      found = true;
    }
  };

  ObjectPool<Partial> pool;
  std::vector<NodeId> scratch;

  if (options.strategy == Strategy::kStack) {
    std::vector<Partial> stack;
    stack.push_back(std::move(initial));
    while (!stack.empty()) {
      Partial current = std::move(stack.back());
      stack.pop_back();
      ++st.plans_examined;
      if (current.cost >= best_cost) {
        ++st.pruned_by_bound;
        pool.Release(std::move(current));
        continue;
      }
      if (current.frontier.empty()) {
        consider_complete(current);
        pool.Release(std::move(current));
        continue;
      }
      if (dominated_at_pop(current)) {
        pool.Release(std::move(current));
        continue;
      }
      ++st.expansions;
      const bool within_budget = ForEachMove(
          aug, current, take_budget, [&](const std::vector<EdgeId>& move) {
            Partial next = pool.Acquire();
            ApplyMoveInto(aug, current, move, source, scratch, next);
            if (next.cost >= best_cost) {
              ++st.pruned_by_bound;
              pool.Release(std::move(next));
            } else if (dominated_at_push(next)) {
              pool.Release(std::move(next));
            } else {
              stack.push_back(std::move(next));
            }
          });
      pool.Release(std::move(current));
      if (!within_budget) {
        return Status::ResourceExhausted(
            "plan search exceeded the expansion budget");
      }
    }
  } else {  // kPriority / kAStar
    std::vector<Partial> open;  // binary min-heap on priority
    open.push_back(std::move(initial));
    while (!open.empty()) {
      std::pop_heap(open.begin(), open.end(), WorsePriority);
      Partial current = std::move(open.back());
      open.pop_back();
      ++st.plans_examined;
      if (current.priority >= best_cost) {
        // Everything left is at least as expensive: done.
        break;
      }
      if (current.frontier.empty()) {
        consider_complete(current);
        pool.Release(std::move(current));
        continue;
      }
      if (dominated_at_pop(current)) {
        pool.Release(std::move(current));
        continue;
      }
      ++st.expansions;
      const bool within_budget = ForEachMove(
          aug, current, take_budget, [&](const std::vector<EdgeId>& move) {
            Partial next = pool.Acquire();
            ApplyMoveInto(aug, current, move, source, scratch, next);
            next.priority =
                use_astar ? AdmissiblePriority(next, lb) : next.cost;
            if (next.priority >= best_cost) {
              ++st.pruned_by_bound;
              pool.Release(std::move(next));
            } else if (dominated_at_push(next)) {
              pool.Release(std::move(next));
            } else {
              open.push_back(std::move(next));
              std::push_heap(open.begin(), open.end(), WorsePriority);
            }
          });
      pool.Release(std::move(current));
      if (!within_budget) {
        return Status::ResourceExhausted(
            "plan search exceeded the expansion budget");
      }
    }
  }

  if (!found) {
    return Status::FailedPrecondition(
        "no executable plan connects the source to the targets");
  }

  Plan plan;
  plan.edges = std::move(best_plan.edges);
  plan.cost = best_plan.cost;
  for (EdgeId e : plan.edges) {
    plan.seconds += aug.edge_seconds[static_cast<size_t>(e)];
  }
  return plan;
}

Result<Plan> PlanGenerator::BruteForce(const Augmentation& aug) const {
  Options options;
  options.strategy = Strategy::kStack;
  options.dominance_pruning = false;
  options.max_expansions = std::numeric_limits<int64_t>::max();
  // Bound pruning stays on: a partial plan that already costs at least the
  // best complete plan cannot lead to a cheaper one, so dropping it never
  // changes the returned optimum.
  return Optimize(aug, options);
}

}  // namespace hyppo::core
