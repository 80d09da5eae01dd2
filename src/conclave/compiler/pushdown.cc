#include "conclave/compiler/pushdown.h"

#include <set>

#include "conclave/common/strings.h"
#include "conclave/compiler/ownership.h"

namespace conclave {
namespace compiler {
namespace {

bool IsDistributive(const ir::OpNode& node) {
  switch (node.kind) {
    case ir::OpKind::kProject:
    case ir::OpKind::kFilter:
    case ir::OpKind::kArithmetic:
      return true;
    default:
      return false;
  }
}

// op(concat(a, b, ...)) -> concat(op(a), op(b), ...). `node` must be unary,
// distributive, and the sole consumer of its concat input.
bool PushThroughConcat(ir::Dag& dag, ir::OpNode* node, std::vector<std::string>* log) {
  ir::OpNode* concat = node->inputs[0];
  std::vector<ir::OpNode*> branches = concat->inputs;

  std::vector<ir::OpNode*> per_branch;
  per_branch.reserve(branches.size());
  for (ir::OpNode* branch : branches) {
    StatusOr<ir::OpNode*> clone = [&]() -> StatusOr<ir::OpNode*> {
      switch (node->kind) {
        case ir::OpKind::kProject:
          return dag.AddProject(branch, node->Params<ir::ProjectParams>().columns);
        case ir::OpKind::kFilter:
          return dag.AddFilter(branch, node->Params<ir::FilterParams>());
        case ir::OpKind::kArithmetic:
          return dag.AddArithmetic(branch, node->Params<ir::ArithmeticParams>());
        default:
          return InternalError("non-distributive op in concat push-down");
      }
    }();
    if (!clone.ok()) {
      return false;  // Schema mismatch on some branch; leave the DAG untouched.
    }
    per_branch.push_back(*clone);
  }

  const auto new_concat = dag.AddConcat(per_branch);
  CONCLAVE_CHECK(new_concat.ok());
  // Rewire all consumers of `node` to the new concat, then detach node and the
  // old concat, which has no consumers left.
  for (ir::OpNode* consumer : std::vector<ir::OpNode*>(node->outputs)) {
    dag.ReplaceInput(consumer, node, *new_concat);
  }
  dag.Detach(node);
  dag.Detach(concat);
  log->push_back(StrFormat("push-down: moved %s #%d below concat #%d (%zu branches)",
                           ir::OpKindName(node->kind), node->id, concat->id,
                           per_branch.size()));
  return true;
}

// aggregate(concat(a, b, ...)) -> secondary_aggregate(concat(local_agg(a), ...)).
// `secondary_ids` records combine aggregations this pass already produced so the
// rewrite does not fire on its own output and loop forever.
bool SplitAggregate(ir::Dag& dag, ir::OpNode* node, bool allow_cardinality_leak,
                    std::set<int>* secondary_ids, std::vector<std::string>* log) {
  const auto params = node->Params<ir::AggregateParams>();
  // Mean does not decompose into a single-valued local partial; keep it under MPC.
  if (params.kind == AggKind::kMean) {
    return false;
  }
  // A grouped split reveals per-party distinct-key counts (data-dependent MPC input
  // sizes); the paper requires party consent for that (§5.2).
  if (!params.group_columns.empty() && !allow_cardinality_leak) {
    return false;
  }

  ir::OpNode* concat = node->inputs[0];
  std::vector<ir::OpNode*> partials;
  partials.reserve(concat->inputs.size());
  for (ir::OpNode* branch : concat->inputs) {
    auto local = dag.AddAggregate(branch, params);
    if (!local.ok()) {
      return false;
    }
    partials.push_back(*local);
  }
  const auto new_concat = dag.AddConcat(partials);
  CONCLAVE_CHECK(new_concat.ok());

  // Secondary aggregation combines the partials: counts are summed; sums, mins and
  // maxes combine with their own kind.
  ir::AggregateParams secondary;
  secondary.group_columns = params.group_columns;
  secondary.kind = params.kind == AggKind::kCount ? AggKind::kSum : params.kind;
  secondary.agg_column = params.output_name;
  secondary.output_name = params.output_name;
  const auto combine = dag.AddAggregate(*new_concat, secondary);
  CONCLAVE_CHECK(combine.ok());
  secondary_ids->insert((*combine)->id);

  for (ir::OpNode* consumer : std::vector<ir::OpNode*>(node->outputs)) {
    dag.ReplaceInput(consumer, node, *combine);
  }
  dag.Detach(node);
  dag.Detach(concat);
  log->push_back(StrFormat(
      "push-down: split %s aggregation #%d into %zu local pre-aggregations + MPC "
      "combine%s",
      AggKindName(params.kind), node->id, partials.size(),
      params.group_columns.empty() ? ""
                                   : " (reveals per-party group counts; authorized)"));
  return true;
}

}  // namespace

std::vector<std::string> PushDown(ir::Dag& dag, bool allow_cardinality_leak) {
  std::vector<std::string> log;
  std::set<int> secondary_ids;
  bool changed = true;
  while (changed) {
    changed = false;
    for (ir::OpNode* node : dag.TopoOrder()) {
      if (node->inputs.size() != 1) {
        continue;
      }
      ir::OpNode* input = node->inputs[0];
      if (input->kind != ir::OpKind::kConcat || input->outputs.size() != 1) {
        continue;
      }
      if (IsDistributive(*node)) {
        if (PushThroughConcat(dag, node, &log)) {
          changed = true;
          break;  // Topo order is stale after a rewrite; restart the sweep.
        }
      } else if (node->kind == ir::OpKind::kAggregate &&
                 secondary_ids.count(node->id) == 0) {
        if (SplitAggregate(dag, node, allow_cardinality_leak, &secondary_ids, &log)) {
          changed = true;
          break;
        }
      }
    }
  }
  PropagateOwnership(dag);
  return log;
}

}  // namespace compiler
}  // namespace conclave
