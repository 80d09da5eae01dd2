// The compilation pipeline driver (§5): runs the six stages over a query DAG and
// produces an execution plan plus diagnostics.
//
//   1. ownership propagation            (always)
//   2. MPC frontier push-down rewrites  (options.push_down)
//   3. trust propagation                (always)
//   4. sort push-up below concats       (options.sort_push_up)
//   5. MPC frontier push-up             (options.push_up)
//   6. hybrid operator transforms       (options.use_hybrid)
//   7. oblivious-sort elimination       (options.sort_elimination)
//   8. partitioning + code generation   (always)
//
// Every stage is individually switchable so benches can ablate the paper's design
// choices (bench/ablation_passes).
#ifndef CONCLAVE_COMPILER_COMPILER_H_
#define CONCLAVE_COMPILER_COMPILER_H_

#include <string>
#include <vector>

#include "conclave/common/status.h"
#include "conclave/compiler/codegen.h"
#include "conclave/compiler/partition.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/ir/dag.h"
#include "conclave/net/cost_model.h"

namespace conclave {
namespace compiler {

struct CompilerOptions {
  bool push_down = true;
  bool push_up = true;
  bool use_hybrid = true;
  bool sort_elimination = true;
  // §5.4's proposed extension (implemented): move sorts below concats as local
  // per-party sorts + an oblivious merge.
  bool sort_push_up = true;
  // Consent to push-down rewrites whose MPC input sizes are data-dependent (§5.2).
  bool allow_cardinality_leak = true;
  // Cleartext backend: data-parallel Spark or sequential Python (§4.1).
  bool use_spark = true;
  MpcBackendKind mpc_backend = MpcBackendKind::kSharemind;
  // Cost-based backend choice (§9 extension): ignore `mpc_backend` and pick the
  // cheaper of secret sharing and garbled circuits for this query's MPC clique,
  // using `planning_cost_model` estimates. The decision lands in the compiled
  // options and the rewrite log.
  bool auto_backend = false;
  CostModel planning_cost_model;
  // Fill Compilation::cost_report with the per-node plan-cost breakdown (the explain
  // API) even when auto_backend is off. Off by default: pricing a plan is wasted
  // work for fixed-backend production runs.
  bool explain_plan = false;
  // Cardinality knobs feeding the plan-cost estimate (selectivities, default rows).
  CardinalityOptions planning_cardinality;
  // Pool parallelism assumed by the explain report's shard-count advice
  // (PlanCostReport::recommended_shard_count). 0 = this machine's hardware
  // default; set explicitly to make explain output machine-independent (e.g. in
  // golden tests).
  int planning_pool_parallelism = 0;
  // Adaptive padding (§9 extension): pad every local relation entering an MPC join /
  // grouped aggregation / window to the next power of two, hiding data-dependent
  // cardinalities on the MPC boundary behind log2 buckets. Off by default — padding
  // buys leak resistance with real extra MPC work (see bench/ablation_passes).
  bool pad_mpc_inputs = false;
  // Malicious security up to abort (Appendix A.5): every MPC input runs the
  // commit + ZK-consistency phase, and MPC time is scaled by the active-adversary
  // overhead (CostModel::malicious_overhead_factor). Semi-honest by default, like
  // the paper's prototype.
  bool malicious_security = false;
};

struct Compilation {
  ExecutionPlan plan;
  std::vector<std::string> transformations;  // Human-readable rewrite log.
  std::string generated_code;                // Per-job program listings.
  int num_parties = 0;
  CompilerOptions options;
  // Per-node cost breakdown under both MPC backends (the explain API's payload).
  // Filled when options.auto_backend or options.explain_plan is set; tests and
  // benches assert chooser decisions against it. cost_report.cheapest is the
  // cost-based pick; options.mpc_backend is what will actually run.
  PlanCostReport cost_report;
  bool has_cost_report = false;

  // The explain listing: per-node estimated costs and the chosen backend.
  std::string ExplainPlan() const;
};

// Rewrites `dag` in place and returns the plan. The DAG must have at least one
// Create and one Collect node.
StatusOr<Compilation> Compile(ir::Dag& dag, const CompilerOptions& options);

}  // namespace compiler
}  // namespace conclave

#endif  // CONCLAVE_COMPILER_COMPILER_H_
