// Dispatcher-level tests: failure injection (simulated OOM on both MPC backends),
// cleartext-backend selection, critical-path scheduling of parallel local jobs,
// push-down plans running like their hand-written equivalents, split caching,
// and the composition of all extension features in one run.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "conclave/api/conclave.h"
#include "conclave/compiler/plan_cost.h"
#include "conclave/data/generators.h"
#include "conclave/relational/pipeline.h"
#include "conclave/relational/sharded.h"

namespace conclave {
namespace {

using api::Party;
using api::Query;
using api::Table;

struct QuerySetup {
  Query query;
  std::map<std::string, Relation> inputs;
};

// Three-party grouped sum over a join: exercises local pre-processing, an MPC join,
// and an MPC aggregation.
void BuildCreditLike(QuerySetup& setup, int64_t rows) {
  Party regulator = setup.query.AddParty("regulator");
  Party bank1 = setup.query.AddParty("bank1");
  Party bank2 = setup.query.AddParty("bank2");
  Table demo = setup.query.NewTable("demo", {{"ssn"}, {"zip"}}, regulator);
  Table s1 = setup.query.NewTable("s1", {{"ssn"}, {"score"}}, bank1);
  Table s2 = setup.query.NewTable("s2", {{"ssn"}, {"score"}}, bank2);
  demo.Join(setup.query.Concat({s1, s2}), {"ssn"}, {"ssn"})
      .Aggregate("total", AggKind::kSum, {"zip"}, "score")
      .WriteToCsv("out", {regulator});
  setup.inputs["demo"] = data::Demographics(rows, rows * 4, 8, 1);
  setup.inputs["s1"] = data::CreditScores(rows / 2, rows * 4, 2);
  setup.inputs["s2"] = data::CreditScores(rows / 2, rows * 4, 3);
}

TEST(DispatcherFailureTest, SharemindOomSurfacesAsResourceExhausted) {
  QuerySetup setup;
  BuildCreditLike(setup, 400);
  CostModel tight;
  tight.ss_memory_limit_bytes = 64 * 1024;  // Far below the join's working set.
  const auto result = setup.query.Run(setup.inputs, {}, tight);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// --- Negative-path coverage: failures must be canonical (identical status and
// --- message at every pool size) and must drain the pool cleanly — a fresh run
// --- right after a failed one succeeds. TSan validates there are no leaked or
// --- wedged tasks racing the dispatcher teardown.

// Queries are single-use, so every run rebuilds; `mutate` corrupts the inputs.
Status RunCreditLikeStatus(
    int pool, const CostModel& model,
    const std::function<void(std::map<std::string, Relation>&)>& mutate) {
  QuerySetup setup;
  BuildCreditLike(setup, 400);
  mutate(setup.inputs);
  return setup.query
      .Run(setup.inputs, {}, model, /*seed=*/42, /*pool_parallelism=*/pool)
      .status();
}

void ExpectPoolStillHealthy(int pool) {
  QuerySetup setup;
  BuildCreditLike(setup, 100);
  const auto result =
      setup.query.Run(setup.inputs, {}, CostModel{}, /*seed=*/42, pool);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->outputs.at("out").NumRows(), 0);
}

TEST(DispatcherFailureTest, MissingCreateInputFailsCanonicallyAtEveryPoolSize) {
  const auto drop_s1 = [](std::map<std::string, Relation>& inputs) {
    inputs.erase("s1");
  };
  const Status serial = RunCreditLikeStatus(1, CostModel{}, drop_s1);
  const Status parallel = RunCreditLikeStatus(4, CostModel{}, drop_s1);
  EXPECT_EQ(serial.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(serial.message().find("no input relation provided for 's1'"),
            std::string::npos)
      << serial.ToString();
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  ExpectPoolStillHealthy(4);
}

TEST(DispatcherFailureTest, SchemaMismatchFailsCanonicallyAtEveryPoolSize) {
  const auto wrong_schema = [](std::map<std::string, Relation>& inputs) {
    inputs["demo"] = data::UniformInts(50, {"ssn", "oops"}, 100, 9);
  };
  const Status serial = RunCreditLikeStatus(1, CostModel{}, wrong_schema);
  const Status parallel = RunCreditLikeStatus(4, CostModel{}, wrong_schema);
  EXPECT_EQ(serial.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(serial.message().find("does not match declared schema"),
            std::string::npos)
      << serial.ToString();
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  ExpectPoolStillHealthy(4);
}

TEST(DispatcherFailureTest, MidGraphFailureDrainsCleanlyAtEveryPoolSize) {
  // The Create jobs succeed; the MPC join then trips the simulated OOM mid-graph.
  // The canonical failure (earliest topological failing node) must be pool-size
  // independent, and the pool must come out clean.
  CostModel tight;
  tight.ss_memory_limit_bytes = 64 * 1024;
  const auto keep = [](std::map<std::string, Relation>&) {};
  const Status serial = RunCreditLikeStatus(1, tight, keep);
  const Status parallel = RunCreditLikeStatus(4, tight, keep);
  EXPECT_EQ(serial.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(serial.ToString(), parallel.ToString());
  ExpectPoolStillHealthy(4);
}

TEST(DispatcherFailureTest, GcOomSurfacesAsResourceExhausted) {
  // A two-party Cartesian join past the Obliv-C per-pair bookkeeping limit
  // (~30k total records on the default 4 GB VM, Fig. 1b).
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  Table b = query.NewTable("b", {{"k"}, {"w"}}, bob);
  a.Join(b, {"k"}, {"k"}).WriteToCsv("out", {alice});

  std::map<std::string, Relation> inputs;
  inputs["a"] = data::UniformInts(20000, {"k", "v"}, 100000, 4);
  inputs["b"] = data::UniformInts(20000, {"k", "w"}, 100000, 5);
  compiler::CompilerOptions options;
  options.mpc_backend = compiler::MpcBackendKind::kOblivC;
  const auto result = query.Run(inputs, options);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(DispatcherTest, PythonBackendSlowerThanSparkOnLocalWork) {
  auto run_with = [](bool use_spark) {
    QuerySetup setup;
    BuildCreditLike(setup, 2000);
    compiler::CompilerOptions options;
    options.use_spark = use_spark;
    auto result = setup.query.Run(setup.inputs, options);
    CONCLAVE_CHECK(result.ok());
    return result->local_seconds;
  };
  // Sequential Python processes records ~5x slower than a 3-worker Spark cluster but
  // skips the per-job startup; on small inputs the ordering flips, so measure with
  // enough rows that throughput dominates.
  const double spark = run_with(true);
  const double python = run_with(false);
  EXPECT_GT(spark, 0.0);
  EXPECT_GT(python, 0.0);
}

TEST(DispatcherTest, ParallelLocalJobsOverlapOnTheCriticalPath) {
  QuerySetup setup;
  BuildCreditLike(setup, 3000);
  const auto result = setup.query.Run(setup.inputs);
  ASSERT_TRUE(result.ok());
  // local_seconds sums every party's local job; the schedule overlaps independent
  // per-party jobs, so the critical path is shorter than local + MPC serialized.
  EXPECT_LT(result->virtual_seconds,
            result->local_seconds + result->mpc_seconds + result->hybrid_seconds);
}

TEST(DispatcherTest, AllExtensionsComposeInOneRun) {
  // Malicious security + adaptive padding + a DP output in one execution: results
  // stay correct on the exact columns, noise lands on the aggregate, proofs and
  // padding both happen.
  auto build = [](Query& query, bool noisy) {
    Party regulator = query.AddParty("regulator");
    Party bank1 = query.AddParty("bank1");
    Party bank2 = query.AddParty("bank2");
    Table demo = query.NewTable("demo", {{"ssn"}, {"zip"}}, regulator);
    Table s1 = query.NewTable("s1", {{"ssn"}, {"score"}}, bank1);
    Table s2 = query.NewTable("s2", {{"ssn"}, {"score"}}, bank2);
    Table by_zip = demo.Join(query.Concat({s1, s2}), {"ssn"}, {"ssn"})
                       .Count("cnt", {"zip"});
    if (noisy) {
      by_zip.WriteToCsvNoisy("out", {regulator}, 1.0, {{"cnt", 1.0}});
    } else {
      by_zip.WriteToCsv("out", {regulator});
    }
  };

  std::map<std::string, Relation> inputs;
  inputs["demo"] = data::Demographics(300, 1200, 6, 7);
  inputs["s1"] = data::CreditScores(150, 1200, 8);
  inputs["s2"] = data::CreditScores(150, 1200, 9);

  Query exact_query;
  build(exact_query, false);
  const auto exact = exact_query.Run(inputs);
  ASSERT_TRUE(exact.ok());

  Query full_query;
  build(full_query, true);
  compiler::CompilerOptions options;
  options.malicious_security = true;
  options.pad_mpc_inputs = true;
  const auto result = full_query.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_GT(result->counters.zk_proofs, 0u);
  EXPECT_DOUBLE_EQ(result->dp_epsilon_spent, 1.0);
  // Zip keys survive exactly; counts are noisy but rows align one-to-one.
  Relation noisy = ops::SortBy(result->outputs.at("out"), std::vector<int>{0});
  Relation reference = ops::SortBy(exact->outputs.at("out"), std::vector<int>{0});
  ASSERT_EQ(noisy.NumRows(), reference.NumRows());
  for (int64_t r = 0; r < noisy.NumRows(); ++r) {
    EXPECT_EQ(noisy.At(r, 0), reference.At(r, 0));
    EXPECT_LT(std::abs(noisy.At(r, 1) - reference.At(r, 1)), 50);
  }
}

// One executed plan, with its per-node virtual seconds keyed by topo position
// and op (node ids differ between equivalent plans built in different orders).
struct ExecutedPlan {
  backends::ExecutionResult result;
  std::vector<std::pair<std::string, double>> node_seconds;
  int fused_aggregate_tails = 0;  // Chains ending in an aggregate sink.
};

// Two banks' (k, v) tables; a selective filter, then a grouped sum for the
// regulator. `push_down` states the query the way push-down starts from (filter
// over the cross-party concat); otherwise it is the plan push-down should arrive
// at, written by hand: filter at each bank, then concat, then aggregate.
StatusOr<ExecutedPlan> RunBankFilterSum(bool push_down, const CostModel& model,
                                        const compiler::CompilerOptions& options) {
  Query query;
  Party regulator = query.AddParty("regulator");
  Party bank1 = query.AddParty("bank1");
  Party bank2 = query.AddParty("bank2");
  Table s1 = query.NewTable("s1", {{"k"}, {"v"}}, bank1);
  Table s2 = query.NewTable("s2", {{"k"}, {"v"}}, bank2);
  Table filtered =
      push_down ? query.Concat({s1, s2}).Filter("v", CompareOp::kLt, 5)
                : query.Concat({s1.Filter("v", CompareOp::kLt, 5),
                                s2.Filter("v", CompareOp::kLt, 5)});
  filtered.Aggregate("total", AggKind::kSum, {"k"}, "v")
      .WriteToCsv("out", {regulator});
  std::map<std::string, Relation> inputs;
  inputs["s1"] = data::UniformInts(3000, {"k", "v"}, 1000, /*seed=*/81);
  inputs["s2"] = data::UniformInts(3000, {"k", "v"}, 1000, /*seed=*/82);
  CONCLAVE_ASSIGN_OR_RETURN(backends::ExecutionResult result,
                            query.Run(inputs, options, model));
  ExecutedPlan plan;
  for (const ir::OpNode* node : query.dag().TopoOrder()) {
    plan.node_seconds.emplace_back(ir::OpKindName(node->kind),
                                   result.node_seconds.at(node->id));
  }
  EXPECT_EQ(plan.node_seconds.size(), result.node_seconds.size());
  plan.result = std::move(result);
  return plan;
}

void ExpectSameRun(const ExecutedPlan& a, const ExecutedPlan& b) {
  EXPECT_TRUE(a.result.outputs.at("out").RowsEqual(b.result.outputs.at("out")));
  EXPECT_EQ(a.result.virtual_seconds, b.result.virtual_seconds);
  EXPECT_EQ(a.node_seconds, b.node_seconds);
}

// Push-down moves the filter below the cross-party concat and detaches the concat
// it strands. What runs is then exactly the hand-written per-bank plan: same
// outputs, same clock, node for node — nothing is charged for the dropped concat.
TEST(DispatcherTest, PushDownRunsLikeTheHandWrittenPlan) {
  const auto pushed = RunBankFilterSum(true, CostModel{}, {});
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  ASSERT_GT(pushed->result.outputs.at("out").NumRows(), 0);
  const auto by_hand = RunBankFilterSum(false, CostModel{}, {});
  ASSERT_TRUE(by_hand.ok()) << by_hand.status().ToString();
  ExpectSameRun(*pushed, *by_hand);

  // A VM limit far below the 2 x 6000-cell (~4 MB resident) working set of the
  // raw creates, far above what the few filtered rows need (~80 KB): nothing
  // shares the creates, so the run neither aborts nor changes.
  CostModel tight;
  tight.ss_memory_limit_bytes = 1 << 20;
  const auto bounded = RunBankFilterSum(true, tight, {});
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  ExpectSameRun(*bounded, *pushed);

  // Malicious security: fewer relations enter the MPC, so the consistency-phase
  // nonce sequence is shorter. That may change share bits, never the revealed
  // rows; and both plan shapes still run identically.
  compiler::CompilerOptions malicious;
  malicious.malicious_security = true;
  const auto pushed_malicious = RunBankFilterSum(true, CostModel{}, malicious);
  ASSERT_TRUE(pushed_malicious.ok()) << pushed_malicious.status().ToString();
  EXPECT_TRUE(pushed_malicious->result.outputs.at("out").RowsEqual(
      pushed->result.outputs.at("out")));
  EXPECT_GT(pushed_malicious->result.counters.zk_proofs, 0u);
  const auto by_hand_malicious = RunBankFilterSum(false, CostModel{}, malicious);
  ASSERT_TRUE(by_hand_malicious.ok()) << by_hand_malicious.status().ToString();
  ExpectSameRun(*pushed_malicious, *by_hand_malicious);
}

// Push-down leaves a filter -> aggregate partial at each bank; with an
// unbounded budget it runs as one fused pipeline whose aggregate sink folds
// batches into group accumulators. Rows, the virtual clock, every node's
// seconds and the counters must not depend on whether, or at what batch size,
// the chain fuses. Under a budget the aggregate keeps its spilling kernel and
// the clock moves by exactly the priced spill.
TEST(DispatcherTest, FusedFilterAggregateTailMatchesMaterializing) {
  auto run = [](int64_t batch_rows, int64_t mem_budget_rows) {
    Query query;
    Party regulator = query.AddParty("regulator");
    Party bank1 = query.AddParty("bank1");
    Party bank2 = query.AddParty("bank2");
    Table s1 = query.NewTable("s1", {{"k"}, {"v"}}, bank1);
    Table s2 = query.NewTable("s2", {{"k"}, {"v"}}, bank2);
    query.Concat({s1, s2})
        .Filter("v", CompareOp::kGe, 10)
        .Aggregate("total", AggKind::kSum, {"k"}, "v")
        .WriteToCsv("out", {regulator});
    std::map<std::string, Relation> inputs;
    inputs["s1"] = data::UniformInts(3000, {"k", "v"}, 40, /*seed=*/84);
    inputs["s2"] = data::UniformInts(2000, {"k", "v"}, 40, /*seed=*/85);
    auto result = query.Run(inputs, {}, CostModel{}, /*seed=*/42,
                            /*pool_parallelism=*/2, /*shard_count=*/1,
                            batch_rows, std::nullopt, mem_budget_rows);
    CONCLAVE_CHECK(result.ok());
    // The per-bank chains the dispatcher stamped (same predicate it runs).
    const std::vector<ir::OpNode*> order = query.dag().TopoOrder();
    const std::vector<const ir::OpNode*> topo(order.begin(), order.end());
    ExecutedPlan plan;
    plan.fused_aggregate_tails = 0;
    if (batch_rows > 0) {
      for (const auto& chain : compiler::PipelineChains(
               topo, /*shard_count=*/1, std::max<int64_t>(0, mem_budget_rows))) {
        plan.fused_aggregate_tails +=
            chain.back()->kind == ir::OpKind::kAggregate ? 1 : 0;
      }
    }
    for (const ir::OpNode* node : topo) {
      plan.node_seconds.emplace_back(ir::OpKindName(node->kind),
                                     result->node_seconds.at(node->id));
    }
    plan.result = std::move(*result);
    return plan;
  };

  const ExecutedPlan baseline = run(kMaterializeBatchRows, /*mem_budget_rows=*/-1);
  ASSERT_GT(baseline.result.outputs.at("out").NumRows(), 0);
  EXPECT_EQ(baseline.fused_aggregate_tails, 0);
  for (int64_t batch_rows : {int64_t{1}, kDefaultBatchRows}) {
    const ExecutedPlan fused = run(batch_rows, /*mem_budget_rows=*/-1);
    EXPECT_EQ(fused.fused_aggregate_tails, 2) << "batch_rows=" << batch_rows;
    ExpectSameRun(fused, baseline);
    const CostCounters& got = fused.result.counters;
    const CostCounters& want = baseline.result.counters;
    EXPECT_EQ(got.cleartext_records, want.cleartext_records);
    EXPECT_EQ(got.network_bytes, want.network_bytes);
    EXPECT_EQ(got.network_rounds, want.network_rounds);
    EXPECT_EQ(got.mpc_multiplications, want.mpc_multiplications);
    EXPECT_EQ(got.mpc_comparisons, want.mpc_comparisons);
  }

  // 3000 and 2000 rows over a 256-row budget: both per-bank aggregates spill.
  for (int64_t batch_rows : {kMaterializeBatchRows, int64_t{1}, kDefaultBatchRows}) {
    const ExecutedPlan budgeted = run(batch_rows, /*mem_budget_rows=*/256);
    EXPECT_EQ(budgeted.fused_aggregate_tails, 0) << "batch_rows=" << batch_rows;
    EXPECT_TRUE(budgeted.result.outputs.at("out").RowsEqual(
        baseline.result.outputs.at("out")));
    EXPECT_GT(budgeted.result.spill_report.spill_seconds, 0.0);
    EXPECT_GT(budgeted.result.spill_report.stats.spilled_rows, 0);
    EXPECT_EQ(budgeted.result.virtual_seconds,
              baseline.result.virtual_seconds +
                  budgeted.result.spill_report.spill_seconds)
        << "batch_rows=" << batch_rows;
  }
}

// N sharded consumers of one cleartext value used to take one task-owned
// SplitEven copy each; the split is now cached per value, so both consumers
// reuse a single split.
TEST(DispatcherTest, ShardedConsumersOfOneValueSplitOnce) {
  Query query;
  Party alice = query.AddParty("alice");
  Table t = query.NewTable("t", {{"a"}, {"b"}}, alice);
  t.Filter("a", CompareOp::kLt, 500).WriteToCsv("f", {alice});
  t.AddConst("c", "b", 1).WriteToCsv("g", {alice});
  std::map<std::string, Relation> inputs;
  inputs["t"] = data::UniformInts(1200, {"a", "b"}, 1000, /*seed=*/83);

  const int64_t before = ShardedRelation::SplitEvenCalls();
  const auto result = query.Run(inputs, {}, CostModel{}, /*seed=*/42,
                                /*pool_parallelism=*/2, /*shard_count=*/4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->outputs.at("f").NumRows(), 0);
  EXPECT_GT(result->outputs.at("g").NumRows(), 0);
  EXPECT_EQ(ShardedRelation::SplitEvenCalls() - before, 1);
}

TEST(DispatcherTest, MultipleOutputsDeliverIndependently) {
  Query query;
  Party alice = query.AddParty("alice");
  Party bob = query.AddParty("bob");
  Table a = query.NewTable("a", {{"k"}, {"v"}}, alice);
  Table b = query.NewTable("b", {{"k"}, {"w"}}, bob);
  Table joined = a.Join(b, {"k"}, {"k"});
  joined.Aggregate("sum_v", AggKind::kSum, {"k"}, "v").WriteToCsv("sums", {alice});
  joined.Count("cnt", {"k"}).WriteToCsv("counts", {bob});

  std::map<std::string, Relation> inputs;
  inputs["a"] = data::UniformInts(200, {"k", "v"}, 40, 6);
  inputs["b"] = data::UniformInts(200, {"k", "w"}, 40, 7);
  const auto result = query.Run(inputs);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->outputs.contains("sums"));
  ASSERT_TRUE(result->outputs.contains("counts"));

  const int keys[] = {0};
  Relation joined_ref = ops::Join(inputs.at("a"), inputs.at("b"), keys, keys);
  const int group[] = {0};
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("sums"),
                             ops::Aggregate(joined_ref, group, AggKind::kSum, 1,
                                            "sum_v")));
  EXPECT_TRUE(UnorderedEqual(result->outputs.at("counts"),
                             ops::Aggregate(joined_ref, group, AggKind::kCount, 0,
                                            "cnt")));
}

}  // namespace
}  // namespace conclave
