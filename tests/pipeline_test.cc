// Tests of the push-based batch pipeline (DESIGN.md §10): every streaming
// operator against its materializing ops.h kernel across a batch-size grid with
// boundary edge cases (0-row inputs, 1-row batches, limits cut mid-batch,
// distinct runs spanning batch boundaries), bounded-memory high-water marks
// proving O(depth x batch) residency, the CONCLAVE_BATCH_ROWS knob,
// end-to-end {batch} invariance of a fused chain feeding a blocking operator
// through the public Query API, and the aggregate sink that may end a chain
// against ops::Filter / ops::Aggregate.
#include "conclave/relational/pipeline.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "conclave/api/conclave.h"
#include "conclave/common/rng.h"
#include "conclave/data/generators.h"
#include "conclave/mpc/reveal_source.h"
#include "conclave/mpc/share.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/expr.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"
#include "test_util.h"

namespace conclave {
namespace {

Relation MakeRelation(std::initializer_list<std::string> names,
                      std::initializer_list<std::initializer_list<int64_t>> rows) {
  std::vector<ColumnDef> defs;
  for (const auto& name : names) {
    defs.emplace_back(name);
  }
  Relation rel{Schema(std::move(defs))};
  for (const auto& row : rows) {
    rel.AppendRow(row);
  }
  return rel;
}

Relation RunPipeline(const PipelineSpec& spec, const Relation& input,
                     int64_t batch_rows) {
  BatchPipeline pipeline(spec);
  return pipeline.Run(input, batch_rows);
}

// Batch sizes covering the boundary cases: one row per batch, boundaries that
// fall mid-relation both on and off operator-relevant edges, the whole relation
// in one batch (0), and a batch far larger than any input.
const int64_t kBatchGrid[] = {1, 2, 3, 4, 7, 0, 1 << 20};

void ExpectPipelineMatches(const PipelineSpec& spec, const Relation& input,
                           const Relation& expected) {
  for (int64_t batch_rows : kBatchGrid) {
    const Relation got = RunPipeline(spec, input, batch_rows);
    EXPECT_TRUE(got.RowsEqual(expected))
        << "batch_rows=" << batch_rows << ": got " << got.NumRows()
        << " rows, want " << expected.NumRows();
    EXPECT_EQ(got.schema().ToString(), expected.schema().ToString())
        << "batch_rows=" << batch_rows;
  }
}

TEST(BatchPipelineTest, FilterMatchesMaterializingKernel) {
  const Relation input = data::UniformInts(257, {"a", "b"}, 50, /*seed=*/11);
  PipelineSpec spec;
  spec.input_schema = input.schema();
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25);
  spec.ops.push_back(PipelineOp::Filter(predicate));
  ExpectPipelineMatches(spec, input, ops::Filter(input, predicate));
}

TEST(BatchPipelineTest, FilterColumnVsColumnAndEmptySelections) {
  // Batches whose every row is filtered out must not surface as empty batches
  // downstream or corrupt the output.
  const Relation input = MakeRelation({"a", "b"}, {{1, 2},
                                                   {5, 5},
                                                   {9, 3},
                                                   {0, 0},
                                                   {7, 8}});
  PipelineSpec spec;
  spec.input_schema = input.schema();
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsColumn(0, CompareOp::kGe, 1);
  spec.ops.push_back(PipelineOp::Filter(predicate));
  ExpectPipelineMatches(spec, input, ops::Filter(input, predicate));
}

TEST(BatchPipelineTest, ZeroRowInputFlowsThroughEveryOperator) {
  Relation input{Schema::Of({"a", "b"})};
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kGt, 0)));
  spec.ops.push_back(PipelineOp::Project({1, 0}));
  spec.ops.push_back(PipelineOp::Limit(5));
  for (int64_t batch_rows : kBatchGrid) {
    const Relation got = RunPipeline(spec, input, batch_rows);
    EXPECT_EQ(got.NumRows(), 0) << "batch_rows=" << batch_rows;
    EXPECT_EQ(got.schema().ToString(), Schema::Of({"b", "a"}).ToString());
  }
}

TEST(BatchPipelineTest, ProjectReordersAndPreservesColumnDefs) {
  const Relation input = data::UniformInts(64, {"x", "y", "z"}, 100, /*seed=*/3);
  PipelineSpec spec;
  spec.input_schema = input.schema();
  const std::vector<int> columns = {2, 0};
  spec.ops.push_back(PipelineOp::Project(columns));
  ExpectPipelineMatches(spec, input, ops::Project(input, columns));
}

TEST(BatchPipelineTest, ArithmeticMatchesIncludingDivisionByZero) {
  // kDiv's fixed-point scale and divide-by-zero-yields-0 semantics must
  // replicate ops.h bit for bit, wherever the batch boundary falls relative to
  // the zero denominators.
  const Relation input = MakeRelation({"num", "den"}, {{10, 3},
                                                       {7, 0},
                                                       {0, 0},
                                                       {-9, 2},
                                                       {1, 1},
                                                       {100, 7}});
  ArithSpec arith;
  arith.kind = ArithKind::kDiv;
  arith.lhs_column = 0;
  arith.rhs_is_column = true;
  arith.rhs_column = 1;
  arith.result_name = "ratio";
  arith.scale = 10000;
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Arithmetic(arith));
  ExpectPipelineMatches(spec, input, ops::Arithmetic(input, arith));
}

TEST(BatchPipelineTest, LimitCutsMidBatchAndOnBatchBoundaries) {
  const Relation input = data::UniformInts(23, {"a"}, 1000, /*seed=*/7);
  // Limits below, on, and above batch boundaries, plus 0 and beyond-input.
  for (int64_t count : {0, 1, 3, 4, 8, 22, 23, 500}) {
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Limit(count));
    ExpectPipelineMatches(spec, input, ops::Limit(input, count));
  }
}

TEST(BatchPipelineTest, StreamingLimitDoesNotEarlyExit) {
  // The no-early-exit contract: operators upstream of a satisfied limit still
  // consume the whole input, so per-operator row counts (and with them the
  // dispatcher's cost charges) match the unfused execution at every batch size.
  const Relation input = data::UniformInts(100, {"a", "b"}, 50, /*seed=*/5);
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25);
  const int64_t filtered_rows = ops::Filter(input, predicate).NumRows();
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(predicate));
  spec.ops.push_back(PipelineOp::Limit(2));
  BatchPipeline pipeline(spec);
  const Relation got = pipeline.Run(input, /*batch_rows=*/10);
  EXPECT_EQ(got.NumRows(), 2);
  EXPECT_EQ(pipeline.stats().rows_pushed, input.NumRows());
  ASSERT_EQ(pipeline.stats().op_input_rows.size(), 2u);
  EXPECT_EQ(pipeline.stats().op_input_rows[0], input.NumRows());
  EXPECT_EQ(pipeline.stats().op_input_rows[1], filtered_rows);
}

TEST(BatchPipelineTest, DistinctOnSortedMatchesDistinctKernel) {
  // Duplicate runs deliberately span batch boundaries (batch sizes 1..4 all cut
  // inside some run); the operator's O(1) last-row state must bridge them.
  Relation input = MakeRelation({"k", "v"}, {{1, 1},
                                             {1, 1},
                                             {1, 1},
                                             {2, 5},
                                             {2, 5},
                                             {3, 0},
                                             {4, 9},
                                             {4, 9},
                                             {4, 9},
                                             {4, 9},
                                             {5, 2}});
  const std::vector<int> columns = {0, 1};
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::DistinctOnSorted(columns));
  ExpectPipelineMatches(spec, input, ops::Distinct(input, columns));
}

TEST(BatchPipelineTest, DistinctOnSortedPrefixOfSortColumns) {
  // Distinct on a strict prefix of the sort order (the fusion predicate's
  // condition): equal-prefix rows are adjacent even when their suffixes differ.
  Relation input = data::UniformInts(300, {"a", "b"}, 9, /*seed=*/17);
  const std::vector<int> sort_columns = {0, 1};
  input = ops::SortBy(input, sort_columns, /*ascending=*/true);
  const std::vector<int> columns = {0};
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::DistinctOnSorted(columns));
  ExpectPipelineMatches(spec, input, ops::Distinct(input, columns));
}

TEST(BatchPipelineTest, ChainedOperatorsComposeAtEveryBatchSize) {
  const Relation input = data::UniformInts(1000, {"a", "b", "c"}, 200, /*seed=*/23);
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsLiteral(2, CompareOp::kGe, 50);
  ArithSpec arith;
  arith.kind = ArithKind::kMul;
  arith.lhs_column = 0;
  arith.rhs_is_column = true;
  arith.rhs_column = 1;
  arith.result_name = "ab";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(predicate));
  spec.ops.push_back(PipelineOp::Project({0, 1}));
  spec.ops.push_back(PipelineOp::Arithmetic(arith));
  spec.ops.push_back(PipelineOp::Limit(117));

  Relation expected = ops::Filter(input, predicate);
  expected = ops::Project(expected, std::vector<int>{0, 1});
  expected = ops::Arithmetic(expected, arith);
  expected = ops::Limit(expected, 117);
  ExpectPipelineMatches(spec, input, expected);
}

TEST(BatchPipelineTest, ResidencyStaysBoundedByDepthTimesBatch) {
  // The bounded-memory claim, asserted: pushing N rows through a depth-3 chain
  // holds O(depth x batch) pipeline-owned rows at peak, not O(N).
  constexpr int64_t kRows = 100000;
  constexpr int64_t kBatch = 512;
  const Relation input = data::UniformInts(kRows, {"a", "b"}, 1000, /*seed=*/31);
  ArithSpec arith;
  arith.kind = ArithKind::kAdd;
  arith.lhs_column = 0;
  arith.rhs_is_column = false;
  arith.rhs_literal = 7;
  arith.result_name = "a7";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 500)));  // ~50%.
  spec.ops.push_back(PipelineOp::Project({0}));
  spec.ops.push_back(PipelineOp::Arithmetic(arith));

  BatchPipeline pipeline(spec);
  const Relation got = pipeline.Run(input, kBatch);
  const PipelineStats& stats = pipeline.stats();
  EXPECT_GT(got.NumRows(), 0);
  EXPECT_EQ(stats.rows_pushed, kRows);
  EXPECT_EQ(stats.batches_pushed, (kRows + kBatch - 1) / kBatch);
  const int64_t depth = static_cast<int64_t>(spec.ops.size());
  // One batch may be live per stage plus the one in flight between stages.
  EXPECT_LE(stats.peak_batches_resident, depth + 1);
  EXPECT_LE(stats.peak_rows_resident, (depth + 1) * kBatch);
  // The chain is one fused slot, so the only owned batch is the one appended to
  // the output: the witness must see it, or the bounds above hold vacuously.
  EXPECT_GT(stats.peak_batches_resident, 0);
  EXPECT_GT(stats.peak_rows_resident, 0);
  // The point of the exercise: peak residency is a tiny fraction of the input.
  EXPECT_LT(stats.peak_rows_resident, kRows / 10);
}

TEST(BatchPipelineTest, SingleBatchRunMaterializesWholeInput) {
  const Relation input = data::UniformInts(1000, {"a"}, 50, /*seed=*/41);
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25)));
  BatchPipeline pipeline(spec);
  const Relation got = pipeline.Run(input, /*batch_rows=*/0);
  EXPECT_EQ(pipeline.stats().batches_pushed, 1);
  EXPECT_EQ(pipeline.stats().rows_pushed, input.NumRows());
  EXPECT_TRUE(got.RowsEqual(ops::Filter(
      input, FilterPredicate::ColumnVsLiteral(0, CompareOp::kLt, 25))));
}

TEST(DefaultBatchRowsTest, EnvKnobParsing) {
  {
    test::ScopedEnvVar unset("CONCLAVE_BATCH_ROWS", nullptr);
    EXPECT_EQ(DefaultBatchRows(), kDefaultBatchRows);
  }
  {
    test::ScopedEnvVar env("CONCLAVE_BATCH_ROWS", "100");
    EXPECT_EQ(DefaultBatchRows(), 100);
  }
  {
    test::ScopedEnvVar env("CONCLAVE_BATCH_ROWS", "materialize");
    EXPECT_EQ(DefaultBatchRows(), kMaterializeBatchRows);
  }
  {
    // "0" is an accepted token spelling of "materialize", not a range error.
    test::ScopedEnvVar env("CONCLAVE_BATCH_ROWS", "0");
    EXPECT_EQ(DefaultBatchRows(), kMaterializeBatchRows);
  }
  // Malformed values ("-8", "not-a-number") abort loudly via env::Int64Knob;
  // that contract is covered by the death tests in common_test.cc.
}

TEST(FusedExprTest, SlotPartitioning) {
  const FilterPredicate pred = FilterPredicate::ColumnVsLiteral(0, CompareOp::kGt, 0);
  ArithSpec arith;
  arith.kind = ArithKind::kAdd;
  arith.lhs_column = 0;
  arith.rhs_is_column = false;
  arith.rhs_literal = 1;
  arith.result_name = "x";
  std::vector<PipelineOp> ops;
  ops.push_back(PipelineOp::Filter(pred));           // 0: fused with 1.
  ops.push_back(PipelineOp::Arithmetic(arith));      // 1.
  ops.push_back(PipelineOp::Limit(10));              // 2: standalone.
  ops.push_back(PipelineOp::Filter(pred));           // 3: fused with 4, 5.
  ops.push_back(PipelineOp::Project({0}));           // 4.
  ops.push_back(PipelineOp::Filter(pred));           // 5.
  ops.push_back(PipelineOp::DistinctOnSorted({0}));  // 6: standalone.
  ops.push_back(PipelineOp::Project({0}));           // 7: a run of length 1.
  ops.push_back(PipelineOp::Limit(3));               // 8: standalone.

  const std::vector<ExprSlot> slots = FuseExprSlots(ops);
  const std::vector<std::pair<size_t, size_t>> want = {
      {0, 2}, {2, 3}, {3, 6}, {6, 7}, {7, 8}, {8, 9}};
  ASSERT_EQ(slots.size(), want.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i].begin, want[i].first) << "slot " << i;
    EXPECT_EQ(slots[i].end, want[i].second) << "slot " << i;
  }
}

// The fused evaluator's core contract: a gnarly run — computed columns feeding
// later filters and divisions, projects reordering computed and source columns,
// division by zero — produces bit-identical outputs to composing the ops.h
// kernels, and per-op input rows equal to the kernels' intermediate row
// counts, at every batch size.
TEST(FusedExprTest, FusedMatchesComposedKernelsOutputsAndAccounting) {
  const Relation input = data::UniformInts(1500, {"a", "b", "c"}, 40, /*seed=*/77);
  ArithSpec sub;  // d = a - b (negatives appear).
  sub.kind = ArithKind::kSub;
  sub.lhs_column = 0;
  sub.rhs_is_column = true;
  sub.rhs_column = 1;
  sub.result_name = "d";
  ArithSpec div;  // e = trunc(100 * d / c); c hits 0 regularly.
  div.kind = ArithKind::kDiv;
  div.lhs_column = 0;
  div.rhs_is_column = true;
  div.rhs_column = 1;
  div.scale = 100;
  div.result_name = "e";
  ArithSpec mul;  // f = 3 * e.
  mul.kind = ArithKind::kMul;
  mul.lhs_column = 2;
  mul.rhs_is_column = false;
  mul.rhs_literal = 3;
  mul.result_name = "f";
  const FilterPredicate d_gt = FilterPredicate::ColumnVsLiteral(3, CompareOp::kGt, -20);
  const FilterPredicate e_ne = FilterPredicate::ColumnVsLiteral(3, CompareOp::kNe, 0);
  const std::vector<int> reorder = {3, 2, 0};
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Arithmetic(sub));      // [a b c d]
  spec.ops.push_back(PipelineOp::Filter(d_gt));         // Filter on the computed d.
  spec.ops.push_back(PipelineOp::Project(reorder));     // [d c a]
  spec.ops.push_back(PipelineOp::Arithmetic(div));      // [d c a e]
  spec.ops.push_back(PipelineOp::Filter(e_ne));
  spec.ops.push_back(PipelineOp::Arithmetic(mul));      // [d c a e f]

  // The reference: one ops.h kernel per op, recording each op's input rows.
  std::vector<int64_t> want_rows;
  Relation want = input;
  want_rows.push_back(want.NumRows());
  want = ops::Arithmetic(want, sub);
  want_rows.push_back(want.NumRows());
  want = ops::Filter(want, d_gt);
  want_rows.push_back(want.NumRows());
  want = ops::Project(want, reorder);
  want_rows.push_back(want.NumRows());
  want = ops::Arithmetic(want, div);
  want_rows.push_back(want.NumRows());
  want = ops::Filter(want, e_ne);
  want_rows.push_back(want.NumRows());
  want = ops::Arithmetic(want, mul);
  // Both filters bite, so the accounting is not trivially the input size.
  ASSERT_LT(want_rows[2], want_rows[1]);
  ASSERT_LT(want_rows[5], want_rows[4]);

  for (int64_t batch_rows : kBatchGrid) {
    BatchPipeline fused(spec);
    const Relation got = fused.Run(input, batch_rows);
    ASSERT_TRUE(got.RowsEqual(want)) << "batch_rows=" << batch_rows;
    EXPECT_EQ(got.schema().ToString(), want.schema().ToString());
    EXPECT_EQ(fused.stats().op_input_rows, want_rows)
        << "batch_rows=" << batch_rows;
  }
}

// A lone filter, project or arithmetic between two limits is its own length-1
// program; each must match its ops.h kernel, with the per-op accounting of the
// limit -> op -> limit composition, at every batch size.
TEST(FusedExprTest, LoneOpProgramsMatchKernels) {
  const Relation input = data::UniformInts(300, {"a", "b", "c"}, 30, /*seed=*/29);
  constexpr int64_t kHead = 271;
  constexpr int64_t kTail = 1000;
  const FilterPredicate predicate =
      FilterPredicate::ColumnVsColumn(0, CompareOp::kLe, 1);
  const std::vector<int> columns = {2, 0};
  ArithSpec arith;
  arith.kind = ArithKind::kDiv;
  arith.lhs_column = 1;
  arith.rhs_is_column = true;
  arith.rhs_column = 2;  // Hits 0: divide-by-zero yields 0.
  arith.scale = 1000;
  arith.result_name = "q";
  const Relation head = ops::Limit(input, kHead);
  const struct {
    const char* name;
    PipelineOp op;
    Relation expected;
  } cases[] = {
      {"filter", PipelineOp::Filter(predicate), ops::Filter(head, predicate)},
      {"project", PipelineOp::Project(columns), ops::Project(head, columns)},
      {"arithmetic", PipelineOp::Arithmetic(arith), ops::Arithmetic(head, arith)},
  };
  for (const auto& c : cases) {
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Limit(kHead));
    spec.ops.push_back(c.op);
    spec.ops.push_back(PipelineOp::Limit(kTail));
    ASSERT_EQ(FuseExprSlots(spec.ops).size(), 3u) << c.name;
    const std::vector<int64_t> want_rows = {input.NumRows(), kHead,
                                            c.expected.NumRows()};
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline pipeline(spec);
      const Relation got = pipeline.Run(input, batch_rows);
      EXPECT_TRUE(got.RowsEqual(c.expected))
          << c.name << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.schema().ToString(), c.expected.schema().ToString())
          << c.name;
      EXPECT_EQ(pipeline.stats().op_input_rows, want_rows)
          << c.name << " batch_rows=" << batch_rows;
    }
  }
}

// A fused run downstream of a standalone operator (limit) consumes owned
// batches rather than borrowed head slices; both routes must agree.
TEST(FusedExprTest, FusedRunAfterStandaloneOperator) {
  const Relation input = data::UniformInts(800, {"a", "b"}, 64, /*seed=*/91);
  ArithSpec add;
  add.kind = ArithKind::kAdd;
  add.lhs_column = 0;
  add.rhs_is_column = true;
  add.rhs_column = 1;
  add.result_name = "s";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Limit(555));
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(1, CompareOp::kLe, 40)));
  spec.ops.push_back(PipelineOp::Arithmetic(add));
  spec.ops.push_back(PipelineOp::Project({2, 0}));

  Relation expected = ops::Limit(input, 555);
  expected = ops::Filter(
      expected, FilterPredicate::ColumnVsLiteral(1, CompareOp::kLe, 40));
  expected = ops::Arithmetic(expected, add);
  expected = ops::Project(expected, std::vector<int>{2, 0});
  ExpectPipelineMatches(spec, input, expected);
}

// A fused local chain feeding a blocking operator (sort, then an MPC-side
// aggregate): outputs, virtual clock, and counters must be bit-identical
// between materializing execution and every batch size, at pool sizes 1 and 4.
TEST(PipelineQueryTest, FusedChainFeedingBlockingOpIsBatchInvariant) {
  auto run = [](int pool, int64_t batch_rows) {
    api::Query query;
    api::Party alice = query.AddParty("alice");
    api::Party bob = query.AddParty("bob");
    api::Table left = query.NewTable("left", {{"k"}, {"v"}}, alice);
    api::Table right = query.NewTable("right", {{"k"}, {"w"}}, bob);
    left.Filter("v", CompareOp::kLt, 600)
        .MultiplyConst("v2", "v", 3)
        .Project({"k", "v2"})
        .Join(right, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v2")
        .SortBy({"k"})
        .WriteToCsv("out", {alice, bob});
    std::map<std::string, Relation> inputs;
    inputs["left"] = data::UniformInts(700, {"k", "v"}, 900, /*seed=*/51);
    inputs["right"] = data::UniformInts(400, {"k", "w"}, 900, /*seed=*/52);
    auto result = query.Run(inputs, {}, CostModel{}, /*seed=*/42, pool,
                            /*shard_count=*/1, batch_rows);
    CONCLAVE_CHECK(result.ok());
    return std::move(*result);
  };

  const backends::ExecutionResult baseline = run(1, kMaterializeBatchRows);
  ASSERT_GT(baseline.outputs.at("out").NumRows(), 0);
  for (int pool : {1, 4}) {
    for (int64_t batch_rows :
         {int64_t{1}, int64_t{7}, kDefaultBatchRows,
          int64_t{std::numeric_limits<int>::max()}}) {
      const backends::ExecutionResult got = run(pool, batch_rows);
      EXPECT_TRUE(got.outputs.at("out").RowsEqual(baseline.outputs.at("out")))
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.virtual_seconds, baseline.virtual_seconds)
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.local_seconds, baseline.local_seconds)
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.counters.cleartext_records,
                baseline.counters.cleartext_records)
          << "pool=" << pool << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.counters.network_bytes, baseline.counters.network_bytes)
          << "pool=" << pool << " batch_rows=" << batch_rows;
    }
  }
}

// Same invariance with the data plane sharded: fused chains there hold only the
// per-row operators, executed as one pipeline task per shard.
TEST(PipelineQueryTest, ShardedFusedChainsMatchMaterializing) {
  auto run = [](int shards, int64_t batch_rows) {
    api::Query query;
    api::Party alice = query.AddParty("alice");
    api::Party bob = query.AddParty("bob");
    api::Table left = query.NewTable("left", {{"k"}, {"v"}}, alice);
    api::Table right = query.NewTable("right", {{"k"}, {"w"}}, bob);
    left.Filter("v", CompareOp::kLt, 600)
        .AddConst("v2", "v", 11)
        .Join(right, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v2")
        .WriteToCsv("out", {alice});
    std::map<std::string, Relation> inputs;
    inputs["left"] = data::UniformInts(900, {"k", "v"}, 800, /*seed=*/61);
    inputs["right"] = data::UniformInts(500, {"k", "w"}, 800, /*seed=*/62);
    auto result = query.Run(inputs, {}, CostModel{}, /*seed=*/42,
                            /*pool_parallelism=*/2, shards, batch_rows);
    CONCLAVE_CHECK(result.ok());
    return std::move(*result);
  };

  const backends::ExecutionResult baseline = run(1, kMaterializeBatchRows);
  for (int shards : {1, 3}) {
    for (int64_t batch_rows : {int64_t{1}, int64_t{13}, kDefaultBatchRows}) {
      const backends::ExecutionResult got = run(shards, batch_rows);
      EXPECT_TRUE(got.outputs.at("out").RowsEqual(baseline.outputs.at("out")))
          << "shards=" << shards << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.virtual_seconds, baseline.virtual_seconds)
          << "shards=" << shards << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.counters.cleartext_records,
                baseline.counters.cleartext_records)
          << "shards=" << shards << " batch_rows=" << batch_rows;
    }
  }
}

// --- Streaming across the reveal frontier (DESIGN.md §14) --------------------

// RunFromReveal must be bit-identical to revealing everything and running the
// chain on the materialized relation, at every batch size — including 0-row
// and 1-row reveals.
TEST(RevealStreamTest, MatchesMaterializingAcrossBatchGrid) {
  for (int64_t rows : {int64_t{0}, int64_t{1}, int64_t{533}}) {
    const Relation input = data::UniformInts(rows, {"a", "b"}, 200, /*seed=*/77);
    Rng rng(/*seed=*/9);
    const mpc::RevealSource source(ShareRelation(input, rng));
    ASSERT_EQ(source.NumRows(), rows);

    ArithSpec add;
    add.kind = ArithKind::kAdd;
    add.lhs_column = 0;
    add.rhs_is_column = true;
    add.rhs_column = 1;
    add.result_name = "s";
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Filter(
        FilterPredicate::ColumnVsLiteral(1, CompareOp::kGe, 40)));
    spec.ops.push_back(PipelineOp::Arithmetic(add));
    spec.ops.push_back(PipelineOp::Project({2, 0}));

    BatchPipeline materializing(spec);
    const Relation expected =
        materializing.Run(source.RevealRows(0, rows), kDefaultBatchRows);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      const Relation got =
          streaming.RunFromReveal(source, 0, rows, batch_rows);
      EXPECT_TRUE(got.RowsEqual(expected))
          << "rows=" << rows << " batch_rows=" << batch_rows;
      EXPECT_EQ(got.schema().ToString(), expected.schema().ToString());
    }
  }
}

// Reveal as the head of a chain with limit and sorted-distinct tails: the
// operators that cut a stream short or dedup across batch boundaries must see
// revealed batches exactly as they would see materialized head slices.
TEST(RevealStreamTest, LimitAndDistinctTails) {
  Relation input = data::UniformInts(400, {"k", "v"}, 50, /*seed=*/31);
  const std::vector<int> sort_columns = {0, 1};
  input = ops::SortBy(input, sort_columns, /*ascending=*/true);
  Rng rng(/*seed=*/10);
  const mpc::RevealSource source(ShareRelation(input, rng));

  {
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Filter(
        FilterPredicate::ColumnVsLiteral(1, CompareOp::kGt, 5)));
    spec.ops.push_back(PipelineOp::Limit(37));
    BatchPipeline materializing(spec);
    const Relation expected =
        materializing.Run(source.RevealRows(0, input.NumRows()), 0);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      const Relation got =
          streaming.RunFromReveal(source, 0, input.NumRows(), batch_rows);
      EXPECT_TRUE(got.RowsEqual(expected)) << "limit batch=" << batch_rows;
    }
  }
  {
    // Sorted input, so the streaming adjacent-run dedup applies.
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Project({0}));
    spec.ops.push_back(PipelineOp::DistinctOnSorted({0}));
    BatchPipeline materializing(spec);
    const Relation expected =
        materializing.Run(source.RevealRows(0, input.NumRows()), 0);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      const Relation got =
          streaming.RunFromReveal(source, 0, input.NumRows(), batch_rows);
      EXPECT_TRUE(got.RowsEqual(expected)) << "distinct batch=" << batch_rows;
    }
  }
}

// Sharded chains reveal disjoint row ranges; the concatenation of the per-shard
// streams must equal slicing one whole-relation reveal with SplitEven's
// boundaries.
TEST(RevealStreamTest, RangedRevealsMatchSplitBoundaries) {
  const Relation input = data::UniformInts(101, {"a", "b"}, 300, /*seed=*/12);
  Rng rng(/*seed=*/13);
  const mpc::RevealSource source(ShareRelation(input, rng));
  const Relation whole = source.RevealRows(0, input.NumRows());
  EXPECT_TRUE(whole.RowsEqual(input));

  const int64_t rows = input.NumRows();
  for (int shards : {1, 3, 8}) {
    std::vector<Relation> parts;
    parts.reserve(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s) {
      const int64_t begin = rows * s / shards;
      const int64_t end = rows * (s + 1) / shards;
      parts.push_back(source.RevealRows(begin, end));
    }
    std::vector<const Relation*> part_ptrs;
    for (const Relation& part : parts) {
      part_ptrs.push_back(&part);
    }
    const Relation assembled = ops::Concat(part_ptrs);
    EXPECT_TRUE(assembled.RowsEqual(whole)) << "shards=" << shards;
  }
}

// The residency witness: streaming a 100k-row reveal in 256-row batches never
// reconstructs more than one batch at a time.
TEST(RevealStreamTest, ResidencyStaysAtBatchSize) {
  const Relation input = data::UniformInts(100'000, {"a", "b"}, 1 << 20,
                                           /*seed=*/14);
  Rng rng(/*seed=*/15);
  const mpc::RevealSource source(ShareRelation(input, rng));

  ArithSpec add;
  add.kind = ArithKind::kAdd;
  add.lhs_column = 0;
  add.rhs_is_column = false;
  add.rhs_literal = 1;
  add.result_name = "s";
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(1, CompareOp::kLt, 1 << 10)));
  spec.ops.push_back(PipelineOp::Arithmetic(add));

  BatchPipeline pipeline(spec);
  const Relation got = pipeline.RunFromReveal(source, 0, input.NumRows(), 256);
  EXPECT_GT(got.NumRows(), 0);
  EXPECT_EQ(source.MaxMaterializedRows(), 256);
}

// End-to-end through the public API: an MPC aggregate whose arithmetic tail the
// compiler pushes up into a local fused chain. With streaming on, the reveal
// feeds the chain batch-at-a-time (reveal_peak_rows stays at the batch size);
// with it off, the reveal materializes. Outputs, virtual clock, and counters
// must be bit-identical across the {stream_reveal, shard, batch} grid.
TEST(RevealStreamTest, QueryGridBitIdentical) {
  auto run = [](int stream_reveal, int shards, int64_t batch_rows) {
    api::Query query;
    api::Party alice = query.AddParty("alice");
    api::Party bob = query.AddParty("bob");
    api::Table left = query.NewTable("left", {{"k"}, {"v"}}, alice);
    api::Table right = query.NewTable("right", {{"k"}, {"w"}}, bob);
    left.Join(right, {"k"}, {"k"})
        .Aggregate("total", AggKind::kSum, {"k"}, "v")
        .MultiplyConst("scaled", "total", 3)
        .AddConst("biased", "scaled", 7)
        .WriteToCsv("out", {alice});
    std::map<std::string, Relation> inputs;
    inputs["left"] = data::UniformInts(600, {"k", "v"}, 500, /*seed=*/21);
    inputs["right"] = data::UniformInts(450, {"k", "w"}, 500, /*seed=*/22);
    auto result = query.Run(inputs, {}, CostModel{}, /*seed=*/42,
                            /*pool_parallelism=*/2, shards, batch_rows,
                            std::nullopt, /*mem_budget_rows=*/0, stream_reveal);
    CONCLAVE_CHECK(result.ok());
    return std::move(*result);
  };

  const backends::ExecutionResult baseline =
      run(/*stream_reveal=*/-1, /*shards=*/1, kMaterializeBatchRows);
  ASSERT_GT(baseline.outputs.at("out").NumRows(), 0);
  EXPECT_EQ(baseline.reveal_peak_rows, 0);

  for (int stream_reveal : {-1, 1}) {
    for (int shards : {1, 3}) {
      for (int64_t batch_rows : {int64_t{16}, kDefaultBatchRows}) {
        const backends::ExecutionResult got =
            run(stream_reveal, shards, batch_rows);
        EXPECT_TRUE(got.outputs.at("out").RowsEqual(baseline.outputs.at("out")))
            << "stream=" << stream_reveal << " shards=" << shards
            << " batch=" << batch_rows;
        EXPECT_EQ(got.virtual_seconds, baseline.virtual_seconds)
            << "stream=" << stream_reveal << " shards=" << shards
            << " batch=" << batch_rows;
        EXPECT_EQ(got.counters.network_bytes, baseline.counters.network_bytes)
            << "stream=" << stream_reveal << " shards=" << shards
            << " batch=" << batch_rows;
        EXPECT_EQ(got.node_seconds, baseline.node_seconds)
            << "stream=" << stream_reveal << " shards=" << shards
            << " batch=" << batch_rows;
        if (stream_reveal > 0) {
          EXPECT_GT(got.reveal_peak_rows, 0)
              << "shards=" << shards << " batch=" << batch_rows;
          EXPECT_LE(got.reveal_peak_rows, batch_rows)
              << "shards=" << shards << " batch=" << batch_rows;
        } else {
          EXPECT_EQ(got.reveal_peak_rows, 0)
              << "shards=" << shards << " batch=" << batch_rows;
        }
      }
    }
  }
}

// --- Aggregate sink (a group-by ending a chain) -------------------------------

const AggKind kAllAggKinds[] = {AggKind::kSum, AggKind::kCount, AggKind::kMin,
                                AggKind::kMax, AggKind::kMean};

// One key, two keys, and the global group.
const std::vector<std::vector<int>> kGroupings = {{0}, {0, 1}, {}};

// Runs `pre` then an aggregate sink over `input` at every grid batch size and
// checks it against `expected` (the composed ops.h kernels): rows, schema, and
// per-op input rows equal to the kernels' intermediate counts `want_rows`.
void ExpectSinkMatches(const Relation& input, std::vector<PipelineOp> pre,
                       const PipelineOp& aggregate, const Relation& expected,
                       const std::vector<int64_t>& want_rows) {
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops = std::move(pre);
  spec.ops.push_back(aggregate);
  for (int64_t batch_rows : kBatchGrid) {
    BatchPipeline pipeline(spec);
    const Relation got = pipeline.Run(input, batch_rows);
    EXPECT_TRUE(got.RowsEqual(expected))
        << "batch_rows=" << batch_rows << " kind=" << AggKindName(aggregate.agg_kind)
        << " keys=" << aggregate.columns.size() << ": got " << got.NumRows()
        << " rows, want " << expected.NumRows();
    EXPECT_EQ(got.schema().ToString(), expected.schema().ToString())
        << "batch_rows=" << batch_rows;
    EXPECT_EQ(pipeline.stats().op_input_rows, want_rows)
        << "batch_rows=" << batch_rows << " kind=" << AggKindName(aggregate.agg_kind);
  }
}

// Filter -> aggregate (push-down's per-party partial) against ops::Filter then
// ops::Aggregate, for every AggKind and every grouping.
void ExpectFilterAggregateMatches(const Relation& input,
                                  const FilterPredicate& predicate,
                                  int agg_column) {
  const Relation filtered = ops::Filter(input, predicate);
  for (const std::vector<int>& group : kGroupings) {
    for (AggKind kind : kAllAggKinds) {
      ExpectSinkMatches(
          input, {PipelineOp::Filter(predicate)},
          PipelineOp::Aggregate(group, kind, agg_column, "agg"),
          ops::Aggregate(filtered, group, kind, agg_column, "agg"),
          {input.NumRows(), filtered.NumRows()});
    }
  }
}

TEST(AggregateSinkTest, FilterAggregateMatchesComposedKernels) {
  const Relation input = data::UniformInts(1500, {"k", "j", "v"}, 12, /*seed=*/91);
  ExpectFilterAggregateMatches(
      input, FilterPredicate::ColumnVsLiteral(2, CompareOp::kGe, 4), /*agg_column=*/2);
}

TEST(AggregateSinkTest, ProjectArithmeticAggregateMatchesComposedKernels) {
  const Relation input = data::UniformInts(900, {"a", "b", "c"}, 30, /*seed=*/92);
  ArithSpec sub;  // d = c - b (negatives appear).
  sub.kind = ArithKind::kSub;
  sub.lhs_column = 2;
  sub.rhs_is_column = true;
  sub.rhs_column = 1;
  sub.result_name = "d";
  // Project to (b, a, d): the sink groups by the reordered columns and folds
  // the computed one.
  const std::vector<int> columns = {1, 0, 3};
  Relation projected = ops::Project(ops::Arithmetic(input, sub), columns);
  for (const std::vector<int>& group : kGroupings) {
    for (AggKind kind : kAllAggKinds) {
      ExpectSinkMatches(input,
                        {PipelineOp::Arithmetic(sub), PipelineOp::Project(columns)},
                        PipelineOp::Aggregate(group, kind, /*agg_column=*/2, "agg"),
                        ops::Aggregate(projected, group, kind, 2, "agg"),
                        {input.NumRows(), input.NumRows(), input.NumRows()});
    }
  }
}

TEST(AggregateSinkTest, LoneAggregateMatchesKernel) {
  const Relation input = data::UniformInts(300, {"k", "j", "v"}, 7, /*seed=*/93);
  for (const std::vector<int>& group : kGroupings) {
    for (AggKind kind : kAllAggKinds) {
      ExpectSinkMatches(input, {}, PipelineOp::Aggregate(group, kind, 2, "agg"),
                        ops::Aggregate(input, group, kind, 2, "agg"),
                        {input.NumRows()});
    }
  }
}

TEST(AggregateSinkTest, EmptyInputAndAllRejectingFilter) {
  // No row reaches the sink: no group is emitted, the global one included,
  // exactly as ops::Aggregate over an empty relation.
  const Relation empty{Schema::Of({"k", "j", "v"})};
  ExpectFilterAggregateMatches(
      empty, FilterPredicate::ColumnVsLiteral(2, CompareOp::kGe, 0), 2);
  const Relation input = data::UniformInts(200, {"k", "j", "v"}, 10, /*seed=*/94);
  ExpectFilterAggregateMatches(
      input, FilterPredicate::ColumnVsLiteral(2, CompareOp::kGt, 1000), 2);
  for (const std::vector<int>& group : kGroupings) {
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(
        PipelineOp::Filter(FilterPredicate::ColumnVsLiteral(2, CompareOp::kLt, 0)));
    spec.ops.push_back(PipelineOp::Aggregate(group, AggKind::kCount, 0, "n"));
    EXPECT_EQ(RunPipeline(spec, input, 16).NumRows(), 0);
  }
}

TEST(AggregateSinkTest, ExtremeValuesAndWrappingSums) {
  // Sums wrap modulo 2^64 however the rows split into batches; min/max see the
  // int64 extremes (the accumulators' own identity values).
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  const Relation input = MakeRelation({"k", "j", "v"}, {{0, 0, kMax},
                                                        {0, 1, 1},
                                                        {1, 0, kMin},
                                                        {0, 0, kMax},
                                                        {1, 1, -1},
                                                        {2, 0, kMin},
                                                        {2, 1, kMax},
                                                        {1, 0, 5},
                                                        {0, 1, kMax}});
  ExpectFilterAggregateMatches(
      input, FilterPredicate::ColumnVsLiteral(2, CompareOp::kNe, 5), 2);
  // Pin the wrapped values themselves, not only the agreement with the
  // kernel: each sum is the uint64 sum of its group's values.
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Aggregate({0}, AggKind::kSum, 2, "s"));
  const Relation sums = RunPipeline(spec, input, 2);
  ASSERT_EQ(sums.NumRows(), 3);
  const auto wrap = [](std::initializer_list<int64_t> values) {
    uint64_t total = 0;
    for (int64_t v : values) {
      total += static_cast<uint64_t>(v);
    }
    return static_cast<int64_t>(total);
  };
  EXPECT_EQ(sums.At(0, 1), wrap({kMax, 1, kMax, kMax}));
  EXPECT_EQ(sums.At(1, 1), wrap({kMin, -1, 5}));
  EXPECT_EQ(sums.At(2, 1), -1);  // kMin + kMax.
}

TEST(AggregateSinkTest, FilterAggregateResidencyStaysWithinOneBatch) {
  // The sink holds O(groups) accumulators, never the filtered relation: over
  // 100k rows the only owned batches are the fused filter's output and the
  // sink's one batch of groups, each at most a batch.
  constexpr int64_t kRows = 100000;
  constexpr int64_t kBatch = 512;
  const Relation input = data::UniformInts(kRows, {"k", "v"}, 16, /*seed=*/95);
  PipelineSpec spec;
  spec.input_schema = input.schema();
  spec.ops.push_back(PipelineOp::Filter(
      FilterPredicate::ColumnVsLiteral(1, CompareOp::kGt, 3)));
  spec.ops.push_back(PipelineOp::Aggregate({0}, AggKind::kSum, 1, "total"));
  BatchPipeline pipeline(spec);
  const Relation got = pipeline.Run(input, kBatch);
  EXPECT_EQ(got.NumRows(), 16);
  EXPECT_GT(pipeline.stats().peak_rows_resident, 0);
  EXPECT_LE(pipeline.stats().peak_rows_resident, kBatch);
  EXPECT_EQ(pipeline.stats().batches_pushed, (kRows + kBatch - 1) / kBatch);
}

TEST(AggregateSinkTest, RevealedAndParsedBatchesMatchBorrowedSlices) {
  // The sink folds whatever batches reach it: revealed or parsed source
  // batches give the same groups as borrowed slices of the source.
  const Relation input = data::UniformInts(333, {"k", "j", "v"}, 9, /*seed=*/96);
  Rng rng(/*seed=*/97);
  const mpc::RevealSource reveal(ShareRelation(input, rng));
  StatusOr<CsvSource> csv = CsvSource::FromText(ToCsv(input));
  ASSERT_TRUE(csv.ok());
  for (const std::vector<int>& group : kGroupings) {
    PipelineSpec spec;
    spec.input_schema = input.schema();
    spec.ops.push_back(PipelineOp::Filter(
        FilterPredicate::ColumnVsLiteral(2, CompareOp::kLe, 6)));
    spec.ops.push_back(PipelineOp::Aggregate(group, AggKind::kMean, 2, "m"));
    const Relation expected = RunPipeline(spec, input, 0);
    ASSERT_GT(expected.NumRows(), 0);
    for (int64_t batch_rows : kBatchGrid) {
      BatchPipeline streaming(spec);
      EXPECT_TRUE(streaming.RunFromReveal(reveal, 0, input.NumRows(), batch_rows)
                      .RowsEqual(expected))
          << "reveal batch_rows=" << batch_rows;
      StatusOr<Relation> parsed =
          streaming.RunFromCsv(*csv, 0, input.NumRows(), batch_rows);
      ASSERT_TRUE(parsed.ok());
      EXPECT_TRUE(parsed->RowsEqual(expected)) << "csv batch_rows=" << batch_rows;
    }
  }
}

TEST(AggregateSinkDeathTest, AggregateMustEndTheChain) {
  PipelineSpec spec;
  spec.input_schema = Schema::Of({"k", "v"});
  spec.ops.push_back(PipelineOp::Aggregate({0}, AggKind::kSum, 1, "s"));
  spec.ops.push_back(PipelineOp::Limit(1));
  EXPECT_DEATH(BatchPipeline pipeline(spec), "");
}

}  // namespace
}  // namespace conclave
