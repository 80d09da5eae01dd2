#include "conclave/relational/pipeline.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "conclave/common/check.h"
#include "conclave/common/env.h"
#include "conclave/mpc/reveal_source.h"
#include "conclave/relational/csv.h"
#include "conclave/relational/expr.h"
#include "conclave/relational/group_fold.h"

namespace conclave {

int64_t DefaultBatchRows() {
  // "materialize" (and its numeric spelling "0") turns fusion off; anything
  // else must be a positive batch size.
  return env::Int64Knob("CONCLAVE_BATCH_ROWS", kDefaultBatchRows, /*min_value=*/1,
                        std::numeric_limits<int64_t>::max(),
                        {{"materialize", kMaterializeBatchRows},
                         {"0", kMaterializeBatchRows}});
}

PipelineOp PipelineOp::Filter(const FilterPredicate& predicate) {
  PipelineOp op;
  op.kind = Kind::kFilter;
  op.filter = predicate;
  return op;
}

PipelineOp PipelineOp::Project(std::vector<int> columns) {
  PipelineOp op;
  op.kind = Kind::kProject;
  op.columns = std::move(columns);
  return op;
}

PipelineOp PipelineOp::Arithmetic(const ArithSpec& spec) {
  PipelineOp op;
  op.kind = Kind::kArithmetic;
  op.arith = spec;
  return op;
}

PipelineOp PipelineOp::Limit(int64_t count) {
  PipelineOp op;
  op.kind = Kind::kLimit;
  op.limit_count = count;
  return op;
}

PipelineOp PipelineOp::DistinctOnSorted(std::vector<int> columns) {
  PipelineOp op;
  op.kind = Kind::kDistinctOnSorted;
  op.columns = std::move(columns);
  return op;
}

PipelineOp PipelineOp::Aggregate(std::vector<int> group_columns, AggKind kind,
                                 int agg_column, std::string output_name) {
  PipelineOp op;
  op.kind = Kind::kAggregate;
  op.columns = std::move(group_columns);
  op.agg_kind = kind;
  op.agg_column = agg_column;
  op.output_name = std::move(output_name);
  return op;
}

namespace {

// Materializes rows [lo, hi) of `src` as an owned batch.
Relation CopySlice(const Relation& src, int64_t lo, int64_t hi) {
  Relation batch{src.schema()};
  batch.Resize(hi - lo);
  for (int c = 0; c < src.NumColumns(); ++c) {
    const auto column = src.ColumnSpan(c);
    std::copy(column.begin() + lo, column.begin() + hi, batch.ColumnData(c));
  }
  return batch;
}

}  // namespace

namespace pipeline_internal {

// The consume operator contract. An operator receives owned batches (or, for
// the pipeline head, borrowed slices of the source), emits output batches
// downstream, and may keep only O(1) rows of cross-batch state — except the
// aggregate sink, a chain's tail, which keeps O(groups) accumulators and emits
// only in its end-of-stream Finish step. Subclasses must be batch-invariant:
// concatenating the emitted batches reproduces the matching ops.h kernel bit
// for bit at every batch size. No operator buffers whole batches.
class BatchOperator {
 public:
  // `index` is the operator's executor SLOT (a fused run is one slot), not an
  // original op position; Push maps slots back to op indices for stats.
  BatchOperator(BatchPipeline* pipeline, size_t index, Schema output_schema)
      : pipeline_(pipeline), index_(index), output_schema_(std::move(output_schema)) {}
  virtual ~BatchOperator() = default;

  const Schema& output_schema() const { return output_schema_; }

  virtual void Reset() {}
  // Consumes rows [lo, hi) of a borrowed relation (a head-of-pipeline source
  // slice, or a whole owned batch via Consume), emitting zero or more output
  // batches.
  virtual void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) = 0;
  // Consumes one owned batch.
  virtual void Consume(Relation&& batch) { ConsumeSlice(batch, 0, batch.NumRows()); }
  // End of stream: every source batch has been consumed. Streaming operators
  // have nothing left; the aggregate sink emits its groups here.
  virtual void Finish() {}

 protected:
  void Emit(Relation&& batch) { pipeline_->Push(index_ + 1, std::move(batch)); }
  // Fused-slot accounting hook (see BatchPipeline::AddOpInputRows).
  void AddOpInputRows(size_t op_index, int64_t rows) {
    pipeline_->AddOpInputRows(op_index, rows);
  }

 private:
  BatchPipeline* pipeline_;
  size_t index_;
  Schema output_schema_;
};

namespace {

class LimitOperator : public BatchOperator {
 public:
  LimitOperator(BatchPipeline* pipeline, size_t index, Schema output_schema,
                int64_t count)
      : BatchOperator(pipeline, index, std::move(output_schema)), count_(count) {}

  void Reset() override { remaining_ = count_; }

  void Consume(Relation&& batch) override {
    const int64_t take = std::min(remaining_, batch.NumRows());
    remaining_ -= take;
    if (take == 0) {
      // Deliberately no early exit: the whole stream is still consumed so
      // per-operator row counts match the materializing execution.
      return;
    }
    if (take == batch.NumRows()) {
      Emit(std::move(batch));
    } else {
      Emit(CopySlice(batch, 0, take));
    }
  }

  void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) override {
    const int64_t take = std::min(remaining_, hi - lo);
    remaining_ -= take;
    if (take > 0) {
      Emit(CopySlice(src, lo, lo + take));
    }
  }

 private:
  int64_t count_;
  int64_t remaining_ = 0;
};

// Distinct over an input sorted ascending (lexicographically) by a column list
// of which `columns` is a prefix: the projection onto `columns` is then
// non-decreasing, so keeping the first row of every equal run emits exactly
// ops::Distinct's sorted unique rows. Cross-batch state is one row.
class DistinctOnSortedOperator : public BatchOperator {
 public:
  DistinctOnSortedOperator(BatchPipeline* pipeline, size_t index,
                           Schema output_schema, std::vector<int> columns)
      : BatchOperator(pipeline, index, std::move(output_schema)),
        columns_(std::move(columns)) {}

  void Reset() override {
    last_row_.clear();
    has_last_ = false;
  }

  void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) override {
    selected_.clear();
    std::vector<const int64_t*> cols(columns_.size());
    for (size_t i = 0; i < columns_.size(); ++i) {
      cols[i] = hi == lo ? nullptr : src.ColumnSpan(columns_[i]).data();
    }
    for (int64_t r = lo; r < hi; ++r) {
      bool is_new = !has_last_;
      if (!is_new) {
        for (size_t i = 0; i < cols.size(); ++i) {
          if (cols[i][r] != last_row_[i]) {
            is_new = true;
            break;
          }
        }
      }
      if (is_new) {
        selected_.push_back(r);
        has_last_ = true;
        last_row_.resize(cols.size());
        for (size_t i = 0; i < cols.size(); ++i) {
          last_row_[i] = cols[i][r];
        }
      }
    }
    if (selected_.empty()) {
      return;
    }
    Relation out{output_schema()};
    out.Resize(static_cast<int64_t>(selected_.size()));
    for (size_t i = 0; i < columns_.size(); ++i) {
      ops::GatherColumnInto(src, columns_[i], selected_,
                            out.ColumnData(static_cast<int>(i)));
    }
    Emit(std::move(out));
  }

 private:
  std::vector<int> columns_;
  bool has_last_ = false;
  std::vector<int64_t> last_row_;      // The last emitted distinct row; O(1) rows.
  std::vector<int64_t> selected_;      // Reused scratch; O(batch) rows.
};

// One executor slot covering a maximal run of adjacent filter / project /
// arithmetic ops (relational/expr.h; a lone op is a run of length 1): the whole
// run evaluates in one register-resident pass per batch. The batch's rows are
// attributed to the run's FIRST original op by the caller; the interior ops'
// per-op input rows come from the program's accounting and flow through
// AddOpInputRows, so op_input_rows equals the materializing execution's
// intermediate cardinalities at every batch size.
class FusedExprOperator : public BatchOperator {
 public:
  FusedExprOperator(BatchPipeline* pipeline, size_t slot, Schema output_schema,
                    FusedExprProgram program, size_t first_op)
      : BatchOperator(pipeline, slot, std::move(output_schema)),
        program_(std::move(program)),
        first_op_(first_op),
        op_rows_(program_.num_ops()) {}

  void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) override {
    if (hi == lo) {
      return;
    }
    std::fill(op_rows_.begin(), op_rows_.end(), 0);
    Relation out = program_.Eval(src, lo, hi, op_rows_);
    for (size_t j = 1; j < op_rows_.size(); ++j) {
      AddOpInputRows(first_op_ + j, op_rows_[j]);
    }
    if (out.NumRows() > 0) {
      Emit(std::move(out));
    }
  }

 private:
  FusedExprProgram program_;
  size_t first_op_;
  std::vector<int64_t> op_rows_;  // Per-batch relative-op row counts; reused.
};

// A chain's tail group-by: folds every batch into per-group accumulators (the
// GroupFold ops::Aggregate uses, so the emitted groups are ops::Aggregate's
// bit for bit) and emits them key-sorted, as one batch, at end of stream.
// State is O(groups); nothing is emitted before Finish.
class AggregateSink : public BatchOperator {
 public:
  AggregateSink(BatchPipeline* pipeline, size_t index, Schema output_schema,
                const PipelineOp& op)
      : BatchOperator(pipeline, index, std::move(output_schema)),
        fold_(op.agg_kind, op.columns, op.agg_column) {}

  void Reset() override { fold_.Clear(); }

  void ConsumeSlice(const Relation& src, int64_t lo, int64_t hi) override {
    fold_.Add(src, lo, hi);
  }

  void Finish() override {
    Relation groups = fold_.Emit(output_schema());
    if (groups.NumRows() > 0) {
      Emit(std::move(groups));
    }
  }

 private:
  ops::GroupFold fold_;
};

}  // namespace
}  // namespace pipeline_internal

Schema BatchPipeline::DeriveSchema(const Schema& input, const PipelineOp& op) {
  switch (op.kind) {
    case PipelineOp::Kind::kFilter:
    case PipelineOp::Kind::kLimit:
      return input;
    case PipelineOp::Kind::kProject:
    case PipelineOp::Kind::kDistinctOnSorted: {
      std::vector<ColumnDef> defs;
      defs.reserve(op.columns.size());
      for (int c : op.columns) {
        defs.push_back(input.Column(c));
      }
      return Schema(std::move(defs));
    }
    case PipelineOp::Kind::kArithmetic: {
      std::vector<ColumnDef> defs = input.columns();
      defs.emplace_back(op.arith.result_name);
      return Schema(std::move(defs));
    }
    case PipelineOp::Kind::kAggregate:
      return ops::AggregateOutputSchema(input, op.columns, op.output_name);
  }
  return input;
}

BatchPipeline::BatchPipeline(const PipelineSpec& spec) {
  using pipeline_internal::BatchOperator;
  num_ops_ = spec.ops.size();
  Schema schema = spec.input_schema;
  for (const ExprSlot& slot : FuseExprSlots(spec.ops)) {
    const size_t i = operators_.size();  // This slot's executor index.
    const PipelineOp& op = spec.ops[slot.begin];
    std::unique_ptr<BatchOperator> built;
    Schema out;
    if (FusibleExprOp(op)) {
      FusedExprProgram program(
          schema, std::span<const PipelineOp>(spec.ops).subspan(
                      slot.begin, slot.size()));
      out = program.output_schema();
      built = std::make_unique<pipeline_internal::FusedExprOperator>(
          this, i, out, std::move(program), slot.begin);
    } else if (op.kind == PipelineOp::Kind::kLimit) {
      out = DeriveSchema(schema, op);
      built = std::make_unique<pipeline_internal::LimitOperator>(this, i, out,
                                                                 op.limit_count);
    } else if (op.kind == PipelineOp::Kind::kAggregate) {
      CONCLAVE_CHECK_EQ(slot.end, spec.ops.size());  // A sink ends the chain.
      out = DeriveSchema(schema, op);
      built = std::make_unique<pipeline_internal::AggregateSink>(this, i, out, op);
      tail_is_sink_ = true;
    } else {
      out = DeriveSchema(schema, op);
      built = std::make_unique<pipeline_internal::DistinctOnSortedOperator>(
          this, i, out, op.columns);
    }
    operators_.push_back(std::move(built));
    slot_first_op_.push_back(slot.begin);
    schema = std::move(out);
  }
  output_schema_ = std::move(schema);
}

BatchPipeline::~BatchPipeline() = default;

void BatchPipeline::Push(size_t slot, Relation&& batch) {
  const int64_t rows = batch.NumRows();
  // Every owned batch is resident while its slot consumes it — including the
  // batch bound for the sink while it is appended, so a chain that is one
  // fused slot still reports its batch-sized high-water mark.
  ++live_batches_;
  live_rows_ += rows;
  stats_.peak_batches_resident = std::max(stats_.peak_batches_resident, live_batches_);
  stats_.peak_rows_resident = std::max(stats_.peak_rows_resident, live_rows_);
  if (slot == operators_.size()) {
    const int64_t start = output_.NumRows();
    output_.Resize(start + rows);
    for (int c = 0; c < batch.NumColumns(); ++c) {
      const auto column = batch.ColumnSpan(c);
      std::copy(column.begin(), column.end(), output_.ColumnData(c) + start);
    }
  } else {
    if (slot > 0) {
      stats_.op_input_rows[slot_first_op_[slot]] += rows;
    }
    operators_[slot]->Consume(std::move(batch));
  }
  --live_batches_;
  live_rows_ -= rows;
}

StatusOr<Relation> BatchPipeline::RunBatches(int64_t begin, int64_t end,
                                             int64_t batch_rows,
                                             const Relation* borrowed,
                                             const BatchFetch& fetch) {
  stats_ = PipelineStats{};
  stats_.op_input_rows.assign(num_ops_, 0);
  live_batches_ = 0;
  live_rows_ = 0;
  for (auto& op : operators_) {
    op->Reset();
  }
  if (operators_.empty()) {
    // Nothing to stream through: the source passes through whole.
    return borrowed != nullptr ? StatusOr<Relation>(*borrowed) : fetch(begin, end);
  }
  const int64_t rows = end - begin;
  output_ = Relation{output_schema_};
  // Every streaming operator's output is at most its input, so the source row
  // count bounds the output: one reservation, no quadratic regrowth on append.
  // A sink's single batch of groups needs none.
  if (!tail_is_sink_) {
    output_.Reserve(rows);
  }
  const int64_t step = batch_rows <= 0 ? std::max<int64_t>(rows, 1) : batch_rows;
  for (int64_t lo = begin; lo < end; lo += step) {
    const int64_t hi = std::min(end, lo + step);
    ++stats_.batches_pushed;
    stats_.rows_pushed += hi - lo;
    stats_.op_input_rows[0] += hi - lo;
    if (borrowed != nullptr) {
      operators_[0]->ConsumeSlice(*borrowed, lo, hi);
    } else {
      // A parsed or revealed batch is pipeline-owned memory: Push routes it
      // through the residency accounting.
      CONCLAVE_ASSIGN_OR_RETURN(Relation batch, fetch(lo, hi));
      Push(0, std::move(batch));
    }
  }
  for (auto& op : operators_) {
    op->Finish();
  }
  return std::move(output_);
}

Relation BatchPipeline::Run(const Relation& input, int64_t batch_rows) {
  return RunBatches(0, input.NumRows(), batch_rows, &input, nullptr).value();
}

StatusOr<Relation> BatchPipeline::RunFromCsv(const CsvSource& source,
                                             int64_t begin, int64_t end,
                                             int64_t batch_rows) {
  return RunBatches(begin, end, batch_rows, nullptr,
                    [&source](int64_t lo, int64_t hi) {
                      return source.ParseRows(lo, hi);
                    });
}

Relation BatchPipeline::RunFromReveal(const mpc::RevealSource& source,
                                      int64_t begin, int64_t end,
                                      int64_t batch_rows) {
  return RunBatches(begin, end, batch_rows, nullptr,
                    [&source](int64_t lo, int64_t hi) -> StatusOr<Relation> {
                      return source.RevealRows(lo, hi);
                    })
      .value();
}

}  // namespace conclave
