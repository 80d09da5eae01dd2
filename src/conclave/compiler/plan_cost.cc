#include "conclave/compiler/plan_cost.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "conclave/common/env.h"
#include "conclave/common/strings.h"
#include "conclave/mpc/garbled/gc_cost.h"
#include "conclave/mpc/oblivious.h"
#include "conclave/mpc/protocols.h"
#include "conclave/relational/expr.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/spill.h"

namespace conclave {
namespace compiler {
namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

int64_t ToRows(double estimate) {
  // Clamp before llround: above 2^62 the conversion is UB, and the structural
  // loops (Batcher shapes, scans) only need "absurdly large", not exact.
  return estimate <= 0 ? 0 : std::llround(std::min(estimate, 0x1p62));
}

// Exact Batcher shapes are counted in closed form (O(log² n)) in uint64. Above
// this cap (2M rows) fall back to the continuous n/4·ceil(log2 n)² form in
// doubles: the relative error is negligible there (exactness matters at small and
// non-power-of-two n), and the uint64 counts cannot overflow on absurd
// cardinality estimates.
constexpr int64_t kMaxExactShapeRows = int64_t{1} << 21;

// Double-valued network shape: huge estimated relations produce exchange counts
// beyond uint64, and cost math is double anyway.
struct NetworkShape {
  double exchanges = 0;
  double layers = 0;
};

uint64_t CeilLog2(int64_t n) {
  uint64_t log = 0;
  while ((int64_t{1} << log) < n) {
    ++log;
  }
  return log;
}

NetworkShape ApproxSortShape(int64_t n) {
  const double log = static_cast<double>(CeilLog2(n));
  NetworkShape shape;
  shape.exchanges = static_cast<double>(n) / 4 * log * (log + 1);
  shape.layers = log * (log + 1) / 2;
  return shape;
}

// Accumulates one backend's price for one operator; the first working-set violation
// turns the whole operator infeasible (mirroring the engines' StatusOr returns).
struct OpAccount {
  double seconds = 0;
  bool feasible = true;
  std::string reason;

  void Infeasible(std::string why) {
    if (feasible) {
      feasible = false;
      reason = std::move(why);
    }
  }
  BackendOpCost Finish() const {
    BackendOpCost cost;
    cost.feasible = feasible;
    cost.seconds = feasible ? seconds : kInfeasible;
    cost.infeasible_reason = reason;
    return cost;
  }
};

// Prices secret-sharing work with the engines' own calibration rows
// (CostModel::SsChargeFor) and protocol structure. Every method mirrors one charge
// site in mpc/secret_share_engine.cc, mpc/oblivious.cc, mpc/protocols.cc, or
// hybrid/*.cc — when one of those changes, change the mirror here (plan_cost tests
// compare estimates against metered runs and catch drift).
class SsCoster {
 public:
  SsCoster(const CostModel& model, int num_parties)
      : model_(model), num_parties_(num_parties) {}

  double Lat(uint64_t rounds) const {
    return model_.SecondsForRounds(rounds);
  }
  // One batched primitive invocation over `elements`.
  double Batch(SsPrimitive primitive, double elements) const {
    const SsCharge charge = model_.SsChargeFor(primitive);
    return elements * charge.seconds + Lat(charge.rounds);
  }
  double Mul(double n) const { return Batch(SsPrimitive::kMult, n); }
  double Compare(CompareOp op, double n) const {
    const bool eq = op == CompareOp::kEq || op == CompareOp::kNe;
    return Batch(eq ? SsPrimitive::kEquality : SsPrimitive::kCompare, n);
  }
  double Div(double n) const { return Batch(SsPrimitive::kDivision, n); }
  double Open(double) const { return Lat(1); }
  double Ingest(double rows) const {
    return Batch(SsPrimitive::kRecordIngest, rows);
  }
  double Shuffle(double rows, double cols) const {
    return Batch(SsPrimitive::kShuffleCell, rows * cols);
  }
  double ShuffleRevealCompact(double rows, double cols) const {
    return Shuffle(rows, cols) + Open(rows);
  }
  double Select(int64_t n, int64_t m) const {
    // Clamp before summing: two 2^62-clamped estimates would overflow int64 in
    // ObliviousSelectRounds. The log term saturates anyway.
    constexpr int64_t kMax = int64_t{1} << 60;
    const uint64_t log_term =
        ObliviousSelectRounds(std::min(n, kMax), std::min(m, kMax));
    const double ops = (static_cast<double>(n) + static_cast<double>(m)) *
                       static_cast<double>(log_term);
    return ops * model_.SsChargeFor(SsPrimitive::kSelectOp).seconds +
           Lat(log_term);
  }
  // Cleartext work at the STP / joiner, in doubles (estimated row counts can
  // exceed uint64 when summed).
  double Python(double records) const {
    return records / model_.python_records_per_second;
  }
  // One point-to-point transfer (SimNetwork::Send charges bandwidth time).
  // Takes doubles: estimated byte counts can exceed uint64.
  double SendBytes(double bytes) const {
    return bytes / model_.bandwidth_bytes_per_second;
  }

  // AdjacentEqualFlags: one equality batch per key column over n-1 adjacent pairs,
  // folded with k-1 multiplications.
  double AdjacentEqualFlags(int64_t n, size_t keys) const {
    if (n <= 0 || keys == 0) {
      return 0;
    }
    const double pairs = static_cast<double>(n - 1);
    double seconds = static_cast<double>(keys) * Compare(CompareOp::kEq, pairs);
    if (keys > 1) {
      seconds += static_cast<double>(keys - 1) * Mul(pairs);
    }
    return seconds;
  }

  // Hillis-Steele segmented scan over n rows: log-depth passes of muxes (sum/count)
  // plus an ordered comparison for min/max.
  double SegmentedScan(int64_t n, AggKind kind) const {
    double seconds = 0;
    for (int64_t d = 1; d < n; d *= 2) {
      const double len = static_cast<double>(n - d);
      if (kind == AggKind::kMin || kind == AggKind::kMax) {
        seconds += Compare(CompareOp::kLt, len) + 3 * Mul(len);
      } else {
        seconds += 2 * Mul(len);
      }
    }
    return seconds;
  }

  // One Batcher compare-exchange network (sort or merge pass) over a relation of
  // `cols` columns with `keys` sort keys: per exchange, the RowGreater comparison
  // ladder plus one mux multiplication per column; per layer, the corresponding
  // batched-invocation rounds.
  double BatcherNetwork(const NetworkShape& shape, size_t cols,
                        size_t keys) const {
    if (shape.exchanges == 0) {
      return 0;
    }
    const double k = static_cast<double>(keys);
    const double eq_batches = keys > 1 ? k - 1 : 0;
    const double ladder_muls =
        (keys > 1 ? k - 1 : 0) + (keys > 2 ? k - 2 : 0);
    const double muls = ladder_muls + static_cast<double>(cols);
    const SsCharge cmp = model_.SsChargeFor(SsPrimitive::kCompare);
    const SsCharge eq = model_.SsChargeFor(SsPrimitive::kEquality);
    const SsCharge mul = model_.SsChargeFor(SsPrimitive::kMult);
    double seconds = shape.exchanges * (k * cmp.seconds +
                                        eq_batches * eq.seconds +
                                        muls * mul.seconds);
    seconds += shape.layers *
               Lat(static_cast<uint64_t>(k) * cmp.rounds +
                   static_cast<uint64_t>(eq_batches) * eq.rounds +
                   static_cast<uint64_t>(muls) * mul.rounds);
    return seconds;
  }

  double ObliviousSort(int64_t n, size_t cols, size_t keys) const {
    return BatcherNetwork(SortShape(n), cols, keys);
  }

  NetworkShape SortShape(int64_t n) const {
    if (n <= kMaxExactShapeRows) {
      const gc::BatcherNetworkShape exact =
          gc::BatcherSortShape(static_cast<uint64_t>(n));
      return {static_cast<double>(exact.exchanges),
              static_cast<double>(exact.layers)};
    }
    return ApproxSortShape(n);
  }

  NetworkShape MergeShape(int64_t run, int64_t total) const {
    if (total <= kMaxExactShapeRows) {
      const gc::BatcherNetworkShape exact = gc::BatcherMergeShape(
          static_cast<uint64_t>(run), static_cast<uint64_t>(total));
      return {static_cast<double>(exact.exchanges),
              static_cast<double>(exact.layers)};
    }
    // One merge pass: ~log2(run)+1 layers of ~total/2 comparators each.
    const double layers = static_cast<double>(CeilLog2(run)) + 1;
    return {static_cast<double>(total) / 2 * layers, layers};
  }

  // mpc::CheckWorkingSet mirror; false = the Sharemind VM would OOM.
  bool FitsWorkingSet(double live_cells) const {
    return live_cells * static_cast<double>(model_.ss_bytes_per_resident_cell) <=
           static_cast<double>(model_.ss_memory_limit_bytes);
  }
  void CheckWorkingSet(OpAccount& account, double live_cells,
                       const char* what) const {
    if (!FitsWorkingSet(live_cells)) {
      account.Infeasible(StrFormat("sharemind VM OOM (%s)", what));
    }
  }

  int parties() const { return num_parties_; }
  const CostModel& model() const { return model_; }

 private:
  const CostModel& model_;
  int num_parties_;
};

size_t JoinKeyCount(const ir::OpNode& node) {
  return node.Params<ir::JoinParams>().left_keys.size();
}

// --- Secret-sharing backend: per-operator estimates ----------------------------------

// Mirrors mpc::Filter: one comparison batch, then shuffle-reveal-compact over the
// flagged relation.
void SsFilter(const SsCoster& ss, const ir::OpNode& node, int64_t n, double cols,
              OpAccount& account) {
  ss.CheckWorkingSet(account, 3 * static_cast<double>(n) * cols, "filter");
  account.seconds += ss.Compare(node.Params<ir::FilterParams>().op,
                                static_cast<double>(n));
  account.seconds += ss.ShuffleRevealCompact(static_cast<double>(n), cols + 1);
}

// Mirrors mpc::Join: n*m*keys batched equality tests (one kSsJoinRounds-deep batch),
// free gather-rerandomize assembly, and a final shuffle of the output.
void SsJoin(const SsCoster& ss, const ir::OpNode& node, int64_t n, int64_t m,
            int64_t out, OpAccount& account) {
  const size_t keys = JoinKeyCount(node);
  const double lc = node.inputs[0]->schema.NumColumns();
  const double rc = node.inputs[1]->schema.NumColumns();
  const double out_cols = node.schema.NumColumns();
  const double pairs = static_cast<double>(n) * static_cast<double>(m) *
                       static_cast<double>(keys);
  account.seconds +=
      pairs * ss.model().SsChargeFor(SsPrimitive::kEquality).seconds +
      ss.Lat(mpc::kSsJoinRounds);
  ss.CheckWorkingSet(account,
                     static_cast<double>(n) * lc + static_cast<double>(m) * rc +
                         static_cast<double>(out) * out_cols,
                     "join");
  account.seconds += ss.Shuffle(static_cast<double>(out), out_cols);
}

// Mirrors hybrid::HybridJoin step for step: shuffles, key reveals to the STP, the
// STP's cleartext join, index re-sharing, two oblivious selects, a final shuffle.
void SsHybridJoin(const SsCoster& ss, const ir::OpNode& node, int64_t n, int64_t m,
                  int64_t out, OpAccount& account) {
  const size_t keys = JoinKeyCount(node);
  const double lc = node.inputs[0]->schema.NumColumns();
  const double rc = node.inputs[1]->schema.NumColumns();
  const double out_cols = node.schema.NumColumns();
  const double l_cells = static_cast<double>(n) * lc;
  const double r_cells = static_cast<double>(m) * rc;
  ss.CheckWorkingSet(account, 6 * (l_cells + r_cells), "hybrid join");
  ss.CheckWorkingSet(account,
                     3 * (l_cells + r_cells) +
                         static_cast<double>(out) * (lc + rc),
                     "hybrid join select");
  const int senders = ss.parties() - 1;
  account.seconds += ss.Shuffle(static_cast<double>(n), lc) +
                     ss.Shuffle(static_cast<double>(m), rc);
  // RevealToStp of each side's key columns.
  account.seconds +=
      senders * ss.SendBytes(static_cast<double>(n) * static_cast<double>(keys) * 8) + ss.Lat(1);
  account.seconds +=
      senders * ss.SendBytes(static_cast<double>(m) * static_cast<double>(keys) * 8) + ss.Lat(1);
  // STP joins in the clear.
  account.seconds +=
      ss.Python(static_cast<double>(n) + static_cast<double>(m) + static_cast<double>(out));
  // Two index columns shared back from the STP.
  account.seconds +=
      2 * (senders * ss.SendBytes(static_cast<double>(out) * 8) + ss.Lat(1));
  // Oblivious selects of the contributing rows.
  account.seconds += ss.Select(n, out) + ss.Select(m, out);
  account.seconds += ss.Shuffle(static_cast<double>(out), out_cols);
}

// Mirrors hybrid::PublicJoinShared: key reveal to the joiner, cleartext join, index
// broadcast; assembly is local share gathering.
void SsPublicJoin(const SsCoster& ss, const ir::OpNode& node, int64_t n, int64_t m,
                  int64_t out, OpAccount& account) {
  const size_t keys = JoinKeyCount(node);
  const double lc = node.inputs[0]->schema.NumColumns();
  const double rc = node.inputs[1]->schema.NumColumns();
  ss.CheckWorkingSet(
      account, static_cast<double>(n) * lc + static_cast<double>(m) * rc,
      "public join");
  const int senders = std::max(ss.parties() - 1, 1);
  const double key_bytes = (static_cast<double>(n) + static_cast<double>(m)) *
                           static_cast<double>(keys) * 8;
  account.seconds += senders * ss.SendBytes(key_bytes / senders) + ss.Lat(1);
  account.seconds +=
      ss.Python(static_cast<double>(n) + static_cast<double>(m) + static_cast<double>(out));
  account.seconds +=
      senders * ss.SendBytes(static_cast<double>(out) * 16) + ss.Lat(1);
}

// The STP phase shared by hybrid aggregation and hybrid window: shuffle, reveal
// `key_cols` columns to the STP, cleartext sort, order broadcast + flag sharing.
double SsStpOrderPhase(const SsCoster& ss, int64_t n, double cols,
                       size_t key_cols) {
  const int senders = ss.parties() - 1;
  double seconds = ss.Shuffle(static_cast<double>(n), cols);
  seconds +=
      senders * ss.SendBytes(static_cast<double>(n) * static_cast<double>(key_cols) * 8) + ss.Lat(1);
  seconds += ss.Python(static_cast<double>(n));
  // Order broadcast plus flag shares, then two round barriers.
  seconds += 2 * senders * ss.SendBytes(static_cast<double>(n) * 8) + ss.Lat(2);
  return seconds;
}

// Mirrors mpc::Aggregate / hybrid::HybridAggregate (flag-driven scan + compaction).
void SsAggregate(const SsCoster& ss, const ir::OpNode& node, int64_t n, double cols,
                 OpAccount& account) {
  const auto& params = node.Params<ir::AggregateParams>();
  if (n == 0) {
    return;  // Zero rows aggregate to zero groups before any charge.
  }
  const size_t keys = params.group_columns.size();
  if (keys == 0) {
    // Global aggregate: sums/counts are share-local; mean divides once; min/max run
    // a compare-exchange tree.
    if (params.kind == AggKind::kMean) {
      account.seconds += ss.Div(1);
    } else if (params.kind == AggKind::kMin || params.kind == AggKind::kMax) {
      for (int64_t size = n; size > 1;) {
        const int64_t half = size / 2;
        account.seconds += ss.Compare(CompareOp::kLt, static_cast<double>(half)) +
                           ss.Mul(static_cast<double>(half));
        size = half + (size % 2);
      }
    }
    return;
  }
  ss.CheckWorkingSet(account, 3 * static_cast<double>(n) * cols, "aggregate");
  if (node.hybrid == ir::HybridKind::kHybridAggregate) {
    account.seconds += SsStpOrderPhase(ss, n, cols, keys);
  } else {
    if (!node.assume_sorted) {
      account.seconds +=
          ss.ObliviousSort(n, static_cast<size_t>(cols), keys);
    }
    account.seconds += ss.AdjacentEqualFlags(n, keys);
  }
  account.seconds += ss.SegmentedScan(n, params.kind);
  if (params.kind == AggKind::kMean) {
    account.seconds += ss.SegmentedScan(n, AggKind::kCount) +
                       ss.Div(static_cast<double>(n));
  }
  account.seconds += ss.ShuffleRevealCompact(static_cast<double>(n),
                                             static_cast<double>(keys) + 2);
}

// Mirrors mpc::Window / hybrid::HybridWindow.
void SsWindow(const SsCoster& ss, const ir::OpNode& node, int64_t n, double cols,
              OpAccount& account) {
  const auto& params = node.Params<ir::WindowParams>();
  if (n == 0) {
    return;
  }
  const size_t partitions = params.partition_columns.size();
  ss.CheckWorkingSet(account, 3 * static_cast<double>(n) * cols, "window");
  if (node.hybrid == ir::HybridKind::kHybridWindow) {
    account.seconds += SsStpOrderPhase(ss, n, cols, partitions + 1);
  } else {
    if (!node.assume_sorted) {
      account.seconds +=
          ss.ObliviousSort(n, static_cast<size_t>(cols), partitions + 1);
    }
    account.seconds += ss.AdjacentEqualFlags(n, partitions);
  }
  switch (params.fn) {
    case WindowFn::kRowNumber:
      account.seconds += ss.SegmentedScan(n, AggKind::kCount);
      break;
    case WindowFn::kRunningSum:
      account.seconds += ss.SegmentedScan(n, AggKind::kSum);
      break;
    case WindowFn::kLag:
      account.seconds += ss.Mul(static_cast<double>(n));
      break;
  }
}

// Mirrors the Sharemind backend's sorted-merge concat: fold the branches through
// oblivious merges, falling back to a full sort exactly where ObliviousMerge does.
void SsMergeConcat(const SsCoster& ss, const ir::OpNode& node,
                   const std::unordered_map<int, double>& rows,
                   OpAccount& account) {
  const auto& params = node.Params<ir::ConcatParams>();
  const size_t keys = params.merge_columns.size();
  const size_t cols = static_cast<size_t>(node.schema.NumColumns());
  int64_t merged = ToRows(rows.at(node.inputs[0]->id));
  for (size_t i = 1; i < node.inputs.size(); ++i) {
    const int64_t branch = ToRows(rows.at(node.inputs[i]->id));
    const int64_t total = merged + branch;
    const bool merge_shape = merged > 0 && (merged & (merged - 1)) == 0 &&
                             branch <= merged && branch > 0;
    if (merge_shape) {
      account.seconds += ss.BatcherNetwork(ss.MergeShape(merged, total), cols, keys);
    } else {
      account.seconds += ss.ObliviousSort(total, cols, keys);
    }
    merged = total;
  }
}

// One (rows, cells) entry per cleartext input relation first entering the MPC at
// this node; each is secret-shared / garbled as its own batch, like EnsureSecure.
using IngestList = std::vector<std::pair<double, double>>;

BackendOpCost SsOpCost(const SsCoster& ss, const ir::OpNode& node,
                       const std::unordered_map<int, double>& rows,
                       const IngestList& ingests) {
  OpAccount account;
  for (const auto& [ingest_rows, ingest_cells] : ingests) {
    ss.CheckWorkingSet(account, 2 * ingest_cells, "ingest");
    account.seconds += ss.Ingest(ingest_rows);
  }
  const int64_t n =
      node.inputs.empty() ? 0 : ToRows(rows.at(node.inputs[0]->id));
  const int64_t m =
      node.inputs.size() > 1 ? ToRows(rows.at(node.inputs[1]->id)) : 0;
  const int64_t out = ToRows(rows.at(node.id));
  const double in_cols =
      node.inputs.empty() ? 0 : node.inputs[0]->schema.NumColumns();

  switch (node.kind) {
    case ir::OpKind::kFilter:
      SsFilter(ss, node, n, in_cols, account);
      break;
    case ir::OpKind::kJoin:
      switch (node.hybrid) {
        case ir::HybridKind::kHybridJoin:
          SsHybridJoin(ss, node, n, m, out, account);
          break;
        case ir::HybridKind::kPublicJoin:
          SsPublicJoin(ss, node, n, m, out, account);
          break;
        default:
          SsJoin(ss, node, n, m, out, account);
          break;
      }
      break;
    case ir::OpKind::kAggregate:
      SsAggregate(ss, node, n, in_cols, account);
      break;
    case ir::OpKind::kWindow:
      SsWindow(ss, node, n, in_cols, account);
      break;
    case ir::OpKind::kSortBy:
      // mpc::Sort checks the working set before the assume_sorted early-out.
      ss.CheckWorkingSet(account, 2 * static_cast<double>(n) * in_cols, "sort");
      if (!node.assume_sorted && n > 0) {
        account.seconds += ss.ObliviousSort(
            n, static_cast<size_t>(in_cols),
            node.Params<ir::SortByParams>().columns.size());
      }
      break;
    case ir::OpKind::kDistinct: {
      const size_t keys = node.Params<ir::DistinctParams>().columns.size();
      // mpc::Distinct checks the full input's working set before projecting.
      ss.CheckWorkingSet(account, 3 * static_cast<double>(n) * in_cols,
                         "distinct");
      if (n > 0) {
        if (!node.assume_sorted) {
          account.seconds += ss.ObliviousSort(n, keys, keys);
        }
        account.seconds += ss.AdjacentEqualFlags(n, keys);
        account.seconds += ss.ShuffleRevealCompact(
            static_cast<double>(n), static_cast<double>(keys) + 1);
      }
      break;
    }
    case ir::OpKind::kArithmetic: {
      const auto& params = node.Params<ir::ArithmeticParams>();
      if (params.kind == ArithKind::kDiv) {
        account.seconds += ss.Div(static_cast<double>(n));
      } else if (params.kind == ArithKind::kMul && params.rhs_is_column) {
        account.seconds += ss.Mul(static_cast<double>(n));
      }
      break;
    }
    case ir::OpKind::kConcat:
      if (!node.Params<ir::ConcatParams>().merge_columns.empty()) {
        SsMergeConcat(ss, node, rows, account);
      }
      break;
    default:
      break;  // Project/limit/pad are share-local.
  }
  return account.Finish();
}

// --- Garbled-circuit backend: per-operator estimates ---------------------------------

// Mirrors GcEngine::Charge: gate time plus the constant-round barrier, infeasible on
// a live-state overflow.
void GcCharge(const CostModel& model, const gc::GcOpCost& cost, const char* what,
              OpAccount& account) {
  if (cost.live_state_bytes > model.gc_memory_limit_bytes) {
    account.Infeasible(StrFormat("GC OOM (%s)", what));
    return;
  }
  account.seconds += static_cast<double>(cost.and_gates) *
                         model.gc_seconds_per_and_gate +
                     model.SecondsForRounds(2);
}

BackendOpCost GcOpCostOf(const CostModel& model, const ir::OpNode& node,
                         const std::unordered_map<int, double>& rows,
                         const IngestList& ingests, int num_parties) {
  OpAccount account;
  if (num_parties > 2) {
    // Obliv-C is a two-party protocol (the paper runs it with two parties only).
    account.Infeasible(StrFormat("%d parties (2-party protocol)", num_parties));
    return account.Finish();
  }
  if (node.hybrid != ir::HybridKind::kNone) {
    account.Infeasible("hybrid protocols run on the secret-sharing backend");
    return account.Finish();
  }
  for (const auto& [ingest_rows, ingest_cells] : ingests) {
    // Mirrors GcEngine::ChargeInput: evaluator labels travel via OT. Computed in
    // doubles — estimated cell counts can exceed uint64.
    const double bits = ingest_cells * 64;
    if (bits * static_cast<double>(model.gc_bytes_per_live_bit) >
        static_cast<double>(model.gc_memory_limit_bytes)) {
      account.Infeasible("GC OOM (input labels)");
      return account.Finish();
    }
    account.seconds += bits * 16 / model.bandwidth_bytes_per_second +
                       model.SecondsForRounds(2);
  }

  // Cap rows before the analytic gate formulas: every GC operator is memory-
  // infeasible far below this cap (live labels alone at 2M rows x 1 column are
  // ~25x the 4 GB VM), so capping cannot flip a feasibility verdict — while it
  // keeps the uint64 exchange/pair/gate arithmetic from overflowing on absurd
  // cardinality estimates.
  const auto cap = [](int64_t value) {
    return static_cast<uint64_t>(std::min(value, kMaxExactShapeRows));
  };
  const uint64_t n =
      cap(node.inputs.empty() ? 0 : ToRows(rows.at(node.inputs[0]->id)));
  const uint64_t m =
      cap(node.inputs.size() > 1 ? ToRows(rows.at(node.inputs[1]->id)) : 0);
  const uint64_t out = cap(ToRows(rows.at(node.id)));
  const uint64_t in_cols = static_cast<uint64_t>(
      node.inputs.empty() ? 0 : node.inputs[0]->schema.NumColumns());
  const uint64_t out_cols = static_cast<uint64_t>(node.schema.NumColumns());

  switch (node.kind) {
    case ir::OpKind::kFilter: {
      const auto op = node.Params<ir::FilterParams>().op;
      const uint64_t per_row = (op == CompareOp::kEq || op == CompareOp::kNe)
                                   ? gc::kAndPerEqual
                                   : gc::kAndPerLess;
      GcCharge(model, gc::LinearPassCost(model, n, in_cols, in_cols, per_row),
               "filter", account);
      break;
    }
    case ir::OpKind::kJoin:
      GcCharge(model,
               gc::JoinCost(
                   model, n, m,
                   static_cast<uint64_t>(node.inputs[0]->schema.NumColumns()),
                   static_cast<uint64_t>(node.inputs[1]->schema.NumColumns()),
                   JoinKeyCount(node)),
               "join", account);
      break;
    case ir::OpKind::kAggregate: {
      const auto& params = node.Params<ir::AggregateParams>();
      GcCharge(model,
               gc::AggregateCost(
                   model, n, in_cols,
                   std::max<uint64_t>(params.group_columns.size(), 1),
                   node.assume_sorted),
               "aggregate", account);
      break;
    }
    case ir::OpKind::kWindow:
      GcCharge(model,
               gc::WindowCost(model, n, in_cols,
                              node.Params<ir::WindowParams>()
                                  .partition_columns.size(),
                              node.assume_sorted),
               "window", account);
      break;
    case ir::OpKind::kSortBy:
      if (!node.assume_sorted) {
        GcCharge(model,
                 gc::SortCost(model, n, in_cols,
                              node.Params<ir::SortByParams>().columns.size()),
                 "sort", account);
      }
      break;
    case ir::OpKind::kDistinct: {
      const uint64_t keys = node.Params<ir::DistinctParams>().columns.size();
      gc::GcOpCost cost;
      if (!node.assume_sorted) {
        cost += gc::SortCost(model, n, keys, keys);
      }
      cost += gc::LinearPassCost(model, n, keys, keys, keys * gc::kAndPerEqual);
      GcCharge(model, cost, "distinct", account);
      break;
    }
    case ir::OpKind::kConcat: {
      GcCharge(model, gc::LinearPassCost(model, out, out_cols, out_cols, 0),
               "concat", account);
      const auto& params = node.Params<ir::ConcatParams>();
      if (!params.merge_columns.empty()) {
        // The GC backend sorts the concatenated relation (no merge network).
        GcCharge(model,
                 gc::SortCost(model, out, out_cols,
                              params.merge_columns.size()),
                 "merge-concat sort", account);
      }
      break;
    }
    case ir::OpKind::kArithmetic: {
      uint64_t per_row = 0;
      switch (node.Params<ir::ArithmeticParams>().kind) {
        case ArithKind::kAdd:
          per_row = gc::kAndPerAdd;
          break;
        case ArithKind::kSub:
          per_row = gc::kAndPerSub;
          break;
        case ArithKind::kMul:
          per_row = gc::kAndPerMul;
          break;
        case ArithKind::kDiv:
          per_row = 4 * gc::kAndPerMul;  // Restoring division.
          break;
      }
      GcCharge(model,
               gc::LinearPassCost(model, n, in_cols, in_cols + 1, per_row),
               "arithmetic", account);
      break;
    }
    case ir::OpKind::kProject:
      GcCharge(model, gc::LinearPassCost(model, n, in_cols, out_cols, 0),
               "project", account);
      break;
    case ir::OpKind::kLimit: {
      const uint64_t kept = std::min<uint64_t>(
          n, static_cast<uint64_t>(
                 std::max<int64_t>(node.Params<ir::LimitParams>().count, 0)));
      GcCharge(model, gc::LinearPassCost(model, kept, in_cols, in_cols, 0),
               "limit", account);
      break;
    }
    default:
      break;
  }
  return account.Finish();
}

std::string NodeLabel(const ir::OpNode& node) {
  if (node.hybrid != ir::HybridKind::kNone) {
    return StrFormat("%s[%s]", ir::OpKindName(node.kind),
                     ir::HybridKindName(node.hybrid));
  }
  return StrFormat("%s[%s]", ir::OpKindName(node.kind),
                   ir::ExecModeName(node.exec_mode));
}

std::string FormatSeconds(const BackendOpCost& cost) {
  if (!cost.feasible) {
    return StrFormat("infeasible: %s", cost.infeasible_reason.c_str());
  }
  return StrFormat("%.6fs", cost.seconds);
}

}  // namespace

std::string FormatPlanSeconds(double seconds, int decimals) {
  if (std::isinf(seconds)) {
    return "infeasible";
  }
  return StrFormat("%.*fs", decimals, seconds);
}

std::string PlanCostReport::ToString() const {
  std::string out = StrFormat("plan-cost: sharemind %s vs obliv-c %s -> %s\n",
                              FormatPlanSeconds(sharemind_seconds).c_str(),
                              FormatPlanSeconds(oblivc_seconds).c_str(),
                              MpcBackendName(cheapest));
  for (const NodeCost& node : nodes) {
    out += StrFormat("  #%d %s rows=%.0f", node.node_id, node.label.c_str(),
                     node.in_rows);
    if (node.right_rows > 0) {
      out += StrFormat("x%.0f", node.right_rows);
    }
    out += StrFormat(" out=%.0f", node.out_rows);
    if (node.ingest_rows > 0) {
      out += StrFormat(" ingest=%.0f", node.ingest_rows);
    }
    out += StrFormat(": sharemind %s, obliv-c %s\n",
                     FormatSeconds(node.sharemind).c_str(),
                     FormatSeconds(node.oblivc).c_str());
  }
  out += StrFormat("shard-advice: %d shard(s) (cleartext scan %s)\n",
                   recommended_shard_count,
                   FormatPlanSeconds(cleartext_scan_seconds).c_str());
  if (pipeline_batch_rows > 0) {
    out += StrFormat(
        "pipeline-advice: %d fused chain(s) over %d node(s), longest %d "
        "(batch %lld rows; resident rows per shard <= depth x batch)\n",
        fused_pipeline_chains, fused_pipeline_nodes, longest_pipeline_chain,
        static_cast<long long>(pipeline_batch_rows));
    if (fused_expr_enabled) {
      out += StrFormat(
          "expr-advice: %d fused expression group(s) over %d node(s) (one "
          "register-resident pass per batch; per-node pricing unchanged)\n",
          fused_expr_groups, fused_expr_nodes);
    } else {
      out +=
          "expr-advice: fused evaluator off (unset CONCLAVE_FUSED_EXPR=0 to "
          "re-enable)\n";
    }
    if (stream_reveal_enabled) {
      out += StrFormat(
          "reveal-advice: %d chain(s) stream their reveal boundary "
          "(batch-at-a-time reconstruction; boundary charge unchanged)\n",
          streamed_reveal_chains);
    } else {
      out +=
          "reveal-advice: streaming reveal off (unset CONCLAVE_STREAM_REVEAL=0 "
          "to re-enable)\n";
    }
  } else {
    out += "pipeline-advice: fusion disabled (materializing operators)\n";
  }
  if (fault_mode) {
    out += StrFormat(
        "fault-advice: injection armed (%s); <=%d retransmissions/send "
        "(backoff envelope %s), %d restart(s)/job; recoverable plans add "
        "exactly their priced recovery time\n",
        fault_plan_summary.c_str(), fault_max_send_retries,
        FormatPlanSeconds(fault_retry_envelope_seconds).c_str(),
        fault_job_retries);
  } else {
    out += "fault-advice: injection off (set CONCLAVE_FAULT_PLAN to arm)\n";
  }
  if (spill_mem_budget_rows > 0) {
    out += StrFormat(
        "spill-advice: budget %lld resident rows/operator; %d spilling "
        "node(s), %lld priced pass(es), spill I/O %s (the meter charges this "
        "exact formula)\n",
        static_cast<long long>(spill_mem_budget_rows), spilling_nodes,
        static_cast<long long>(spill_total_passes),
        FormatPlanSeconds(spill_seconds).c_str());
  } else {
    out +=
        "spill-advice: unbounded (set CONCLAVE_MEM_BUDGET to cap resident "
        "rows)\n";
  }
  return out;
}

void AnnotateShardAdvice(PlanCostReport& report, const ExecutionPlan& plan,
                         const CostModel& model, int pool_parallelism,
                         int64_t total_input_rows) {
  report.cleartext_scan_seconds = model.CleartextScanSeconds(
      total_input_rows < 0 ? 0 : static_cast<uint64_t>(total_input_rows),
      /*use_spark=*/false);
  report.recommended_shard_count =
      ChooseShardCount(plan, model, pool_parallelism, total_input_rows);
}

bool PipelineFusibleOp(const ir::OpNode& node, int shard_count) {
  if (node.exec_mode != ir::ExecMode::kLocal || node.inputs.size() != 1) {
    return false;
  }
  switch (node.kind) {
    case ir::OpKind::kFilter:
    case ir::OpKind::kProject:
    case ir::OpKind::kArithmetic:
      return true;
    case ir::OpKind::kLimit:
      // Unsharded, the streaming cursor is the whole-relation prefix. Sharded,
      // each shard's cursor keeps its local `count`-row prefix — a superset of
      // the global prefix, since shards concatenate in canonical order — and
      // the chain's assembly trims the concatenation to the global prefix. The
      // trim needs the materialized per-shard outputs, so a sharded limit can
      // only ever be the TAIL of a chain (PipelineChains enforces this).
      return true;
    case ir::OpKind::kDistinct: {
      if (shard_count > 1) {
        return false;  // Dedup is cross-shard; keep the exchange-based kernel.
      }
      // Streaming adjacent-run dedup needs the input sorted ascending by a
      // column list the distinct columns prefix. Walk upstream through the
      // order-preserving single-input ops — filter and limit drop rows but
      // never reorder, project and arithmetic never touch existing cells
      // (columns are referenced by name, so surviving names keep their values)
      // — to an ascending kSortBy whose column list the distinct columns
      // prefix. An arithmetic output_name shadowing a distinct column kills
      // the proof: that column's values postdate the sort.
      const auto& distinct = node.Params<ir::DistinctParams>();
      const ir::OpNode* in = node.inputs[0];
      for (;;) {
        switch (in->kind) {
          case ir::OpKind::kSortBy: {
            const auto& sort = in->Params<ir::SortByParams>();
            if (!sort.ascending ||
                distinct.columns.size() > sort.columns.size()) {
              return false;
            }
            return std::equal(distinct.columns.begin(), distinct.columns.end(),
                              sort.columns.begin());
          }
          case ir::OpKind::kFilter:
          case ir::OpKind::kLimit:
          case ir::OpKind::kProject:
            break;
          case ir::OpKind::kArithmetic: {
            const auto& arith = in->Params<ir::ArithmeticParams>();
            if (std::find(distinct.columns.begin(), distinct.columns.end(),
                          arith.output_name) != distinct.columns.end()) {
              return false;
            }
            break;
          }
          default:
            return false;
        }
        if (in->inputs.size() != 1) {
          return false;
        }
        in = in->inputs[0];
      }
    }
    default:
      return false;
  }
}

// True when `node` may join a fused chain only as its last member: the sharded
// limit's global-prefix trim runs at assembly, over the finished per-shard
// outputs, so nothing can stream past it.
static bool PipelineChainTerminator(const ir::OpNode& node, int shard_count) {
  return node.kind == ir::OpKind::kLimit && shard_count > 1;
}

std::vector<std::vector<const ir::OpNode*>> PipelineChains(
    std::span<const ir::OpNode* const> topo, int shard_count) {
  // Consuming-edge counts and the unique consumer, within `topo` only (detached
  // consumers never execute, so they do not pin a value as materialized).
  std::unordered_map<int, int> uses;
  std::unordered_map<int, const ir::OpNode*> sole_consumer;
  for (const ir::OpNode* node : topo) {
    for (const ir::OpNode* in : node->inputs) {
      if (++uses[in->id] == 1) {
        sole_consumer[in->id] = node;
      } else {
        sole_consumer.erase(in->id);
      }
    }
  }
  std::vector<std::vector<const ir::OpNode*>> chains;
  std::unordered_set<int> claimed;
  for (const ir::OpNode* node : topo) {
    if (claimed.count(node->id) != 0 || !PipelineFusibleOp(*node, shard_count)) {
      continue;
    }
    std::vector<const ir::OpNode*> chain{node};
    const ir::OpNode* tail = node;
    while (!PipelineChainTerminator(*tail, shard_count)) {
      const auto it = sole_consumer.find(tail->id);
      if (it == sole_consumer.end()) {
        break;  // Zero or several consuming edges: the value must materialize.
      }
      const ir::OpNode* next = it->second;
      if (!PipelineFusibleOp(*next, shard_count) ||
          next->exec_party != tail->exec_party) {
        break;
      }
      chain.push_back(next);
      tail = next;
    }
    if (chain.size() < 2) {
      continue;  // A lone streaming op materializes its output anyway.
    }
    for (const ir::OpNode* member : chain) {
      claimed.insert(member->id);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

void AnnotatePipelineAdvice(PlanCostReport& report, const ir::Dag& dag,
                            int shard_count, int64_t batch_rows) {
  report.pipeline_batch_rows = batch_rows > 0 ? batch_rows : 0;
  report.fused_pipeline_chains = 0;
  report.fused_pipeline_nodes = 0;
  report.longest_pipeline_chain = 0;
  report.fused_expr_enabled = FusedExprEnabled();
  report.fused_expr_groups = 0;
  report.fused_expr_nodes = 0;
  report.stream_reveal_enabled = env::BoolKnob("CONCLAVE_STREAM_REVEAL", true);
  report.streamed_reveal_chains = 0;
  if (batch_rows <= 0) {
    return;
  }
  // Mirrors relational/expr.h's FusibleExprOp at the plan level: the
  // dispatcher's PipelineOps map 1:1 to these node kinds, so counting runs
  // here predicts the executor's slots exactly.
  const auto expr_fusible = [](const ir::OpNode& node) {
    return node.kind == ir::OpKind::kFilter ||
           node.kind == ir::OpKind::kProject ||
           node.kind == ir::OpKind::kArithmetic;
  };
  const std::vector<ir::OpNode*> order = dag.TopoOrder();
  const std::vector<const ir::OpNode*> topo(order.begin(), order.end());
  // Consuming-edge counts, for the streamed-reveal mirror of the dispatcher's
  // sole-consumer eligibility.
  std::unordered_map<int, int> uses;
  for (const ir::OpNode* node : topo) {
    for (const ir::OpNode* in : node->inputs) {
      ++uses[in->id];
    }
  }
  for (const auto& chain : PipelineChains(topo, shard_count)) {
    ++report.fused_pipeline_chains;
    report.fused_pipeline_nodes += static_cast<int>(chain.size());
    report.longest_pipeline_chain =
        std::max(report.longest_pipeline_chain, static_cast<int>(chain.size()));
    if (report.stream_reveal_enabled && chain.front()->inputs.size() == 1) {
      // Mirrors the executor's eligibility: the head's sole input is an
      // MPC/hybrid value (a shared relation at run time) with no consumer
      // besides this chain — the reveal streams instead of materializing.
      const ir::OpNode* producer = chain.front()->inputs[0];
      if (producer->exec_mode != ir::ExecMode::kLocal &&
          producer->kind != ir::OpKind::kCreate && uses[producer->id] == 1) {
        ++report.streamed_reveal_chains;
      }
    }
    if (!report.fused_expr_enabled) {
      continue;
    }
    size_t i = 0;
    while (i < chain.size()) {
      size_t end = i + 1;
      if (expr_fusible(*chain[i])) {
        while (end < chain.size() && expr_fusible(*chain[end])) {
          ++end;
        }
      }
      if (end - i >= 2) {
        ++report.fused_expr_groups;
        report.fused_expr_nodes += static_cast<int>(end - i);
      }
      i = end;
    }
  }
}

double NodeSpillSeconds(const ir::OpNode& node, double in_rows, double right_rows,
                        const CostModel& model, int64_t mem_budget_rows) {
  if (mem_budget_rows <= 0 || node.exec_mode != ir::ExecMode::kLocal) {
    return 0;
  }
  const int64_t budget = mem_budget_rows;
  switch (node.kind) {
    // One priced pass = one generation of run files written then read back
    // (spill::SpillMergePasses counts exactly the generations the kernels
    // produce: run formation feeds the first merge level, each deeper level
    // rewrites every row once). Distinct and aggregate runs shrink as they
    // dedup/combine, but the price deliberately keeps the full input rows per
    // pass — the meter charges the same closed form, and only the
    // estimate==meter identity matters, not physical byte exactness.
    case ir::OpKind::kSortBy: {
      const int64_t rows = ToRows(in_rows);
      const int64_t passes = spill::SpillMergePasses(rows, budget);
      const double cells =
          static_cast<double>(rows) * node.schema.NumColumns();
      return model.SpillPassSeconds(static_cast<double>(passes) * cells * 8.0);
    }
    case ir::OpKind::kDistinct: {
      // Runs carry the distinct columns only (== the node's output schema).
      const int64_t rows = ToRows(in_rows);
      const int64_t passes = spill::SpillMergePasses(rows, budget);
      const double cells =
          static_cast<double>(rows) * node.schema.NumColumns();
      return model.SpillPassSeconds(static_cast<double>(passes) * cells * 8.0);
    }
    case ir::OpKind::kAggregate: {
      // Partial-aggregate runs: group keys plus one accumulator column (two
      // for mean: running sum and count, finalized only at the last level).
      const auto& params = node.Params<ir::AggregateParams>();
      const int64_t rows = ToRows(in_rows);
      const int64_t passes = spill::SpillMergePasses(rows, budget);
      const double cols = static_cast<double>(params.group_columns.size()) +
                          (params.kind == AggKind::kMean ? 2.0 : 1.0);
      return model.SpillPassSeconds(static_cast<double>(passes) *
                                    static_cast<double>(rows) * cols * 8.0);
    }
    case ir::OpKind::kJoin: {
      // Grace hash join spills when the build (right) side exceeds the budget:
      // both sides stream through (key, gid) partition files — K key columns
      // plus the provenance gid — once per recursion level.
      const int64_t build = ToRows(right_rows);
      const int64_t levels = spill::SpillMergePasses(build, budget);
      if (levels == 0) {
        return 0;
      }
      const double key_cols =
          static_cast<double>(node.Params<ir::JoinParams>().left_keys.size()) +
          1.0;
      const double cells = (ToRows(in_rows) + build) * key_cols;
      return model.SpillPassSeconds(static_cast<double>(levels) * cells * 8.0);
    }
    default:
      return 0;
  }
}

void AnnotateSpillAdvice(PlanCostReport& report, const ir::Dag& dag,
                         const CostModel& model, int64_t mem_budget_rows,
                         const CardinalityOptions& cardinality) {
  report.spill_mem_budget_rows = mem_budget_rows > 0 ? mem_budget_rows : 0;
  report.spilling_nodes = 0;
  report.spill_total_passes = 0;
  report.spill_seconds = 0;
  if (mem_budget_rows <= 0) {
    return;
  }
  const auto rows = EstimateCardinalities(dag, cardinality);
  for (const ir::OpNode* node : dag.TopoOrder()) {
    if (node->exec_mode != ir::ExecMode::kLocal || node->inputs.empty()) {
      continue;
    }
    const double in_rows = rows.at(node->inputs[0]->id);
    const double right_rows =
        node->inputs.size() > 1 ? rows.at(node->inputs[1]->id) : 0;
    const double seconds =
        NodeSpillSeconds(*node, in_rows, right_rows, model, mem_budget_rows);
    if (seconds <= 0) {
      continue;
    }
    ++report.spilling_nodes;
    const int64_t spilled_input = node->kind == ir::OpKind::kJoin
                                      ? ToRows(right_rows)
                                      : ToRows(in_rows);
    report.spill_total_passes +=
        spill::SpillMergePasses(spilled_input, mem_budget_rows);
    report.spill_seconds += seconds;
  }
}

void AnnotateFaultAdvice(PlanCostReport& report, const FaultPlan& plan,
                         const CostModel& model) {
  report.fault_mode = plan.enabled;
  report.fault_plan_summary = plan.ToString();
  report.fault_max_send_retries = model.max_send_retries;
  report.fault_job_retries = plan.job_retries;
  // Worst case one send can absorb before escalating: the full backed-off
  // timeout schedule (payload retransmission time is size-dependent and priced
  // at run time).
  report.fault_retry_envelope_seconds = 0;
  for (int k = 0; k < model.max_send_retries; ++k) {
    report.fault_retry_envelope_seconds += model.RetrySeconds(k, /*bytes=*/0);
  }
}

PlanCostReport EstimatePlanCost(const ir::Dag& dag, const CostModel& model,
                                int num_parties,
                                const CardinalityOptions& cardinality) {
  const auto rows = EstimateCardinalities(dag, cardinality);
  const SsCoster ss(model, num_parties);
  PlanCostReport report;
  // Ingest (inputToMPC) happens once per materialized value, when its first MPC
  // consumer acquires it — exactly how the dispatcher's EnsureSecure meters it.
  std::unordered_set<int> ingested;

  for (const ir::OpNode* node : dag.TopoOrder()) {
    if (node->exec_mode == ir::ExecMode::kLocal ||
        node->kind == ir::OpKind::kCreate || node->kind == ir::OpKind::kCollect) {
      continue;
    }
    NodeCost cost;
    cost.node_id = node->id;
    cost.label = NodeLabel(*node);
    cost.in_rows = node->inputs.empty() ? 0 : rows.at(node->inputs[0]->id);
    cost.right_rows =
        node->inputs.size() > 1 ? rows.at(node->inputs[1]->id) : 0;
    cost.out_rows = rows.at(node->id);
    IngestList ingests;
    for (const ir::OpNode* input : node->inputs) {
      if (input->exec_mode == ir::ExecMode::kLocal &&
          ingested.insert(input->id).second) {
        const double in_rows = rows.at(input->id);
        cost.ingest_rows += in_rows;
        ingests.emplace_back(
            in_rows, in_rows * static_cast<double>(input->schema.NumColumns()));
      }
    }
    cost.sharemind = SsOpCost(ss, *node, rows, ingests);
    cost.oblivc = GcOpCostOf(model, *node, rows, ingests, num_parties);
    report.sharemind_seconds += cost.sharemind.seconds;
    report.oblivc_seconds += cost.oblivc.seconds;
    report.nodes.push_back(std::move(cost));
  }

  report.cheapest = report.oblivc_seconds < report.sharemind_seconds
                        ? MpcBackendKind::kOblivC
                        : MpcBackendKind::kSharemind;
  return report;
}

}  // namespace compiler
}  // namespace conclave
