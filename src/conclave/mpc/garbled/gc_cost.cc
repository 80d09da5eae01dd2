#include "conclave/mpc/garbled/gc_cost.h"

#include <algorithm>

namespace conclave {
namespace gc {

uint64_t LiveBytesForCells(const CostModel& model, uint64_t rows, uint64_t cols) {
  return rows * cols * 64 * model.gc_bytes_per_live_bit;
}

GcOpCost LinearPassCost(const CostModel& model, uint64_t rows, uint64_t in_cols,
                        uint64_t out_cols, uint64_t per_row_and_gates) {
  GcOpCost cost;
  cost.and_gates = rows * per_row_and_gates;
  cost.live_state_bytes = LiveBytesForCells(model, rows, in_cols) +
                          LiveBytesForCells(model, rows, out_cols);
  return cost;
}

GcOpCost JoinCost(const CostModel& model, uint64_t left_rows, uint64_t right_rows,
                  uint64_t left_cols, uint64_t right_cols, uint64_t key_cols) {
  GcOpCost cost;
  const uint64_t pairs = left_rows * right_rows;
  const uint64_t out_cols = left_cols + right_cols - key_cols;
  // Per pair: key equality + conditional output assembly (mux every output column).
  cost.and_gates = pairs * (key_cols * kAndPerEqual + out_cols * kAndPerMux);
  cost.live_state_bytes = LiveBytesForCells(model, left_rows, left_cols) +
                          LiveBytesForCells(model, right_rows, right_cols) +
                          pairs * model.gc_bytes_per_join_pair;
  return cost;
}

namespace {

// Number of a in [0, x) with a mod m < t (0 <= t <= m).
uint64_t CountModLessPrefix(int64_t x, int64_t m, int64_t t) {
  return static_cast<uint64_t>(x / m) * static_cast<uint64_t>(t) +
         static_cast<uint64_t>(std::min(x % m, t));
}

// Comparators one (p, k, j) block of the generalized Batcher network emits: the i
// with (i + j) / 2p == (i + j + k) / 2p, i in [0, limit). Writing a = i + j, the
// divisions agree exactly when a mod 2p < 2p - k (k <= p keeps a and a + k within
// one period of each other), so the loop collapses to a range count.
uint64_t BlockExchanges(int64_t p, int64_t k, int64_t j, int64_t limit) {
  return CountModLessPrefix(j + limit, 2 * p, 2 * p - k) -
         CountModLessPrefix(j, 2 * p, 2 * p - k);
}

// Comparators of one (p, k) layer over n wires. Its blocks start at j = j0 + 2k·t
// (j0 = k mod p), and every j is a multiple of k, so a full block (limit k) covers
// one aligned k-slice of the 2p period: it emits all k comparators unless
// j mod 2p == 2p - k, where it emits none. For k < p that happens at the last block
// of every run of p / k; for k == p (j0 = 0) never. At most one trailing block is
// partial, and BlockExchanges counts it directly.
uint64_t LayerExchanges(int64_t p, int64_t k, int64_t n) {
  const int64_t j0 = k % p;
  const int64_t full = (n - j0) / (2 * k);  // Blocks with j + 2k <= n.
  const int64_t empty = k < p ? full / (p / k) : 0;
  uint64_t exchanges = static_cast<uint64_t>((full - empty) * k);
  const int64_t tail = j0 + 2 * k * full;
  if (tail + k < n) {
    exchanges += BlockExchanges(p, k, tail, n - tail - k);
  }
  return exchanges;
}

void MergePassShape(int64_t p, int64_t n, BatcherNetworkShape& shape) {
  for (int64_t k = p; k >= 1; k >>= 1) {
    const uint64_t layer = LayerExchanges(p, k, n);
    if (layer > 0) {
      shape.exchanges += layer;
      ++shape.layers;
    }
  }
}

}  // namespace

BatcherNetworkShape BatcherSortShape(uint64_t rows) {
  BatcherNetworkShape shape;
  const int64_t n = static_cast<int64_t>(rows);
  for (int64_t p = 1; p < n; p <<= 1) {
    MergePassShape(p, n, shape);
  }
  return shape;
}

BatcherNetworkShape BatcherMergeShape(uint64_t run_length, uint64_t total) {
  BatcherNetworkShape shape;
  MergePassShape(static_cast<int64_t>(run_length), static_cast<int64_t>(total),
                 shape);
  return shape;
}

uint64_t BatcherCompareExchanges(uint64_t rows) {
  return BatcherSortShape(rows).exchanges;
}

GcOpCost SortCost(const CostModel& model, uint64_t rows, uint64_t cols,
                  uint64_t key_cols) {
  GcOpCost cost;
  const uint64_t exchanges = BatcherCompareExchanges(rows);
  // Per compare-exchange: lexicographic compare + 2-way mux of every column (one mux
  // computes new_lo, new_hi derives by XOR-algebra; count both conservatively).
  cost.and_gates =
      exchanges * (key_cols * kAndPerLess + (key_cols - 1) * kAndPerEqual +
                   2 * cols * kAndPerMux);
  cost.live_state_bytes = 2 * LiveBytesForCells(model, rows, cols);
  return cost;
}

GcOpCost AggregateCost(const CostModel& model, uint64_t rows, uint64_t cols,
                       uint64_t group_cols, bool assume_sorted) {
  GcOpCost cost;
  if (!assume_sorted) {
    cost += SortCost(model, rows, cols, group_cols);
  }
  // Linear accumulation scan: adjacent key equality + accumulate mux + add per row.
  cost.and_gates +=
      rows * (group_cols * kAndPerEqual + kAndPerMux + kAndPerAdd);
  cost.live_state_bytes += 2 * LiveBytesForCells(model, rows, cols);
  return cost;
}

GcOpCost WindowCost(const CostModel& model, uint64_t rows, uint64_t cols,
                    uint64_t partition_cols, bool assume_sorted) {
  GcOpCost cost;
  if (!assume_sorted) {
    cost += SortCost(model, rows, cols, partition_cols + 1);
  }
  // Adjacent partition-equality per row, then a log-depth Hillis-Steele segmented
  // scan: ~log2(rows) rounds of (add + value mux + flag AND) per row.
  uint64_t scan_rounds = 0;
  for (uint64_t d = 1; d < rows; d *= 2) {
    ++scan_rounds;
  }
  cost.and_gates += rows * partition_cols * kAndPerEqual;
  cost.and_gates += rows * scan_rounds * (kAndPerAdd + 2 * kAndPerMux);
  cost.live_state_bytes += 2 * LiveBytesForCells(model, rows, cols + 1);
  return cost;
}

}  // namespace gc
}  // namespace conclave
