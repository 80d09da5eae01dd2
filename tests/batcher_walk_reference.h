// Reference walk of the generalized Batcher network's shape, retained from the
// per-block costing that gc::BatcherSortShape / gc::BatcherMergeShape replaced with
// a closed-form count per (p, k) layer. It visits every (p, k, j) block — O(n log n)
// — and the shape tests require the closed form to return exactly its integers.
//
// Everything here is intentionally the old code shape: one BlockExchanges range
// count per block, summed layer by layer.
#ifndef CONCLAVE_TESTS_BATCHER_WALK_REFERENCE_H_
#define CONCLAVE_TESTS_BATCHER_WALK_REFERENCE_H_

#include <algorithm>
#include <cstdint>

#include "conclave/mpc/garbled/gc_cost.h"

namespace conclave {
namespace batcherwalk {

// Number of a in [0, x) with a mod m < t (0 <= t <= m).
inline uint64_t CountModLessPrefix(int64_t x, int64_t m, int64_t t) {
  return static_cast<uint64_t>(x / m) * static_cast<uint64_t>(t) +
         static_cast<uint64_t>(std::min(x % m, t));
}

// Comparators one (p, k, j) block of the generalized Batcher network emits: the i
// with (i + j) / 2p == (i + j + k) / 2p, i in [0, limit).
inline uint64_t BlockExchanges(int64_t p, int64_t k, int64_t j, int64_t limit) {
  return CountModLessPrefix(j + limit, 2 * p, 2 * p - k) -
         CountModLessPrefix(j, 2 * p, 2 * p - k);
}

inline void MergePassShape(int64_t p, int64_t n, gc::BatcherNetworkShape& shape) {
  for (int64_t k = p; k >= 1; k >>= 1) {
    uint64_t layer = 0;
    for (int64_t j = k % p; j + k < n; j += 2 * k) {
      layer += BlockExchanges(p, k, j, std::min(k, n - j - k));
    }
    if (layer > 0) {
      shape.exchanges += layer;
      ++shape.layers;
    }
  }
}

inline gc::BatcherNetworkShape SortShape(uint64_t rows) {
  gc::BatcherNetworkShape shape;
  const int64_t n = static_cast<int64_t>(rows);
  for (int64_t p = 1; p < n; p <<= 1) {
    MergePassShape(p, n, shape);
  }
  return shape;
}

inline gc::BatcherNetworkShape MergeShape(uint64_t run_length, uint64_t total) {
  gc::BatcherNetworkShape shape;
  MergePassShape(static_cast<int64_t>(run_length), static_cast<int64_t>(total),
                 shape);
  return shape;
}

}  // namespace batcherwalk
}  // namespace conclave

#endif  // CONCLAVE_TESTS_BATCHER_WALK_REFERENCE_H_
