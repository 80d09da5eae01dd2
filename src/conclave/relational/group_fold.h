// Hash-grouped aggregate state: the one accumulator behind every cleartext
// group-by.
//
// ops::Aggregate folds each row morsel into a private GroupFold and merges the
// partials; the pipeline's aggregate sink (relational/pipeline.h) folds a
// stream of batches into one GroupFold and emits at end of stream. Both finish
// through the same Emit, so a streamed aggregate is bit-identical to the
// materializing kernel by construction: wrapping sums, counts, mins and maxes
// are associative and commutative, and the output is sorted by group key, so
// neither morsel nor batch boundaries can move a bit.
#ifndef CONCLAVE_RELATIONAL_GROUP_FOLD_H_
#define CONCLAVE_RELATIONAL_GROUP_FOLD_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "conclave/common/rng.h"
#include "conclave/relational/ops.h"
#include "conclave/relational/relation.h"

namespace conclave {
namespace ops {

// Mixes a multi-column key into one hash (SplitMix64 finalizer per word).
struct KeyHash {
  size_t operator()(const std::vector<int64_t>& key) const {
    uint64_t h = kHashChainSeed;
    for (int64_t v : key) {
      h = HashChainStep(h, static_cast<uint64_t>(v));
    }
    return static_cast<size_t>(h);
  }
};

// Running state of one group. A fold updates only the fields its kind
// finalizes (sum for kSum / kMean, min for kMin, max for kMax; count always);
// the others keep their identity values, so Merge stays exact either way.
// Sums wrap (uint64 addition), like every other int64 kernel in the engine.
struct Accumulator {
  int64_t sum = 0;
  int64_t count = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void Merge(const Accumulator& other);
  int64_t Finalize(AggKind kind) const;
};

// Output schema of a group-by: the group columns' definitions, then one
// aggregate column named `output_name`.
Schema AggregateOutputSchema(const Schema& input,
                             std::span<const int> group_columns,
                             const std::string& output_name);

class GroupFold {
 public:
  // `agg_column` is ignored for kCount. An empty `group_columns` folds every
  // row into one global group.
  GroupFold(AggKind kind, std::vector<int> group_columns, int agg_column);

  // Folds rows [lo, hi) of `input` (laid out like the spec's input schema).
  void Add(const Relation& input, int64_t lo, int64_t hi);

  // Folds another fold of the same spec into this one, consuming it.
  void Merge(GroupFold&& other);

  // Drops every group.
  void Clear();

  // The finalized groups sorted by key, as a relation of `schema`
  // (AggregateOutputSchema of the input). No rows were folded: no rows out,
  // the global group included.
  Relation Emit(const Schema& schema) const;

 private:
  AggKind kind_;
  std::vector<int> group_columns_;
  int agg_column_;
  std::unordered_map<int64_t, Accumulator> single_;  // One group column.
  // Several group columns, or none (one empty key).
  std::unordered_map<std::vector<int64_t>, Accumulator, KeyHash> multi_;
  std::vector<int64_t> key_;  // Reused probe key for multi_.
};

}  // namespace ops
}  // namespace conclave

#endif  // CONCLAVE_RELATIONAL_GROUP_FOLD_H_
