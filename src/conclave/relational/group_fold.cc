#include "conclave/relational/group_fold.h"

#include <algorithm>
#include <utility>

#include "conclave/common/cpu.h"

namespace conclave {
namespace ops {
namespace {

int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}

// Folds one value into the field `kind` finalizes (kCount reads no value).
void FoldValue(Accumulator& acc, AggKind kind, int64_t v) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kMean:
      acc.sum = WrapAdd(acc.sum, v);
      break;
    case AggKind::kMin:
      acc.min = std::min(acc.min, v);
      break;
    case AggKind::kMax:
      acc.max = std::max(acc.max, v);
      break;
    case AggKind::kCount:
      break;
  }
}

// Folds n >= 1 rows of one group (`vals` null for kCount) with the vector
// reductions — the same wrap-sum and min/max as n FoldValue calls, so the
// result bits cannot differ.
void FoldRun(Accumulator& acc, AggKind kind, const int64_t* vals, size_t n) {
  acc.count += static_cast<int64_t>(n);
  if (vals == nullptr) {
    return;
  }
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kMean:
      acc.sum = WrapAdd(acc.sum, cpu::SumWrap(vals, n));
      break;
    case AggKind::kMin:
      acc.min = std::min(acc.min, cpu::MinOf(vals, n));
      break;
    case AggKind::kMax:
      acc.max = std::max(acc.max, cpu::MaxOf(vals, n));
      break;
    case AggKind::kCount:
      break;
  }
}

}  // namespace

void Accumulator::Merge(const Accumulator& other) {
  sum = WrapAdd(sum, other.sum);
  count += other.count;
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

int64_t Accumulator::Finalize(AggKind kind) const {
  switch (kind) {
    case AggKind::kSum:
      return sum;
    case AggKind::kCount:
      return count;
    case AggKind::kMin:
      return min;
    case AggKind::kMax:
      return max;
    case AggKind::kMean:
      return count == 0 ? 0 : sum / count;
  }
  return 0;
}

Schema AggregateOutputSchema(const Schema& input,
                             std::span<const int> group_columns,
                             const std::string& output_name) {
  std::vector<ColumnDef> defs;
  defs.reserve(group_columns.size() + 1);
  for (int c : group_columns) {
    defs.push_back(input.Column(c));
  }
  defs.emplace_back(output_name);
  return Schema(std::move(defs));
}

GroupFold::GroupFold(AggKind kind, std::vector<int> group_columns, int agg_column)
    : kind_(kind), group_columns_(std::move(group_columns)), agg_column_(agg_column) {}

void GroupFold::Add(const Relation& input, int64_t lo, int64_t hi) {
  if (hi <= lo) {
    return;
  }
  const size_t n = static_cast<size_t>(hi - lo);
  const int64_t* const vals =
      kind_ == AggKind::kCount ? nullptr : input.ColumnSpan(agg_column_).data();
  if (group_columns_.empty()) {
    key_.clear();
    FoldRun(multi_[key_], kind_, vals == nullptr ? nullptr : vals + lo, n);
    return;
  }
  if (group_columns_.size() == 1) {
    const int64_t* const keys = input.ColumnSpan(group_columns_[0]).data();
    // Sorted or low-cardinality inputs often present whole ranges of one
    // group: collapse those to one vector reduction.
    if (cpu::AllEqual(keys + lo, n)) {
      FoldRun(single_[keys[lo]], kind_, vals == nullptr ? nullptr : vals + lo, n);
      return;
    }
    for (int64_t r = lo; r < hi; ++r) {
      Accumulator& acc = single_[keys[r]];
      acc.count += 1;
      if (vals != nullptr) {
        FoldValue(acc, kind_, vals[r]);
      }
    }
    return;
  }
  std::vector<const int64_t*> cols;
  cols.reserve(group_columns_.size());
  for (int c : group_columns_) {
    cols.push_back(input.ColumnSpan(c).data());
  }
  for (int64_t r = lo; r < hi; ++r) {
    key_.clear();
    for (const int64_t* col : cols) {
      key_.push_back(col[r]);
    }
    // Probe with the reused key; only a new group allocates one.
    auto it = multi_.find(key_);
    if (it == multi_.end()) {
      it = multi_.emplace(key_, Accumulator{}).first;
    }
    it->second.count += 1;
    if (vals != nullptr) {
      FoldValue(it->second, kind_, vals[r]);
    }
  }
}

void GroupFold::Merge(GroupFold&& other) {
  if (single_.empty() && multi_.empty()) {
    single_ = std::move(other.single_);
    multi_ = std::move(other.multi_);
  } else {
    for (const auto& [key, acc] : other.single_) {
      single_[key].Merge(acc);
    }
    for (const auto& [key, acc] : other.multi_) {
      multi_[key].Merge(acc);
    }
  }
  other.Clear();
}

void GroupFold::Clear() {
  single_.clear();
  multi_.clear();
}

Relation GroupFold::Emit(const Schema& schema) const {
  Relation output{schema};
  const int num_keys = static_cast<int>(group_columns_.size());
  if (num_keys == 1) {
    std::vector<std::pair<int64_t, Accumulator>> entries(single_.begin(),
                                                         single_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    output.Resize(static_cast<int64_t>(entries.size()));
    int64_t* const out_keys = output.ColumnData(0);
    int64_t* const out_vals = output.ColumnData(1);
    for (size_t i = 0; i < entries.size(); ++i) {
      out_keys[i] = entries[i].first;
      out_vals[i] = entries[i].second.Finalize(kind_);
    }
    return output;
  }
  std::vector<const std::pair<const std::vector<int64_t>, Accumulator>*> entries;
  entries.reserve(multi_.size());
  for (const auto& entry : multi_) {
    entries.push_back(&entry);
  }
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  output.Resize(static_cast<int64_t>(entries.size()));
  for (int c = 0; c < num_keys; ++c) {
    int64_t* const out = output.ColumnData(c);
    for (size_t i = 0; i < entries.size(); ++i) {
      out[i] = entries[i]->first[static_cast<size_t>(c)];
    }
  }
  int64_t* const out_vals = output.ColumnData(num_keys);
  for (size_t i = 0; i < entries.size(); ++i) {
    out_vals[i] = entries[i]->second.Finalize(kind_);
  }
  return output;
}

}  // namespace ops
}  // namespace conclave
