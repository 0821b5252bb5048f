// Vectorized relational kernels with optional morsel-driven parallelism.
//
// Inner loops run over raw typed column arrays (validity resolved to a raw
// pointer outside the loop) and keyed kernels hash raw values via
// src/format/row_hash.h instead of materializing one string key per row.
// With ComputeOptions{num_threads > 1} and enough rows, kernels split the row
// range into morsels/chunks on the global MorselPool; every partial is merged
// in morsel/chunk order so results are deterministic for a given thread
// count (row order is identical to the sequential path; parallel float sums
// may differ in the final bits from the sequential accumulation order).
#include "src/format/compute.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/format/morsel_pool.h"
#include "src/format/row_hash.h"

namespace skadi {

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kMean:
      return "mean";
  }
  return "?";
}

namespace {

Result<std::vector<const Column*>> ResolveColumns(const RecordBatch& batch,
                                                  const std::vector<std::string>& names) {
  std::vector<const Column*> cols;
  cols.reserve(names.size());
  for (const std::string& name : names) {
    const Column* col = batch.ColumnByName(name);
    if (col == nullptr) {
      return Status::NotFound("column '" + name + "' not in schema " +
                              batch.schema().ToString());
    }
    cols.push_back(col);
  }
  return cols;
}

// Gathers `indices` from every column, fanning the per-column gathers out
// over the morsel pool when the selection is large enough.
RecordBatch TakeBatch(const RecordBatch& batch, const std::vector<int64_t>& indices,
                      const ComputeOptions& options) {
  const size_t num_columns = batch.num_columns();
  if (num_columns <= 1 ||
      !options.ShouldParallelize(static_cast<int64_t>(indices.size()))) {
    return batch.Take(indices);
  }
  std::vector<Column> columns(num_columns);
  MorselPool::Global().ParallelChunks(
      static_cast<int64_t>(num_columns), options.num_threads,
      [&](int /*chunk*/, int64_t begin, int64_t end) {
        for (int64_t c = begin; c < end; ++c) {
          columns[static_cast<size_t>(c)] =
              batch.column(static_cast<size_t>(c)).Take(indices);
        }
      });
  auto result = RecordBatch::Make(batch.schema(), std::move(columns));
  return std::move(result).value();
}

// True when `keys` is a single non-null int64 column: keyed kernels then use
// the raw value itself as the hash-table key (no hashing, no verify chain).
bool SingleInt64Key(const std::vector<const Column*>& keys) {
  return keys.size() == 1 && keys[0]->type() == DataType::kInt64 &&
         !keys[0]->has_nulls();
}

// Hash-table sizing hint: enough for every row to be distinct, capped so a
// huge batch does not pre-commit hundreds of MB before the first insert.
size_t TableSizeHint(int64_t rows) {
  return static_cast<size_t>(std::min<int64_t>(rows, 64 * 1024));
}

size_t RoundUpPow2(size_t n) {
  size_t p = 16;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

// Incremental distinct-key tuple -> dense group ordinal mapping over a fixed
// key column set: a flat open-addressing table (linear probing) instead of a
// node-based map, so the per-row probe is one mix plus a few contiguous slot
// reads. Single non-null int64 keys compare raw values; other key shapes
// compare the tuple hash and resolve collisions with a typed row comparison
// against the group's representative row.
class Grouper {
 public:
  Grouper(const std::vector<const Column*>& keys, int64_t size_hint) : keys_(keys) {
    int64_fast_ = SingleInt64Key(keys);
    if (int64_fast_) {
      fast_values_ = keys[0]->ints().data();
    }
    mask_ = RoundUpPow2(TableSizeHint(size_hint) * 2) - 1;
    slots_.assign(mask_ + 1, Slot{});
  }

  // Group ordinal for `row`, creating a new group if the key tuple is new.
  // `hash` must be HashKeyRow(keys, row) (ignored on the int64 fast path).
  uint32_t GroupOf(int64_t row, uint64_t hash) {
    if (int64_fast_) {
      const uint64_t key = static_cast<uint64_t>(fast_values_[row]);
      for (size_t pos = MixU64(key) & mask_;; pos = (pos + 1) & mask_) {
        Slot& slot = slots_[pos];
        if (slot.val == 0) {
          return Insert(slot, key, row);
        }
        if (slot.key == key) {
          return slot.val - 1;
        }
      }
    }
    for (size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      Slot& slot = slots_[pos];
      if (slot.val == 0) {
        return Insert(slot, hash, row);
      }
      // Equal hashes may still be distinct tuples; verify and keep probing.
      if (slot.key == hash &&
          KeyRowsEqual(keys_, rep_rows_[slot.val - 1], keys_, row)) {
        return slot.val - 1;
      }
    }
  }

  const std::vector<int64_t>& rep_rows() const { return rep_rows_; }
  size_t num_groups() const { return rep_rows_.size(); }

 private:
  struct Slot {
    uint64_t key = 0;  // raw int64 bits (fast path) or tuple hash
    uint32_t val = 0;  // 0 = empty, else group ordinal + 1
  };

  uint32_t Insert(Slot& slot, uint64_t key, int64_t row) {
    uint32_t g = static_cast<uint32_t>(rep_rows_.size());
    slot.key = key;
    slot.val = g + 1;
    rep_rows_.push_back(row);
    // Grow at ~70% load so probe chains stay short.
    if (rep_rows_.size() * 10 >= (mask_ + 1) * 7) {
      Rehash();
    }
    return g;
  }

  void Rehash() {
    std::vector<Slot> old = std::move(slots_);
    mask_ = (mask_ + 1) * 2 - 1;
    slots_.assign(mask_ + 1, Slot{});
    for (const Slot& s : old) {
      if (s.val == 0) {
        continue;
      }
      const uint64_t probe = int64_fast_ ? MixU64(s.key) : s.key;
      size_t pos = probe & mask_;
      while (slots_[pos].val != 0) {
        pos = (pos + 1) & mask_;
      }
      slots_[pos] = s;
    }
  }

  const std::vector<const Column*>& keys_;
  bool int64_fast_ = false;
  const int64_t* fast_values_ = nullptr;  // raw key array on the fast path
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  std::vector<int64_t> rep_rows_;
};

// Rows hashed in fixed-size blocks so keyed kernels never allocate a
// full-batch hash vector on the sequential path.
constexpr int64_t kHashBlockRows = 4096;

// Computes group ordinals for rows [begin, end) into gids[0 .. end-begin),
// growing `grouper` as new key tuples appear.
void AssignGroupIds(const std::vector<const Column*>& keys, int64_t begin, int64_t end,
                    Grouper& grouper, uint32_t* gids) {
  if (keys.empty()) {  // global aggregation: one group, first row represents it
    if (end > begin && grouper.num_groups() == 0) {
      grouper.GroupOf(begin, 0);
    }
    std::fill(gids, gids + (end - begin), 0);
    return;
  }
  if (SingleInt64Key(keys)) {
    for (int64_t r = begin; r < end; ++r) {
      gids[r - begin] = grouper.GroupOf(r, 0);
    }
    return;
  }
  uint64_t hashes[kHashBlockRows];
  for (int64_t b = begin; b < end; b += kHashBlockRows) {
    int64_t e = std::min(end, b + kHashBlockRows);
    HashKeyRows(keys, b, e, hashes);
    for (int64_t r = b; r < e; ++r) {
      gids[r - begin] = grouper.GroupOf(r, hashes[r - b]);
    }
  }
}

struct AggState {
  int64_t count = 0;       // non-null values seen (or rows for kCount)
  int64_t isum = 0;        // int64 sum
  double fsum = 0.0;       // float sum (also for mean)
  int64_t imin = std::numeric_limits<int64_t>::max();
  int64_t imax = std::numeric_limits<int64_t>::min();
  double fmin = std::numeric_limits<double>::infinity();
  double fmax = -std::numeric_limits<double>::infinity();
  std::string smin;
  std::string smax;
  bool has_value = false;
};

DataType AggOutputType(AggKind kind, DataType input) {
  switch (kind) {
    case AggKind::kCount:
      return DataType::kInt64;
    case AggKind::kMean:
      return DataType::kFloat64;
    case AggKind::kSum:
      return input == DataType::kFloat64 ? DataType::kFloat64 : DataType::kInt64;
    case AggKind::kMin:
    case AggKind::kMax:
      return input;
  }
  return DataType::kInt64;
}

// Folds rows [begin, end) of `col` into per-group states, column-at-a-time:
// one type dispatch per call, tight typed loop inside. gids[i] is the group
// of row begin+i. col == nullptr means COUNT(*).
void AccumulateAggregate(const Column* col, const uint32_t* gids, int64_t begin,
                         int64_t end, AggState* states) {
  const int64_t n = end - begin;
  if (col == nullptr) {
    for (int64_t i = 0; i < n; ++i) {
      states[gids[i]].count++;
    }
    return;
  }
  const uint8_t* validity = col->has_nulls() ? col->validity().data() : nullptr;
  switch (col->type()) {
    case DataType::kInt64: {
      const int64_t* values = col->ints().data();
      for (int64_t i = 0; i < n; ++i) {
        int64_t r = begin + i;
        if (validity != nullptr && validity[r] == 0) {
          continue;
        }
        AggState& st = states[gids[i]];
        int64_t v = values[r];
        st.count++;
        st.has_value = true;
        st.isum += v;
        st.fsum += static_cast<double>(v);
        st.imin = std::min(st.imin, v);
        st.imax = std::max(st.imax, v);
      }
      break;
    }
    case DataType::kFloat64: {
      const double* values = col->doubles().data();
      for (int64_t i = 0; i < n; ++i) {
        int64_t r = begin + i;
        if (validity != nullptr && validity[r] == 0) {
          continue;
        }
        AggState& st = states[gids[i]];
        double v = values[r];
        st.count++;
        st.has_value = true;
        st.fsum += v;
        st.fmin = std::min(st.fmin, v);
        st.fmax = std::max(st.fmax, v);
      }
      break;
    }
    case DataType::kString: {
      for (int64_t i = 0; i < n; ++i) {
        int64_t r = begin + i;
        if (validity != nullptr && validity[r] == 0) {
          continue;
        }
        AggState& st = states[gids[i]];
        std::string_view v = col->StringAt(r);
        st.count++;
        if (!st.has_value) {
          st.smin = std::string(v);
          st.smax = std::string(v);
        } else {
          if (v < st.smin) {
            st.smin = std::string(v);
          }
          if (v > st.smax) {
            st.smax = std::string(v);
          }
        }
        st.has_value = true;
      }
      break;
    }
    case DataType::kBool: {
      for (int64_t i = 0; i < n; ++i) {
        int64_t r = begin + i;
        if (validity != nullptr && validity[r] == 0) {
          continue;
        }
        AggState& st = states[gids[i]];
        st.count++;  // min/max over bool unsupported; count still advances
        st.has_value = true;
      }
      break;
    }
  }
}

// Folds a chunk-local partial into the global state for the same group.
void MergeAggState(AggState& dst, const AggState& src) {
  dst.count += src.count;
  dst.isum += src.isum;
  dst.fsum += src.fsum;
  dst.imin = std::min(dst.imin, src.imin);
  dst.imax = std::max(dst.imax, src.imax);
  dst.fmin = std::min(dst.fmin, src.fmin);
  dst.fmax = std::max(dst.fmax, src.fmax);
  if (src.has_value) {
    if (!dst.has_value) {
      dst.smin = src.smin;
      dst.smax = src.smax;
    } else {
      if (src.smin < dst.smin) {
        dst.smin = src.smin;
      }
      if (src.smax > dst.smax) {
        dst.smax = src.smax;
      }
    }
    dst.has_value = true;
  }
}

Column BuildAggColumn(const AggregateSpec& spec, DataType in_type, DataType out_type,
                      const std::vector<AggState>& states) {
  ColumnBuilder builder(out_type);
  for (const AggState& st : states) {
    switch (spec.kind) {
      case AggKind::kCount:
        builder.AppendInt64(st.count);
        break;
      case AggKind::kSum:
        if (st.count == 0) {
          builder.AppendNull();
        } else if (out_type == DataType::kFloat64) {
          builder.AppendFloat64(st.fsum);
        } else {
          builder.AppendInt64(st.isum);
        }
        break;
      case AggKind::kMean:
        if (st.count == 0) {
          builder.AppendNull();
        } else {
          builder.AppendFloat64(st.fsum / static_cast<double>(st.count));
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax: {
        if (st.count == 0) {
          builder.AppendNull();
          break;
        }
        bool is_min = spec.kind == AggKind::kMin;
        switch (in_type) {
          case DataType::kInt64:
            builder.AppendInt64(is_min ? st.imin : st.imax);
            break;
          case DataType::kFloat64:
            builder.AppendFloat64(is_min ? st.fmin : st.fmax);
            break;
          case DataType::kString:
            builder.AppendString(is_min ? st.smin : st.smax);
            break;
          case DataType::kBool:
            builder.AppendNull();
            break;
        }
        break;
      }
    }
  }
  return builder.Finish();
}

// Appends the indices of set mask positions in [begin, end) to `out`.
// The mask is consumed as raw bytes; validity is folded in outside the
// caller's inner loop by resolving the pointer once.
void SelectedIndices(const Column& mask, int64_t begin, int64_t end,
                     std::vector<int64_t>& out) {
  const uint8_t* values = mask.bools().data();
  const uint8_t* validity = mask.has_nulls() ? mask.validity().data() : nullptr;
  if (validity == nullptr) {
    for (int64_t r = begin; r < end; ++r) {
      if (values[r] != 0) {
        out.push_back(r);
      }
    }
  } else {
    for (int64_t r = begin; r < end; ++r) {
      if (validity[r] != 0 && values[r] != 0) {
        out.push_back(r);
      }
    }
  }
}

}  // namespace

namespace {

// Rows of `gather` (a column subset of `batch`) where `predicate`, evaluated
// over `batch`, is true.
Result<RecordBatch> FilterRows(const RecordBatch& batch, const RecordBatch& gather,
                               const Expr& predicate, const ComputeOptions& options) {
  SKADI_ASSIGN_OR_RETURN(Column mask, EvalExpr(predicate, batch));
  if (mask.type() != DataType::kBool) {
    return Status::InvalidArgument("filter predicate must be bool, got " +
                                   std::string(DataTypeName(mask.type())));
  }
  const int64_t rows = mask.length();
  std::vector<int64_t> indices;
  if (!options.ShouldParallelize(rows)) {
    indices.reserve(static_cast<size_t>(rows));
    SelectedIndices(mask, 0, rows, indices);
  } else {
    // Chunk-local selections concatenated in chunk order: identical row
    // order to the sequential scan.
    std::vector<std::vector<int64_t>> parts(static_cast<size_t>(options.num_threads));
    MorselPool::Global().ParallelChunks(
        rows, options.num_threads, [&](int chunk, int64_t begin, int64_t end) {
          std::vector<int64_t>& part = parts[static_cast<size_t>(chunk)];
          part.reserve(static_cast<size_t>(end - begin));
          SelectedIndices(mask, begin, end, part);
        });
    size_t total = 0;
    for (const auto& part : parts) {
      total += part.size();
    }
    indices.reserve(total);
    for (const auto& part : parts) {
      indices.insert(indices.end(), part.begin(), part.end());
    }
  }
  if (static_cast<int64_t>(indices.size()) == batch.num_rows()) {
    return gather;  // everything selected: no gather needed
  }
  return TakeBatch(gather, indices, options);
}

}  // namespace

Result<RecordBatch> FilterBatch(const RecordBatch& batch, const Expr& predicate,
                                const ComputeOptions& options) {
  return FilterRows(batch, batch, predicate, options);
}

Result<RecordBatch> FilterProjectBatch(const RecordBatch& batch, const Expr& predicate,
                                       const std::vector<ProjectionSpec>& projections,
                                       const ComputeOptions& options) {
  std::set<std::string> read;
  for (const ProjectionSpec& p : projections) {
    if (p.expr != nullptr) {
      for (std::string& name : p.expr->ReferencedColumns()) {
        read.insert(std::move(name));
      }
    }
  }
  std::vector<Field> fields;
  std::vector<Column> columns;
  for (size_t i = 0; i < batch.num_columns(); ++i) {
    if (read.count(batch.schema().field(i).name) > 0) {
      fields.push_back(batch.schema().field(i));
      columns.push_back(batch.column(i));
    }
  }
  // With nothing read (constant projections) every column is gathered, so
  // the row count survives.
  RecordBatch gather = batch;
  if (!fields.empty()) {
    SKADI_ASSIGN_OR_RETURN(gather,
                           RecordBatch::Make(Schema(std::move(fields)), std::move(columns)));
  }
  SKADI_ASSIGN_OR_RETURN(RecordBatch filtered, FilterRows(batch, gather, predicate, options));
  return ProjectBatch(filtered, projections, options);
}

Result<RecordBatch> ProjectBatch(const RecordBatch& batch,
                                 const std::vector<ProjectionSpec>& projections,
                                 const ComputeOptions& options) {
  for (const ProjectionSpec& p : projections) {
    if (p.expr == nullptr) {
      return Status::InvalidArgument("projection '" + p.name + "' has no expression");
    }
  }
  std::vector<Result<Column>> results;
  results.reserve(projections.size());
  for (size_t i = 0; i < projections.size(); ++i) {
    results.emplace_back(Column());
  }
  if (projections.size() > 1 && options.ShouldParallelize(batch.num_rows())) {
    // Expressions are immutable and EvalExpr is pure over the batch, so
    // independent projections evaluate concurrently.
    MorselPool::Global().ParallelChunks(
        static_cast<int64_t>(projections.size()), options.num_threads,
        [&](int /*chunk*/, int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            results[static_cast<size_t>(i)] =
                EvalExpr(*projections[static_cast<size_t>(i)].expr, batch);
          }
        });
  } else {
    for (size_t i = 0; i < projections.size(); ++i) {
      results[i] = EvalExpr(*projections[i].expr, batch);
    }
  }
  std::vector<Field> fields;
  std::vector<Column> columns;
  fields.reserve(projections.size());
  columns.reserve(projections.size());
  for (size_t i = 0; i < projections.size(); ++i) {
    SKADI_RETURN_IF_ERROR(results[i].status());
    Column col = std::move(results[i]).value();
    fields.push_back({projections[i].name, col.type()});
    columns.push_back(std::move(col));
  }
  return RecordBatch::Make(Schema(std::move(fields)), std::move(columns));
}

Result<std::vector<RecordBatch>> HashPartitionBatch(
    const RecordBatch& batch, const std::vector<std::string>& key_columns,
    uint32_t num_partitions, const ComputeOptions& options) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("num_partitions must be > 0");
  }
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> keys,
                         ResolveColumns(batch, key_columns));
  const int64_t rows = batch.num_rows();

  // Partition id per row: a pure function of the key tuple, so chunks can
  // fill disjoint ranges concurrently and the result is independent of the
  // thread count.
  std::vector<uint32_t> partition_ids(static_cast<size_t>(rows));
  auto assign_range = [&](int64_t begin, int64_t end) {
    uint64_t hashes[kHashBlockRows];
    for (int64_t b = begin; b < end; b += kHashBlockRows) {
      int64_t e = std::min(end, b + kHashBlockRows);
      HashKeyRows(keys, b, e, hashes);
      for (int64_t r = b; r < e; ++r) {
        partition_ids[static_cast<size_t>(r)] =
            PartitionOf(hashes[r - b], num_partitions);
      }
    }
  };
  if (options.ShouldParallelize(rows)) {
    MorselPool::Global().ParallelChunks(
        rows, options.num_threads,
        [&](int /*chunk*/, int64_t begin, int64_t end) { assign_range(begin, end); });
  } else {
    assign_range(0, rows);
  }

  // Count first so every per-partition row list is allocated exactly once.
  std::vector<size_t> counts(num_partitions, 0);
  for (int64_t r = 0; r < rows; ++r) {
    counts[partition_ids[static_cast<size_t>(r)]]++;
  }
  std::vector<std::vector<int64_t>> partition_rows(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    partition_rows[p].reserve(counts[p]);
  }
  for (int64_t r = 0; r < rows; ++r) {
    partition_rows[partition_ids[static_cast<size_t>(r)]].push_back(r);
  }

  std::vector<RecordBatch> out(num_partitions);
  auto gather_range = [&](int64_t begin, int64_t end) {
    for (int64_t p = begin; p < end; ++p) {
      out[static_cast<size_t>(p)] = batch.Take(partition_rows[static_cast<size_t>(p)]);
    }
  };
  if (num_partitions > 1 && options.ShouldParallelize(rows)) {
    MorselPool::Global().ParallelChunks(
        static_cast<int64_t>(num_partitions), options.num_threads,
        [&](int /*chunk*/, int64_t begin, int64_t end) { gather_range(begin, end); });
  } else {
    gather_range(0, num_partitions);
  }
  return out;
}

Result<RecordBatch> GroupAggregateBatch(const RecordBatch& batch,
                                        const std::vector<std::string>& group_by,
                                        const std::vector<AggregateSpec>& aggregates,
                                        const ComputeOptions& options) {
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> group_cols,
                         ResolveColumns(batch, group_by));

  // Resolve aggregate input columns (kCount over "*"/empty needs none).
  std::vector<const Column*> agg_cols(aggregates.size(), nullptr);
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& spec = aggregates[a];
    if (spec.kind == AggKind::kCount && (spec.column.empty() || spec.column == "*")) {
      continue;
    }
    const Column* col = batch.ColumnByName(spec.column);
    if (col == nullptr) {
      return Status::NotFound("aggregate column '" + spec.column + "' not in schema " +
                              batch.schema().ToString());
    }
    if (spec.kind != AggKind::kCount && spec.kind != AggKind::kMin &&
        spec.kind != AggKind::kMax && col->type() != DataType::kInt64 &&
        col->type() != DataType::kFloat64) {
      return Status::InvalidArgument("aggregate " + std::string(AggKindName(spec.kind)) +
                                     " requires a numeric column, '" + spec.column +
                                     "' is " + std::string(DataTypeName(col->type())));
    }
    agg_cols[a] = col;
  }

  const int64_t rows = batch.num_rows();
  std::vector<int64_t> rep_rows;
  std::vector<std::vector<AggState>> states;  // [aggregate][group]
  states.resize(aggregates.size());

  if (!options.ShouldParallelize(rows)) {
    // Sequential: one grouping pass, then one column-at-a-time accumulation
    // pass per aggregate.
    Grouper grouper(group_cols, rows);
    std::vector<uint32_t> gids(static_cast<size_t>(rows));
    AssignGroupIds(group_cols, 0, rows, grouper, gids.data());
    rep_rows = grouper.rep_rows();
    if (group_by.empty() && rep_rows.empty()) {
      rep_rows.push_back(-1);  // global agg over empty input: one zero row
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      states[a].assign(rep_rows.size(), AggState());
      AccumulateAggregate(agg_cols[a], gids.data(), 0, rows, states[a].data());
    }
  } else {
    // Morsel-parallel: each chunk builds a private group table and partial
    // states for its row range; partials merge in chunk order, which yields
    // the same first-occurrence group order as the sequential pass.
    struct ChunkPartial {
      std::vector<int64_t> rep_rows;
      std::vector<std::vector<AggState>> states;  // [aggregate][local group]
    };
    const int num_chunks = options.num_threads;
    std::vector<ChunkPartial> partials(static_cast<size_t>(num_chunks));
    MorselPool::Global().ParallelChunks(
        rows, num_chunks, [&](int chunk, int64_t begin, int64_t end) {
          ChunkPartial& part = partials[static_cast<size_t>(chunk)];
          Grouper grouper(group_cols, end - begin);
          std::vector<uint32_t> gids(static_cast<size_t>(end - begin));
          AssignGroupIds(group_cols, begin, end, grouper, gids.data());
          part.rep_rows = grouper.rep_rows();
          part.states.resize(aggregates.size());
          for (size_t a = 0; a < aggregates.size(); ++a) {
            part.states[a].assign(part.rep_rows.size(), AggState());
            AccumulateAggregate(agg_cols[a], gids.data(), begin, end,
                                part.states[a].data());
          }
        });
    Grouper global(group_cols, rows);
    for (const ChunkPartial& part : partials) {
      for (size_t lg = 0; lg < part.rep_rows.size(); ++lg) {
        int64_t rep = part.rep_rows[lg];
        uint64_t hash = group_cols.empty() ? 0 : HashKeyRow(group_cols, rep);
        uint32_t g = global.GroupOf(rep, hash);
        for (size_t a = 0; a < aggregates.size(); ++a) {
          if (states[a].size() <= g) {
            states[a].resize(g + 1);
          }
          MergeAggState(states[a][g], part.states[a][lg]);
        }
      }
    }
    rep_rows = global.rep_rows();
    if (group_by.empty() && rep_rows.empty()) {
      rep_rows.push_back(-1);
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      states[a].resize(rep_rows.size());
    }
  }

  std::vector<Field> fields;
  std::vector<Column> columns;

  // Group key columns, in declaration order, gathered from representatives.
  for (size_t k = 0; k < group_by.size(); ++k) {
    const Column* src = group_cols[k];
    fields.push_back({group_by[k], src->type()});
    columns.push_back(src->Take(rep_rows));
  }

  // Aggregate output columns.
  for (size_t a = 0; a < aggregates.size(); ++a) {
    const AggregateSpec& spec = aggregates[a];
    DataType in_type = agg_cols[a] == nullptr ? DataType::kInt64 : agg_cols[a]->type();
    DataType out_type = AggOutputType(spec.kind, in_type);
    fields.push_back({spec.name, out_type});
    columns.push_back(BuildAggColumn(spec, in_type, out_type, states[a]));
  }

  return RecordBatch::Make(Schema(std::move(fields)), std::move(columns));
}

Result<RecordBatch> SortBatch(const RecordBatch& batch, const std::vector<SortKey>& keys) {
  std::vector<const Column*> cols;
  std::vector<std::string> names;
  names.reserve(keys.size());
  for (const SortKey& k : keys) {
    names.push_back(k.column);
  }
  SKADI_ASSIGN_OR_RETURN(cols, ResolveColumns(batch, names));

  std::vector<int64_t> indices(static_cast<size_t>(batch.num_rows()));
  std::iota(indices.begin(), indices.end(), 0);

  auto compare_at = [&](const Column& col, int64_t a, int64_t b) -> int {
    bool na = col.IsNull(a);
    bool nb = col.IsNull(b);
    if (na || nb) {
      return na == nb ? 0 : (na ? -1 : 1);  // nulls first in ascending order
    }
    switch (col.type()) {
      case DataType::kInt64: {
        int64_t va = col.Int64At(a);
        int64_t vb = col.Int64At(b);
        return va < vb ? -1 : (va > vb ? 1 : 0);
      }
      case DataType::kFloat64: {
        double va = col.Float64At(a);
        double vb = col.Float64At(b);
        return va < vb ? -1 : (va > vb ? 1 : 0);
      }
      case DataType::kString: {
        int cmp = col.StringAt(a).compare(col.StringAt(b));
        return cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
      }
      case DataType::kBool: {
        int va = col.BoolAt(a) ? 1 : 0;
        int vb = col.BoolAt(b) ? 1 : 0;
        return va - vb;
      }
    }
    return 0;
  };

  std::stable_sort(indices.begin(), indices.end(), [&](int64_t a, int64_t b) {
    for (size_t k = 0; k < keys.size(); ++k) {
      int cmp = compare_at(*cols[k], a, b);
      if (cmp != 0) {
        return keys[k].ascending ? cmp < 0 : cmp > 0;
      }
    }
    return false;
  });

  return batch.Take(indices);
}

Result<RecordBatch> HashJoinBatch(const RecordBatch& left, const RecordBatch& right,
                                  const std::vector<std::string>& left_keys,
                                  const std::vector<std::string>& right_keys,
                                  const ComputeOptions& options) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::InvalidArgument("join requires equal non-empty key lists");
  }
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> lkeys,
                         ResolveColumns(left, left_keys));
  SKADI_ASSIGN_OR_RETURN(std::vector<const Column*> rkeys,
                         ResolveColumns(right, right_keys));
  for (size_t k = 0; k < lkeys.size(); ++k) {
    if (lkeys[k]->type() != rkeys[k]->type()) {
      return Status::InvalidArgument("join key type mismatch on '" + left_keys[k] + "'");
    }
  }

  auto row_has_null_key = [](const std::vector<const Column*>& key_cols, int64_t row) {
    for (const Column* c : key_cols) {
      if (c->IsNull(row)) {
        return true;
      }
    }
    return false;
  };

  // Build side: right. Raw int64 values key the table directly when the key
  // is a single non-null int64 column on both sides; otherwise the table is
  // keyed by tuple hash with typed row verification at probe time.
  const bool int64_fast = SingleInt64Key(lkeys) && SingleInt64Key(rkeys);
  std::unordered_multimap<int64_t, int64_t> int_build;
  std::unordered_multimap<uint64_t, int64_t> hash_build;
  if (int64_fast) {
    int_build.reserve(static_cast<size_t>(right.num_rows()));
    const int64_t* values = rkeys[0]->ints().data();
    for (int64_t r = 0; r < right.num_rows(); ++r) {
      int_build.emplace(values[r], r);
    }
  } else {
    hash_build.reserve(static_cast<size_t>(right.num_rows()));
    uint64_t hashes[kHashBlockRows];
    for (int64_t b = 0; b < right.num_rows(); b += kHashBlockRows) {
      int64_t e = std::min(right.num_rows(), b + kHashBlockRows);
      HashKeyRows(rkeys, b, e, hashes);
      for (int64_t r = b; r < e; ++r) {
        if (row_has_null_key(rkeys, r)) {
          continue;
        }
        hash_build.emplace(hashes[r - b], r);
      }
    }
  }

  // Probe side: left. The build table is read-only here, so morsels probe
  // concurrently; per-morsel match lists concatenate in morsel order, which
  // preserves the sequential left-row output order.
  auto probe_range = [&](int64_t begin, int64_t end, std::vector<int64_t>& out_left,
                         std::vector<int64_t>& out_right) {
    if (int64_fast) {
      const int64_t* values = lkeys[0]->ints().data();
      for (int64_t l = begin; l < end; ++l) {
        auto [it, last] = int_build.equal_range(values[l]);
        for (; it != last; ++it) {
          out_left.push_back(l);
          out_right.push_back(it->second);
        }
      }
      return;
    }
    uint64_t hashes[kHashBlockRows];
    for (int64_t b = begin; b < end; b += kHashBlockRows) {
      int64_t e = std::min(end, b + kHashBlockRows);
      HashKeyRows(lkeys, b, e, hashes);
      for (int64_t l = b; l < e; ++l) {
        if (row_has_null_key(lkeys, l)) {
          continue;
        }
        auto [it, last] = hash_build.equal_range(hashes[l - b]);
        for (; it != last; ++it) {
          if (KeyRowsEqual(lkeys, l, rkeys, it->second)) {
            out_left.push_back(l);
            out_right.push_back(it->second);
          }
        }
      }
    }
  };

  std::vector<int64_t> left_rows;
  std::vector<int64_t> right_rows;
  if (!options.ShouldParallelize(left.num_rows())) {
    probe_range(0, left.num_rows(), left_rows, right_rows);
  } else {
    const int64_t morsel_rows = std::max<int64_t>(1, options.morsel_rows);
    const int64_t num_morsels = (left.num_rows() + morsel_rows - 1) / morsel_rows;
    std::vector<std::vector<int64_t>> part_left(static_cast<size_t>(num_morsels));
    std::vector<std::vector<int64_t>> part_right(static_cast<size_t>(num_morsels));
    MorselPool::Global().ParallelFor(
        left.num_rows(), morsel_rows, options.num_threads,
        [&](int64_t morsel, int64_t begin, int64_t end) {
          probe_range(begin, end, part_left[static_cast<size_t>(morsel)],
                      part_right[static_cast<size_t>(morsel)]);
        });
    size_t total = 0;
    for (const auto& part : part_left) {
      total += part.size();
    }
    left_rows.reserve(total);
    right_rows.reserve(total);
    for (int64_t m = 0; m < num_morsels; ++m) {
      const auto& pl = part_left[static_cast<size_t>(m)];
      const auto& pr = part_right[static_cast<size_t>(m)];
      left_rows.insert(left_rows.end(), pl.begin(), pl.end());
      right_rows.insert(right_rows.end(), pr.begin(), pr.end());
    }
  }

  // Assemble output: all left columns, right columns minus keys.
  RecordBatch left_out = TakeBatch(left, left_rows, options);
  RecordBatch right_gathered = TakeBatch(right, right_rows, options);

  std::vector<Field> fields(left_out.schema().fields());
  std::vector<Column> columns;
  columns.reserve(left_out.num_columns());
  for (size_t c = 0; c < left_out.num_columns(); ++c) {
    columns.push_back(left_out.column(c));
  }
  for (size_t c = 0; c < right_gathered.num_columns(); ++c) {
    const std::string& name = right.schema().field(c).name;
    if (std::find(right_keys.begin(), right_keys.end(), name) != right_keys.end()) {
      continue;
    }
    std::string out_name = name;
    if (left.schema().IndexOf(out_name).has_value()) {
      out_name += "_r";
    }
    fields.push_back({out_name, right_gathered.column(c).type()});
    columns.push_back(right_gathered.column(c));
  }
  return RecordBatch::Make(Schema(std::move(fields)), std::move(columns));
}

RecordBatch LimitBatch(const RecordBatch& batch, int64_t n) {
  return batch.Slice(0, n);
}

}  // namespace skadi
