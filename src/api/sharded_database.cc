#include "api/sharded_database.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"
#include "common/math_util.h"
#include "common/timer.h"

namespace flood {

namespace {

/// Adds shard `part` of a scatter into the merged result for one query.
/// Counts and sums add (each row lives in exactly one shard); max_query_ns
/// and friends merge inside QueryStats::Add.
void MergeQueryResult(const QueryResult& part, QueryResult* merged) {
  merged->count += part.count;
  merged->sum = WrappingAdd(merged->sum, part.sum);
  merged->stats.Add(part.stats);
}

}  // namespace

StatusOr<ShardedDatabase> ShardedDatabase::Open(const Table& table,
                                                ShardedDatabaseOptions options) {
  if (table.num_dims() == 0) {
    return Status::InvalidArgument("cannot shard a table with no columns");
  }
  if (options.sort_dim >= table.num_dims()) {
    return Status::InvalidArgument(
        "sort_dim " + std::to_string(options.sort_dim) +
        " out of range for a " + std::to_string(table.num_dims()) +
        "-dimensional table");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }

  ShardMap map =
      ShardMap::FromQuantiles(table, options.sort_dim, options.num_shards);

  // Partition rows by shard, preserving the table's row order within each
  // shard (so a 1-shard ShardedDatabase is bit-identical to Database over
  // the same table).
  const size_t n = map.num_shards();
  std::vector<std::vector<RowId>> rows_of(n);
  for (RowId row = 0; row < table.num_rows(); ++row) {
    rows_of[map.ShardForValue(table.Get(row, options.sort_dim))].push_back(
        row);
  }

  std::vector<std::unique_ptr<Database>> shards;
  shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    std::vector<std::vector<Value>> columns(table.num_dims());
    std::vector<std::string> names(table.num_dims());
    for (size_t d = 0; d < table.num_dims(); ++d) {
      names[d] = table.name(d);
      columns[d].reserve(rows_of[s].size());
      for (RowId row : rows_of[s]) columns[d].push_back(table.Get(row, d));
    }
    auto shard_table = Table::FromColumns(std::move(columns),
                                          Column::Encoding::kBlockDelta,
                                          std::move(names));
    FLOOD_RETURN_IF_ERROR(shard_table.status());
    auto db = Database::Open(*shard_table, options.shard_options);
    if (!db.ok()) {
      return Status::Internal("opening shard " + std::to_string(s) + " of " +
                              std::to_string(n) + ": " +
                              db.status().message());
    }
    shards.push_back(std::make_unique<Database>(std::move(*db)));
  }

  return ShardedDatabase(std::move(map), std::move(shards), table.num_dims());
}

Status ShardedDatabase::ValidateArity(const Query& query) const {
  if (query.num_dims() == num_dims_) return Status::OK();
  return Status::InvalidArgument(
      "query has " + std::to_string(query.num_dims()) +
      " dimensions, table has " + std::to_string(num_dims_));
}

// --- Reads -------------------------------------------------------------------

StatusOr<QueryResult> ShardedDatabase::TryRun(const Query& query) {
  FLOOD_RETURN_IF_ERROR(ValidateArity(query));
  QueryResult merged;
  merged.kind = query.agg().kind == AggSpec::Kind::kSum
                    ? QueryResult::Kind::kSum
                    : QueryResult::Kind::kCount;
  if (query.IsEmpty()) {
    merged.skipped_empty = true;
    return merged;
  }
  const auto [first, last] = map_.ShardsForQuery(query);
  for (size_t s = first; s <= last; ++s) {
    auto part = shards_[s]->TryRun(query);
    FLOOD_RETURN_IF_ERROR(part.status());
    MergeQueryResult(*part, &merged);
  }
  return merged;
}

QueryResult ShardedDatabase::Run(const Query& query) {
  auto result = TryRun(query);
  FLOOD_CHECK(result.ok());
  return std::move(*result);
}

BatchResult ShardedDatabase::RunBatch(std::span<const Query> queries) {
  Stopwatch wall;
  BatchResult out;

  // Validate the whole batch up front, like Database::RunBatch: one
  // malformed query fails the batch before any shard runs.
  for (const Query& q : queries) {
    out.status = ValidateArity(q);
    if (!out.status.ok()) return out;
  }

  const ShardPlan plan = map_.Plan(queries);
  out.results.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    out.results[i].kind = queries[i].agg().kind == AggSpec::Kind::kSum
                              ? QueryResult::Kind::kSum
                              : QueryResult::Kind::kCount;
  }
  for (const size_t i : plan.empty) out.results[i].skipped_empty = true;
  out.empty_skipped = plan.empty.size();

  // Each shard executes its sub-batch through its own RunBatch (so the
  // per-shard thread pools apply); the per-query merge happens here, in
  // shard order, for determinism.
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (plan.sub[s].empty()) continue;
    BatchResult part = shards_[s]->RunBatch(plan.sub[s]);
    if (!part.status.ok()) return part;  // Status set, results empty.
    for (size_t j = 0; j < plan.origin[s].size(); ++j) {
      MergeQueryResult(part.results[j], &out.results[plan.origin[s][j]]);
    }
    out.stats.Merge(part.stats);
  }

  out.wall_ms = wall.ElapsedMillis();
  return out;
}

std::vector<uint64_t> ShardedDatabase::IdOffsets() const {
  std::vector<uint64_t> offsets(shards_.size(), 0);
  uint64_t acc = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    offsets[s] = acc;
    // Width of shard s's id space under the current snapshot: base-row ids
    // in [0, base_rows) plus staged-insert ids in [base_rows, base_rows +
    // delta_inserts) — see Database::TryCollect.
    acc += shards_[s]->base_rows() + shards_[s]->delta_inserts();
  }
  return offsets;
}

StatusOr<QueryResult> ShardedDatabase::TryCollect(const Query& query) {
  FLOOD_RETURN_IF_ERROR(ValidateArity(query));
  QueryResult merged;
  merged.kind = QueryResult::Kind::kRows;
  if (query.IsEmpty()) {
    merged.skipped_empty = true;
    return merged;
  }
  const std::vector<uint64_t> offsets = IdOffsets();
  const auto [first, last] = map_.ShardsForQuery(query);
  for (size_t s = first; s <= last; ++s) {
    auto part = shards_[s]->TryCollect(query);
    FLOOD_RETURN_IF_ERROR(part.status());
    merged.count += part->count;
    merged.stats.Add(part->stats);
    merged.rows.reserve(merged.rows.size() + part->rows.size());
    for (RowId local : part->rows) merged.rows.push_back(offsets[s] + local);
  }
  return merged;
}

StatusOr<std::vector<Value>> ShardedDatabase::TryGetRow(
    RowId global_row) const {
  const std::vector<uint64_t> offsets = IdOffsets();
  // The owning shard is the last one whose offset is <= global_row.
  size_t s = shards_.size() - 1;
  while (s > 0 && offsets[s] > global_row) --s;
  return shards_[s]->TryGetRow(global_row - offsets[s]);
}

// --- Writes ------------------------------------------------------------------

Status ShardedDatabase::Insert(const std::vector<Value>& row) {
  return InsertBatch(std::span(&row, 1));
}

Status ShardedDatabase::InsertBatch(
    std::span<const std::vector<Value>> rows) {
  StatusOr<std::vector<ShardRows>> groups = map_.SplitRows(rows);
  FLOOD_RETURN_IF_ERROR(groups.status());
  for (const ShardRows& group : *groups) {
    FLOOD_RETURN_IF_ERROR(shards_[group.shard]->InsertBatch(group.rows));
  }
  return Status::OK();
}

StatusOr<size_t> ShardedDatabase::Delete(const std::vector<Value>& key) {
  StatusOr<std::vector<ShardRows>> groups = map_.SplitRows(std::span(&key, 1));
  FLOOD_RETURN_IF_ERROR(groups.status());
  return shards_[groups->front().shard]->Delete(key);
}

// --- Introspection -----------------------------------------------------------

size_t ShardedDatabase::num_rows() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_rows();
  return total;
}

size_t ShardedDatabase::pending_writes() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_writes();
  return total;
}

}  // namespace flood
