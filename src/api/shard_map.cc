#include "api/shard_map.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace flood {

StatusOr<ShardMap> ShardMap::FromBounds(size_t sort_dim,
                                        std::vector<Value> bounds) {
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i] == kValueMin) {
      return Status::InvalidArgument(
          "shard bound must be greater than kValueMin (shard 0 already "
          "starts there)");
    }
    if (i > 0 && bounds[i] <= bounds[i - 1]) {
      return Status::InvalidArgument(
          "shard bounds must be strictly increasing (bound " +
          std::to_string(i) + " = " + std::to_string(bounds[i]) +
          " <= previous " + std::to_string(bounds[i - 1]) + ")");
    }
  }
  return ShardMap(sort_dim, std::move(bounds));
}

ShardMap ShardMap::FromQuantiles(const Table& table, size_t sort_dim,
                                 size_t num_shards) {
  FLOOD_CHECK(sort_dim < table.num_dims());
  if (num_shards <= 1 || table.num_rows() == 0) return ShardMap(sort_dim);

  std::vector<Value> values = table.DecodeColumn(sort_dim);
  std::sort(values.begin(), values.end());
  num_shards = std::min(num_shards, values.size());

  // Cut at the equal-count quantiles. A bound must be strictly greater
  // than the previous one (a single value is never split across shards)
  // AND strictly greater than the column minimum (otherwise shard 0 would
  // own no rows); duplicates therefore collapse shards instead of
  // creating empty ones. Each surviving bound is an actual data value, so
  // the shard it opens contains at least that value's rows, and shard 0
  // keeps the minimum — every shard is non-empty by construction.
  std::vector<Value> bounds;
  Value prev = values.front();
  for (size_t s = 1; s < num_shards; ++s) {
    const Value candidate = values[s * values.size() / num_shards];
    if (candidate > prev) {
      bounds.push_back(candidate);
      prev = candidate;
    }
  }
  return ShardMap(sort_dim, std::move(bounds));
}

size_t ShardMap::ShardForValue(Value v) const {
  // bounds_[i] opens shard i + 1, so v's shard is the number of bounds
  // less than or equal to v.
  return static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

std::pair<size_t, size_t> ShardMap::ShardsForRange(
    const ValueRange& range) const {
  FLOOD_DCHECK(!range.IsEmpty());
  return {ShardForValue(range.lo), ShardForValue(range.hi)};
}

std::pair<size_t, size_t> ShardMap::ShardsForQuery(const Query& query) const {
  if (sort_dim_ >= query.num_dims()) return {0, num_shards() - 1};
  return ShardsForRange(query.range(sort_dim_));
}

ShardPlan ShardMap::Plan(std::span<const Query> queries) const {
  ShardPlan plan;
  plan.sub.resize(num_shards());
  plan.origin.resize(num_shards());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].IsEmpty()) {
      plan.empty.push_back(i);
      continue;
    }
    const auto [first, last] = ShardsForQuery(queries[i]);
    plan.sent += last - first + 1;
    plan.pruned += num_shards() - (last - first + 1);
    for (size_t s = first; s <= last; ++s) {
      plan.sub[s].push_back(queries[i]);
      plan.origin[s].push_back(i);
    }
  }
  return plan;
}

StatusOr<std::vector<ShardRows>> ShardMap::SplitRows(
    std::span<const std::vector<Value>> rows) const {
  std::vector<ShardRows> groups(num_shards());
  for (size_t s = 0; s < groups.size(); ++s) groups[s].shard = s;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != rows[0].size() || sort_dim_ >= rows[i].size()) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) +
          " values; batch rows need one length past sort dim " +
          std::to_string(sort_dim_));
    }
    groups[ShardForValue(rows[i][sort_dim_])].rows.push_back(rows[i]);
  }
  std::erase_if(groups, [](const ShardRows& g) { return g.rows.empty(); });
  return groups;
}

ValueRange ShardMap::RangeOf(size_t s) const {
  FLOOD_DCHECK(s < num_shards());
  ValueRange r;
  r.lo = s == 0 ? kValueMin : bounds_[s - 1];
  r.hi = s == bounds_.size() ? kValueMax : bounds_[s] - 1;
  return r;
}

std::string ShardMap::ToString() const {
  std::string out = "dim " + std::to_string(sort_dim_) + ":";
  for (size_t s = 0; s < num_shards(); ++s) {
    const ValueRange r = RangeOf(s);
    out += " [";
    out += r.lo == kValueMin ? "min" : std::to_string(r.lo);
    out += "..";
    out += r.hi == kValueMax ? "max" : std::to_string(r.hi);
    out += "]";
  }
  return out;
}

}  // namespace flood
