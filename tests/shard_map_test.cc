// ShardMap unit tests (bounds validation, quantile learning, routing
// lookups) plus the core ShardedDatabase acceptance property: a sharded
// facade over N partitions answers every query bit-identically to one
// unsharded Database over the same table — including with staged writes
// and tombstones in flight, and for Collect with global-id rebasing.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/index_registry.h"
#include "api/shard_map.h"
#include "api/sharded_database.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using flood::testing::DataShape;
using flood::testing::MakeTable;
using flood::testing::RandomQuery;
using flood::testing::RowsOf;

// ---------------------------------------------------------------------------
// ShardMap: explicit bounds.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, DefaultIsSingleShard) {
  const ShardMap map(2);
  EXPECT_EQ(map.sort_dim(), 2u);
  EXPECT_EQ(map.num_shards(), 1u);
  EXPECT_EQ(map.ShardForValue(kValueMin), 0u);
  EXPECT_EQ(map.ShardForValue(0), 0u);
  EXPECT_EQ(map.ShardForValue(kValueMax), 0u);
  EXPECT_TRUE(map.RangeOf(0).IsFullRange());
}

TEST(ShardMapTest, FromBoundsPartitionsTheValueSpace) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->num_shards(), 3u);

  // Shard ranges tile the space: no gaps, no overlap.
  EXPECT_EQ(map->RangeOf(0).lo, kValueMin);
  EXPECT_EQ(map->RangeOf(0).hi, 99);
  EXPECT_EQ(map->RangeOf(1).lo, 100);
  EXPECT_EQ(map->RangeOf(1).hi, 499);
  EXPECT_EQ(map->RangeOf(2).lo, 500);
  EXPECT_EQ(map->RangeOf(2).hi, kValueMax);

  // Point lookups agree with the ranges, including at the boundaries.
  EXPECT_EQ(map->ShardForValue(99), 0u);
  EXPECT_EQ(map->ShardForValue(100), 1u);
  EXPECT_EQ(map->ShardForValue(499), 1u);
  EXPECT_EQ(map->ShardForValue(500), 2u);
  EXPECT_EQ(map->ShardForValue(kValueMin), 0u);
  EXPECT_EQ(map->ShardForValue(kValueMax), 2u);
}

TEST(ShardMapTest, FromBoundsRejectsBadBounds) {
  EXPECT_FALSE(ShardMap::FromBounds(0, {500, 100}).ok());   // Decreasing.
  EXPECT_FALSE(ShardMap::FromBounds(0, {100, 100}).ok());   // Duplicate.
  EXPECT_FALSE(ShardMap::FromBounds(0, {kValueMin}).ok());  // Empty shard 0.
}

TEST(ShardMapTest, ShardsForRangeClipsToIntersectingShards) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());

  const auto one = map->ShardsForRange({150, 300});
  EXPECT_EQ(one.first, 1u);
  EXPECT_EQ(one.second, 1u);

  const auto straddle = map->ShardsForRange({99, 100});
  EXPECT_EQ(straddle.first, 0u);
  EXPECT_EQ(straddle.second, 1u);

  const auto all = map->ShardsForRange({kValueMin, kValueMax});
  EXPECT_EQ(all.first, 0u);
  EXPECT_EQ(all.second, 2u);
}

TEST(ShardMapTest, ShardsForQueryBroadcastsWithoutSortDimFilter) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());

  Query unfiltered(3);
  unfiltered.SetRange(1, 0, 10);  // Filters dim 1, not the sort dim.
  const auto span = map->ShardsForQuery(unfiltered);
  EXPECT_EQ(span.first, 0u);
  EXPECT_EQ(span.second, 2u);

  Query pinned(3);
  pinned.SetEquals(0, 250);
  const auto one = map->ShardsForQuery(pinned);
  EXPECT_EQ(one.first, 1u);
  EXPECT_EQ(one.second, 1u);
}

// ---------------------------------------------------------------------------
// ShardMap: quantile learning.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, FromQuantilesBalancesRowCounts) {
  const Table table = MakeTable(DataShape::kSkewed, 10'000, 2, 17);
  const ShardMap map = ShardMap::FromQuantiles(table, 0, 4);
  ASSERT_EQ(map.num_shards(), 4u);

  // Count the rows each shard owns: quantile cuts must balance them to
  // within the duplicate-run slack (values are never split across shards).
  std::vector<size_t> owned(map.num_shards(), 0);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ++owned[map.ShardForValue(table.Get(r, 0))];
  }
  for (size_t s = 0; s < owned.size(); ++s) {
    EXPECT_GT(owned[s], 0u) << "shard " << s << " owns no rows";
    EXPECT_LT(owned[s], table.num_rows() / 2) << "shard " << s;
  }
}

TEST(ShardMapTest, FromQuantilesCollapsesDuplicateHeavyColumns) {
  // A 12-value Zipf column cannot support 64 shards: the map must
  // collapse to fewer, never emit an empty shard, and still tile.
  const Table table = MakeTable(DataShape::kDuplicates, 5'000, 2, 23);
  const ShardMap map = ShardMap::FromQuantiles(table, 0, 64);
  ASSERT_GE(map.num_shards(), 1u);
  ASSERT_LE(map.num_shards(), 12u);

  std::vector<size_t> owned(map.num_shards(), 0);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ++owned[map.ShardForValue(table.Get(r, 0))];
  }
  for (size_t s = 0; s < owned.size(); ++s) {
    EXPECT_GT(owned[s], 0u) << "shard " << s << " owns no rows";
  }
}

TEST(ShardMapTest, FromQuantilesSingleShardAndToString) {
  const Table table = MakeTable(DataShape::kUniform, 1'000, 2, 29);
  const ShardMap one = ShardMap::FromQuantiles(table, 1, 1);
  EXPECT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(one.sort_dim(), 1u);
  EXPECT_NE(one.ToString().find("dim 1"), std::string::npos);

  const ShardMap two = ShardMap::FromQuantiles(table, 0, 2);
  EXPECT_NE(two.ToString().find(".."), std::string::npos);
}

// ---------------------------------------------------------------------------
// ShardMap: batch planning and write splitting.
// ---------------------------------------------------------------------------

using Rows = std::vector<std::vector<Value>>;

Query PinnedQuery(Value v) {
  Query q(3);
  q.SetEquals(0, v);
  return q;
}

TEST(ShardMapTest, PlanKeepsBatchOrderInsideEachSubBatch) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());
  const std::vector<Query> queries = {PinnedQuery(600), PinnedQuery(50),
                                      PinnedQuery(700), PinnedQuery(150),
                                      PinnedQuery(20)};
  const ShardPlan plan = map->Plan(queries);
  ASSERT_EQ(plan.sub.size(), 3u);
  ASSERT_EQ(plan.origin.size(), 3u);
  EXPECT_EQ(plan.origin[0], (std::vector<size_t>{1, 4}));
  EXPECT_EQ(plan.origin[1], (std::vector<size_t>{3}));
  EXPECT_EQ(plan.origin[2], (std::vector<size_t>{0, 2}));
  for (size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(plan.sub[s].size(), plan.origin[s].size()) << "shard " << s;
    for (size_t j = 0; j < plan.sub[s].size(); ++j) {
      EXPECT_EQ(plan.sub[s][j].range(0).lo,
                queries[plan.origin[s][j]].range(0).lo)
          << "shard " << s << " sub-query " << j;
    }
  }
  EXPECT_TRUE(plan.empty.empty());
}

TEST(ShardMapTest, PlanSendsEmptyQueriesToNoShard) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());
  Query empty(3);
  empty.SetRange(1, 10, 5);  // lo > hi on a non-sort dim: matches nothing.
  Query empty_sort(3);
  empty_sort.SetRange(0, 300, 200);
  const std::vector<Query> queries = {empty, PinnedQuery(250), empty_sort};
  const ShardPlan plan = map->Plan(queries);
  EXPECT_EQ(plan.empty, (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(plan.sub[0].empty());
  EXPECT_EQ(plan.origin[1], (std::vector<size_t>{1}));
  EXPECT_TRUE(plan.sub[2].empty());
  EXPECT_EQ(plan.sent, 1u);
  EXPECT_EQ(plan.pruned, 2u);
}

TEST(ShardMapTest, PlanSendsQueriesWithoutSortDimFilterToEveryShard) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());
  Query unfiltered(3);
  unfiltered.SetRange(1, 0, 10);
  const ShardPlan plan = map->Plan(std::vector<Query>{unfiltered});
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(plan.origin[s], (std::vector<size_t>{0})) << "shard " << s;
  }
  EXPECT_EQ(plan.sent, 3u);
  EXPECT_EQ(plan.pruned, 0u);
}

TEST(ShardMapTest, PlanPrunedIsShardCountMinusShardsHit) {
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 61);
  const ShardMap map = ShardMap::FromQuantiles(table, 0, 4);
  ASSERT_EQ(map.num_shards(), 4u);
  std::vector<Query> queries;
  for (size_t i = 0; i < 40; ++i) queries.push_back(RandomQuery(table, 70 + i));
  const ShardPlan plan = map.Plan(queries);

  uint64_t want_sent = 0;
  uint64_t want_pruned = 0;
  for (const Query& q : queries) {
    if (q.IsEmpty()) continue;
    const auto [first, last] = map.ShardsForQuery(q);
    want_sent += last - first + 1;
    want_pruned += map.num_shards() - (last - first + 1);
  }
  uint64_t sub_total = 0;
  for (const std::vector<Query>& sub : plan.sub) sub_total += sub.size();
  EXPECT_EQ(plan.sent, want_sent);
  EXPECT_EQ(plan.sent, sub_total);
  EXPECT_EQ(plan.pruned, want_pruned);
  EXPECT_GT(plan.pruned, 0u);
}

TEST(ShardMapTest, SplitRowsPutsEachRowInItsOwnersGroup) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(1, {10, 50});
  ASSERT_TRUE(map.ok());
  const Rows rows = {{0, 60, 1}, {1, 5, 2}, {2, 70, 3}, {3, 49, 4}, {4, 9, 5}};
  StatusOr<std::vector<ShardRows>> groups = map->SplitRows(rows);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups->size(), 3u);
  size_t total = 0;
  for (size_t g = 0; g < groups->size(); ++g) {
    const ShardRows& group = (*groups)[g];
    EXPECT_EQ(group.shard, g);  // Shard order, no empty group.
    for (const std::vector<Value>& row : group.rows) {
      EXPECT_EQ(map->ShardForValue(row[1]), group.shard);
    }
    total += group.rows.size();
  }
  EXPECT_EQ(total, rows.size());
  // Batch order inside a group.
  EXPECT_EQ((*groups)[0].rows, (Rows{{1, 5, 2}, {4, 9, 5}}));
  EXPECT_EQ((*groups)[1].rows, (Rows{{3, 49, 4}}));
  EXPECT_EQ((*groups)[2].rows, (Rows{{0, 60, 1}, {2, 70, 3}}));

  // Shards that get no row are left out.
  StatusOr<std::vector<ShardRows>> one = map->SplitRows(Rows{{9, 30, 9}});
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one->size(), 1u);
  EXPECT_EQ(one->front().shard, 1u);
}

TEST(ShardMapTest, SplitRowsRejectsShortRowsAndMixedLengths) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(2, {100});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->SplitRows(Rows{{1, 2}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(map->SplitRows(Rows{{1, 2, 3}, {1, 2, 300, 4}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(map->SplitRows(Rows{}).ok());
}

// ---------------------------------------------------------------------------
// ShardedDatabase: bit-equivalence to one unsharded Database.
// ---------------------------------------------------------------------------

StatusOr<ShardedDatabase> OpenSharded(const Table& table,
                                      const std::string& index,
                                      size_t num_shards) {
  ShardedDatabaseOptions options;
  options.num_shards = num_shards;
  options.sort_dim = 0;
  options.shard_options.index_name = index;
  options.shard_options.num_threads = 2;
  if (index == "flood") {
    Workload train;
    for (uint64_t s = 0; s < 20; ++s) {
      train.Add(RandomQuery(table, 5000 + s));
    }
    options.shard_options.training_workload = std::move(train);
  }
  return ShardedDatabase::Open(table, options);
}

TEST(ShardedDatabaseTest, MatchesUnshardedDatabaseWithWritesInFlight) {
  const Table table = MakeTable(DataShape::kClustered, 4'000, 3, 71);
  const std::vector<std::vector<Value>> rows = RowsOf(table);

  DatabaseOptions options;
  options.num_threads = 2;
  StatusOr<Database> single = Database::Open(table, std::move(options));
  ASSERT_TRUE(single.ok());
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 3);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->num_shards(), 3u);
  EXPECT_EQ(sharded->num_rows(), single->num_rows());

  // The same staged writes on both sides: inserts AND tombstones, NOT
  // compacted, so the sharded read path must merge base + delta per shard.
  for (Value i = 0; i < 30; ++i) {
    const std::vector<Value> row = {1'000'000 + i, 1'000'000 - i, i};
    ASSERT_TRUE(single->Insert(row).ok());
    ASSERT_TRUE(sharded->Insert(row).ok());
  }
  for (size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(single->Delete(rows[i * 131]).ok());
    ASSERT_TRUE(sharded->Delete(rows[i * 131]).ok());
  }
  EXPECT_EQ(sharded->num_rows(), single->num_rows());
  EXPECT_GT(sharded->pending_writes(), 0u);

  std::vector<Query> queries;
  for (size_t i = 0; i < 60; ++i) {
    Query q = RandomQuery(table, 900 + i);
    if (i % 3 == 0) q.set_agg({AggSpec::Kind::kSum, i % table.num_dims()});
    queries.push_back(std::move(q));
  }
  queries.push_back(Query(3));  // Unfiltered: broadcast to every shard.
  Query empty(3);
  empty.SetRange(0, 10, 5);  // lo > hi: short-circuits without a scatter.
  queries.push_back(empty);

  const BatchResult want = single->RunBatch(queries);
  ASSERT_TRUE(want.status.ok());
  const BatchResult got = sharded->RunBatch(queries);
  ASSERT_TRUE(got.status.ok());
  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got.results[i].count, want.results[i].count) << "query " << i;
    EXPECT_EQ(got.results[i].sum, want.results[i].sum) << "query " << i;
    EXPECT_EQ(got.results[i].kind, want.results[i].kind) << "query " << i;
    EXPECT_EQ(got.results[i].skipped_empty, want.results[i].skipped_empty)
        << "query " << i;
  }

  // TryRun agrees with RunBatch for a single query.
  StatusOr<QueryResult> lone = sharded->TryRun(queries[0]);
  ASSERT_TRUE(lone.ok());
  EXPECT_EQ(lone->count, want.results[0].count);
}

TEST(ShardedDatabaseTest, MatchesUnshardedForEveryRegisteredIndex) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 77);
  std::vector<Query> queries;
  for (size_t i = 0; i < 25; ++i) {
    Query q = RandomQuery(table, 1300 + i);
    if (i % 3 == 0) q.set_agg({AggSpec::Kind::kSum, i % table.num_dims()});
    queries.push_back(std::move(q));
  }

  size_t tested = 0;
  for (const std::string& index : IndexRegistry::Global().Names()) {
    DatabaseOptions options;
    options.index_name = index;
    options.num_threads = 2;
    if (index == "flood") {
      Workload train;
      for (uint64_t s = 0; s < 20; ++s) {
        train.Add(RandomQuery(table, 5000 + s));
      }
      options.training_workload = std::move(train);
    }
    StatusOr<Database> single = Database::Open(table, std::move(options));
    if (!single.ok()) continue;  // e.g. grid-file budget: N/A here.
    StatusOr<ShardedDatabase> sharded = OpenSharded(table, index, 4);
    if (!sharded.ok()) continue;

    const BatchResult want = single->RunBatch(queries);
    const BatchResult got = sharded->RunBatch(queries);
    ASSERT_TRUE(want.status.ok()) << index;
    ASSERT_TRUE(got.status.ok()) << index;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got.results[i].count, want.results[i].count)
          << index << " query " << i;
      EXPECT_EQ(got.results[i].sum, want.results[i].sum)
          << index << " query " << i;
    }
    ++tested;
  }
  EXPECT_GE(tested, 5u);
}

TEST(ShardedDatabaseTest, SingleShardIsTheIdentity) {
  const Table table = MakeTable(DataShape::kCorrelated, 2'000, 2, 31);
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 1);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 1u);
  EXPECT_EQ(sharded->num_rows(), table.num_rows());

  DatabaseOptions options;
  options.num_threads = 2;
  StatusOr<Database> single = Database::Open(table, std::move(options));
  ASSERT_TRUE(single.ok());
  for (size_t i = 0; i < 10; ++i) {
    const Query q = RandomQuery(table, 400 + i);
    EXPECT_EQ(sharded->Run(q).count, single->Run(q).count) << i;
  }
}

TEST(ShardedDatabaseTest, CollectRebasesIdsIntoOneGlobalSpace) {
  const Table table = MakeTable(DataShape::kUniform, 2'500, 3, 41);
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 3);
  ASSERT_TRUE(sharded.ok());
  // Staged inserts widen shard id spaces unevenly before the collect.
  for (Value i = 0; i < 9; ++i) {
    ASSERT_TRUE(sharded->Insert({i * 137, 50 + i, 900 - i}).ok());
  }

  DatabaseOptions options;
  options.num_threads = 2;
  StatusOr<Database> single = Database::Open(table, std::move(options));
  ASSERT_TRUE(single.ok());
  for (Value i = 0; i < 9; ++i) {
    ASSERT_TRUE(single->Insert({i * 137, 50 + i, 900 - i}).ok());
  }

  Query q(3);
  q.SetRange(0, 0, 600'000);  // Straddles shard boundaries.
  q.SetRange(1, 0, 500'000);
  StatusOr<QueryResult> got = sharded->TryCollect(q);
  StatusOr<QueryResult> want = single->TryCollect(q);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->rows.size(), want->rows.size());

  // Global ids are unique and resolve — through the facade — to exactly
  // the same multiset of tuples the unsharded database returns.
  std::set<RowId> unique(got->rows.begin(), got->rows.end());
  EXPECT_EQ(unique.size(), got->rows.size());
  std::vector<std::vector<Value>> got_rows;
  std::vector<std::vector<Value>> want_rows;
  for (size_t i = 0; i < got->rows.size(); ++i) {
    StatusOr<std::vector<Value>> row = sharded->TryGetRow(got->rows[i]);
    ASSERT_TRUE(row.ok()) << "global id " << got->rows[i];
    got_rows.push_back(*std::move(row));
    StatusOr<std::vector<Value>> wrow = single->TryGetRow(want->rows[i]);
    ASSERT_TRUE(wrow.ok());
    want_rows.push_back(*std::move(wrow));
  }
  std::sort(got_rows.begin(), got_rows.end());
  std::sort(want_rows.begin(), want_rows.end());
  EXPECT_EQ(got_rows, want_rows);

  // An out-of-range global id is a typed error, not a crash.
  EXPECT_FALSE(sharded->TryGetRow(1u << 30).ok());
}

TEST(ShardedDatabaseTest, ValidatesArityAndOptions) {
  const Table table = MakeTable(DataShape::kUniform, 500, 2, 51);
  ShardedDatabaseOptions bad_dim;
  bad_dim.sort_dim = 7;
  EXPECT_FALSE(ShardedDatabase::Open(table, bad_dim).ok());
  ShardedDatabaseOptions no_shards;
  no_shards.num_shards = 0;
  EXPECT_FALSE(ShardedDatabase::Open(table, no_shards).ok());

  StatusOr<ShardedDatabase> db = OpenSharded(table, "kdtree", 2);
  ASSERT_TRUE(db.ok());
  EXPECT_FALSE(db->Insert({1, 2, 3}).ok());        // 3 values, 2 dims.
  EXPECT_FALSE(db->Delete({1}).ok());              // 1 value, 2 dims.
  EXPECT_FALSE(db->TryRun(Query(3)).ok());         // 3-dim query, 2 dims.
  const BatchResult bad = db->RunBatch(std::vector<Query>{Query(3)});
  EXPECT_FALSE(bad.status.ok());
  EXPECT_TRUE(bad.results.empty());
}

}  // namespace
}  // namespace flood
