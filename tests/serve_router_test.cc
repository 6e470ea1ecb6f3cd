// Scatter-gather router tests: a serve::Server fronting a Router over N
// shards must answer every wire RunBatch bit-identically to one unsharded
// in-process Database — for every registered index, with staged writes and
// tombstones in flight — while provably pruning shards whose key range is
// disjoint from the query, routing writes to exactly one shard, merging
// Stats/Health across shards, and failing ONLY the frames whose queries
// were routed to an overloaded or dead shard.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "api/index_registry.h"
#include "api/shard_map.h"
#include "api/sharded_database.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/router.h"
#include "serve/server.h"
#include "tests/test_util.h"

namespace flood {
namespace serve {
namespace {

using flood::testing::DataShape;
using flood::testing::MakeTable;
using flood::testing::RandomQuery;
using flood::testing::RowsOf;

std::string UniquePath(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "flood_router_" + std::to_string(::getpid()) +
         "_" + tag + "_" + std::to_string(counter.fetch_add(1)) + ".sock";
}

/// RAII: unlinks the UDS path (the server also unlinks on clean drain).
struct SocketPath {
  explicit SocketPath(const std::string& tag) : path(UniquePath(tag)) {}
  ~SocketPath() { ::unlink(path.c_str()); }
  std::string path;
};

StatusOr<Database> OpenDb(const Table& table, const std::string& index,
                          size_t threads) {
  DatabaseOptions options;
  options.index_name = index;
  options.num_threads = threads;
  if (index == "flood") {
    Workload train;
    for (uint64_t s = 0; s < 20; ++s) {
      train.Add(RandomQuery(table, 5000 + s));
    }
    options.training_workload = std::move(train);
  }
  return Database::Open(table, std::move(options));
}

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

std::vector<Query> MakeQueries(const Table& table, size_t n, uint64_t seed) {
  std::vector<Query> queries;
  for (size_t i = 0; i < n; ++i) {
    Query q = RandomQuery(table, seed + i);
    if (i % 3 == 0) q.set_agg({AggSpec::Kind::kSum, i % table.num_dims()});
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Runs one batch through the router and blocks for the merged result (the
/// completion may fire on a shard's pool thread).
EngineBatchResult RunRouted(Router* router, std::vector<Query> queries) {
  std::promise<EngineBatchResult> done;
  std::future<EngineBatchResult> result = done.get_future();
  router->RunBatchAsync(std::move(queries), [&done](EngineBatchResult r) {
    done.set_value(std::move(r));
  });
  return result.get();
}

/// A shard that always answers every query with one fixed code — the
/// deterministic stand-in for an overloaded or dead backend.
class FixedCodeEngine : public BatchEngine {
 public:
  /// `batch_level` = true makes the whole sub-batch fail (status non-OK,
  /// no results) — the shape of a shard that died mid-flight — instead of
  /// per-query typed codes (the shape of a shard that shed).
  FixedCodeEngine(WireCode code, bool ready, bool batch_level = false)
      : code_(code), ready_(ready), batch_level_(batch_level) {}

  void RunBatchAsync(std::vector<Query> queries,
                     std::function<void(EngineBatchResult)> on_done) override {
    EngineBatchResult out;
    if (batch_level_) {
      out.status = Status::Unavailable("stub shard died");
      on_done(std::move(out));
      return;
    }
    out.results.resize(queries.size());
    for (EngineQueryResult& r : out.results) {
      r.code = code_;
      r.message = "stub shard refused";
    }
    on_done(std::move(out));
  }
  Status Insert(const std::vector<Value>&) override {
    return Status::Unavailable("stub shard");
  }
  Status InsertBatch(std::span<const std::vector<Value>>) override {
    return Status::Unavailable("stub shard");
  }
  StatusOr<uint64_t> Delete(const std::vector<Value>&) override {
    return Status::Unavailable("stub shard");
  }
  EngineHealth Health() const override { return {ready_, false}; }
  std::vector<std::pair<std::string, double>> Introspect() const override {
    return {{"stub", 1.0}};
  }

 private:
  const WireCode code_;
  const bool ready_;
  const bool batch_level_;
};

double Lookup(const std::vector<std::pair<std::string, double>>& entries,
              const std::string& key) {
  for (const auto& [k, v] : entries) {
    if (k == key) return v;
  }
  return -1.0;
}

// ---------------------------------------------------------------------------
// Acceptance: wire results through the routed server are bit-identical to an
// unsharded in-process RunBatch for every registered index, with staged
// writes AND tombstones in flight on both sides.
// ---------------------------------------------------------------------------

TEST(ServeRouterTest, RoutedLoopbackBitIdenticalToUnshardedForEveryIndex) {
  const Table table = MakeTable(DataShape::kClustered, 4'000, 3, 81);
  const std::vector<std::vector<Value>> rows = RowsOf(table);
  std::vector<Query> queries = MakeQueries(table, 40, 2100);
  queries.push_back(Query(3));  // Unfiltered: broadcast to every shard.
  Query empty(3);
  empty.SetRange(0, 10, 5);  // lo > hi: answered locally, no scatter.
  queries.push_back(empty);

  size_t tested = 0;
  for (const std::string& index : IndexRegistry::Global().Names()) {
    StatusOr<Database> single = OpenDb(table, index, 2);
    if (!single.ok()) continue;  // e.g. grid-file budget: N/A on this data.
    StatusOr<ShardedDatabase> sharded = OpenSharded(table, index, 3);
    if (!sharded.ok()) continue;

    // The same staged writes on both sides: inserts AND tombstones,
    // deliberately NOT compacted, so every shard serves base + delta.
    for (Value i = 0; i < 30; ++i) {
      const std::vector<Value> row = {1'000'000 + i, 1'000'000 - i, i};
      ASSERT_TRUE(single->Insert(row).ok());
      ASSERT_TRUE(sharded->Insert(row).ok());
    }
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(single->Delete(rows[i * 131]).ok());
      ASSERT_TRUE(sharded->Delete(rows[i * 131]).ok());
    }
    ASSERT_GT(sharded->pending_writes(), 0u) << index;

    std::unique_ptr<Router> router = Router::Over(&*sharded);
    ServerOptions sopts;
    SocketPath sock(index);
    sopts.uds_path = sock.path;
    StatusOr<std::unique_ptr<Server>> server =
        Server::Create(router.get(), std::move(sopts));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    (*server)->Start();

    StatusOr<Client> client = Client::Connect("unix:" + sock.path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    const BatchResult local = single->RunBatch(queries);
    ASSERT_TRUE(local.status.ok());
    StatusOr<BatchResultResponse> wire = client->RunBatch(queries);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_EQ(wire->code, WireCode::kOk) << wire->message;
    ASSERT_EQ(wire->results.size(), local.results.size()) << index;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(wire->results[i].count, local.results[i].count)
          << index << " query " << i;
      EXPECT_EQ(wire->results[i].sum, local.results[i].sum)
          << index << " query " << i;
      EXPECT_EQ(wire->results[i].kind == 1,
                local.results[i].kind == QueryResult::Kind::kSum)
          << index << " query " << i;
      EXPECT_EQ(wire->results[i].skipped_empty,
                local.results[i].skipped_empty)
          << index << " query " << i;
    }

    // The sweep exercised real fan-out, not a degenerate broadcast: at
    // least one query was pruned somewhere and one was answered locally.
    const RouterCounters rc = router->counters();
    EXPECT_EQ(rc.batches_routed, 1u) << index;
    EXPECT_EQ(rc.queries_routed, queries.size()) << index;
    EXPECT_GT(rc.subqueries_pruned, 0u) << index;
    EXPECT_EQ(rc.queries_skipped_empty, 1u) << index;
    EXPECT_EQ(rc.shard_errors, 0u) << index;

    (*server)->Shutdown();
    (*server)->Join();
    ++tested;
  }
  // The registry always has at least the core indexes; a regression that
  // silently skips everything must fail loudly.
  EXPECT_GE(tested, 5u);
}

// ---------------------------------------------------------------------------
// Scatter pruning: a query disjoint from a shard's key range never reaches
// that shard — the per-shard counters prove it, and the answers still match
// an unsharded database.
// ---------------------------------------------------------------------------

TEST(ServeRouterTest, DisjointQueriesNeverReachPrunedShards) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 82);
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 3);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 3u);
  StatusOr<Database> single = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(single.ok());

  std::unique_ptr<Router> router = Router::Over(&*sharded);
  const ShardMap& map = router->shard_map();

  // Queries strictly inside shard 0's key range: shards 1 and 2 are
  // provably empty for them and must never see a subquery.
  constexpr size_t kQueries = 8;
  std::vector<Query> queries;
  const ValueRange r0 = map.RangeOf(0);
  for (size_t i = 0; i < kQueries; ++i) {
    Query q(3);
    q.SetRange(0, r0.lo, r0.hi - static_cast<Value>(i));
    q.SetRange(1, 0, kValueMax - static_cast<Value>(i));
    queries.push_back(std::move(q));
  }

  const EngineBatchResult routed = RunRouted(router.get(), queries);
  ASSERT_TRUE(routed.status.ok());
  ASSERT_EQ(routed.results.size(), kQueries);
  const BatchResult want = single->RunBatch(queries);
  ASSERT_TRUE(want.status.ok());
  for (size_t i = 0; i < kQueries; ++i) {
    EXPECT_EQ(routed.results[i].code, WireCode::kOk) << i;
    EXPECT_EQ(routed.results[i].count, want.results[i].count) << i;
  }

  RouterCounters c = router->counters();
  ASSERT_EQ(c.per_shard_subqueries.size(), 3u);
  EXPECT_EQ(c.per_shard_subqueries[0], kQueries);
  EXPECT_EQ(c.per_shard_subqueries[1], 0u);
  EXPECT_EQ(c.per_shard_subqueries[2], 0u);
  EXPECT_EQ(c.subqueries_sent, kQueries);
  EXPECT_EQ(c.subqueries_pruned, kQueries * 2);  // 2 shards pruned per query.

  // A boundary-straddling query fans out to exactly the two shards it
  // touches; the third stays pruned.
  const ValueRange r1 = map.RangeOf(1);
  Query straddle(3);
  straddle.SetRange(0, r1.lo - 1, r1.lo);
  const EngineBatchResult both = RunRouted(router.get(), {straddle});
  ASSERT_TRUE(both.status.ok());
  EXPECT_EQ(both.results[0].count, single->Run(straddle).count);
  c = router->counters();
  EXPECT_EQ(c.per_shard_subqueries[0], kQueries + 1);
  EXPECT_EQ(c.per_shard_subqueries[1], 1u);
  EXPECT_EQ(c.per_shard_subqueries[2], 0u);
}

// ---------------------------------------------------------------------------
// Writes route to exactly one shard; Stats and Health merge across shards.
// ---------------------------------------------------------------------------

TEST(ServeRouterTest, WireWritesRouteByKeyAndStatsHealthMerge) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 83);
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 3);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 3u);

  std::unique_ptr<Router> router = Router::Over(&*sharded);
  const ShardMap& map = router->shard_map();

  ServerOptions sopts;
  SocketPath sock("writes");
  sopts.uds_path = sock.path;
  auto server = Server::Create(router.get(), std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();
  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  // One insert per shard, keyed into that shard's range: each must land in
  // its owner's delta and nowhere else.
  for (size_t s = 0; s < 3; ++s) {
    const Value key = map.RangeOf(s).lo == kValueMin ? 0 : map.RangeOf(s).lo;
    ASSERT_TRUE(client->Insert({key, 7, 7}).ok()) << "shard " << s;
    for (size_t t = 0; t < 3; ++t) {
      EXPECT_EQ(sharded->shard(t)->delta_inserts(), t <= s ? 1u : 0u)
          << "after insert " << s << ", shard " << t;
    }
  }

  // An InsertBatch splits across its target shards.
  const Value k1 = map.RangeOf(1).lo;
  const Value k2 = map.RangeOf(2).lo;
  std::vector<std::vector<Value>> batch_rows = {{k1, 1, 1}, {k2, 2, 2}};
  ASSERT_TRUE(client->InsertBatch(batch_rows).ok());
  EXPECT_EQ(sharded->shard(0)->delta_inserts(), 1u);
  EXPECT_EQ(sharded->shard(1)->delta_inserts(), 2u);
  EXPECT_EQ(sharded->shard(2)->delta_inserts(), 2u);

  // Delete routes by the key's sort-dim value too.
  StatusOr<uint64_t> deleted = client->Delete({k2, 2, 2});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);

  // Health merges: every in-process shard is ready, none poisoned.
  StatusOr<HealthResponse> health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->ready);
  EXPECT_FALSE(health->draining);
  EXPECT_FALSE(health->persist_poisoned);

  // Metrics entries merge: serve.* from the front end, router.* from the
  // router, and every shard's database gauges under its shard<i>. prefix.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const auto& stats = metrics->entries;
  EXPECT_EQ(Lookup(stats, "router.num_shards"), 3.0);
  // 3 Inserts + 1 InsertBatch + 1 Delete = 5 routed write calls.
  EXPECT_EQ(Lookup(stats, "router.writes_routed"), 5.0);
  EXPECT_GE(Lookup(stats, "serve.writes_applied"), 5.0);
  EXPECT_EQ(Lookup(stats, "shard1.db.delta_inserts"), 2.0);
  EXPECT_GE(Lookup(stats, "shard0.subqueries"), 0.0);
  EXPECT_GE(Lookup(stats, "shard2.db.num_rows"), 1.0);

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// A malformed InsertBatch is rejected whole: no shard applies any row, just
// as an unsharded Database rejects the same batch.
// ---------------------------------------------------------------------------

TEST(ServeRouterTest, WireInsertBatchWithMixedArityAppliesNoRow) {
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 85);
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 2);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 2u);

  std::unique_ptr<Router> router = Router::Over(&*sharded);
  const ShardMap& map = router->shard_map();

  ServerOptions sopts;
  SocketPath sock("arity");
  sopts.uds_path = sock.path;
  auto server = Server::Create(router.get(), std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();
  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  // A valid row for shard 0, then a 4-value row for shard 1 of a 3-dim
  // table. Splitting shard by shard would commit the first row before
  // shard 1 refused the second.
  const Value k0 = map.RangeOf(0).hi;
  const Value k1 = map.RangeOf(1).lo;
  const std::vector<std::vector<Value>> mixed = {{k0, 1, 1}, {k1, 2, 2, 2}};
  const Status status = client->InsertBatch(mixed);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sharded->shard(s)->delta_inserts(), 0u) << "shard " << s;
  }

  // Every row with the same wrong arity: the first shard rejects the
  // batch before anything is applied.
  const std::vector<std::vector<Value>> wide = {{k0, 1, 1, 1}, {k1, 2, 2, 2}};
  EXPECT_EQ(client->InsertBatch(wide).code(), StatusCode::kInvalidArgument);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sharded->shard(s)->delta_inserts(), 0u) << "shard " << s;
  }

  // The connection still serves a well-formed batch afterwards.
  const std::vector<std::vector<Value>> good = {{k0, 1, 1}, {k1, 2, 2}};
  ASSERT_TRUE(client->InsertBatch(good).ok());
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sharded->shard(s)->delta_inserts(), 1u) << "shard " << s;
  }

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// Partial shed: an overloaded shard fails ONLY the queries routed to it.
// ---------------------------------------------------------------------------

TEST(ServeRouterTest, OverloadedShardFailsOnlyItsOwnQueries) {
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 84);
  StatusOr<Database> healthy = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(healthy.ok());

  // Shard 0 = a real database; shard 1 = a stub that sheds everything.
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {1'000'000});
  ASSERT_TRUE(map.ok());
  std::vector<std::unique_ptr<BatchEngine>> backends;
  backends.push_back(std::make_unique<DatabaseEngine>(&*healthy));
  backends.push_back(
      std::make_unique<FixedCodeEngine>(WireCode::kOverloaded, true));
  Router router(std::move(*map), std::move(backends));

  Query mine(3);
  mine.SetRange(0, 0, 999'999);  // Shard 0 only: must succeed.
  Query theirs(3);
  theirs.SetRange(0, 1'000'000, 2'000'000);  // Shard 1 only: shed.
  Query spanning(3);
  spanning.SetRange(0, 0, 1'500'000);  // Touches both: the failure wins.
  Query empty(3);
  empty.SetRange(0, 10, 5);  // Never scattered: immune to the bad shard.

  const EngineBatchResult routed =
      RunRouted(&router, {mine, theirs, spanning, empty});
  ASSERT_TRUE(routed.status.ok());
  ASSERT_EQ(routed.results.size(), 4u);
  EXPECT_EQ(routed.results[0].code, WireCode::kOk);
  EXPECT_EQ(routed.results[0].count, healthy->Run(mine).count);
  EXPECT_EQ(routed.results[1].code, WireCode::kOverloaded);
  EXPECT_EQ(routed.results[2].code, WireCode::kOverloaded);
  EXPECT_EQ(routed.results[3].code, WireCode::kOk);
  EXPECT_TRUE(routed.results[3].skipped_empty);

  // A shard that dies at the sub-batch level (non-OK status, no results)
  // is normalized into per-query codes for exactly its own queries and
  // counted as a shard error.
  StatusOr<ShardMap> map3 = ShardMap::FromBounds(0, {1'000'000});
  ASSERT_TRUE(map3.ok());
  std::vector<std::unique_ptr<BatchEngine>> dying;
  dying.push_back(std::make_unique<DatabaseEngine>(&*healthy));
  dying.push_back(std::make_unique<FixedCodeEngine>(WireCode::kUnavailable,
                                                    true, /*batch_level=*/true));
  Router dead(std::move(*map3), std::move(dying));
  const EngineBatchResult after = RunRouted(&dead, {mine, theirs});
  ASSERT_TRUE(after.status.ok());
  EXPECT_EQ(after.results[0].code, WireCode::kOk);
  EXPECT_EQ(after.results[0].count, healthy->Run(mine).count);
  EXPECT_EQ(after.results[1].code, WireCode::kUnavailable);
  EXPECT_EQ(dead.counters().shard_errors, 1u);

  // Health merge ANDs readiness: both shards report ready here, and a
  // not-ready stub flips the merged answer.
  EXPECT_TRUE(router.Health().ready);
  std::vector<std::unique_ptr<BatchEngine>> sick;
  sick.push_back(std::make_unique<DatabaseEngine>(&*healthy));
  sick.push_back(
      std::make_unique<FixedCodeEngine>(WireCode::kOverloaded, false));
  StatusOr<ShardMap> map2 = ShardMap::FromBounds(0, {1'000'000});
  ASSERT_TRUE(map2.ok());
  Router down(std::move(*map2), std::move(sick));
  EXPECT_FALSE(down.Health().ready);
}

TEST(ServeRouterTest, OneShardOverloadedOverTheWireShedsOnlyItsFrames) {
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 85);

  // The overloaded shard is a REAL flood_serve-style server with zero
  // queue slots (every RunBatch shed with kOverloaded), reached through a
  // remote backend — the multi-process deployment shape.
  StatusOr<Database> inner_db = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(inner_db.ok());
  ServerOptions inner_opts;
  SocketPath inner_sock("inner");
  inner_opts.uds_path = inner_sock.path;
  inner_opts.max_inflight_batches = 0;
  auto inner = Server::Create(&*inner_db, std::move(inner_opts));
  ASSERT_TRUE(inner.ok());
  (*inner)->Start();

  StatusOr<Database> local_db = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(local_db.ok());
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {1'000'000});
  ASSERT_TRUE(map.ok());
  std::vector<std::unique_ptr<BatchEngine>> backends;
  backends.push_back(std::make_unique<DatabaseEngine>(&*local_db));
  backends.push_back(MakeRemoteBackend("unix:" + inner_sock.path));
  Router router(std::move(*map), std::move(backends));

  ServerOptions outer_opts;
  SocketPath outer_sock("outer");
  outer_opts.uds_path = outer_sock.path;
  auto outer = Server::Create(&router, std::move(outer_opts));
  ASSERT_TRUE(outer.ok());
  (*outer)->Start();
  auto client = Client::Connect("unix:" + outer_sock.path);
  ASSERT_TRUE(client.ok());

  // Two pipelined frames on one connection: the healthy shard's frame must
  // come back kOk with full results, the overloaded shard's as a typed
  // kOverloaded error — partial shed at frame granularity.
  Query mine(3);
  mine.SetRange(0, 0, 999'999);
  Query theirs(3);
  theirs.SetRange(0, 1'000'000, 2'000'000);
  const std::vector<Query> q_mine = {mine};
  const std::vector<Query> q_theirs = {theirs};
  ASSERT_TRUE(client->SendRunBatch(1, q_mine).ok());
  ASSERT_TRUE(client->SendRunBatch(2, q_theirs).ok());

  bool got_ok = false;
  bool got_shed = false;
  for (int i = 0; i < 2; ++i) {
    StatusOr<BatchResultResponse> reply = client->ReadBatchReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    if (reply->request_id == 1) {
      EXPECT_EQ(reply->code, WireCode::kOk) << reply->message;
      ASSERT_EQ(reply->results.size(), 1u);
      EXPECT_EQ(reply->results[0].count, local_db->Run(mine).count);
      got_ok = true;
    } else {
      EXPECT_EQ(reply->request_id, 2u);
      EXPECT_EQ(reply->code, WireCode::kOverloaded);
      got_shed = true;
    }
  }
  EXPECT_TRUE(got_ok);
  EXPECT_TRUE(got_shed);

  // While the overloaded shard is alive it still answers Health inline, so
  // the merged health is ready; once it dies, the router reports not ready.
  StatusOr<HealthResponse> health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->ready);

  (*inner)->Shutdown();
  ASSERT_TRUE((*inner)->Join().ok());
  health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_FALSE(health->ready);

  (*outer)->Shutdown();
  (*outer)->Join();
}

TEST(ServeRouterTest, RemoteShardIntrospectCarriesItsServerEntries) {
  // A remote shard's Introspect() is its server's kMetrics entries, which
  // the router nests under the shard's prefix.
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 86);
  StatusOr<Database> inner_db = OpenDb(table, "kdtree", 1);
  ASSERT_TRUE(inner_db.ok());
  ServerOptions inner_opts;
  SocketPath inner_sock("introspect");
  inner_opts.uds_path = inner_sock.path;
  auto inner = Server::Create(&*inner_db, std::move(inner_opts));
  ASSERT_TRUE(inner.ok());
  (*inner)->Start();
  Query q(3);
  q.SetRange(0, 0, 2'000'000);
  (void)inner_db->Run(q);

  std::vector<std::unique_ptr<BatchEngine>> backends;
  backends.push_back(MakeRemoteBackend("unix:" + inner_sock.path));
  Router router(ShardMap(0), std::move(backends));

  const auto entries = router.Introspect();
  EXPECT_EQ(Lookup(entries, "shard0.unreachable"), -1.0);
  EXPECT_EQ(Lookup(entries, "shard0.db.queries_run"), 1.0);
  EXPECT_EQ(Lookup(entries, "shard0.db.num_rows"), 2'000.0);
  EXPECT_GE(Lookup(entries, "shard0.serve.frames_decoded"), 1.0);
  EXPECT_EQ(Lookup(entries, "shard0.serve.connections_active"), 1.0);

  (*inner)->Shutdown();
  ASSERT_TRUE((*inner)->Join().ok());
}

}  // namespace
}  // namespace serve
}  // namespace flood
