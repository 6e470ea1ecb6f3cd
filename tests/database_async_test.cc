// Database::RunBatchAsync: the future- and callback-based batch APIs the
// serving tier executes on. Checks result parity with synchronous
// RunBatch, completion on the pool (not the caller), the single-threaded
// synchronous fallback, and — the load-bearing part — many async batches
// in flight concurrently with Insert/Delete/Compact traffic through the
// same reader-writer seam.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include "api/database.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::BruteForce;
using testing::DataShape;
using testing::MakeTable;
using testing::OracleResult;
using testing::RandomQuery;

Database OpenDb(const Table& table, size_t threads) {
  DatabaseOptions options;
  options.index_name = "kdtree";  // Cheap to build; delta-aware like all.
  options.num_threads = threads;
  StatusOr<Database> db = Database::Open(table, std::move(options));
  FLOOD_CHECK(db.ok());
  return std::move(*db);
}

std::vector<Query> MakeQueries(const Table& table, size_t n,
                               uint64_t seed) {
  std::vector<Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query q = RandomQuery(table, seed + i);
    if (i % 3 == 0) q.set_agg({AggSpec::Kind::kSum, i % table.num_dims()});
    queries.push_back(std::move(q));
  }
  return queries;
}

TEST(DatabaseAsyncTest, FutureMatchesSynchronousRunBatch) {
  const Table table = MakeTable(DataShape::kUniform, 20'000, 3, 31);
  Database db = OpenDb(table, 4);
  const std::vector<Query> queries = MakeQueries(table, 64, 100);

  const BatchResult sync = db.RunBatch(queries);
  std::future<BatchResult> fut = db.RunBatchAsync(queries);
  const BatchResult async = fut.get();

  ASSERT_TRUE(sync.status.ok());
  ASSERT_TRUE(async.status.ok());
  ASSERT_EQ(async.results.size(), sync.results.size());
  for (size_t i = 0; i < sync.results.size(); ++i) {
    EXPECT_EQ(async.results[i].count, sync.results[i].count) << i;
    EXPECT_EQ(async.results[i].sum, sync.results[i].sum) << i;
    EXPECT_EQ(async.results[i].kind, sync.results[i].kind) << i;
  }
  EXPECT_EQ(async.empty_skipped, sync.empty_skipped);
}

TEST(DatabaseAsyncTest, SingleThreadedDatabaseCompletesSynchronously) {
  const Table table = MakeTable(DataShape::kUniform, 5'000, 3, 32);
  Database db = OpenDb(table, 1);  // No pool at all.
  const std::vector<Query> queries = MakeQueries(table, 16, 200);

  std::future<BatchResult> fut = db.RunBatchAsync(queries);
  // The contract: with num_threads == 1 the future is ready on return.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const BatchResult batch = fut.get();
  ASSERT_TRUE(batch.status.ok());
  EXPECT_EQ(batch.results.size(), queries.size());
}

TEST(DatabaseAsyncTest, CallbackFiresOffCallerThreadExactlyOnce) {
  const Table table = MakeTable(DataShape::kClustered, 10'000, 3, 33);
  Database db = OpenDb(table, 4);
  const std::vector<Query> queries = MakeQueries(table, 32, 300);

  std::promise<void> done;
  std::atomic<int> calls{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id completer;
  db.RunBatchAsync(queries, [&](BatchResult batch) {
    EXPECT_TRUE(batch.status.ok());
    completer = std::this_thread::get_id();
    if (calls.fetch_add(1) == 0) done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_NE(completer, caller);
}

TEST(DatabaseAsyncTest, ValidationFailureCompletesWithoutExecuting) {
  const Table table = MakeTable(DataShape::kUniform, 1'000, 3, 34);
  // Pool-less (1 thread, validated by the synchronous RunBatch) and pooled.
  for (const size_t threads : {size_t{1}, size_t{4}}) {
    Database db = OpenDb(table, threads);
    std::vector<Query> queries = {Query(2)};  // Arity mismatch: 2 != 3.

    std::future<BatchResult> fut = db.RunBatchAsync(queries);
    const BatchResult batch = fut.get();
    EXPECT_FALSE(batch.status.ok()) << "threads=" << threads;
    EXPECT_TRUE(batch.results.empty()) << "threads=" << threads;
    EXPECT_EQ(db.queries_run(), 0u) << "threads=" << threads;
  }
}

TEST(DatabaseAsyncTest, ManyConcurrentAsyncBatchesMatchOracle) {
  const Table table = MakeTable(DataShape::kSkewed, 15'000, 3, 35);
  Database db = OpenDb(table, 4);

  constexpr size_t kBatches = 24;
  constexpr size_t kPerBatch = 20;
  std::vector<std::vector<Query>> batches;
  std::vector<std::future<BatchResult>> futures;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(MakeQueries(table, kPerBatch, 1000 + b * 97));
  }
  for (size_t b = 0; b < kBatches; ++b) {
    futures.push_back(db.RunBatchAsync(batches[b]));
  }
  for (size_t b = 0; b < kBatches; ++b) {
    const BatchResult batch = futures[b].get();
    ASSERT_TRUE(batch.status.ok());
    ASSERT_EQ(batch.results.size(), kPerBatch);
    for (size_t i = 0; i < kPerBatch; ++i) {
      const size_t sum_dim = batches[b][i].agg().kind == AggSpec::Kind::kSum
                                 ? batches[b][i].agg().dim
                                 : 0;
      const OracleResult oracle =
          BruteForce(table, batches[b][i], sum_dim);
      EXPECT_EQ(batch.results[i].count, oracle.count)
          << "batch " << b << " query " << i;
      if (batches[b][i].agg().kind == AggSpec::Kind::kSum) {
        EXPECT_EQ(batch.results[i].sum, oracle.sum)
            << "batch " << b << " query " << i;
      }
    }
  }
}

TEST(DatabaseAsyncTest, AsyncBatchesInterleavedWithWritesAndCompaction) {
  // The serving-tier scenario: async read batches racing Insert/Delete and
  // explicit Compact through the shared_mutex seam. Results must always be
  // internally consistent (a batch sees some prefix of the writes), and
  // the row count at quiescence must be exact.
  const Table table = MakeTable(DataShape::kUniform, 12'000, 3, 36);
  Database db = OpenDb(table, 4);
  const size_t base_rows = db.num_rows();

  // A query that matches every row, twice per batch: any torn read
  // (different snapshots inside ONE batch's shard pass) shows up as two
  // different counts for the same in-flight batch... which is legal for
  // *separate* queries in a batch, so assert monotonicity instead: counts
  // never decrease (inserts only, no deletes yet) across submission order.
  Query all(3);
  std::vector<Query> probe = {all, all};

  constexpr size_t kInserts = 400;
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < kInserts; ++i) {
      const Value v = static_cast<Value>(2'000'000 + i);
      ASSERT_TRUE(db.Insert({v, v, v}).ok());
      if (i == kInserts / 2) {
        ASSERT_TRUE(db.Compact().ok());  // Mid-stream retrain.
      }
    }
    writer_done.store(true);
  });

  uint64_t last_count = 0;
  while (!writer_done.load()) {
    std::future<BatchResult> fut = db.RunBatchAsync(probe);
    const BatchResult batch = fut.get();
    ASSERT_TRUE(batch.status.ok());
    ASSERT_EQ(batch.results.size(), 2u);
    // Each query individually sees >= what any earlier batch saw.
    for (const QueryResult& r : batch.results) {
      EXPECT_GE(r.count, last_count);
      EXPECT_GE(r.count, static_cast<uint64_t>(base_rows));
      EXPECT_LE(r.count, static_cast<uint64_t>(base_rows + kInserts));
    }
    last_count = std::max(last_count, batch.results[1].count);
  }
  writer.join();

  // Quiescent: the final async batch must see every insert, and a final
  // compaction must not change the answer.
  const BatchResult final_batch = db.RunBatchAsync(probe).get();
  ASSERT_TRUE(final_batch.status.ok());
  EXPECT_EQ(final_batch.results[0].count, base_rows + kInserts);
  ASSERT_TRUE(db.Compact().ok());
  const BatchResult compacted = db.RunBatchAsync(probe).get();
  EXPECT_EQ(compacted.results[0].count, base_rows + kInserts);
}

TEST(DatabaseAsyncTest, AsyncBatchesInterleavedWithDeletes) {
  const size_t n = 8'000;
  const Table table = MakeTable(DataShape::kDuplicates, n, 2, 37);
  Database db = OpenDb(table, 4);

  Query all(2);
  std::vector<Query> probe = {all};

  // Delete rows by key from one thread while async batches run: counts
  // must be monotonically non-increasing and exact at quiescence.
  const std::vector<std::vector<Value>> rows = testing::RowsOf(table);
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> deleted_total{0};
  std::thread writer([&] {
    for (size_t i = 0; i < 50; ++i) {
      const StatusOr<size_t> deleted = db.Delete(rows[i * 37 % n]);
      ASSERT_TRUE(deleted.ok());
      deleted_total.fetch_add(*deleted);
    }
    writer_done.store(true);
  });

  uint64_t last = n;
  while (!writer_done.load()) {
    const BatchResult batch = db.RunBatchAsync(probe).get();
    ASSERT_TRUE(batch.status.ok());
    EXPECT_LE(batch.results[0].count, last);
    last = batch.results[0].count;
  }
  writer.join();

  const BatchResult final_batch = db.RunBatchAsync(probe).get();
  EXPECT_EQ(final_batch.results[0].count, n - deleted_total.load());
}

}  // namespace
}  // namespace flood
