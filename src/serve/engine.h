#ifndef FLOOD_SERVE_ENGINE_H_
#define FLOOD_SERVE_ENGINE_H_

#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/status.h"
#include "serve/protocol.h"

namespace flood {
namespace serve {

/// One query's outcome inside an engine batch. Unlike QueryResult this
/// carries a per-query WireCode: an engine backed by many shards can fail
/// some queries (the shard that owned them shed or died) while the rest of
/// the batch succeeds — the server maps each reply frame to an error iff
/// its slice contains a non-kOk query (partial shed at frame granularity).
struct EngineQueryResult {
  WireCode code = WireCode::kOk;
  std::string message;       ///< Empty on kOk.
  uint8_t kind = 0;          ///< 0 = COUNT, 1 = SUM (wire encoding).
  bool skipped_empty = false;
  uint64_t count = 0;
  int64_t sum = 0;
  uint64_t total_ns = 0;     ///< Execution time (max across shards).
};

/// Outcome of one engine batch. `status` is the batch-level gate, exactly
/// like BatchResult::status: non-OK means validation failed before any
/// query ran and `results` is empty; otherwise `results[i]` matches
/// queries[i] (each with its own per-query code).
struct EngineBatchResult {
  Status status = Status::OK();
  std::vector<EngineQueryResult> results;
  double wall_ms = 0.0;
};

/// What a kHealth response needs from the engine (the serving loop adds
/// its own draining state on top).
struct EngineHealth {
  bool ready = true;
  bool persist_poisoned = false;
};

/// The execution seam of the serving tier: everything the epoll Server
/// needs from "the thing that runs queries". Database is the canonical
/// implementation (DatabaseEngine); the scatter-gather Router
/// (serve/router.h) is the other — the server cannot tell them apart,
/// which is how the router reuses the whole front end (framing, admission
/// control, drain) without a second event loop.
class BatchEngine {
 public:
  virtual ~BatchEngine() = default;

  /// Submits the batch; `on_done` fires exactly once with the finished
  /// result. Same callback contract as Database::RunBatchAsync: it may run
  /// on an arbitrary worker thread (or inline, before this returns), must
  /// not block, and must not resubmit into this engine from the callback.
  /// Implementations must ALWAYS complete the callback — including on
  /// internal failure or engine shutdown (reply with an error result) —
  /// because the server's drain counts outstanding callbacks.
  virtual void RunBatchAsync(std::vector<Query> queries,
                             std::function<void(EngineBatchResult)> on_done) = 0;

  /// Synchronous writes, called inline from the serving loop (bounded: a
  /// local engine stages into the delta; a remote engine's wire deadlines
  /// apply).
  virtual Status Insert(const std::vector<Value>& row) = 0;
  virtual Status InsertBatch(std::span<const std::vector<Value>> rows) = 0;
  virtual StatusOr<uint64_t> Delete(const std::vector<Value>& key) = 0;

  virtual EngineHealth Health() const = 0;

  /// Flat key->value gauges appended to the server's serve.* counters in
  /// kMetrics `entries` and on the scrape (db.* for a database engine,
  /// router.*/shard<i>.* for a router).
  virtual std::vector<std::pair<std::string, double>> Introspect() const = 0;
};

/// Converts a finished Database batch into the engine shape (per-query
/// codes all kOk; a batch-level validation error stays batch-level).
EngineBatchResult EngineResultFromBatch(const BatchResult& batch);

/// The db.* gauge block shared by DatabaseEngine and anything else that
/// exposes one database's state through an Introspect() map.
std::vector<std::pair<std::string, double>> DatabaseGauges(const Database& db);

/// BatchEngine over one local flood::Database — the single-node serving
/// path, and the per-shard leaf the router composes. Does not own the
/// database; it must outlive the engine.
class DatabaseEngine : public BatchEngine {
 public:
  explicit DatabaseEngine(Database* db) : db_(db) { FLOOD_CHECK(db != nullptr); }

  void RunBatchAsync(std::vector<Query> queries,
                     std::function<void(EngineBatchResult)> on_done) override;
  Status Insert(const std::vector<Value>& row) override;
  Status InsertBatch(std::span<const std::vector<Value>> rows) override;
  StatusOr<uint64_t> Delete(const std::vector<Value>& key) override;
  EngineHealth Health() const override;
  std::vector<std::pair<std::string, double>> Introspect() const override;

  Database* db() const { return db_; }

 private:
  Database* const db_;
};

}  // namespace serve
}  // namespace flood

#endif  // FLOOD_SERVE_ENGINE_H_
