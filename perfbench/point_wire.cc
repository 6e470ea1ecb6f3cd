// point_wire: one client connection pipelines a window of 8 single-query
// RunBatch frames over a Unix-domain socket to serve::Server, which
// fronts Router::Over(ShardedDatabase): two Flood shards split on the
// lookup key, one thread each. The queries are point lookups on that key,
// so the router prunes each to one shard and the index work is about a
// microsecond: the `serve` and `api` layers dominate.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/sharded_database.h"
#include "bench_util.h"
#include "data/datasets.h"
#include "query/executor.h"
#include "serve/client.h"
#include "serve/router.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using flood::Query;
using flood::QueryStats;
using flood::ShardedDatabase;
namespace serve = flood::serve;

constexpr size_t kRows = 1'000'000;
constexpr size_t kShards = 2;
constexpr size_t kDistinctQueries = 4096;
constexpr size_t kTrainQueries = 200;
/// Frames per requested second: the run is bounded by this count, sized
/// to take about --seconds on a 4-core x86 VM.
constexpr size_t kFramesPerSecond = 200'000;
constexpr size_t kWindow = 8;
constexpr int kSetups = 5;

/// Times every batch it forwards as a span; the traced run wraps the
/// router and each shard in one, so a router span's self time excludes
/// the shard work it waits for (all of it runs on the server thread).
class TracedEngine : public serve::BatchEngine {
 public:
  TracedEngine(std::unique_ptr<serve::BatchEngine> inner, const char* name,
               Tracer* tracer)
      : inner_(std::move(inner)), name_(name), tracer_(tracer) {}

  void RunBatchAsync(
      std::vector<Query> queries,
      std::function<void(serve::EngineBatchResult)> on_done) override {
    Tracer::Scope span(tracer_, name_, ++batches_);
    inner_->RunBatchAsync(std::move(queries), std::move(on_done));
  }
  flood::Status Insert(const std::vector<flood::Value>& row) override {
    return inner_->Insert(row);
  }
  flood::Status InsertBatch(
      std::span<const std::vector<flood::Value>> rows) override {
    return inner_->InsertBatch(rows);
  }
  flood::StatusOr<uint64_t> Delete(
      const std::vector<flood::Value>& key) override {
    return inner_->Delete(key);
  }
  serve::EngineHealth Health() const override { return inner_->Health(); }
  std::vector<std::pair<std::string, double>> Introspect() const override {
    return inner_->Introspect();
  }

 private:
  std::unique_ptr<serve::BatchEngine> inner_;
  const char* name_;
  Tracer* tracer_;
  uint64_t batches_ = 0;  ///< Only the server thread submits.
};

/// The served stack: sharded database, router, server, one client.
struct Service {
  std::unique_ptr<ShardedDatabase> db;
  std::unique_ptr<serve::BatchEngine> engine;
  serve::Router* router = nullptr;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> client;

  ~Service() {
    client.reset();
    if (server != nullptr) {
      server->Shutdown();
      FLOOD_CHECK(server->Join().ok());
    }
  }
};

flood::ShardedDatabaseOptions Options(const flood::Workload& train) {
  flood::ShardedDatabaseOptions o;
  o.num_shards = kShards;
  o.sort_dim = 0;  // order_id, the lookup key.
  o.shard_options.index_name = "flood";
  o.shard_options.training_workload = train;
  o.shard_options.num_threads = 1;
  return o;
}

/// Opens the database, the router (traced when `tracer` is set) and the
/// server, and connects the client; returns once a Ping round-trips.
std::unique_ptr<Service> StartService(const flood::Table& table,
                                      const flood::Workload& train,
                                      const std::string& socket,
                                      Tracer* tracer) {
  auto svc = std::make_unique<Service>();
  flood::StatusOr<ShardedDatabase> db =
      ShardedDatabase::Open(table, Options(train));
  FLOOD_CHECK(db.ok());
  svc->db = std::make_unique<ShardedDatabase>(std::move(*db));
  if (tracer == nullptr) {
    std::unique_ptr<serve::Router> router = serve::Router::Over(svc->db.get());
    svc->router = router.get();
    svc->engine = std::move(router);
  } else {
    std::vector<std::unique_ptr<serve::BatchEngine>> shards;
    for (size_t s = 0; s < svc->db->num_shards(); ++s) {
      shards.push_back(std::make_unique<TracedEngine>(
          std::make_unique<serve::DatabaseEngine>(svc->db->shard(s)),
          "api.shard_batch", tracer));
    }
    auto router = std::make_unique<serve::Router>(svc->db->shard_map(),
                                                  std::move(shards));
    svc->router = router.get();
    svc->engine = std::make_unique<TracedEngine>(std::move(router),
                                                 "serve.router", tracer);
  }
  serve::ServerOptions so;
  so.uds_path = socket;
  flood::StatusOr<std::unique_ptr<serve::Server>> server =
      serve::Server::Create(svc->engine.get(), so);
  FLOOD_CHECK(server.ok());
  svc->server = std::move(*server);
  svc->server->Start();
  flood::StatusOr<serve::Client> client =
      serve::Client::Connect("unix:" + socket);
  FLOOD_CHECK(client.ok());
  svc->client = std::make_unique<serve::Client>(std::move(*client));
  FLOOD_CHECK(svc->client->Ping().ok());
  return svc;
}

struct Loop {
  Samples latency;
  std::vector<double> pass_qps;
  uint64_t shed = 0;        ///< kOverloaded / kShuttingDown replies.
  uint64_t errors = 0;      ///< Other non-OK replies.
  uint64_t mismatches = 0;
};

/// The timed closed loop: `n` single-query frames, `kWindow` in flight;
/// each reply releases the next frame. Every answer is compared with
/// `expected` (the first-cycle answers).
Loop RunLoop(serve::Client& client, const std::vector<Query>& queries,
             const std::vector<uint64_t>& expected, size_t n,
             Tracer* tracer) {
  struct Pending {
    size_t query;
    flood::Stopwatch sent;
    int64_t start_ns;
  };
  Loop loop;
  loop.latency.Reserve(n);
  std::unordered_map<uint64_t, Pending> inflight;
  const size_t per_pass = n / kPasses;
  uint64_t next_id = 1;
  size_t sent = 0;
  auto send = [&] {
    const size_t q = sent++ % queries.size();
    const uint64_t id = next_id++;
    inflight.emplace(id, Pending{q, flood::Stopwatch(),
                                 tracer != nullptr ? tracer->Now() : 0});
    FLOOD_CHECK(client.SendRunBatch(id, {&queries[q], 1}).ok());
  };
  flood::Stopwatch pass;
  while (sent < kWindow && sent < n) send();
  for (size_t done = 0; done < n;) {
    flood::StatusOr<serve::BatchResultResponse> reply = client.ReadBatchReply();
    FLOOD_CHECK(reply.ok());
    auto it = inflight.find(reply->request_id);
    FLOOD_CHECK(it != inflight.end());
    loop.latency.Add(it->second.sent.ElapsedNanos());
    if (tracer != nullptr) {
      tracer->Add("serve.client_frame", reply->request_id,
                  it->second.start_ns, tracer->Now());
    }
    if (reply->code == serve::WireCode::kOverloaded ||
        reply->code == serve::WireCode::kShuttingDown) {
      ++loop.shed;
    } else if (reply->code != serve::WireCode::kOk ||
               reply->results.size() != 1) {
      ++loop.errors;
    } else if (reply->results[0].count != expected[it->second.query]) {
      ++loop.mismatches;
    }
    inflight.erase(it);
    if (sent < n) send();
    if (++done % per_pass == 0) {
      loop.pass_qps.push_back(static_cast<double>(per_pass) /
                              pass.ElapsedSeconds());
      pass.Restart();
    }
  }
  return loop;
}

void ReportLoopFailures(const Loop& loop, Report* report) {
  report->Fail(loop.shed, "frames shed by the server");
  report->Fail(loop.errors, "frames answered with an error");
  report->Fail(loop.mismatches, "answer differs from the first cycle");
}

}  // namespace

void RunPointWire(const RunArgs& args, Report* report, Fingerprint* fp) {
  const flood::BenchDataset ds = flood::MakeSalesDataset(kRows, kDataSeed);
  const flood::Workload train = flood::MakeWorkload(
      ds, flood::WorkloadKind::kOltpSingleKey, kTrainQueries, kDataSeed + 1);
  const std::vector<Query> queries =
      flood::MakeWorkload(ds, flood::WorkloadKind::kOltpSingleKey,
                          kDistinctQueries, args.seed)
          .queries();
  const size_t n = kFramesPerSecond * static_cast<size_t>(args.seconds) /
                   kPasses * kPasses;
  const std::string socket = args.out_dir + "/point_wire.sock";

  // Set-up: ShardedDatabase::Open + router + server start, up to the
  // first Ping; median of kSetups.
  std::vector<double> setup_s;
  std::unique_ptr<Service> svc;
  for (int s = 0; s < (args.trace ? 1 : kSetups); ++s) {
    svc.reset();
    const flood::Stopwatch sw;
    svc = StartService(ds.table, train, socket, nullptr);
    setup_s.push_back(sw.ElapsedSeconds());
  }
  fp->Add(svc->db->shard_map().ToString());
  for (size_t s = 0; s < svc->db->num_shards(); ++s) {
    fp->Add(svc->db->shard(s)->Describe());
  }

  // Warm-up cycle over the wire: records each query's first answer. The
  // lookup keys enter the fingerprint too: most answers are 1 whatever
  // the seed.
  std::vector<uint64_t> first(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    flood::StatusOr<serve::BatchResultResponse> r =
        svc->client->RunBatch({&queries[q], 1});
    FLOOD_CHECK(r.ok() && r->code == serve::WireCode::kOk);
    first[q] = r->results[0].count;
    fp->Add(queries[q].ToString());
    fp->Add(first[q]);
  }
  for (size_t s = 0; s < svc->db->num_shards(); ++s) {
    fp->AddCounts(svc->db->shard(s)->cumulative_stats());
  }

  const serve::ServerCounters server0 = svc->server->counters();
  const serve::RouterCounters router0 = svc->router->counters();
  const Loop loop = RunLoop(*svc->client, queries, first, n, nullptr);
  const double peak_rss = PeakRssMb();
  const serve::ServerCounters server1 = svc->server->counters();
  const serve::RouterCounters router1 = svc->router->counters();
  report->Attempt(n);
  ReportLoopFailures(loop, report);

  // Oracle: the same lookups through a full_scan index over the table.
  flood::DatabaseOptions oracle_options;
  oracle_options.index_name = "full_scan";
  flood::StatusOr<flood::Database> oracle =
      flood::Database::Open(ds.table, oracle_options);
  FLOOD_CHECK(oracle.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    flood::StatusOr<flood::QueryResult> r = oracle->TryRun(queries[q]);
    FLOOD_CHECK(r.ok());
    if (r->count != first[q]) {
      report->Fail(n / queries.size() + (q < n % queries.size() ? 1 : 0),
                   "answer differs from full_scan: " + queries[q].ToString());
    }
  }

  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("qps", Median(loop.pass_qps), "1/s");
    report->Metric("p50_ms", loop.latency.PassMedianMs(50), "ms");
    report->Metric("p99_ms", loop.latency.PassMedianMs(99), "ms");
    report->Metric("peak_rss_mb", peak_rss, "MB");
    report->Note("samples frame=" + std::to_string(loop.latency.size()) +
                 " per_pass_above_p99=" +
                 std::to_string(loop.latency.MinPassCountAbove(99)) +
                 " setups=" + std::to_string(setup_s.size()));
    report->Note(PassRates(loop.pass_qps));
    return;
  }

  // Traced run: the loop against a second server whose router and shards
  // are wrapped in spans, for a twentieth of the frames (three spans per
  // frame would otherwise hold millions of spans in memory).
  Tracer tracer;
  {
    svc->client.reset();  // One client connection at a time.
    std::unique_ptr<Service> traced_svc = StartService(
        ds.table, train, args.out_dir + "/point_wire_traced.sock", &tracer);
    const size_t traced_n = n / 20 / kPasses * kPasses;
    const Loop traced =
        RunLoop(*traced_svc->client, queries, first, traced_n, &tracer);
    report->Attempt(traced_n);
    ReportLoopFailures(traced, report);
    report->Metric("trace.overhead_frac",
                   Median(loop.pass_qps) / Median(traced.pass_qps) - 1.0,
                   "ratio");
  }

  // Isolation passes: the same lookups into each layer's public entry
  // point, from the shard's index up to a client round trip.
  flood::StatusOr<serve::Client> client =
      serve::Client::Connect("unix:" + socket);
  FLOOD_CHECK(client.ok());
  std::unique_ptr<serve::Router> bare_router =
      serve::Router::Over(svc->db.get());
  const flood::ShardMap& map = svc->db->shard_map();
  QueryStats shard_stats;
  constexpr size_t kIsolated = 1024;
  constexpr size_t kReps = 3;
  for (size_t rep = 0; rep < kReps; ++rep) {
    for (size_t q = 0; q < kIsolated; ++q) {
      const Query& query = queries[q];
      const uint64_t request = rep * kIsolated + q;
      flood::Database* shard =
          svc->db->shard(map.ShardForValue(query.range(map.sort_dim()).lo));
      (void)shard->TryRun(query);  // Untimed first touch.
      {
        Tracer::Scope span(&tracer, "core.execute", request);
        QueryStats s;
        (void)flood::ExecuteAggregate(shard->index(), query, &s);
        if (rep == 0) shard_stats.Merge(s);
      }
      {
        Tracer::Scope span(&tracer, "api.shard_try_run", request);
        (void)shard->TryRun(query);
      }
      {
        Tracer::Scope span(&tracer, "api.sharded_try_run", request);
        (void)svc->db->TryRun(query);
      }
      {
        Tracer::Scope span(&tracer, "serve.router_call", request);
        bare_router->RunBatchAsync({query}, [](serve::EngineBatchResult r) {
          FLOOD_CHECK(r.status.ok());
        });
      }
      {
        Tracer::Scope span(&tracer, "serve.client_rtt", request);
        FLOOD_CHECK(client->RunBatch({&query, 1}).ok());
      }
      {
        // Request and reply, each encoded, framed and decoded.
        Tracer::Scope span(&tracer, "serve.protocol", request);
        std::string bytes;
        serve::AppendRunBatch({request, {query}}, &bytes);
        serve::BatchResultResponse reply;
        reply.request_id = request;
        reply.results.push_back({0, false, first[q], 0, 0});
        serve::AppendBatchResult(reply, &bytes);
        serve::FrameAssembler assembler;
        assembler.Feed(bytes.data(), bytes.size());
        serve::Frame frame;
        FLOOD_CHECK(assembler.Next(&frame) ==
                    serve::FrameAssembler::Result::kFrame);
        FLOOD_CHECK(serve::ParseRunBatch(frame.payload).ok());
        FLOOD_CHECK(assembler.Next(&frame) ==
                    serve::FrameAssembler::Result::kFrame);
        FLOOD_CHECK(serve::ParseBatchResult(frame.payload).ok());
      }
    }
  }
  tracer.ComputeSelfTimes();

  size_t index_bytes = 0;
  for (size_t s = 0; s < svc->db->num_shards(); ++s) {
    index_bytes += svc->db->shard(s)->IndexSizeBytes();
  }
  const double nq = static_cast<double>(kIsolated);
  report->Metric("core.execute_us", tracer.MedianDurUs("core.execute"), "us");
  report->Metric("core.scan_overhead", shard_stats.ScanOverhead(), "ratio");
  report->Metric("core.ns_per_scanned_point",
                 shard_stats.TimePerScannedPoint(), "ns");
  report->Metric("core.cells_per_query", shard_stats.cells_visited / nq,
                 "count");
  report->Metric("core.ranges_per_query", shard_stats.ranges_scanned / nq,
                 "count");
  report->Metric("core.index_bytes_per_row",
                 static_cast<double>(index_bytes) / kRows, "B");
  report->Metric("api.database_us", tracer.MedianDurUs("api.shard_try_run"),
                 "us");
  report->Metric("api.facade_us",
                 tracer.MedianPairedDiffUs("api.shard_try_run",
                                           "core.execute"),
                 "us");
  report->Metric("api.sharded_us",
                 tracer.MedianPairedDiffUs("api.sharded_try_run",
                                           "api.shard_try_run"),
                 "us");
  report->Metric("serve.router_us",
                 tracer.MedianPairedDiffUs("serve.router_call",
                                           "api.sharded_try_run"),
                 "us");
  report->Metric("serve.wire_us",
                 tracer.MedianPairedDiffUs("serve.client_rtt",
                                           "serve.router_call"),
                 "us");
  report->Metric("serve.protocol_us", tracer.MedianDurUs("serve.protocol"),
                 "us");
  report->Metric("serve.router_self_us", tracer.MedianSelfUs("serve.router"),
                 "us");
  // Server and router counters over the untraced timed loop.
  auto delta = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  report->Metric("serve.frames_per_group",
                 delta(server1.frames_decoded, server0.frames_decoded) /
                     delta(server1.batches_submitted,
                           server0.batches_submitted),
                 "count");
  report->Metric("serve.bytes_per_query",
                 (delta(server1.bytes_in, server0.bytes_in) +
                  delta(server1.bytes_out, server0.bytes_out)) /
                     delta(server1.queries_executed,
                           server0.queries_executed),
                 "B");
  const double pruned =
      delta(router1.subqueries_pruned, router0.subqueries_pruned);
  report->Metric("serve.prune_frac",
                 pruned / (pruned + delta(router1.subqueries_sent,
                                          router0.subqueries_sent)),
                 "ratio");
  report->Metric("serve.queue_depth_hwm",
                 static_cast<double>(server1.queue_depth_hwm), "count");
  report->Metric("serve.requests_shed",
                 delta(server1.requests_shed, server0.requests_shed),
                 "count");
  report->Metric("trace.spans", static_cast<double>(tracer.size()), "count");
  tracer.Write(args.out_dir + "/trace.tsv");
}

}  // namespace perfbench
