// serve_client: round-trip the flood wire protocol end to end.
//
// With no arguments, this example is fully self-contained: it builds a
// small database, starts a flood::serve::Server on a Unix-domain socket
// in this process, connects a Client, and runs Ping -> RunBatch ->
// Insert -> RunBatch -> Metrics before draining the server.
//
// With an address argument it skips the in-process server and talks to
// an already-running flood_serve instead:
//
//   $ ./examples/serve_client                      # self-contained demo
//   $ ./examples/serve_client unix:/tmp/flood.sock # against flood_serve
//   $ ./examples/serve_client 127.0.0.1:7878

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/rng.h"
#include "serve/client.h"
#include "serve/server.h"

using flood::Database;
using flood::DatabaseOptions;
using flood::Query;
using flood::QueryBuilder;
using flood::Rng;
using flood::Table;
using flood::Value;
using flood::Workload;
using flood::serve::Client;
using flood::serve::Server;
using flood::serve::ServerOptions;
using flood::serve::WireCode;

namespace {

int Fail(const flood::Status& status, const char* what) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // 1. Somewhere to connect to: the given address, or an in-process
  //    server over a small learned database on a temp UDS path.
  std::string address;
  std::unique_ptr<Database> db;
  std::unique_ptr<Server> server;
  if (argc > 1) {
    address = argv[1];
  } else {
    const size_t n = 100'000;
    Rng rng(7);
    std::vector<Value> x(n), y(n), value(n);
    for (size_t i = 0; i < n; ++i) {
      x[i] = rng.UniformInt(0, 99'999);
      y[i] = rng.UniformInt(0, 99'999);
      value[i] = rng.UniformInt(1, 100);
    }
    auto table = Table::FromColumns({x, y, value},
                                    flood::Column::Encoding::kBlockDelta,
                                    {"x", "y", "value"});
    if (!table.ok()) return Fail(table.status(), "table");

    Workload train;
    for (int i = 0; i < 20; ++i) {
      const Value x0 = rng.UniformInt(0, 90'000);
      train.Add(QueryBuilder(3)
                    .Range(0, x0, x0 + 5'000)
                    .Range(1, 0, 50'000)
                    .Count()
                    .Build());
    }
    DatabaseOptions options;
    options.index_name = "flood";
    options.training_workload = train;
    options.num_threads = 4;
    auto opened = Database::Open(*table, std::move(options));
    if (!opened.ok()) return Fail(opened.status(), "open");
    db = std::make_unique<Database>(std::move(*opened));

    ServerOptions sopts;
    sopts.uds_path =
        "/tmp/flood_serve_client_demo." + std::to_string(::getpid());
    auto created = Server::Create(db.get(), std::move(sopts));
    if (!created.ok()) return Fail(created.status(), "serve");
    server = std::move(*created);
    server->Start();
    address = "unix:" + server->uds_path();
    std::printf("in-process server on %s\n", address.c_str());
  }

  // 2. Connect and ping. Finite deadlines + a short connect retry: a
  //    typo'd or dead address fails within seconds instead of hanging,
  //    and a server still coming up gets a couple of chances.
  flood::serve::ClientOptions copts;
  copts.connect_timeout_ms = 5'000;
  copts.send_timeout_ms = 5'000;
  copts.recv_timeout_ms = 10'000;
  copts.retry.max_attempts = 3;
  copts.retry.initial_backoff_ms = 100;
  auto client = Client::Connect(address, copts);
  if (!client.ok()) return Fail(client.status(), "connect");
  if (flood::Status s = client->Ping(); !s.ok()) return Fail(s, "ping");
  std::printf("ping ok\n");

  auto health = client->Health();
  if (!health.ok()) return Fail(health.status(), "health");
  std::printf("health: ready=%d draining=%d persist_poisoned=%d\n",
              health->ready ? 1 : 0, health->draining ? 1 : 0,
              health->persist_poisoned ? 1 : 0);

  // 3. A batch of aggregations, executed server-side in ONE RunBatch.
  std::vector<Query> queries;
  queries.push_back(
      QueryBuilder(3).Range(0, 10'000, 20'000).Count().Build());
  queries.push_back(QueryBuilder(3)
                        .Range(0, 10'000, 20'000)
                        .Range(1, 0, 50'000)
                        .Sum(2)
                        .Build());
  auto reply = client->RunBatch(queries);
  if (!reply.ok()) return Fail(reply.status(), "run batch");
  if (reply->code != WireCode::kOk) {
    std::fprintf(stderr, "batch failed: %s\n", reply->message.c_str());
    return 1;
  }
  std::printf("count(x in [10k,20k])            = %llu\n",
              static_cast<unsigned long long>(reply->results[0].count));
  std::printf("sum(value | x,y filtered)        = %lld\n",
              static_cast<long long>(reply->results[1].sum));

  // 4. Writes go over the same connection; queries see them immediately.
  if (flood::Status s = client->Insert({15'000, 25'000, 1});
      !s.ok()) {
    return Fail(s, "insert");
  }
  auto after = client->RunBatch({&queries[0], 1});
  if (!after.ok()) return Fail(after.status(), "run batch after insert");
  std::printf("count after one insert           = %llu (+1)\n",
              static_cast<unsigned long long>(after->results[0].count));

  // 5. Server introspection over the wire.
  auto metrics = client->Metrics();
  if (!metrics.ok()) return Fail(metrics.status(), "metrics");
  for (const auto& [key, val] : metrics->entries) {
    if (key == "serve.frames_decoded" || key == "serve.batches_submitted" ||
        key == "db.pending_writes") {
      std::printf("%-32s = %.0f\n", key.c_str(), val);
    }
  }

  // 6. Clean drain (only for the in-process server).
  if (server != nullptr) {
    server->Shutdown();
    server->Join();
    std::printf("server drained cleanly\n");
  }
  return 0;
}
