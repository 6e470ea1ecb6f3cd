// ingest_mixed: one thread interleaves one InsertBatch of 16 rows with 4
// TryRun reads of the OLAP mix, on a Flood database that auto-compacts
// (auto_retrain_fraction 0.05), logs to a WAL with Durability::kAsync
// (write() without fsync; the OS page cache only) and checkpoints to a
// snapshot at every compaction. The write path, the delta merge,
// compaction (learn, rebuild, checkpoint) and persistence do the work.
// With a single thread the compaction points, the recorded-workload ring
// and the relearned layouts repeat exactly for a seed.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "api/database.h"
#include "bench_util.h"
#include "core/cost_model.h"
#include "core/delta_buffer.h"
#include "core/flood_index.h"
#include "core/layout_optimizer.h"
#include "data/datasets.h"
#include "persist/wal.h"
#include "query/executor.h"

namespace perfbench {
namespace {

using flood::Database;
using flood::Query;
using flood::QueryStats;
using flood::Value;
using Row = std::vector<Value>;

constexpr size_t kBaseRows = 200'000;
/// Inserted rows per requested second: the run is bounded by this count,
/// sized to take about --seconds on a 4-core x86 VM.
constexpr size_t kRowsPerSecond = 16'000;
constexpr size_t kBatchRows = 16;
constexpr size_t kReadsPerBatch = 4;
constexpr size_t kTrainQueries = 200;
constexpr double kRetrainFraction = 0.05;
/// Every k-th read is checked against the brute-force oracle.
constexpr size_t kCheckEvery = 32;
/// Queries whose answers must survive a reopen unchanged.
constexpr size_t kReopenQueries = 64;
constexpr int kSetups = 5;

/// Base rows plus the rows to insert, kept row- and column-wise for the
/// oracle. The base table, the training workload and the reads are fixed;
/// --seed draws the inserted rows (the continuation of a sales table).
/// There are as many distinct reads as the recorded-query ring holds, so
/// once the ring is full it holds the same queries at every compaction
/// and a relearned layout depends on the data alone.
struct Inputs {
  flood::Table base;
  std::vector<std::vector<Value>> base_cols;
  std::vector<Row> inserts;
  flood::Workload train;
  std::vector<Query> queries;
};

Inputs MakeInputs(uint64_t seed, size_t num_inserts) {
  Inputs in;
  const flood::BenchDataset base =
      flood::MakeSalesDataset(kBaseRows, kDataSeed);
  const flood::BenchDataset more =
      flood::MakeSalesDataset(kBaseRows + num_inserts, seed);
  const size_t dims = base.table.num_dims();
  in.inserts.assign(num_inserts, Row(dims));
  for (size_t d = 0; d < dims; ++d) {
    in.base_cols.push_back(base.table.DecodeColumn(d));
    const std::vector<Value> col = more.table.DecodeColumn(d);
    for (size_t i = 0; i < num_inserts; ++i) {
      in.inserts[i][d] = col[kBaseRows + i];
    }
  }
  in.base = base.table;
  in.train = flood::MakeWorkload(base, flood::WorkloadKind::kOlapSkewed,
                                 kTrainQueries, kDataSeed + 1);
  in.queries = StratifiedQueries(base.table, base.olap_specs,
                                 base.default_selectivity,
                                 flood::DatabaseOptions().workload_history,
                                 kDataSeed + 2);
  return in;
}

flood::DatabaseOptions Options(const Inputs& in, const std::string& dir,
                               bool wal) {
  flood::DatabaseOptions o;
  o.index_name = "flood";
  o.training_workload = in.train;
  o.num_threads = 1;
  o.auto_retrain_fraction = kRetrainFraction;
  if (wal) o.wal_path = dir + "/wal";
  o.durability = flood::Durability::kAsync;
  return o;
}

/// Set-up: Database::Open (layout learning + build) and the first Save,
/// into a fresh directory.
std::unique_ptr<Database> Setup(const Inputs& in, const std::string& dir) {
  ResetDir(dir);
  flood::StatusOr<Database> db =
      Database::Open(in.base, Options(in, dir, /*wal=*/true));
  FLOOD_CHECK(db.ok());
  FLOOD_CHECK(db->Save(dir + "/snap").ok());
  return std::make_unique<Database>(std::move(*db));
}

/// A read whose answer the oracle re-derives: the query and how many
/// inserted rows were acknowledged before it ran.
struct CheckedRead {
  size_t query;
  size_t inserted;
  uint64_t count;
  int64_t sum;
};

struct Loop {
  Samples read_latency;
  Samples write_latency;    ///< Every InsertBatch.
  Samples plain_write;      ///< InsertBatch calls that did not compact.
  Samples compact_latency;  ///< InsertBatch calls that compacted.
  std::vector<double> pass_qps;
  double wall_s = 0;
  double write_s = 0;  ///< Time inside InsertBatch, compactions included.
  double probe_s = 0;  ///< Isolation probes inside a traced loop.
  uint64_t errors = 0;
  uint64_t reads = 0;
  QueryStats counts;
  std::vector<CheckedRead> checks;
};

/// The timed closed loop. With a tracer, every 64th read is preceded by a
/// probe that times Execute on the same query at the same state (warm,
/// through the index only, so the recorded workload is unchanged).
Loop RunLoop(Database& db, const Inputs& in, size_t steps, Tracer* tracer,
             Fingerprint* fp) {
  Loop loop;
  loop.read_latency.Reserve(steps * kReadsPerBatch);
  loop.write_latency.Reserve(steps);
  const size_t per_pass = steps / kPasses;
  const flood::Stopwatch wall;
  flood::Stopwatch pass;
  uint64_t compactions = db.compactions();
  for (size_t step = 0; step < steps; ++step) {
    std::span<const Row> rows(&in.inserts[step * kBatchRows], kBatchRows);
    {
      Tracer::Scope span(tracer, "api.insert_batch", step);
      const flood::Stopwatch sw;
      const flood::Status st = db.InsertBatch(rows);
      const int64_t ns = sw.ElapsedNanos();
      if (!st.ok()) ++loop.errors;
      loop.write_latency.Add(ns);
      loop.write_s += static_cast<double>(ns) / 1e9;
      if (db.compactions() != compactions) {
        compactions = db.compactions();
        span.Rename("api.insert_batch.compacting");
        loop.compact_latency.Add(ns);
        if (fp != nullptr) fp->Add(db.Describe());
      } else {
        loop.plain_write.Add(ns);
      }
    }
    for (size_t r = 0; r < kReadsPerBatch; ++r, ++loop.reads) {
      const size_t q = loop.reads % in.queries.size();
      if (tracer != nullptr && loop.reads % 64 == 0) {
        const flood::Stopwatch probe;
        (void)flood::ExecuteAggregate(db.index(), in.queries[q], nullptr);
        Tracer::Scope span(tracer, "core.execute", loop.reads);
        (void)flood::ExecuteAggregate(db.index(), in.queries[q], nullptr);
        loop.probe_s += probe.ElapsedSeconds();
      }
      flood::StatusOr<flood::QueryResult> res = [&] {
        Tracer::Scope span(tracer, "api.try_run", loop.reads);
        const flood::Stopwatch sw;
        flood::StatusOr<flood::QueryResult> out = db.TryRun(in.queries[q]);
        loop.read_latency.Add(sw.ElapsedNanos());
        return out;
      }();
      if (!res.ok()) {
        ++loop.errors;
        continue;
      }
      loop.counts.Add(res->stats);
      if (loop.reads % kCheckEvery == 0) {
        loop.checks.push_back(
            {q, (step + 1) * kBatchRows, res->count, res->sum});
      }
    }
    if ((step + 1) % per_pass == 0) {
      loop.pass_qps.push_back(static_cast<double>(per_pass * kReadsPerBatch) /
                              pass.ElapsedSeconds());
      pass.Restart();
    }
  }
  loop.wall_s = wall.ElapsedSeconds() - loop.probe_s;
  return loop;
}

/// Brute-force answer over the base rows plus the first `inserted` rows.
std::pair<uint64_t, int64_t> Oracle(const Inputs& in, const Query& q,
                                    size_t inserted) {
  const size_t dims = in.base_cols.size();
  std::vector<size_t> filtered;
  for (size_t d = 0; d < dims; ++d) {
    if (q.IsFiltered(d)) filtered.push_back(d);
  }
  const bool is_sum = q.agg().kind == flood::AggSpec::Kind::kSum;
  uint64_t count = 0;
  uint64_t sum = 0;  // Wrapping, like the index's SUM.
  auto visit = [&](auto value_of) {
    for (size_t d : filtered) {
      if (!q.range(d).Contains(value_of(d))) return;
    }
    ++count;
    if (is_sum) sum += static_cast<uint64_t>(value_of(q.agg().dim));
  };
  for (size_t i = 0; i < kBaseRows; ++i) {
    visit([&](size_t d) { return in.base_cols[d][i]; });
  }
  for (size_t i = 0; i < inserted; ++i) {
    visit([&](size_t d) { return in.inserts[i][d]; });
  }
  return {count, static_cast<int64_t>(sum)};
}

}  // namespace

void RunIngestMixed(const RunArgs& args, Report* report, Fingerprint* fp) {
  const size_t steps =
      kRowsPerSecond * static_cast<size_t>(args.seconds) / kBatchRows /
      kPasses * kPasses;
  const size_t inserted = steps * kBatchRows;
  const Inputs in = MakeInputs(args.seed, inserted);
  const std::string dir = args.out_dir + "/db";

  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  for (int s = 0; s < (args.trace ? 1 : kSetups); ++s) {
    db.reset();
    const flood::Stopwatch sw;
    db = Setup(in, dir);
    setup_s.push_back(sw.ElapsedSeconds());
  }
  fp->Add(db->Describe());

  const uint64_t written0 = WrittenBytes();
  const Loop loop = RunLoop(*db, in, steps, nullptr, fp);
  const uint64_t written = WrittenBytes() - written0;
  const double peak_rss = PeakRssMb();
  report->Attempt(steps + loop.reads);
  report->Fail(loop.errors, "InsertBatch or TryRun returned an error");
  fp->Add(db->compactions());
  fp->AddCounts(loop.counts);

  for (const CheckedRead& c : loop.checks) {
    const auto [count, sum] = Oracle(in, in.queries[c.query], c.inserted);
    if (count != c.count || sum != c.sum) {
      report->Fail(1, "read differs from the oracle: " +
                          in.queries[c.query].ToString());
    }
  }

  // Reopen: Open(snapshot) replays the WAL tail; the logical state and
  // the answers must be exactly those before the restart.
  std::vector<std::pair<uint64_t, int64_t>> before;
  for (size_t q = 0; q < kReopenQueries; ++q) {
    flood::StatusOr<flood::QueryResult> r = db->TryRun(in.queries[q]);
    FLOOD_CHECK(r.ok());
    before.emplace_back(r->count, r->sum);
  }
  const uint64_t snap_bytes = FileBytes(dir + "/snap");
  const uint64_t wal_bytes = FileBytes(dir + "/wal");
  const size_t base_rows = db->base_rows();
  const size_t logical_rows = db->num_rows();
  const uint64_t compactions = db->compactions();
  const flood::Workload recorded = db->RecordedWorkload();
  fp->Add(snap_bytes);
  fp->Add(wal_bytes);
  db.reset();
  const flood::Stopwatch reopen;
  flood::StatusOr<Database> reopened =
      Database::Open(dir + "/snap", Options(in, dir, /*wal=*/true));
  const double reopen_s = reopen.ElapsedSeconds();
  FLOOD_CHECK(reopened.ok());
  report->Check(logical_rows == kBaseRows + inserted &&
                    reopened->num_rows() == kBaseRows + inserted,
                "row count after reopen");
  for (size_t q = 0; q < kReopenQueries; ++q) {
    flood::StatusOr<flood::QueryResult> r = reopened->TryRun(in.queries[q]);
    report->Check(r.ok() && r->count == before[q].first &&
                      r->sum == before[q].second,
                  "answer after reopen: " + in.queries[q].ToString());
  }

  if (!args.trace) {
    report->Metric("setup_s", Median(setup_s), "s");
    report->Metric("qps", Median(loop.pass_qps), "1/s");
    report->Metric("p50_ms", loop.read_latency.PassMedianMs(50), "ms");
    report->Metric("p99_ms", loop.read_latency.PassMedianMs(99), "ms");
    report->Metric("peak_rss_mb", peak_rss, "MB");
    report->Note("samples read=" + std::to_string(loop.read_latency.size()) +
                 " per_pass_above_p99=" +
                 std::to_string(loop.read_latency.MinPassCountAbove(99)) +
                 " write=" + std::to_string(loop.write_latency.size()) +
                 " compactions=" + std::to_string(compactions) +
                 " setups=" + std::to_string(setup_s.size()));
    report->Note(PassRates(loop.pass_qps));
    return;
  }

  report->Metric("api.write_rows_per_s",
                 static_cast<double>(inserted) / loop.write_s, "1/s");
  report->Metric("api.write_p50_ms", loop.write_latency.PercentileMs(50),
                 "ms");
  report->Metric("api.write_p99_ms", loop.write_latency.PercentileMs(99),
                 "ms");
  report->Metric("api.compact_ms", loop.compact_latency.PercentileMs(50),
                 "ms");
  report->Metric("api.insert_batch_us",
                 loop.plain_write.PercentileMs(50) * 1e3, "us");
  report->Metric("api.delta_rows_per_read",
                 static_cast<double>(loop.counts.delta_rows_scanned) /
                     static_cast<double>(loop.reads),
                 "count");
  report->Metric("core.compactions", static_cast<double>(compactions),
                 "count");
  report->Metric("persist.reopen_s", reopen_s, "s");
  report->Metric("persist.disk_bytes_per_row",
                 static_cast<double>(snap_bytes + wal_bytes) /
                     static_cast<double>(logical_rows),
                 "B");
  report->Metric("persist.snapshot_bytes_per_row",
                 static_cast<double>(snap_bytes) /
                     static_cast<double>(base_rows),
                 "B");
  report->Metric("persist.write_amp",
                 static_cast<double>(written) /
                     static_cast<double>(inserted * sizeof(Value) *
                                         in.base_cols.size()),
                 "ratio");

  // Traced run: the same loop on a fresh database, with spans and probes.
  Tracer tracer;
  reopened = flood::Status::Internal("closed");
  {
    const std::string traced_dir = args.out_dir + "/db_traced";
    std::unique_ptr<Database> traced_db = Setup(in, traced_dir);
    const Loop traced = RunLoop(*traced_db, in, steps, &tracer, nullptr);
    report->Attempt(steps + traced.reads);
    report->Fail(traced.errors, "traced loop errors");
    for (size_t i = 0; i < traced.checks.size(); ++i) {
      const CheckedRead& a = traced.checks[i];
      const CheckedRead& b = loop.checks[i];
      if (a.count != b.count || a.sum != b.sum) {
        report->Fail(1, "traced read differs from the untraced one");
      }
    }
    report->Metric("trace.overhead_frac", traced.wall_s / loop.wall_s - 1.0,
                   "ratio");
  }

  // Isolation passes over the final state of the untraced database.
  flood::StatusOr<Database> final_db =
      Database::Open(dir + "/snap", Options(in, dir, /*wal=*/false));
  FLOOD_CHECK(final_db.ok());
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    {
      Tracer::Scope span(&tracer, "persist.open_with_wal", rep);
      FLOOD_CHECK(
          Database::Open(dir + "/snap", Options(in, dir, /*wal=*/true)).ok());
    }
    {
      Tracer::Scope span(&tracer, "persist.open_without_wal", rep);
      FLOOD_CHECK(
          Database::Open(dir + "/snap", Options(in, dir, /*wal=*/false)).ok());
    }
  }
  // A WalWriter alone, appending the same batches as the loop.
  {
    const std::string wal = args.out_dir + "/iso.wal";
    flood::StatusOr<flood::persist::WalWriter> writer =
        flood::persist::WalWriter::Create(wal, 1, /*sync=*/false);
    FLOOD_CHECK(writer.ok());
    const size_t batches = std::min<size_t>(steps, 4096);
    for (size_t b = 0; b < batches; ++b) {
      Tracer::Scope span(&tracer, "persist.wal_commit", b);
      for (size_t i = 0; i < kBatchRows; ++i) {
        writer->AppendInsert(in.inserts[b * kBatchRows + i]);
      }
      FLOOD_CHECK(writer->Commit().ok());
    }
    report->Metric("persist.wal_bytes_per_row",
                   static_cast<double>(FileBytes(wal)) /
                       static_cast<double>(batches * kBatchRows),
                   "B");
  }
  // One compaction's parts: materialize a threshold-sized delta over the
  // final base, learn a layout for the merged table from the recorded
  // workload, and checkpoint it.
  const flood::Table& final_base = final_db->data();
  const size_t delta_rows = static_cast<size_t>(
      kRetrainFraction * static_cast<double>(final_base.num_rows()));
  flood::DeltaBuffer delta(final_base.num_dims());
  for (size_t i = 0; i < delta_rows; ++i) {
    FLOOD_CHECK(delta.Insert(in.inserts[i % inserted]).ok());
  }
  flood::StatusOr<flood::Table> merged = flood::Status::Internal("unset");
  for (int rep = 0; rep < kReps; ++rep) {
    Tracer::Scope span(&tracer, "core.materialize", rep);
    merged = delta.Materialize(final_base);
    FLOOD_CHECK(merged.ok());
  }
  // The optimizer exactly as FloodIndex::Build runs it.
  const flood::CostModel cost_model = flood::CostModel::Default();
  flood::LayoutOptimizer::Options learn_options;
  learn_options.max_cells = flood::FloodIndex::Options().max_cells;
  const flood::LayoutOptimizer optimizer(&cost_model, learn_options);
  for (int rep = 0; rep < kReps; ++rep) {
    Tracer::Scope span(&tracer, "core.layout_learn", rep);
    (void)optimizer.Optimize(*merged, recorded);
  }
  for (int rep = 0; rep < kReps; ++rep) {
    Tracer::Scope span(&tracer, "persist.snapshot", rep);
    FLOOD_CHECK(final_db->Save(args.out_dir + "/iso.snap").ok());
  }
  tracer.ComputeSelfTimes();

  report->Metric("core.execute_us", tracer.MedianDurUs("core.execute"), "us");
  report->Metric("api.delta_merge_us",
                 tracer.MedianPairedDiffUs("api.try_run", "core.execute"),
                 "us");
  report->Metric("core.materialize_ms",
                 tracer.MedianDurUs("core.materialize") / 1e3, "ms");
  report->Metric("core.layout_learn_ms",
                 tracer.MedianDurUs("core.layout_learn") / 1e3, "ms");
  report->Metric("persist.snapshot_ms",
                 tracer.MedianDurUs("persist.snapshot") / 1e3, "ms");
  report->Metric("persist.wal_commit_us",
                 tracer.MedianDurUs("persist.wal_commit"), "us");
  report->Metric("persist.wal_replay_ms",
                 (tracer.MedianDurUs("persist.open_with_wal") -
                  tracer.MedianDurUs("persist.open_without_wal")) /
                     1e3,
                 "ms");
  report->Metric("trace.spans", static_cast<double>(tracer.size()), "count");
  tracer.Write(args.out_dir + "/trace.tsv");
}

}  // namespace perfbench
