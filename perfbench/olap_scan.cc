// olap_scan: one caller runs Database::TryRun serially over the skewed
// OLAP query mix of a 2M-row, 7-dim TPC-H-like table indexed by Flood as
// Database::Open learns it. There is no wire and the delta stays empty,
// so the index (`core`) and the scan kernel (`query`) do almost all the
// work; the table is about ten times a core's L2.

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "bench_util.h"
#include "data/datasets.h"
#include "query/executor.h"

namespace perfbench {
namespace {

using flood::Database;
using flood::Query;
using flood::QueryStats;

constexpr size_t kRows = 2'000'000;
constexpr size_t kDistinctQueries = 4000;
constexpr size_t kTrainQueries = 200;
/// Operations per requested second: the run is bounded by this count,
/// sized to take about --seconds on a 4-core x86 VM.
constexpr size_t kQueriesPerSecond = 2000;
constexpr int kSetups = 3;

struct Answer {
  uint64_t count = 0;
  int64_t sum = 0;
  bool operator==(const Answer&) const = default;
};

flood::DatabaseOptions Options(const std::string& index,
                               const flood::Workload& train,
                               size_t threads) {
  flood::DatabaseOptions o;
  o.index_name = index;
  o.training_workload = train;
  o.num_threads = threads;
  return o;
}

/// The timed closed loop: `n` TryRun calls cycling over `queries`, every
/// answer compared with the first-cycle answer of the same query.
struct Loop {
  Samples latency;
  std::vector<double> pass_qps;
  uint64_t mismatches = 0;
  uint64_t errors = 0;
};

Loop RunLoop(Database& db, const std::vector<Query>& queries,
             const std::vector<Answer>& first, size_t n, Tracer* tracer) {
  Loop loop;
  loop.latency.Reserve(n);
  const size_t per_pass = n / kPasses;
  size_t i = 0;
  for (size_t p = 0; p < kPasses; ++p) {
    const flood::Stopwatch pass;
    for (size_t j = 0; j < per_pass; ++j, ++i) {
      const size_t q = i % queries.size();
      const flood::Stopwatch sw;
      flood::StatusOr<flood::QueryResult> r = [&] {
        Tracer::Scope span(tracer, "api.try_run", i);
        return db.TryRun(queries[q]);
      }();
      loop.latency.Add(sw.ElapsedNanos());
      if (!r.ok()) {
        ++loop.errors;
      } else if (!(Answer{r->count, r->sum} == first[q])) {
        ++loop.mismatches;
      }
    }
    loop.pass_qps.push_back(static_cast<double>(per_pass) /
                            pass.ElapsedSeconds());
  }
  return loop;
}

}  // namespace

void RunOlapScan(const RunArgs& args, Report* report, Fingerprint* fp) {
  const flood::BenchDataset ds = flood::MakeTpchDataset(kRows, kDataSeed);
  const flood::Workload train = flood::MakeWorkload(
      ds, flood::WorkloadKind::kOlapSkewed, kTrainQueries, kDataSeed + 1);
  const std::vector<Query> queries =
      StratifiedQueries(ds.table, ds.olap_specs, ds.default_selectivity,
                        kDistinctQueries, args.seed);
  const size_t n = kQueriesPerSecond * static_cast<size_t>(args.seconds) /
                   kPasses * kPasses;

  // Set-up: Database::Open (layout learning + build), median of kSetups.
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  for (int s = 0; s < (args.trace ? 1 : kSetups); ++s) {
    db.reset();
    const flood::Stopwatch sw;
    flood::StatusOr<Database> opened =
        Database::Open(ds.table, Options("flood", train, 1));
    FLOOD_CHECK(opened.ok());
    setup_s.push_back(sw.ElapsedSeconds());
    db = std::make_unique<Database>(std::move(*opened));
  }
  fp->Add(db->Describe());

  // Warm-up cycle: records each query's first answer and the counters.
  std::vector<Answer> first(queries.size());
  QueryStats counts;
  for (size_t q = 0; q < queries.size(); ++q) {
    flood::StatusOr<flood::QueryResult> r = db->TryRun(queries[q]);
    FLOOD_CHECK(r.ok());
    first[q] = {r->count, r->sum};
    counts.Add(r->stats);
    fp->Add(r->count);
    fp->Add(static_cast<uint64_t>(r->sum));
  }
  fp->AddCounts(counts);

  const Loop loop = RunLoop(*db, queries, first, n, nullptr);
  const double peak_rss = PeakRssMb();
  report->Attempt(n);
  report->Fail(loop.errors, "TryRun returned an error");
  report->Fail(loop.mismatches, "answer differs from the first cycle");

  // Oracle: the same queries through a full_scan index over the table,
  // on two threads (it is not timed).
  flood::StatusOr<Database> oracle =
      Database::Open(ds.table, Options("full_scan", train, 2));
  FLOOD_CHECK(oracle.ok());
  const flood::BatchResult expected = oracle->RunBatch(queries);
  FLOOD_CHECK(expected.status.ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    const flood::QueryResult& r = expected.results[q];
    if (!(Answer{r.count, r.sum} == first[q])) {
      // Every timed repetition of this query returned the wrong answer.
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
    report->Note("samples read=" + std::to_string(loop.latency.size()) +
                 " per_pass_above_p99=" +
                 std::to_string(loop.latency.MinPassCountAbove(99)) +
                 " setups=" + std::to_string(setup_s.size()));
    report->Note(PassRates(loop.pass_qps));
    return;
  }

  // Traced run: the same loop with a span per TryRun, then isolation
  // passes that drive the same queries into the lower layers.
  Tracer tracer;
  const Loop traced = RunLoop(*db, queries, first, n, &tracer);
  report->Attempt(n);
  report->Fail(traced.errors + traced.mismatches, "traced loop answers");

  QueryStats flood_stats;
  QueryStats scan_stats;
  const flood::MultiDimIndex& index = db->index();
  const flood::MultiDimIndex& full_scan = oracle->index();
  // Each query runs once untimed first, so neither timed call pays the
  // cache misses of the first touch; alternating which layer goes first
  // cancels what order bias remains.
  constexpr size_t kReps = 2;
  for (size_t rep = 0; rep < kReps; ++rep) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const uint64_t request = (uint64_t{1} << 40) + rep * queries.size() + q;
      (void)flood::ExecuteAggregate(index, queries[q], nullptr);
      auto facade = [&] {
        Tracer::Scope span(&tracer, "api.try_run.iso", request);
        (void)db->TryRun(queries[q]);
      };
      auto execute = [&] {
        Tracer::Scope span(&tracer, "core.execute", request);
        QueryStats s;
        (void)flood::ExecuteAggregate(index, queries[q], &s);
        if (rep == 0) flood_stats.Merge(s);
      };
      if ((rep + q) % 2 == 0) {
        facade();
        execute();
      } else {
        execute();
        facade();
      }
    }
  }
  // The scan kernel alone: full_scan over a sixteenth of the same queries.
  for (size_t q = 0; q < queries.size() / 16; ++q) {
    (void)flood::ExecuteAggregate(full_scan, queries[q], nullptr);
    Tracer::Scope span(&tracer, "query.fullscan_execute", q);
    (void)flood::ExecuteAggregate(full_scan, queries[q], &scan_stats);
  }
  tracer.ComputeSelfTimes();

  const double nq = static_cast<double>(queries.size());
  const double it = static_cast<double>(flood_stats.index_ns +
                                        flood_stats.refine_ns);
  const double st = static_cast<double>(flood_stats.scan_ns);
  const double blocks = static_cast<double>(flood_stats.blocks_skipped +
                                            flood_stats.blocks_exact +
                                            flood_stats.simd_blocks);
  report->Metric("core.execute_us", tracer.MedianDurUs("core.execute"), "us");
  report->Metric("core.scan_overhead", flood_stats.ScanOverhead(), "ratio");
  report->Metric("core.ns_per_scanned_point",
                 flood_stats.TimePerScannedPoint(), "ns");
  report->Metric("core.index_time_frac", it / (it + st), "ratio");
  report->Metric("core.cells_per_query", flood_stats.cells_visited / nq,
                 "count");
  report->Metric("core.ranges_per_query", flood_stats.ranges_scanned / nq,
                 "count");
  report->Metric("query.blocks_skipped_frac",
                 flood_stats.blocks_skipped / blocks, "ratio");
  report->Metric("query.blocks_exact_frac", flood_stats.blocks_exact / blocks,
                 "ratio");
  report->Metric("query.simd_blocks_frac", flood_stats.simd_blocks / blocks,
                 "ratio");
  report->Metric("query.fullscan_ns_per_point",
                 static_cast<double>(
                     tracer.TotalDurNs("query.fullscan_execute")) /
                     static_cast<double>(scan_stats.points_scanned),
                 "ns");
  report->Metric("core.index_bytes_per_row",
                 static_cast<double>(db->IndexSizeBytes()) /
                     static_cast<double>(db->base_rows()),
                 "B");
  report->Metric("api.facade_us",
                 tracer.MedianPairedDiffUs("api.try_run.iso", "core.execute"),
                 "us");
  report->Metric("trace.overhead_frac",
                 Median(loop.pass_qps) / Median(traced.pass_qps) - 1.0,
                 "ratio");
  report->Metric("trace.spans", static_cast<double>(tracer.size()), "count");
  tracer.Write(args.out_dir + "/trace.tsv");
}

}  // namespace perfbench
