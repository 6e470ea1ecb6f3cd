// Scan-kernel micro-benchmark: naive row-at-a-time vs scalar block-decoded
// vs SIMD (AVX2/AVX-512 runtime-dispatched) kernels with zone-map pruning
// (query/scan_util.h), reported as rows/s over block-delta-compressed
// columns.
//
// Scenarios: a mid-selectivity 2-dim range filter over each standard
// dataset (zone maps help only incidentally — this measures the decode +
// predicate-evaluation win, the simd kernel's target regime), plus a
// "sorted" table filtered on its sort key (zone maps skip or exact-accept
// nearly every block, so all kernels converge).
//
// Each kernel is called by name. Block rows carry speedup_vs_naive, and
// simd rows carry speedup_vs_block (the regression-gated >=2x headline).
// On a host without AVX2 (or with FLOOD_SIMD_LEVEL=scalar) the simd rows
// measure the block kernel, the path ScanRange takes there.
// FLOOD_BENCH_SCAN_SECONDS tunes the per-cell measurement budget
// (default 0.3).

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_main.h"
#include "query/scan_util.h"
#include "query/visitor.h"

namespace flood {
namespace bench {
namespace {

double MeasureSeconds() {
  const char* env = std::getenv("FLOOD_BENCH_SCAN_SECONDS");
  if (env == nullptr) return 0.3;
  const double v = std::atof(env);
  return v > 0 ? v : 0.3;
}

/// A scan kernel instantiated for COUNT.
using KernelFn = void (*)(const Table&, const Query&, size_t, size_t,
                          std::span<const size_t>, CountVisitor&,
                          QueryStats*);

struct Scenario {
  std::string name;
  const Table* table;
  Query query;
};

/// A range over the middle `frac` of a dimension's value span.
ValueRange MidBand(const Table& t, size_t dim, double frac) {
  const double mn = static_cast<double>(t.min_value(dim));
  const double mx = static_cast<double>(t.max_value(dim));
  const double mid = (mn + mx) / 2;
  const double half = (mx - mn) * frac / 2;
  return {static_cast<Value>(mid - half), static_cast<Value>(mid + half)};
}

struct KernelResult {
  double rows_per_s = 0;
  double ms_per_pass = 0;
  uint64_t matched = 0;
  double blocks_skipped = 0;  ///< Per pass.
  double blocks_exact = 0;    ///< Per pass.
  double simd_blocks = 0;     ///< Per pass (simd kernel only).
};

KernelResult Measure(const Scenario& s, KernelFn kernel) {
  const std::vector<size_t> dims = FilteredDims(s.query);
  const size_t n = s.table->num_rows();
  {
    // Warm-up pass (page in the encoded words).
    CountVisitor v;
    kernel(*s.table, s.query, 0, n, dims, v, nullptr);
  }
  const int64_t budget_ns =
      static_cast<int64_t>(MeasureSeconds() * 1e9);
  KernelResult r;
  QueryStats stats;
  size_t passes = 0;
  uint64_t matched = 0;
  const Stopwatch sw;
  do {
    CountVisitor v;
    kernel(*s.table, s.query, 0, n, dims, v, &stats);
    matched = v.count();
    ++passes;
  } while (sw.ElapsedNanos() < budget_ns);
  const double seconds = static_cast<double>(sw.ElapsedNanos()) / 1e9;
  const double rows =
      static_cast<double>(passes) * static_cast<double>(n);
  r.rows_per_s = rows / seconds;
  r.ms_per_pass = seconds * 1000.0 / static_cast<double>(passes);
  r.matched = matched;
  r.blocks_skipped = static_cast<double>(stats.blocks_skipped) /
                     static_cast<double>(passes);
  r.blocks_exact = static_cast<double>(stats.blocks_exact) /
                   static_cast<double>(passes);
  r.simd_blocks = static_cast<double>(stats.simd_blocks) /
                  static_cast<double>(passes);
  return r;
}

std::vector<BenchRow> RunScanKernelBench() {
  std::vector<Scenario> scenarios;
  for (const std::string& name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(name);
    Query q(ds.table.num_dims());
    // Mid-selectivity filters on the first two dimensions: most blocks
    // survive the zone maps, so the decode path dominates.
    const ValueRange r0 = MidBand(ds.table, 0, 0.5);
    const ValueRange r1 = MidBand(ds.table, 1, 0.6);
    q.SetRange(0, r0.lo, r0.hi);
    q.SetRange(1, r1.lo, r1.hi);
    scenarios.push_back({name, &ds.table, q});
  }
  // Zone-map showcase: a table sorted on dim 0, filtered to a 10% band of
  // the sort key — nearly every block is skipped or exact-accepted.
  static const Table* sorted_table = [] {
    const size_t n = ScaledRows(400'000);
    Rng rng(777);
    std::vector<Value> key(n);
    for (size_t i = 0; i < n; ++i) key[i] = static_cast<Value>(i);
    std::vector<Value> payload(n);
    for (auto& v : payload) v = rng.UniformInt(0, 1'000'000);
    StatusOr<Table> t = Table::FromColumns(
        {std::move(key), std::move(payload)},
        Column::Encoding::kBlockDelta);
    FLOOD_CHECK(t.ok());
    return new Table(std::move(*t));
  }();
  {
    const size_t n = sorted_table->num_rows();
    Query q(2);
    q.SetRange(0, static_cast<Value>(n / 2),
               static_cast<Value>(n / 2 + n / 10));
    scenarios.push_back({"sorted_zonemap", sorted_table, q});
  }

  const bool has_simd = simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2;
  const KernelFn simd_kernel = has_simd ? &ScanRangeSimd<CountVisitor>
                                        : &ScanRangeBlock<CountVisitor>;
  std::vector<BenchRow> rows;
  std::vector<std::vector<std::string>> table_out;
  for (const Scenario& s : scenarios) {
    const KernelResult naive = Measure(s, &ScanRangeNaive<CountVisitor>);
    const KernelResult block = Measure(s, &ScanRangeBlock<CountVisitor>);
    const KernelResult simd = Measure(s, simd_kernel);
    const auto add_row = [&](const char* kernel,
                             const KernelResult& r) -> BenchRow& {
      BenchRow& row = rows.emplace_back();
      row.name = "ScanKernel/" + s.name + "/" + kernel;
      row.ms = r.ms_per_pass;
      row.counters = {
          {"rows_per_s", r.rows_per_s},
          {"blocks_skipped", r.blocks_skipped},
          {"blocks_exact", r.blocks_exact},
      };
      return row;
    };
    add_row("naive", naive);
    add_row("block", block).counters.push_back(
        {"speedup_vs_naive", block.rows_per_s / naive.rows_per_s});
    std::vector<std::pair<std::string, double>>& simd_counters =
        add_row("simd", simd).counters;
    simd_counters.push_back(
        {"speedup_vs_naive", simd.rows_per_s / naive.rows_per_s});
    simd_counters.push_back({"simd_blocks", simd.simd_blocks});
    simd_counters.push_back(
        {"speedup_vs_block", simd.rows_per_s / block.rows_per_s});
    table_out.push_back(
        {s.name, Format(naive.rows_per_s / 1e6),
         Format(block.rows_per_s / 1e6), Format(simd.rows_per_s / 1e6),
         Format(simd.rows_per_s / block.rows_per_s) + "x",
         Format(simd.blocks_skipped, 0), Format(simd.blocks_exact, 0),
         std::to_string(simd.matched)});
  }
  PrintTable("Scan kernel: naive vs block vs simd + zone maps "
             "(rows/s, higher is better)",
             {"scenario", "naive Mrows/s", "block Mrows/s", "simd Mrows/s",
              "simd/block", "blk skipped", "blk exact", "matched"},
             table_out);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::RunScanKernelBench);
