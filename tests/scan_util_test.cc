#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/rng.h"
#include "query/scan_util.h"
#include "query/visitor.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::DataShape;
using testing::MakeTable;

/// True when the simd kernel's vector paths can actually execute here.
bool SimdAvailable() {
  return simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2;
}

/// The three scan kernels, called by name. ScanRange picks one per call;
/// these tests pin each one.
enum class Kernel { kNaive, kBlock, kSimd };

/// The kernels this host can run: simd only where its vector ISA is
/// active (calling it elsewhere is an illegal instruction).
std::vector<Kernel> RunnableKernels() {
  std::vector<Kernel> kernels{Kernel::kNaive, Kernel::kBlock};
  if (SimdAvailable()) kernels.push_back(Kernel::kSimd);
  return kernels;
}

/// Scans the non-empty range [begin, end) with `kernel`.
template <typename V>
void ScanWith(Kernel kernel, const Table& t, const Query& q, size_t begin,
              size_t end, std::span<const size_t> dims, V& v,
              QueryStats* stats) {
  switch (kernel) {
    case Kernel::kNaive:
      ScanRangeNaive(t, q, begin, end, dims, v, stats);
      return;
    case Kernel::kBlock:
      ScanRangeBlock(t, q, begin, end, dims, v, stats);
      return;
    case Kernel::kSimd:
      ScanRangeSimd(t, q, begin, end, dims, v, stats);
      return;
  }
}

/// Caps the vector ISA for one scope and restores the level that was
/// active before (which may itself be capped by FLOOD_SIMD_LEVEL).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::SimdLevel cap)
      : previous_(simd::ActiveSimdLevel()) {
    simd::SetSimdLevelForTest(cap);
  }
  ~ScopedSimdLevel() { simd::SetSimdLevelForTest(previous_); }

 private:
  simd::SimdLevel previous_;
};

TEST(ScanUtilTest, ExactRangeSkipsChecks) {
  const Table t = MakeTable(DataShape::kUniform, 1000, 2, 1);
  Query q = QueryBuilder(2).Range(0, 0, 10).Build();  // Barely matches.
  CountVisitor v;
  QueryStats stats;
  // Exact overrides the filter: all 1000 rows count.
  ScanRange(t, q, 0, 1000, /*exact=*/true, FilteredDims(q), v, &stats);
  EXPECT_EQ(v.count(), 1000u);
  EXPECT_EQ(stats.points_exact, 1000u);
  EXPECT_EQ(stats.points_scanned, 1000u);
}

TEST(ScanUtilTest, EmptyCheckSetActsExact) {
  const Table t = MakeTable(DataShape::kUniform, 100, 2, 2);
  const Query q(2);
  CountVisitor v;
  QueryStats stats;
  ScanRange(t, q, 10, 60, /*exact=*/false, std::vector<size_t>{}, v,
            &stats);
  EXPECT_EQ(v.count(), 50u);
  EXPECT_EQ(stats.points_exact, 50u);
}

TEST(ScanUtilTest, FilterCheckMatchesBruteForce) {
  const Table t = MakeTable(DataShape::kClustered, 9000, 3, 3);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Query q = testing::RandomQuery(t, 100 + seed);
    CountVisitor v;
    QueryStats stats;
    ScanRange(t, q, 0, t.num_rows(), false, FilteredDims(q), v, &stats);
    EXPECT_EQ(v.count(), testing::BruteForce(t, q, 0).count);
    EXPECT_EQ(stats.points_matched, v.count());
  }
}

TEST(ScanUtilTest, BoundaryAlignmentBothKernels) {
  // Ranges crossing block (128) and 64-bit word boundaries.
  std::vector<Value> col(6000);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<Value>(i);
  StatusOr<Table> t = Table::FromColumns({col});
  ASSERT_TRUE(t.ok());
  Query q = QueryBuilder(1).Range(0, 100, 4999).Build();
  const std::vector<size_t> dims{0};
  for (auto [begin, end] : std::vector<std::pair<size_t, size_t>>{
           {0, 6000}, {1, 2049}, {2047, 2049}, {63, 65}, {2048, 4096},
           {127, 129}, {128, 256}, {5999, 6000}, {0, 1}, {100, 100}}) {
    uint64_t expected = 0;
    for (size_t i = begin; i < end; ++i) {
      if (col[i] >= 100 && col[i] <= 4999) ++expected;
    }
    CountVisitor dispatched;
    ScanRange(*t, q, begin, end, false, dims, dispatched, nullptr);
    EXPECT_EQ(dispatched.count(), expected) << begin << ".." << end;
    if (begin == end) continue;  // The kernels take non-empty ranges.
    for (Kernel kernel : RunnableKernels()) {
      CountVisitor v;
      ScanWith(kernel, *t, q, begin, end, dims, v, nullptr);
      EXPECT_EQ(v.count(), expected)
          << static_cast<int>(kernel) << " " << begin << ".." << end;
    }
  }
}

TEST(ScanUtilTest, MultiDimChecksAndCombine) {
  StatusOr<Table> t = Table::FromColumns({{1, 2, 3, 4}, {10, 20, 30, 40}});
  ASSERT_TRUE(t.ok());
  Query q = QueryBuilder(2).Range(0, 2, 4).Range(1, 10, 30).Build();
  CollectVisitor v;
  const std::vector<size_t> dims{0, 1};
  ScanRange(*t, q, 0, 4, false, dims, v, nullptr);
  // Rows 1 (2,20) and 2 (3,30) match.
  ASSERT_EQ(v.rows().size(), 2u);
  EXPECT_EQ(v.rows()[0], 1u);
  EXPECT_EQ(v.rows()[1], 2u);
}

TEST(ScanUtilTest, FilteredDimsListsOnlyFiltered) {
  Query q = QueryBuilder(4).Range(1, 0, 5).Equals(3, 2).Build();
  const std::vector<size_t> dims = FilteredDims(q);
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[0], 1u);
  EXPECT_EQ(dims[1], 3u);
}

// ---------------------------------------------------------------------------
// Block / simd kernels vs naive reference equivalence.
// ---------------------------------------------------------------------------

/// A column whose every full block has exactly `w` delta bits: the first
/// element pins the block minimum, the second pins the maximum delta, the
/// rest are uniform within the span. Block bases differ so zone maps have
/// distinct ranges.
std::vector<Value> WidthControlledColumn(uint32_t w, size_t n, Rng& rng) {
  constexpr size_t kB = Column::kBlockSize;
  std::vector<Value> v(n);
  for (size_t begin = 0; begin < n; begin += kB) {
    const size_t end = std::min(n, begin + kB);
    const size_t block = begin / kB;
    Value base;
    uint64_t mask;
    if (w >= 64) {
      base = kValueMin;
      mask = ~uint64_t{0};
    } else {
      base = static_cast<Value>(block) * 1'000'000;
      mask = w == 0 ? 0 : (uint64_t{1} << w) - 1;
    }
    for (size_t i = begin; i < end; ++i) {
      uint64_t delta = rng.Next() & mask;
      if (i == begin) {
        delta = 0;
      } else if (i == begin + 1) {
        delta = mask;
      }
      v[i] = static_cast<Value>(static_cast<uint64_t>(base) + delta);
    }
  }
  return v;
}

/// One kernel's observable scan output: matched rows, COUNT, SUM, stats.
struct KernelRun {
  std::vector<RowId> rows;
  uint64_t count = 0;
  int64_t sum = 0;
  QueryStats stats;
};

/// Runs `scan(visitor, stats)` -- one kernel called by name, or
/// ScanRange's own pick -- with the collect, count and sum visitors.
template <typename Scan>
KernelRun RunKernel(const Table& t, Scan scan) {
  KernelRun run;
  CollectVisitor collect;
  scan(collect, &run.stats);
  run.rows = collect.rows();
  CountVisitor count;
  scan(count, nullptr);
  run.count = count.count();
  SumVisitor sum(&t.column(0));
  scan(sum, nullptr);
  run.sum = sum.sum();
  return run;
}

/// Runs all three kernels over the same non-empty range and asserts the
/// block and simd kernels are bit-identical to the naive reference: same
/// matched rows, counts, sums, and point counters. The simd kernel must
/// also reproduce the block kernel's zone-map outcomes exactly, and
/// ScanRange must return what the kernel it picks returns.
void ExpectKernelsAgree(const Table& t, const Query& q, size_t begin,
                        size_t end, std::span<const size_t> dims) {
  const auto run_kernel = [&](Kernel kernel) {
    return RunKernel(t, [&](auto& v, QueryStats* stats) {
      ScanWith(kernel, t, q, begin, end, dims, v, stats);
    });
  };
  const KernelRun naive = run_kernel(Kernel::kNaive);
  EXPECT_EQ(naive.stats.blocks_skipped, 0u);
  EXPECT_EQ(naive.stats.blocks_exact, 0u);
  EXPECT_EQ(naive.stats.simd_blocks, 0u);
  const KernelRun block = run_kernel(Kernel::kBlock);
  // Without an active AVX2 tier the simd kernel cannot run; the block
  // kernel stands in, as it does in ScanRange's pick.
  const KernelRun simd = SimdAvailable() ? run_kernel(Kernel::kSimd) : block;
  const KernelRun dispatched =
      RunKernel(t, [&](auto& v, QueryStats* stats) {
        ScanRange(t, q, begin, end, false, dims, v, stats);
      });
  const std::pair<const char*, const KernelRun*> runs[] = {
      {"block", &block}, {"simd", &simd}, {"ScanRange", &dispatched}};
  for (const auto& [name, run_ptr] : runs) {
    SCOPED_TRACE(name);
    const KernelRun& run = *run_ptr;
    ASSERT_EQ(naive.rows, run.rows);
    EXPECT_EQ(naive.count, run.count);
    EXPECT_EQ(naive.sum, run.sum);
    EXPECT_EQ(naive.stats.points_matched, run.stats.points_matched);
    EXPECT_EQ(naive.stats.points_exact, run.stats.points_exact);
  }
  // The kernels leave the range-level counters to ScanRange.
  for (const KernelRun* kernel_run : {&naive, &block, &simd}) {
    EXPECT_EQ(kernel_run->stats.points_scanned, 0u);
    EXPECT_EQ(kernel_run->stats.ranges_scanned, 0u);
  }
  EXPECT_EQ(dispatched.stats.points_scanned, end - begin);
  EXPECT_EQ(dispatched.stats.ranges_scanned, 1u);
  // Zone-map outcomes must not depend on the (block vs simd) filter
  // implementation; only the simd kernel counts vector-filtered blocks.
  EXPECT_EQ(block.stats.blocks_skipped, simd.stats.blocks_skipped);
  EXPECT_EQ(block.stats.blocks_exact, simd.stats.blocks_exact);
  EXPECT_EQ(block.stats.simd_blocks, 0u);
  if (SimdAvailable()) {
    // Every zone-surviving block that needed filtering went through the
    // vector path.
    const size_t blocks = (end - 1) / Column::kBlockSize -
                          begin / Column::kBlockSize + 1;
    EXPECT_EQ(simd.stats.simd_blocks,
              blocks - simd.stats.blocks_skipped - simd.stats.blocks_exact);
  }
  const KernelRun& picked = end - begin < 32 ? naive : simd;
  EXPECT_EQ(dispatched.stats.blocks_skipped, picked.stats.blocks_skipped);
  EXPECT_EQ(dispatched.stats.blocks_exact, picked.stats.blocks_exact);
  EXPECT_EQ(dispatched.stats.simd_blocks, picked.stats.simd_blocks);
}

TEST(ScanKernelEquivalenceTest, AllBitWidthsBothEncodings) {
  constexpr size_t kB = Column::kBlockSize;
  const size_t n = 5 * kB + 37;  // Trailing partial block.
  for (uint32_t w = 0; w <= 64; ++w) {
    Rng rng(1000 + w);
    std::vector<Value> c0 = WidthControlledColumn(w, n, rng);
    std::vector<Value> c1 = WidthControlledColumn(w / 2, n, rng);
    // Ranges spanning roughly half of each column's value span.
    std::vector<Value> sorted = c0;
    std::sort(sorted.begin(), sorted.end());
    const Value lo = sorted[n / 4];
    const Value hi = sorted[3 * n / 4];
    std::vector<Value> sorted1 = c1;
    std::sort(sorted1.begin(), sorted1.end());
    for (Column::Encoding enc :
         {Column::Encoding::kPlain, Column::Encoding::kBlockDelta}) {
      StatusOr<Table> t = Table::FromColumns({c0, c1}, enc);
      ASSERT_TRUE(t.ok());
      const Query q = QueryBuilder(2)
                          .Range(0, lo, hi)
                          .Range(1, sorted1[n / 10], sorted1[9 * n / 10])
                          .Build();
      const std::vector<size_t> dims = FilteredDims(q);
      // Full range, block-straddling sub-ranges, and intra-block ranges.
      for (auto [begin, end] : std::vector<std::pair<size_t, size_t>>{
               {0, n}, {1, n - 1}, {kB - 1, kB + 1}, {kB / 2, 3 * kB + 5},
               {2 * kB, 3 * kB}, {n - 5, n}}) {
        SCOPED_TRACE("width=" + std::to_string(w) + " range=" +
                     std::to_string(begin) + ".." + std::to_string(end));
        ExpectKernelsAgree(*t, q, begin, end, dims);
      }
    }
  }
}

TEST(ScanKernelEquivalenceTest, RandomQueriesOnShapedData) {
  for (DataShape shape : {DataShape::kUniform, DataShape::kClustered,
                          DataShape::kDuplicates, DataShape::kCorrelated}) {
    const Table t = MakeTable(shape, 3000, 3, 7);
    for (uint64_t seed = 0; seed < 8; ++seed) {
      const Query q = testing::RandomQuery(t, 400 + seed);
      const std::vector<size_t> dims = FilteredDims(q);
      if (dims.empty()) continue;
      ExpectKernelsAgree(t, q, 0, t.num_rows(), dims);
      ExpectKernelsAgree(t, q, 17, t.num_rows() - 211, dims);
    }
  }
}

TEST(ScanKernelTest, ZoneMapSkipAndExactCounters) {
  // Sorted column: each 128-block covers a distinct narrow range.
  std::vector<Value> col(1280);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<Value>(i);
  StatusOr<Table> t =
      Table::FromColumns({col}, Column::Encoding::kBlockDelta);
  ASSERT_TRUE(t.ok());
  const Query q = QueryBuilder(1).Range(0, 256, 800).Build();
  const std::vector<size_t> dims{0};

  {
    CountVisitor v;
    QueryStats stats;
    ScanWith(Kernel::kBlock, *t, q, 0, 1280, dims, v, &stats);
    EXPECT_EQ(v.count(), 545u);  // 256..800 inclusive.
    // Blocks 0-1 and 7-9 are disjoint with [256, 800]; blocks 2-5 are
    // fully contained; block 6 (768..895) needs decoding.
    EXPECT_EQ(stats.blocks_skipped, 5u);
    EXPECT_EQ(stats.blocks_exact, 4u);
    EXPECT_EQ(stats.points_matched, 545u);
  }
  {
    // Clipped scan range: zone maps still apply to partial blocks.
    CountVisitor v;
    QueryStats stats;
    ScanWith(Kernel::kBlock, *t, q, 300, 900, dims, v, &stats);
    EXPECT_EQ(v.count(), 501u);  // 300..800 inclusive.
    EXPECT_EQ(stats.blocks_skipped, 1u);  // Clipped block 7 (896..899).
    EXPECT_EQ(stats.blocks_exact, 4u);    // Blocks 2-5 (clipped block 2).
  }
  {
    // The naive kernel never touches the block counters.
    CountVisitor v;
    QueryStats stats;
    ScanWith(Kernel::kNaive, *t, q, 0, 1280, dims, v, &stats);
    EXPECT_EQ(v.count(), 545u);
    EXPECT_EQ(stats.blocks_skipped, 0u);
    EXPECT_EQ(stats.blocks_exact, 0u);
  }
  if (SimdAvailable()) {
    // The simd kernel reproduces the zone-map outcomes and counts the one
    // block (6: rows 768..895) that needed vector filtering.
    CountVisitor v;
    QueryStats stats;
    ScanWith(Kernel::kSimd, *t, q, 0, 1280, dims, v, &stats);
    EXPECT_EQ(v.count(), 545u);
    EXPECT_EQ(stats.blocks_skipped, 5u);
    EXPECT_EQ(stats.blocks_exact, 4u);
    EXPECT_EQ(stats.simd_blocks, 1u);
  }
}

TEST(ScanKernelTest, SimdDispatchFallsBackWhenIsaMasked) {
  // With the vector ISA masked off, ScanRange must pick the scalar block
  // kernel at call time: identical results and zone-map counters, and no
  // block ever counted as vector-filtered.
  const Table t = MakeTable(DataShape::kClustered, 4096, 3, 11);
  const Query q = testing::RandomQuery(t, 77);
  const std::vector<size_t> dims = FilteredDims(q);
  ASSERT_FALSE(dims.empty());

  CollectVisitor unmasked;
  QueryStats unmasked_stats;
  ScanRange(t, q, 0, t.num_rows(), false, dims, unmasked, &unmasked_stats);

  CollectVisitor masked;
  QueryStats masked_stats;
  {
    ScopedSimdLevel scalar(simd::SimdLevel::kScalar);
    ASSERT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
    ScanRange(t, q, 0, t.num_rows(), false, dims, masked, &masked_stats);
  }

  EXPECT_EQ(unmasked.rows(), masked.rows());
  EXPECT_EQ(unmasked_stats.points_matched, masked_stats.points_matched);
  EXPECT_EQ(unmasked_stats.blocks_skipped, masked_stats.blocks_skipped);
  EXPECT_EQ(unmasked_stats.blocks_exact, masked_stats.blocks_exact);
  EXPECT_EQ(masked_stats.simd_blocks, 0u);
  // The cap only masks: it can never exceed what cpuid detected.
  ScopedSimdLevel widest(simd::SimdLevel::kAvx512);
  EXPECT_LE(simd::ActiveSimdLevel(), simd::DetectedSimdLevel());
}

TEST(ScanKernelTest, RangeAndIsaPickTheKernel) {
  // ScanRange's selection rules, pinned by comparing its output and
  // counters with the kernel each case must pick. On the sorted key,
  // blocks 0-1 and 7-9 are disjoint with [256, 800], blocks 2-5 lie
  // inside it, and block 6 (768..895) straddles its top.
  std::vector<Value> key(1280);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<Value>(i);
  StatusOr<Table> sorted =
      Table::FromColumns({key}, Column::Encoding::kBlockDelta);
  ASSERT_TRUE(sorted.ok());
  const Query key_q = QueryBuilder(1).Range(0, 256, 800).Build();
  // 65 check dims: one more than the block kernels' scratch holds.
  const Table wide = MakeTable(DataShape::kUniform, 2000, 65, 21);
  QueryBuilder wide_builder(65);
  for (size_t d = 0; d < 65; ++d) wide_builder.Range(d, 0, 990'000);
  const Query wide_q = wide_builder.Build();

  const simd::SimdLevel active = simd::ActiveSimdLevel();
  const Kernel isa_pick = SimdAvailable() ? Kernel::kSimd : Kernel::kBlock;
  const struct {
    const char* name;
    const Table* table;
    const Query* query;
    size_t begin;
    size_t end;
    simd::SimdLevel cap;
    Kernel expected;
  } cases[] = {
      // 31 rows inside block 2, which a block kernel counts as exact.
      {"under 32 rows", &*sorted, &key_q, 300, 331, active, Kernel::kNaive},
      {"65 check dims", &wide, &wide_q, 0, 2000, active, Kernel::kNaive},
      {"active ISA", &*sorted, &key_q, 0, 1280, active, isa_pick},
      {"ISA capped to scalar", &*sorted, &key_q, 0, 1280,
       simd::SimdLevel::kScalar, Kernel::kBlock},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ScopedSimdLevel level(c.cap);
    const std::vector<size_t> dims = FilteredDims(*c.query);
    CollectVisitor got;
    QueryStats got_stats;
    ScanRange(*c.table, *c.query, c.begin, c.end, false, dims, got,
              &got_stats);
    CollectVisitor want;
    QueryStats want_stats;
    ScanWith(c.expected, *c.table, *c.query, c.begin, c.end, dims, want,
             &want_stats);

    uint64_t oracle = 0;
    for (size_t row = c.begin; row < c.end; ++row) {
      if (c.query->Matches(*c.table, static_cast<RowId>(row))) ++oracle;
    }
    EXPECT_EQ(got.rows().size(), oracle);
    EXPECT_EQ(got.rows(), want.rows());
    EXPECT_EQ(got_stats.points_scanned, c.end - c.begin);
    EXPECT_EQ(got_stats.ranges_scanned, 1u);
    EXPECT_EQ(got_stats.points_matched, want_stats.points_matched);
    EXPECT_EQ(got_stats.blocks_skipped, want_stats.blocks_skipped);
    EXPECT_EQ(got_stats.blocks_exact, want_stats.blocks_exact);
    EXPECT_EQ(got_stats.simd_blocks, want_stats.simd_blocks);
    switch (c.expected) {
      case Kernel::kNaive:
        EXPECT_EQ(got_stats.blocks_skipped + got_stats.blocks_exact, 0u);
        EXPECT_EQ(got_stats.simd_blocks, 0u);
        break;
      case Kernel::kBlock:
        EXPECT_EQ(got_stats.blocks_skipped, 5u);
        EXPECT_EQ(got_stats.blocks_exact, 4u);
        EXPECT_EQ(got_stats.simd_blocks, 0u);
        break;
      case Kernel::kSimd:
        EXPECT_GT(got_stats.simd_blocks, 0u);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// Visitor word-level contract.
// ---------------------------------------------------------------------------

TEST(VisitorTest, SumVisitorUsesPrefixSumsForExactRanges) {
  std::vector<Value> col{5, 10, 15, 20, 25};
  const Column column = Column::FromValues(col);
  const PrefixSums sums(col);
  SumVisitor with(&column);
  with.set_prefix_sums(&sums);
  with.VisitExactRange(1, 4);
  EXPECT_EQ(with.sum(), 45);
  SumVisitor without(&column);
  without.VisitExactRange(1, 4);
  EXPECT_EQ(without.sum(), 45);
  without.VisitRow(0);
  EXPECT_EQ(without.sum(), 50);
}

TEST(VisitorTest, CountVisitorPopcountsMatchWords) {
  CountVisitor v;
  v.VisitMatchWord(0, 0b1011);
  v.VisitMatchWord(64, ~uint64_t{0});
  EXPECT_EQ(v.count(), 67u);
}

TEST(VisitorTest, SumVisitorFullWordUsesPrefixSums) {
  std::vector<Value> col(128);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<Value>(i);
  const Column column = Column::FromValues(col);
  const PrefixSums sums(col);
  SumVisitor v(&column);
  v.set_prefix_sums(&sums);
  v.VisitMatchWord(0, ~uint64_t{0});  // Rows 0..63 -> prefix-sum path.
  EXPECT_EQ(v.sum(), 63 * 64 / 2);
  v.VisitMatchWord(64, 0b101);  // Rows 64 and 66 -> per-bit path.
  EXPECT_EQ(v.sum(), 63 * 64 / 2 + 64 + 66);
}

TEST(VisitorTest, CollectVisitorExpandsMatchWordsInOrder) {
  CollectVisitor v;
  v.VisitMatchWord(128, (uint64_t{1} << 5) | (uint64_t{1} << 63));
  ASSERT_EQ(v.rows().size(), 2u);
  EXPECT_EQ(v.rows()[0], 133u);
  EXPECT_EQ(v.rows()[1], 191u);
}

TEST(VisitorTest, CountVisitorPopcountsMatchBitmaps) {
  CountVisitor v;
  // Zero words may appear inside a bitmap (unlike VisitMatchWord).
  const uint64_t bitmap[2] = {0, 0b1011};
  v.VisitMatchBitmap(0, 128, bitmap);
  EXPECT_EQ(v.count(), 3u);
  const uint64_t partial[1] = {0x7f};
  v.VisitMatchBitmap(128, 7, partial);
  EXPECT_EQ(v.count(), 10u);
}

TEST(VisitorTest, SumVisitorBitmapMatchesPerWordPath) {
  // The vectorized bitmap reduction must agree with the per-word contract
  // for every delivery shape: full words (prefix-sum path), partial words
  // (masked vector sum), zero words, and clipped / unaligned ranges that
  // force the fallback.
  std::vector<Value> col(256);
  Rng rng(99);
  for (auto& v : col) v = static_cast<Value>(rng.Next() % 100000) - 50000;
  const Column column = Column::FromValues(col);
  const PrefixSums sums(col);
  const uint64_t bitmap[2] = {~uint64_t{0}, 0xdeadbeefcafe1234ull};
  const struct {
    RowId begin;
    size_t n;
  } cases[] = {{0, 128}, {128, 128}, {128, 100}, {64, 128}, {3, 70}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.begin) + "+" + std::to_string(c.n));
    uint64_t clipped[2];
    clipped[0] = bitmap[0];
    clipped[1] = c.n > 64 ? bitmap[1] : 0;
    if (c.n % 64 != 0) {
      clipped[(c.n - 1) / 64] &= (uint64_t{1} << (c.n % 64)) - 1;
    }
    SumVisitor vectorized(&column);
    vectorized.set_prefix_sums(&sums);
    vectorized.VisitMatchBitmap(c.begin, c.n, clipped);
    SumVisitor reference(&column);
    reference.Visitor::VisitMatchBitmap(c.begin, c.n, clipped);
    EXPECT_EQ(vectorized.sum(), reference.sum());
  }
}

TEST(VisitorTest, KindsReported) {
  const Column c = Column::FromValues({1});
  EXPECT_EQ(CountVisitor().kind(), Visitor::Kind::kCount);
  EXPECT_EQ(SumVisitor(&c).kind(), Visitor::Kind::kSum);
  EXPECT_EQ(CollectVisitor().kind(), Visitor::Kind::kCollect);
}

}  // namespace
}  // namespace flood
