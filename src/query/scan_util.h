#ifndef FLOOD_QUERY_SCAN_UTIL_H_
#define FLOOD_QUERY_SCAN_UTIL_H_

#include <span>
#include <vector>

#include "query/query.h"
#include "query/query_stats.h"
#include "query/simd.h"
#include "storage/table.h"

namespace flood {

/// Initializes `bitmap` to all-ones over the first `n` row slots — the
/// shared masked epilogue: the final partial word keeps only its low
/// n % 64 bits, so bits past the scanned range can never leak into a
/// visitor. Returns the word count. Every kernel (and every
/// DecodeBlockInto caller that filters a clipped or trailing partial
/// block) initializes through here rather than duplicating the tail
/// masking.
inline size_t InitMatchBitmap(uint64_t* bitmap, size_t n) {
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) bitmap[w] = ~uint64_t{0};
  if (n % 64 != 0) {
    bitmap[words - 1] = (uint64_t{1} << (n % 64)) - 1;
  }
  return words;
}

/// Zone-map verdict for one block: reject whole, accept whole, or filter
/// the dimensions a zone map could neither reject nor fully accept
/// (written to `pending`, capacity >= check_dims.size()).
enum class BlockZoneOutcome { kSkip, kExact, kFilter };

inline BlockZoneOutcome ClassifyBlockZones(
    const Table& data, const Query& query,
    std::span<const size_t> check_dims, size_t b, size_t* pending,
    size_t* num_pending) {
  size_t np = 0;
  for (size_t dim : check_dims) {
    const ValueRange& r = query.range(dim);
    const Column& col = data.column(dim);
    const Value bmin = col.BlockMin(b);
    const Value bmax = col.BlockMax(b);
    if (r.hi < bmin || r.lo > bmax) return BlockZoneOutcome::kSkip;
    if (r.lo > bmin || bmax > r.hi) pending[np++] = dim;
  }
  *num_pending = np;
  return np == 0 ? BlockZoneOutcome::kExact : BlockZoneOutcome::kFilter;
}

/// The original row-at-a-time scan: evaluate one predicate column at a
/// time over a match bitmap, paying a per-value lambda call, div/mod, and
/// bit extraction. ScanRange's pick for ranges too short to amortize a
/// block decode and for more check dims than the block kernels' scratch
/// holds; also the tests' reference for the block kernels.
template <typename V>
void ScanRangeNaive(const Table& data, const Query& query, size_t begin,
                    size_t end, std::span<const size_t> check_dims,
                    V& visitor, QueryStats* stats) {
  constexpr size_t kChunk = 2048;
  uint64_t bitmap[kChunk / 64];
  size_t matched = 0;
  for (size_t chunk_begin = begin; chunk_begin < end;
       chunk_begin += kChunk) {
    const size_t chunk_end = std::min(end, chunk_begin + kChunk);
    const size_t chunk_n = chunk_end - chunk_begin;
    const size_t words = InitMatchBitmap(bitmap, chunk_n);

    for (size_t dim : check_dims) {
      const ValueRange& r = query.range(dim);
      const Column& col = data.column(dim);
      col.ForEach(chunk_begin, chunk_end,
                  [&](size_t i, Value v) {
                    if (!r.Contains(v)) {
                      const size_t off = i - chunk_begin;
                      bitmap[off / 64] &= ~(uint64_t{1} << (off % 64));
                    }
                  });
    }

    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = bitmap[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        visitor.VisitRow(static_cast<RowId>(chunk_begin + w * 64 +
                                            static_cast<size_t>(b)));
        ++matched;
      }
    }
  }
  if (stats != nullptr) stats->points_matched += matched;
}

/// Block-at-a-time scan kernel (the §7.1-style fast path). Per
/// Column::kBlockSize block it first consults the per-block zone maps of
/// every check dimension:
///  * some dimension's query range is disjoint with the block range ->
///    the whole block is rejected without decoding (blocks_skipped);
///  * every dimension's block range is contained in its query range ->
///    the block matches entirely, delivered as an exact range so
///    cumulative aggregates apply (blocks_exact);
///  * otherwise the surviving dimensions are bulk-decoded once
///    (width-specialized branch-free unpacking) and the range predicate
///    is evaluated branchlessly into a match bitmap, delivered word-wise
///    through V::VisitMatchWord.
template <typename V>
void ScanRangeBlock(const Table& data, const Query& query, size_t begin,
                    size_t end, std::span<const size_t> check_dims,
                    V& visitor, QueryStats* stats) {
  constexpr size_t kBlock = Column::kBlockSize;
  static_assert(kBlock % 64 == 0);
  constexpr size_t kWords = kBlock / 64;
  Value buf[kBlock];
  uint64_t bitmap[kWords];
  // Dimensions a zone map could neither reject nor fully accept.
  constexpr size_t kMaxDims = 64;
  size_t pending[kMaxDims];
  FLOOD_DCHECK(check_dims.size() <= kMaxDims);

  size_t matched = 0;
  uint64_t blocks_skipped = 0;
  uint64_t blocks_exact = 0;
  const size_t first_block = begin / kBlock;
  const size_t last_block = (end - 1) / kBlock;
  for (size_t b = first_block; b <= last_block; ++b) {
    const size_t block_begin = b * kBlock;
    const size_t lo = std::max(begin, block_begin);
    const size_t hi = std::min(end, block_begin + kBlock);
    const size_t n = hi - lo;

    // Zone-map pass. Zone maps cover the full block, so they are a (safe)
    // superset of [lo, hi) when the scan range clips the block.
    size_t num_pending = 0;
    const BlockZoneOutcome outcome = ClassifyBlockZones(
        data, query, check_dims, b, pending, &num_pending);
    if (outcome == BlockZoneOutcome::kSkip) {
      ++blocks_skipped;
      continue;
    }
    if (outcome == BlockZoneOutcome::kExact) {
      ++blocks_exact;
      matched += n;
      visitor.VisitExactRange(static_cast<RowId>(lo),
                              static_cast<RowId>(hi));
      continue;
    }

    const size_t words = InitMatchBitmap(bitmap, n);
    for (size_t p = 0; p < num_pending; ++p) {
      const size_t dim = pending[p];
      const ValueRange& r = query.range(dim);
      data.column(dim).DecodeBlockInto(b, buf);
      const Value* vals = buf + (lo - block_begin);
      uint64_t any = 0;
      for (size_t w = 0; w < words; ++w) {
        const size_t base = w * 64;
        const size_t cnt = std::min<size_t>(64, n - base);
        uint64_t m = 0;
        for (size_t i = 0; i < cnt; ++i) {
          const Value v = vals[base + i];
          m |= static_cast<uint64_t>((v >= r.lo) & (v <= r.hi)) << i;
        }
        bitmap[w] &= m;
        any |= bitmap[w];
      }
      if (any == 0) break;  // Nothing left for later dimensions to narrow.
    }

    for (size_t w = 0; w < words; ++w) {
      if (bitmap[w] == 0) continue;
      matched += static_cast<size_t>(__builtin_popcountll(bitmap[w]));
      visitor.VisitMatchWord(static_cast<RowId>(lo + w * 64), bitmap[w]);
    }
  }
  if (stats != nullptr) {
    stats->points_matched += matched;
    stats->blocks_skipped += blocks_skipped;
    stats->blocks_exact += blocks_exact;
  }
}

/// Vectorized block scan kernel. Same zone-map structure as
/// ScanRangeBlock — per block, skip / exact-accept / filter — but the
/// filter stage runs runtime-dispatched vector predicates:
///  * widths 1..simd::kMaxPackedFilterWidth under kBlockDelta are filtered
///    straight off the packed words (no decode store/reload): each AVX2
///    lane loads the byte-aligned 64-bit window holding its delta, shifts,
///    masks, and compares against the query bounds translated into delta
///    space;
///  * wider blocks and kPlain columns are bulk-decoded once and compared
///    4 (AVX2) or 8 (AVX-512) lanes at a time.
/// Check dimensions AND-combine into the match bitmap with an all-zero
/// early-out, and the packed bytes of the *next* zone-map-surviving block
/// are software-prefetched while the current one filters (forward-peek
/// cursor, O(1) amortized). Matches are delivered one block at a time via
/// V::VisitMatchBitmap, so COUNT uses a popcount tree and SUM a masked
/// vector sum instead of per-word dispatch.
///
/// Caller guarantees simd::ActiveSimdLevel() >= kAvx2 (ScanRange picks
/// the block kernel otherwise).
template <typename V>
void ScanRangeSimd(const Table& data, const Query& query, size_t begin,
                   size_t end, std::span<const size_t> check_dims,
                   V& visitor, QueryStats* stats) {
  const simd::SimdLevel level = simd::ActiveSimdLevel();
  FLOOD_DCHECK(level >= simd::SimdLevel::kAvx2);
  constexpr size_t kBlock = Column::kBlockSize;
  static_assert(kBlock % 64 == 0);
  constexpr size_t kWords = kBlock / 64;
  Value buf[kBlock];
  uint64_t bitmap[kWords];
  // Dimensions a zone map could neither reject nor fully accept.
  constexpr size_t kMaxDims = 64;
  size_t pending[kMaxDims];
  size_t peeked[kMaxDims];
  FLOOD_DCHECK(check_dims.size() <= kMaxDims);

  size_t matched = 0;
  uint64_t blocks_skipped = 0;
  uint64_t blocks_exact = 0;
  uint64_t simd_blocks = 0;
  const size_t first_block = begin / kBlock;
  const size_t last_block = (end - 1) / kBlock;
  // Highest block the forward-peek prefetch has classified. Monotonic, so
  // re-checking zone maps ahead of the scan stays O(1) amortized per
  // block even across skip runs.
  size_t prefetched_until = first_block;

  for (size_t b = first_block; b <= last_block; ++b) {
    const size_t block_begin = b * kBlock;
    const size_t lo = std::max(begin, block_begin);
    const size_t hi = std::min(end, block_begin + kBlock);
    const size_t n = hi - lo;

    size_t num_pending = 0;
    const BlockZoneOutcome outcome = ClassifyBlockZones(
        data, query, check_dims, b, pending, &num_pending);
    if (outcome == BlockZoneOutcome::kSkip) {
      ++blocks_skipped;
      continue;
    }
    if (outcome == BlockZoneOutcome::kExact) {
      ++blocks_exact;
      matched += n;
      visitor.VisitExactRange(static_cast<RowId>(lo),
                              static_cast<RowId>(hi));
      continue;
    }

    // Forward-peek: find the next zone-surviving block and prefetch the
    // packed bytes its filter will touch, so they arrive in cache while
    // this block's predicates evaluate.
    if (prefetched_until <= b) {
      prefetched_until = last_block + 1;
      for (size_t nb = b + 1; nb <= last_block; ++nb) {
        size_t np = 0;
        const BlockZoneOutcome peek = ClassifyBlockZones(
            data, query, check_dims, nb, peeked, &np);
        if (peek == BlockZoneOutcome::kSkip) continue;
        if (peek == BlockZoneOutcome::kFilter) {
          for (size_t p = 0; p < np; ++p) {
            data.column(peeked[p]).PrefetchBlock(nb);
          }
        }
        prefetched_until = nb;
        break;
      }
    }

    const size_t words = InitMatchBitmap(bitmap, n);
    ++simd_blocks;
    uint64_t any = 0;
    for (size_t p = 0; p < num_pending; ++p) {
      const size_t dim = pending[p];
      const ValueRange& r = query.range(dim);
      const Column& col = data.column(dim);
      Column::PackedBlock pb;
      if (col.GetPackedBlock(b, &pb) && pb.width >= 1 &&
          pb.width <= simd::kMaxPackedFilterWidth) {
        // Translate the query bounds into the block's delta space. The
        // zone pass guarantees r.hi >= BlockMin(b) == base (else kSkip),
        // so dhi never underflows, and clamping to the width mask keeps
        // lane compares exact: deltas can't exceed it.
        const uint64_t base = static_cast<uint64_t>(pb.base);
        const uint64_t mask = (uint64_t{1} << pb.width) - 1;
        const uint64_t dlo =
            r.lo <= pb.base ? 0 : static_cast<uint64_t>(r.lo) - base;
        const uint64_t dhi =
            std::min(static_cast<uint64_t>(r.hi) - base, mask);
        any = simd::FilterPackedAvx2(
            pb.bytes, pb.bit_offset + (lo - block_begin) * pb.width,
            pb.width, dlo, dhi, n, bitmap);
      } else {
        // kPlain, width 0 (can't be pending, but harmless), or too wide
        // for byte-window lane loads: decode once, compare vectorized.
        col.DecodeBlockInto(b, buf);
        const Value* vals = buf + (lo - block_begin);
        any = level >= simd::SimdLevel::kAvx512
                  ? simd::FilterDecodedAvx512(vals, n, r.lo, r.hi, bitmap)
                  : simd::FilterDecodedAvx2(vals, n, r.lo, r.hi, bitmap);
      }
      if (any == 0) break;  // Nothing left for later dimensions to narrow.
    }

    if (any != 0) {
      matched += simd::PopcountWords(bitmap, words);
      visitor.VisitMatchBitmap(static_cast<RowId>(lo), n, bitmap);
    }
  }
  if (stats != nullptr) {
    stats->points_matched += matched;
    stats->blocks_skipped += blocks_skipped;
    stats->blocks_exact += blocks_exact;
    stats->simd_blocks += simd_blocks;
  }
}

/// Scans one range, checking each row of `check_dims` against the query.
/// Non-listed dimensions are assumed satisfied by construction (e.g. the
/// refined sort dimension). The kernel is picked per call from what the
/// range and the CPU allow: the naive row-at-a-time path for ranges under
/// 32 rows or more than 64 check dims, else the simd kernel when the
/// active ISA tier is AVX2 or better, else the scalar block kernel
/// (FLOOD_SIMD_LEVEL=scalar / SetSimdLevelForTest take that path on AVX2
/// hosts too). All three give identical results; only simd counts
/// simd_blocks.
///
/// Counters: adds end-begin to points_scanned, matches to points_matched,
/// and one to ranges_scanned; the block kernels also tally
/// blocks_skipped / blocks_exact from their zone-map outcomes, and the
/// simd kernel counts vector-filtered blocks in simd_blocks.
template <typename V>
void ScanRange(const Table& data, const Query& query, size_t begin,
               size_t end, bool exact, std::span<const size_t> check_dims,
               V& visitor, QueryStats* stats) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (stats != nullptr) {
    stats->points_scanned += n;
    ++stats->ranges_scanned;
  }
  if (exact || check_dims.empty()) {
    visitor.VisitExactRange(begin, end);
    if (stats != nullptr) {
      stats->points_matched += n;
      stats->points_exact += n;
    }
    return;
  }
  // The block kernel's pending-dimension scratch holds 64 entries; wider
  // predicates (not produced by any index here) take the naive path, as
  // do tiny ranges, which would not amortize a 128-value block decode
  // (tree/grid baselines emit many few-row boundary cells).
  constexpr size_t kMinBlockKernelRows = 32;
  if (check_dims.size() > 64 || n < kMinBlockKernelRows) {
    ScanRangeNaive(data, query, begin, end, check_dims, visitor, stats);
  } else if (simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2) {
    ScanRangeSimd(data, query, begin, end, check_dims, visitor, stats);
  } else {
    ScanRangeBlock(data, query, begin, end, check_dims, visitor, stats);
  }
}

/// The filtered dimensions of `query` (the default check-dim set for
/// baseline indexes, which guarantee nothing per-range).
inline std::vector<size_t> FilteredDims(const Query& query) {
  std::vector<size_t> dims;
  dims.reserve(query.num_dims());
  for (size_t d = 0; d < query.num_dims(); ++d) {
    if (query.IsFiltered(d)) dims.push_back(d);
  }
  return dims;
}

}  // namespace flood

#endif  // FLOOD_QUERY_SCAN_UTIL_H_
