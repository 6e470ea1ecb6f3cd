// Wire-protocol unit tests: encode/parse round-trips for every message
// type, frame assembly from arbitrary chunkings, and the fuzz battery the
// serving tier's safety story rests on — truncation, flipped CRC bits,
// oversized length prefixes, version mismatches, and garbage mid-stream
// must all produce a *typed* rejection (FrameAssembler poison or a parse
// error), never a crash, never an over-read, never a giant allocation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "query/query.h"
#include "serve/protocol.h"

namespace flood {
namespace serve {
namespace {

Query MakeQuery(uint64_t seed) {
  Rng rng(seed);
  const size_t dims = 1 + seed % 5;
  Query q(dims);
  for (size_t d = 0; d < dims; ++d) {
    Value a = rng.UniformInt(-1'000'000, 1'000'000);
    Value b = rng.UniformInt(-1'000'000, 1'000'000);
    if (a > b) std::swap(a, b);
    q.SetRange(d, a, b);
  }
  if (seed % 2 == 0) {
    q.set_agg({AggSpec::Kind::kSum, seed % dims});
  }
  return q;
}

/// Feeds `bytes` to a fresh assembler and pops every frame.
std::vector<Frame> Assemble(const std::string& bytes, bool* bad = nullptr) {
  FrameAssembler fa;
  fa.Feed(bytes.data(), bytes.size());
  std::vector<Frame> frames;
  Frame f;
  for (;;) {
    const FrameAssembler::Result r = fa.Next(&f);
    if (r == FrameAssembler::Result::kFrame) {
      frames.push_back(f);
      continue;
    }
    if (bad != nullptr) *bad = r == FrameAssembler::Result::kBad;
    break;
  }
  return frames;
}

// --- Round-trips -----------------------------------------------------------

TEST(ServeProtocolTest, PingRoundTrip) {
  std::string out;
  AppendPing({77}, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kPing);
  const StatusOr<PingRequest> req = ParsePing(frames[0].payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request_id, 77u);
}

TEST(ServeProtocolTest, RunBatchRoundTripPreservesQueries) {
  RunBatchRequest req;
  req.request_id = 42;
  for (uint64_t s = 1; s <= 17; ++s) req.queries.push_back(MakeQuery(s));
  std::string out;
  AppendRunBatch(req, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  const StatusOr<RunBatchRequest> parsed = ParseRunBatch(frames[0].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 42u);
  ASSERT_EQ(parsed->queries.size(), req.queries.size());
  for (size_t i = 0; i < req.queries.size(); ++i) {
    const Query& a = req.queries[i];
    const Query& b = parsed->queries[i];
    ASSERT_EQ(a.num_dims(), b.num_dims());
    for (size_t d = 0; d < a.num_dims(); ++d) {
      EXPECT_EQ(a.range(d).lo, b.range(d).lo);
      EXPECT_EQ(a.range(d).hi, b.range(d).hi);
    }
    EXPECT_EQ(a.agg().kind, b.agg().kind);
    if (a.agg().kind == AggSpec::Kind::kSum) {
      EXPECT_EQ(a.agg().dim, b.agg().dim);
    }
  }
}

TEST(ServeProtocolTest, WriteRequestsRoundTrip) {
  std::string out;
  AppendInsert({5, {1, -2, 3}}, &out);
  InsertBatchRequest ib;
  ib.request_id = 6;
  ib.rows = {{9, 8, 7}, {-1, -2, -3}, {}};
  AppendInsertBatch(ib, &out);
  AppendDelete({7, {4, 5, 6}}, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 3u);

  const StatusOr<InsertRequest> ins = ParseInsert(frames[0].payload);
  ASSERT_TRUE(ins.ok());
  EXPECT_EQ(ins->request_id, 5u);
  EXPECT_EQ(ins->row, (std::vector<Value>{1, -2, 3}));

  const StatusOr<InsertBatchRequest> batch =
      ParseInsertBatch(frames[1].payload);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->rows, ib.rows);

  const StatusOr<DeleteRequest> del = ParseDelete(frames[2].payload);
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->key, (std::vector<Value>{4, 5, 6}));
}

TEST(ServeProtocolTest, BatchResultRoundTripIsBitExact) {
  BatchResultResponse resp;
  resp.request_id = 99;
  resp.server_wall_ms = 12.625;
  resp.results.push_back({0, false, 12345, 0, 1000});
  resp.results.push_back({1, false, 7, -987654321012345, 2000});
  resp.results.push_back({0, true, 0, 0, 0});
  std::string out;
  AppendBatchResult(resp, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  const StatusOr<BatchResultResponse> parsed =
      ParseBatchResult(frames[0].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 99u);
  EXPECT_EQ(parsed->code, WireCode::kOk);
  EXPECT_EQ(parsed->server_wall_ms, 12.625);
  ASSERT_EQ(parsed->results.size(), 3u);
  EXPECT_EQ(parsed->results[0].count, 12345u);
  EXPECT_EQ(parsed->results[1].sum, -987654321012345);
  EXPECT_EQ(parsed->results[1].kind, 1);
  EXPECT_TRUE(parsed->results[2].skipped_empty);
}

TEST(ServeProtocolTest, ErrorAndAckRoundTrip) {
  std::string out;
  AppendError({3, WireCode::kOverloaded, "queue full"}, &out);
  AppendWriteAck({4, WireCode::kOk, "", 17}, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 2u);
  const StatusOr<ErrorResponse> err = ParseError(frames[0].payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->code, WireCode::kOverloaded);
  EXPECT_EQ(err->message, "queue full");

  const StatusOr<WriteAckResponse> ack = ParseWriteAck(frames[1].payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->deleted, 17u);
}

TEST(ServeProtocolTest, HealthRoundTrip) {
  std::string out;
  AppendHealth({41}, &out);
  HealthResponse resp;
  resp.request_id = 41;
  resp.ready = false;
  resp.draining = true;
  resp.persist_poisoned = true;
  resp.queue_depth = 9;
  resp.connections_active = 3;
  AppendHealthResult(resp, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kHealth);
  const StatusOr<HealthRequest> req = ParseHealth(frames[0].payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request_id, 41u);

  EXPECT_EQ(frames[1].type, MessageType::kHealthResult);
  const StatusOr<HealthResponse> parsed =
      ParseHealthResult(frames[1].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 41u);
  EXPECT_FALSE(parsed->ready);
  EXPECT_TRUE(parsed->draining);
  EXPECT_TRUE(parsed->persist_poisoned);
  EXPECT_EQ(parsed->queue_depth, 9u);
  EXPECT_EQ(parsed->connections_active, 3u);
}

TEST(ServeProtocolTest, MetricsRoundTripPreservesHistogramBuckets) {
  std::string out;
  AppendMetrics({51}, &out);

  MetricsResponse resp;
  resp.request_id = 51;
  obs::MetricSnapshot counter;
  counter.name = "flood_db_queries_total";
  counter.help = "queries executed";
  counter.kind = obs::MetricKind::kCounter;
  counter.value = 12345.0;
  resp.metrics.push_back(counter);
  obs::MetricSnapshot gauge;
  gauge.name = "flood_serve_connections";
  gauge.kind = obs::MetricKind::kGauge;
  gauge.value = -3.0;  // Gauges are signed.
  resp.metrics.push_back(gauge);
  obs::MetricSnapshot hist;
  hist.name = "flood_db_query_ns";
  hist.help = "per-query latency";
  hist.kind = obs::MetricKind::kHistogram;
  for (int64_t v : {0, 1, 7, 1000, 123456, 999999999}) hist.hist.Record(v);
  resp.metrics.push_back(hist);
  resp.entries = {{"serve.frames_decoded", 9.0}, {"db.num_rows", 2e6}};
  AppendMetricsResult(resp, &out);

  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, MessageType::kMetrics);
  const StatusOr<MetricsRequest> req = ParseMetrics(frames[0].payload);
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->request_id, 51u);

  EXPECT_EQ(frames[1].type, MessageType::kMetricsResult);
  const StatusOr<MetricsResponse> parsed =
      ParseMetricsResult(frames[1].payload);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->request_id, 51u);
  ASSERT_EQ(parsed->metrics.size(), 3u);
  EXPECT_EQ(parsed->metrics[0].name, "flood_db_queries_total");
  EXPECT_EQ(parsed->metrics[0].help, "queries executed");
  EXPECT_EQ(parsed->metrics[0].kind, obs::MetricKind::kCounter);
  EXPECT_EQ(parsed->metrics[0].value, 12345.0);
  EXPECT_EQ(parsed->metrics[1].value, -3.0);
  const obs::HistogramData& h = parsed->metrics[2].hist;
  EXPECT_EQ(h.count, hist.hist.count);
  EXPECT_EQ(h.sum, hist.hist.sum);
  EXPECT_EQ(h.max, hist.hist.max);
  EXPECT_EQ(h.buckets, hist.hist.buckets);  // Sparse coding is lossless.
  EXPECT_EQ(parsed->entries, resp.entries);
}

TEST(ServeProtocolTest, MetricsResultRejectsBadKindAndBucketIndex) {
  MetricsResponse resp;
  resp.request_id = 1;
  obs::MetricSnapshot m;
  m.name = "x";
  m.kind = obs::MetricKind::kHistogram;
  m.hist.Record(42);
  resp.metrics.push_back(m);
  std::string out;
  AppendMetricsResult(resp, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  const std::string& good = frames[0].payload;
  ASSERT_TRUE(ParseMetricsResult(good).ok());

  // Kind byte follows request_id(8) + count(4) + name(4+1) + help(4): 21.
  std::string bad_kind = good;
  bad_kind[21] = 3;
  EXPECT_FALSE(ParseMetricsResult(bad_kind).ok());

  // A histogram claiming more non-empty buckets than bytes remain.
  std::string payload;
  ByteWriter w(&payload);
  w.PutU64(1);          // request_id
  w.PutU32(1);          // num_metrics
  w.PutU32(1);          // name len
  w.PutU8('x');
  w.PutU32(0);          // help len
  w.PutU8(2);           // histogram
  w.PutU64(1);          // count
  w.PutI64(1);          // sum
  w.PutI64(1);          // max
  w.PutU32(0x00FFFFFF); // nonempty buckets: absurd
  EXPECT_FALSE(ParseMetricsResult(payload).ok());
}

TEST(ServeProtocolTest, HealthResultRejectsNonBooleanFlags) {
  std::string out;
  HealthResponse resp;
  resp.request_id = 1;
  AppendHealthResult(resp, &out);
  const std::vector<Frame> frames = Assemble(out);
  ASSERT_EQ(frames.size(), 1u);
  std::string payload = frames[0].payload;
  ASSERT_GE(payload.size(), 8u + 3u);
  payload[8] = 2;  // First flag byte: not 0/1.
  EXPECT_FALSE(ParseHealthResult(payload).ok());
}

TEST(ServeProtocolTest, WireCodeStatusMappingRoundTrips) {
  EXPECT_EQ(WireCodeFromStatus(Status::OK()), WireCode::kOk);
  EXPECT_EQ(WireCodeFromStatus(Status::InvalidArgument("x")),
            WireCode::kInvalidArgument);
  EXPECT_TRUE(StatusFromWireCode(WireCode::kOk, "").ok());
  const Status overloaded = StatusFromWireCode(WireCode::kOverloaded, "shed");
  EXPECT_FALSE(overloaded.ok());
  EXPECT_NE(overloaded.ToString().find("Overloaded"), std::string::npos);
  const Status deadline =
      StatusFromWireCode(WireCode::kDeadlineExceeded, "slow");
  EXPECT_EQ(deadline.code(), StatusCode::kDeadlineExceeded);
  const Status unavailable = StatusFromWireCode(WireCode::kUnavailable, "no");
  EXPECT_EQ(unavailable.code(), StatusCode::kUnavailable);
  EXPECT_EQ(WireCodeFromStatus(Status::DeadlineExceeded("x")),
            WireCode::kDeadlineExceeded);
  EXPECT_EQ(WireCodeFromStatus(Status::Unavailable("x")),
            WireCode::kUnavailable);
}

// --- Frame assembly --------------------------------------------------------

TEST(ServeProtocolTest, AssemblerHandlesArbitraryChunking) {
  std::string stream;
  AppendPing({1}, &stream);
  RunBatchRequest rb;
  rb.request_id = 2;
  rb.queries = {MakeQuery(3), MakeQuery(4)};
  AppendRunBatch(rb, &stream);
  AppendMetrics({3}, &stream);

  // Every chunk size from 1 byte up must yield the same three frames.
  for (size_t chunk = 1; chunk <= stream.size(); chunk += 7) {
    FrameAssembler fa;
    std::vector<Frame> frames;
    Frame f;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      fa.Feed(stream.data() + off, std::min(chunk, stream.size() - off));
      while (fa.Next(&f) == FrameAssembler::Result::kFrame) {
        frames.push_back(f);
      }
    }
    ASSERT_EQ(frames.size(), 3u) << "chunk=" << chunk;
    EXPECT_EQ(frames[0].type, MessageType::kPing);
    EXPECT_EQ(frames[1].type, MessageType::kRunBatch);
    EXPECT_EQ(frames[2].type, MessageType::kMetrics);
  }
}

TEST(ServeProtocolTest, AssemblerCompactionSurvivesManyFrames) {
  // Thousands of small frames through one assembler: the lazy compaction
  // path must not lose or duplicate frames.
  FrameAssembler fa;
  Frame f;
  size_t got = 0;
  for (uint64_t i = 0; i < 5000; ++i) {
    std::string frame;
    AppendPing({i}, &frame);
    fa.Feed(frame.data(), frame.size());
    while (fa.Next(&f) == FrameAssembler::Result::kFrame) {
      const StatusOr<PingRequest> req = ParsePing(f.payload);
      ASSERT_TRUE(req.ok());
      ASSERT_EQ(req->request_id, got);
      ++got;
    }
  }
  EXPECT_EQ(got, 5000u);
  EXPECT_EQ(fa.buffered_bytes(), 0u);
}

// --- Fuzz: corruption must produce typed errors, never UB ------------------

TEST(ServeProtocolFuzzTest, TruncationAtEveryByteNeverCrashes) {
  std::string stream;
  RunBatchRequest rb;
  rb.request_id = 11;
  rb.queries = {MakeQuery(1), MakeQuery(2), MakeQuery(6)};
  AppendRunBatch(rb, &stream);

  for (size_t cut = 0; cut < stream.size(); ++cut) {
    bool bad = false;
    const std::vector<Frame> frames =
        Assemble(stream.substr(0, cut), &bad);
    // A truncated stream yields no frame and no poison — just "need more".
    EXPECT_TRUE(frames.empty());
    EXPECT_FALSE(bad) << "cut=" << cut;
  }
}

TEST(ServeProtocolFuzzTest, EverySingleBitFlipIsRejectedOrDetected) {
  std::string stream;
  RunBatchRequest rb;
  rb.request_id = 13;
  rb.queries = {MakeQuery(5)};
  AppendRunBatch(rb, &stream);

  for (size_t byte = 0; byte < stream.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = stream;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      bool bad = false;
      const std::vector<Frame> frames = Assemble(corrupt, &bad);
      if (frames.empty()) continue;  // Poisoned or starved: both fine.
      // A frame that still decoded means the flip hit the payload AND the
      // CRC simultaneously — impossible for a single-bit flip.
      ASSERT_EQ(frames.size(), 1u);
      const StatusOr<RunBatchRequest> parsed =
          ParseRunBatch(frames[0].payload);
      // Payload intact implies header-only flip was caught above; the only
      // decodable case is a flip in the reserved bytes, which we accept.
      ASSERT_TRUE(parsed.ok()) << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(ServeProtocolFuzzTest, FlippedCrcPoisonsTheStream) {
  std::string stream;
  AppendPing({1}, &stream);
  stream[12] = static_cast<char>(stream[12] ^ 0xFF);  // CRC field.
  bool bad = false;
  const std::vector<Frame> frames = Assemble(stream, &bad);
  EXPECT_TRUE(frames.empty());
  EXPECT_TRUE(bad);

  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kBadFrame);
  // Poison is sticky: feeding a pristine frame afterwards changes nothing.
  std::string good;
  AppendPing({2}, &good);
  fa.Feed(good.data(), good.size());
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
}

TEST(ServeProtocolFuzzTest, OversizedLengthPrefixIsRejectedNotAllocated) {
  std::string stream;
  AppendPing({1}, &stream);
  // Rewrite payload_len (offset 8..11) to 4 GiB-ish; the assembler must
  // reject from the header alone instead of waiting for (or allocating)
  // that many bytes.
  stream[8] = static_cast<char>(0xFF);
  stream[9] = static_cast<char>(0xFF);
  stream[10] = static_cast<char>(0xFF);
  stream[11] = static_cast<char>(0x7F);
  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kBadFrame);
  EXPECT_EQ(fa.buffered_bytes(), 0u);  // Poison dropped the buffer.
}

TEST(ServeProtocolFuzzTest, VersionMismatchIsItsOwnTypedError) {
  std::string stream;
  AppendPing({1}, &stream);
  stream[4] = static_cast<char>(kWireVersion + 1);
  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kVersionMismatch);
}

TEST(ServeProtocolFuzzTest, GarbageMidStreamPoisonsAfterValidPrefix) {
  std::string stream;
  AppendPing({1}, &stream);
  const size_t good_frames_end = stream.size();
  stream += "this is definitely not a frame header, not even close";

  FrameAssembler fa;
  fa.Feed(stream.data(), stream.size());
  Frame f;
  // The valid prefix still decodes...
  ASSERT_EQ(fa.Next(&f), FrameAssembler::Result::kFrame);
  EXPECT_EQ(f.type, MessageType::kPing);
  // ...then the garbage poisons the stream with a typed code.
  EXPECT_EQ(fa.Next(&f), FrameAssembler::Result::kBad);
  EXPECT_EQ(fa.error_code(), WireCode::kBadFrame);
  EXPECT_TRUE(fa.bad());
  (void)good_frames_end;
}

TEST(ServeProtocolFuzzTest, RandomGarbagePayloadsNeverCrashParsers) {
  // CRC-valid frames wrapping random bytes: every parser must fail
  // gracefully (or, rarely, succeed on an accidentally-valid body) without
  // UB — this is the test ASan/UBSan sharpen.
  Rng rng(2024);
  for (int iter = 0; iter < 500; ++iter) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 64));
    std::string payload(len, '\0');
    for (char& c : payload) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    (void)ParsePing(payload);
    (void)ParseRunBatch(payload);
    (void)ParseInsert(payload);
    (void)ParseInsertBatch(payload);
    (void)ParseDelete(payload);
    (void)ParsePong(payload);
    (void)ParseBatchResult(payload);
    (void)ParseWriteAck(payload);
    (void)ParseHealth(payload);
    (void)ParseHealthResult(payload);
    (void)ParseMetrics(payload);
    (void)ParseMetricsResult(payload);
    (void)ParseError(payload);
  }
}

TEST(ServeProtocolFuzzTest, HugeElementCountsAreRejectedBeforeAllocation) {
  // A RunBatch body claiming 2^31 queries in a 20-byte payload must be
  // rejected by the size sanity check, not by std::bad_alloc.
  std::string payload;
  ByteWriter w(&payload);
  w.PutU64(1);                    // request_id
  w.PutU32(0x7FFFFFFF);           // query count
  w.PutU64(0);                    // a few bytes of "queries"
  EXPECT_FALSE(ParseRunBatch(payload).ok());

  payload.clear();
  ByteWriter w2(&payload);
  w2.PutU64(1);
  w2.PutU32(0x7FFFFFFF);  // row count
  EXPECT_FALSE(ParseInsertBatch(payload).ok());

  // And a query whose num_dims claims more than the payload could hold.
  payload.clear();
  ByteWriter w3(&payload);
  w3.PutU64(1);
  w3.PutU32(1);           // one query
  w3.PutU32(0xFFFF);      // num_dims = 65535, but no range bytes follow
  EXPECT_FALSE(ParseRunBatch(payload).ok());

  // A MetricsResult whose flat entry list claims 2^31 entries.
  payload.clear();
  ByteWriter w4(&payload);
  w4.PutU64(1);            // request_id
  w4.PutU32(0);            // no registry metrics
  w4.PutU32(0x80000000u);  // entry count
  w4.PutU64(0);            // a few bytes of "entries"
  EXPECT_FALSE(ParseMetricsResult(payload).ok());
}

TEST(ServeProtocolFuzzTest, TrailingGarbageInsideValidPayloadIsRejected) {
  // CRC passes (we frame the oversized body ourselves), but the body has
  // extra bytes after a complete Ping — parsers must reject, not ignore.
  std::string payload;
  ByteWriter w(&payload);
  w.PutU64(123);
  w.PutU8(0xAB);  // trailing byte
  EXPECT_FALSE(ParsePing(payload).ok());
}

}  // namespace
}  // namespace serve
}  // namespace flood
