#include "bench_util.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "common/macros.h"
#include "common/rng.h"

namespace perfbench {

// --- Inputs ----------------------------------------------------------------

std::vector<flood::Query> StratifiedQueries(
    const flood::Table& table, const std::vector<flood::QueryTypeSpec>& specs,
    double selectivity, size_t n, uint64_t seed) {
  double total = 0;
  for (const flood::QueryTypeSpec& s : specs) total += s.weight;
  // Largest-remainder apportionment of n over the weights.
  std::vector<size_t> counts(specs.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const double exact = static_cast<double>(n) * specs[i].weight / total;
    counts[i] = static_cast<size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(exact - static_cast<double>(counts[i]), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t i = 0; assigned < n; ++i, ++assigned) {
    ++counts[remainders[i].second];
  }
  flood::QueryGenerator gen(table, seed);
  std::vector<flood::Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < specs.size(); ++i) {
    for (size_t j = 0; j < counts[i]; ++j) {
      queries.push_back(gen.Generate(specs[i], selectivity));
    }
  }
  flood::Rng rng(seed);
  std::shuffle(queries.begin(), queries.end(), rng);
  return queries;
}

// --- Samples ---------------------------------------------------------------

namespace {

/// Nearest-rank percentile of v[begin, end); reorders that slice.
int64_t NearestRank(std::vector<int64_t>& v, size_t begin, size_t end,
                    double p) {
  FLOOD_CHECK(begin < end);
  const size_t n = end - begin;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, n);
  auto nth = v.begin() + static_cast<std::ptrdiff_t>(begin + rank - 1);
  std::nth_element(v.begin() + static_cast<std::ptrdiff_t>(begin), nth,
                   v.begin() + static_cast<std::ptrdiff_t>(end));
  return *nth;
}

}  // namespace

double Samples::PercentileMs(double p) const {
  std::vector<int64_t> v = ns_;
  return static_cast<double>(NearestRank(v, 0, v.size(), p)) / 1e6;
}

double Samples::PassMedianMs(double p) const {
  std::vector<int64_t> v = ns_;
  const size_t per_pass = v.size() / kPasses;
  std::vector<double> passes;
  for (size_t i = 0; i < kPasses; ++i) {
    passes.push_back(static_cast<double>(
        NearestRank(v, i * per_pass, (i + 1) * per_pass, p)));
  }
  return Median(std::move(passes)) / 1e6;
}

size_t Samples::MinPassCountAbove(double p) const {
  std::vector<int64_t> v = ns_;
  const size_t per_pass = v.size() / kPasses;
  size_t least = per_pass;
  for (size_t i = 0; i < kPasses; ++i) {
    const size_t begin = i * per_pass;
    const size_t end = begin + per_pass;
    const int64_t cut = NearestRank(v, begin, end, p);
    least = std::min<size_t>(
        least, static_cast<size_t>(std::count_if(
                   v.begin() + static_cast<std::ptrdiff_t>(begin),
                   v.begin() + static_cast<std::ptrdiff_t>(end),
                   [cut](int64_t x) { return x > cut; })));
  }
  return least;
}

double Median(std::vector<double> v) {
  FLOOD_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string PassRates(const std::vector<double>& qps) {
  std::string out = "passes_qps=";
  for (size_t i = 0; i < qps.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(static_cast<int64_t>(qps[i]));
  }
  return out;
}

// --- Process counters -------------------------------------------------------

namespace {

/// First number after `key` in a "key: value" /proc file.
uint64_t ProcField(const char* file, const std::string& key) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ProcField("/proc/self/status", "VmHWM:")) /
         1024.0;
}

uint64_t WrittenBytes() { return ProcField("/proc/self/io", "wchar:"); }

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

void ResetDir(const std::string& path) {
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
}

// --- Fingerprint ------------------------------------------------------------

void Fingerprint::Add(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  Add(static_cast<uint64_t>(bytes.size()));
}

void Fingerprint::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::AddCounts(const flood::QueryStats& s) {
  for (uint64_t v : {s.points_scanned, s.points_matched, s.points_exact,
                     s.cells_visited, s.ranges_scanned, s.blocks_skipped,
                     s.blocks_exact, s.simd_blocks, s.delta_rows_scanned}) {
    Add(v);
  }
}

std::string Fingerprint::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

// --- Report ------------------------------------------------------------------

void Report::Metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::Fail(uint64_t n, std::string_view why) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "FAILED %" PRIu64 " operation(s): %.*s\n", n,
               static_cast<int>(why.size()), why.data());
}

void Report::Check(bool ok, std::string_view what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
               what.data());
}

void Report::Print(const Fingerprint& fp) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("fingerprint %s\n", fp.Hex().c_str());
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    // %.17g keeps every digit of the double; JSON has no NaN/Inf.
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Tracing -----------------------------------------------------------------

namespace {
thread_local Tracer::Scope* t_open_scope = nullptr;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer), outer_(nullptr) {
  if (tracer_ == nullptr) return;
  outer_ = t_open_scope;
  t_open_scope = this;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = outer_ != nullptr ? outer_->span_.id : 0;
  span_.request = request;
  span_.name = name;
  span_.start_ns = tracer_->Now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->Now();
  t_open_scope = outer_;
  tracer_->Close(span_);
}

void Tracer::Add(const char* name, uint64_t request, int64_t start_ns,
                 int64_t end_ns) {
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  Close(span);
}

void Tracer::Close(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::ComputeSelfTimes() {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  // Child intervals clipped to the parent, grouped by parent.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> kids;
  for (const Span& s : spans_) {
    if (s.parent == 0) continue;
    auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans_[it->second];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) kids[s.parent].emplace_back(lo, hi);
  }
  for (Span& s : spans_) {
    int64_t covered = 0;
    auto it = kids.find(s.id);
    if (it != kids.end()) {
      std::vector<std::pair<int64_t, int64_t>>& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = iv[0].first;
      int64_t cur_hi = iv[0].second;
      for (size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = iv[i].first;
        }
        cur_hi = std::max(cur_hi, iv[i].second);
      }
      covered += cur_hi - cur_lo;
    }
    s.self_ns = s.dur() - covered;
  }
}

std::vector<int64_t> Tracer::Durations(std::string_view name,
                                       bool self) const {
  std::vector<int64_t> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(self ? s.self_ns : s.dur());
  }
  return out;
}

namespace {
double MedianUs(std::vector<int64_t> ns) {
  if (ns.empty()) return 0.0;
  std::vector<double> v(ns.begin(), ns.end());
  return Median(std::move(v)) / 1e3;
}
}  // namespace

double Tracer::MedianDurUs(std::string_view name) const {
  return MedianUs(Durations(name, false));
}

double Tracer::MedianSelfUs(std::string_view name) const {
  return MedianUs(Durations(name, true));
}

int64_t Tracer::TotalDurNs(std::string_view name) const {
  int64_t total = 0;
  for (int64_t ns : Durations(name, false)) total += ns;
  return total;
}

double Tracer::MedianPairedDiffUs(std::string_view a,
                                  std::string_view b) const {
  std::unordered_map<uint64_t, int64_t> dur_b;
  for (const Span& s : spans_) {
    if (b == s.name) dur_b[s.request] = s.dur();
  }
  std::vector<int64_t> diffs;
  for (const Span& s : spans_) {
    if (a != s.name) continue;
    auto it = dur_b.find(s.request);
    if (it != dur_b.end()) diffs.push_back(s.dur() - it->second);
  }
  return MedianUs(std::move(diffs));
}

void Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "%" PRIu64 "\t%" PRIu64 "\t%" PRIu64 "\t%s\t%" PRId64
                 "\t%" PRId64 "\t%" PRId64 "\n",
                 s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns,
                 s.self_ns);
  }
  std::fclose(f);
}

}  // namespace perfbench
