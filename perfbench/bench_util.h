// Shared pieces of the repo benchmark: exact percentiles, process
// counters read from /proc, the determinism fingerprint, the result
// report, and the span recorder of the traced run.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "data/query_gen.h"
#include "query/query.h"
#include "query/query_stats.h"
#include "storage/table.h"

namespace perfbench {

/// What one workload run needs from the command line. Inputs derive from
/// `seed` only; operation counts derive from `seconds` only, so a run is
/// bounded by a count and two runs with the same arguments do the same
/// work.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;  ///< Scratch files (snapshots, WAL, socket, trace).
};

// --- Inputs ----------------------------------------------------------------

/// Seed of every workload's table and training workload. They stay fixed,
/// as a deployed database's are, so that every --seed measures the same
/// learned layout; --seed draws the queries (and their order).
inline constexpr uint64_t kDataSeed = 42;

/// `n` queries of `specs` in exact weight proportions; `seed` draws each
/// query's ranges and the order, so two seeds ask the same mix.
std::vector<flood::Query> StratifiedQueries(
    const flood::Table& table, const std::vector<flood::QueryTypeSpec>& specs,
    double selectivity, size_t n, uint64_t seed);

// --- Samples ---------------------------------------------------------------

/// Every timed loop is cut into this many passes of equal operation
/// count. A figure is the median over the passes, so a slow second of a
/// shared host moves one pass and not the figure.
inline constexpr size_t kPasses = 20;

/// Raw latency samples in nanoseconds, in the order taken. Percentiles
/// are exact nearest-rank over sorted samples (no histogram buckets).
class Samples {
 public:
  void Add(int64_t ns) { ns_.push_back(ns); }
  void Reserve(size_t n) { ns_.reserve(n); }
  size_t size() const { return ns_.size(); }
  /// The ceil(p/100 * n)-th smallest of all samples, in ms.
  double PercentileMs(double p) const;
  /// Median over kPasses equal consecutive slices of each slice's
  /// nearest-rank percentile, in ms.
  double PassMedianMs(double p) const;
  /// Samples per pass above that pass's p-th percentile (the tail's
  /// support), the least over the passes.
  size_t MinPassCountAbove(double p) const;

 private:
  std::vector<int64_t> ns_;
};

double Median(std::vector<double> v);
/// "passes_qps=a,b,..." for the notes: the run's own spread over time.
std::string PassRates(const std::vector<double>& qps);

// --- Process counters -------------------------------------------------------

/// Peak resident set size (VmHWM) in MiB.
double PeakRssMb();
/// Bytes this process handed to write()-family calls (/proc/self/io wchar).
uint64_t WrittenBytes();
/// Size of `path` in bytes, 0 when it does not exist.
uint64_t FileBytes(const std::string& path);
/// Removes `path` and everything under it, then creates it empty.
void ResetDir(const std::string& path);

// --- Fingerprint ------------------------------------------------------------

/// FNV-1a over everything that must repeat exactly for a given seed:
/// learned layouts, answers, counters, file sizes. Timings never enter.
class Fingerprint {
 public:
  void Add(std::string_view bytes);
  void Add(uint64_t v);
  void AddCounts(const flood::QueryStats& s);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- Report ------------------------------------------------------------------

/// The result line: correctness, operation counts, and named metrics.
class Report {
 public:
  void Metric(std::string name, double value, std::string unit);
  void Attempt(uint64_t n) { attempted_ += n; }
  void Fail(uint64_t n, std::string_view why);
  /// A check that is not an operation (e.g. row count after reopen).
  void Check(bool ok, std::string_view what);
  void Note(std::string line) { notes_.push_back(std::move(line)); }

  bool correct() const { return correct_ && failed_ == 0; }
  /// Prints notes and the fingerprint, then the JSON object as the last
  /// line of stdout.
  void Print(const Fingerprint& fp) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

// --- Tracing -----------------------------------------------------------------

/// In-memory span store of the traced run: one span per call the
/// benchmark makes into a layer. Spans opened on one thread while another
/// is open there become its children; spans of one request share
/// `request`. Written out once, at exit.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root.
    uint64_t request = 0;
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t self_ns = 0;  ///< Filled by ComputeSelfTimes().
    int64_t dur() const { return end_ns - start_ns; }
  };

  /// Scoped span; a null tracer records nothing and reads no clock.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Renames the span before it closes (e.g. a write that compacted).
    void Rename(const char* name) { span_.name = name; }

   private:
    Tracer* tracer_;
    Span span_;
    Scope* outer_;
  };

  /// Records a span whose interval the caller timed itself (overlapping
  /// pipelined requests on one thread), as a root.
  void Add(const char* name, uint64_t request, int64_t start_ns,
           int64_t end_ns);
  int64_t Now() const { return epoch_.ElapsedNanos(); }
  size_t size() const { return spans_.size(); }

  /// Self time = duration minus the union of the child spans' intervals.
  void ComputeSelfTimes();
  /// Median duration / self time of the spans named `name`, in µs.
  double MedianDurUs(std::string_view name) const;
  double MedianSelfUs(std::string_view name) const;
  /// Summed duration of the spans named `name`, in ns.
  int64_t TotalDurNs(std::string_view name) const;
  /// Median over requests of dur(a) - dur(b), pairing the spans that share
  /// a request id: the marginal cost of layer `a` over layer `b`.
  double MedianPairedDiffUs(std::string_view a, std::string_view b) const;
  /// Writes one tab-separated line per span.
  void Write(const std::string& path) const;

 private:
  void Close(Span span);
  std::vector<int64_t> Durations(std::string_view name, bool self) const;

  flood::Stopwatch epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;  ///< Guarded by mu_.
};

// --- Workloads -------------------------------------------------------------

void RunOlapScan(const RunArgs& args, Report* report, Fingerprint* fp);
void RunPointWire(const RunArgs& args, Report* report, Fingerprint* fp);
void RunIngestMixed(const RunArgs& args, Report* report, Fingerprint* fp);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
