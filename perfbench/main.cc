// The repo benchmark's binary: one process per workload run.
//
//   perfbench --workload olap_scan|point_wire|ingest_mixed --seed N
//             --seconds S --trace 0|1 --out DIR
//
// Prints the determinism fingerprint and, as the last line of stdout, one
// JSON object with the correctness verdict, the operation counts and the
// metrics: end-to-end metrics untraced (--trace 0), per-layer metrics from
// the traced run (--trace 1). Exits non-zero when any answer is wrong.
// perfbench/run.py builds this binary and is the command to use.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out DIR\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.seconds < 1) return Usage("--seconds must be >= 1");
  if (args.out_dir.empty()) return Usage("--out is required");
  perfbench::ResetDir(args.out_dir);

  perfbench::Report report;
  perfbench::Fingerprint fp;
  if (args.workload == "olap_scan") {
    perfbench::RunOlapScan(args, &report, &fp);
  } else if (args.workload == "point_wire") {
    perfbench::RunPointWire(args, &report, &fp);
  } else if (args.workload == "ingest_mixed") {
    perfbench::RunIngestMixed(args, &report, &fp);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  report.Print(fp);
  return report.correct() ? 0 : 1;
}
