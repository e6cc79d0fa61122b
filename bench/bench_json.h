//===- bench/bench_json.h - Machine-readable benchmark output --*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared JSON emission for the benchmark binaries. Each binary that
/// supports `--json-out FILE` appends BenchRecord rows to a BenchJsonWriter
/// and writes one JSON document:
///
///   {
///     "benchmark": "micro_patterns",
///     "records": [
///       {"pattern": "reduce", "n": 65536, "threads": 1,
///        "engine": "kernel", "ms": 0.42, "speedup": 7.8},
///       ...
///     ]
///   }
///
/// `speedup` is relative to whatever baseline the binary chose (for the
/// engine suite: interpreter ms / kernel ms at equal thread count); rows
/// that ARE the baseline carry speedup 1.0. tools/run_benchmarks.sh drives
/// the binaries and collects the documents (BENCH_perf.json at the repo
/// root is the committed reference run).
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_BENCH_BENCH_JSON_H
#define DMLL_BENCH_BENCH_JSON_H

#include <cstdint>
#include <string>
#include <vector>

namespace dmll {
namespace bench {

/// One measured configuration.
struct BenchRecord {
  std::string Pattern; ///< workload name, e.g. "reduce", "tpch-q1"
  int64_t N = 0;       ///< problem size (iteration-space elements)
  unsigned Threads = 1;
  std::string Engine;  ///< "interp", "kernel", or a binary-specific tag
  double Ms = 0;       ///< wall milliseconds per run
  double Speedup = 1;  ///< baseline ms / this ms (1.0 for the baseline row)
};

/// Accumulates records and renders/writes the JSON document.
class BenchJsonWriter {
public:
  explicit BenchJsonWriter(std::string BenchmarkName)
      : Name(std::move(BenchmarkName)) {}

  void add(BenchRecord R) { Records.push_back(std::move(R)); }

  /// The full document as a string.
  std::string render() const;

  /// Writes the document to \p Path; returns false on I/O failure.
  bool write(const std::string &Path) const;

private:
  std::string Name;
  std::vector<BenchRecord> Records;
};

} // namespace bench
} // namespace dmll

#endif // DMLL_BENCH_BENCH_JSON_H
