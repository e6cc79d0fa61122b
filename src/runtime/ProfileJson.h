//===- runtime/ProfileJson.h - Execution profile export --------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes an ExecutionReport into the `dmll-profile-v1` JSON document
/// that tools/dmll-prof diffs for regressions (docs/TELEMETRY.md documents
/// the schema): run header, per-loop records keyed
/// `loop:<signature>#<occurrence>/<engine>` (the loop record's fields,
/// rendered by appendLoopFields, observe/Metrics.h), per-worker executor
/// totals,
/// the process-wide metrics registry snapshot (counters, gauges, latency
/// histograms), and the simulator calibration section with predicted vs
/// measured milliseconds per loop.
///
/// The profile is the aggregate companion of the Chrome trace: every
/// example that takes `--trace-out` takes `--profile-out` too.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_RUNTIME_PROFILEJSON_H
#define DMLL_RUNTIME_PROFILEJSON_H

#include "runtime/Executor.h"

#include <string>

namespace dmll {

/// Renders \p R as a dmll-profile-v1 JSON document. The metrics section is
/// the current MetricsRegistry::global() snapshot, so render at
/// end-of-run, before anything resets the registry.
std::string renderProfileJson(const ExecutionReport &R);

/// Writes renderProfileJson(R) to \p Path; returns false on I/O failure.
bool writeProfileJson(const std::string &Path, const ExecutionReport &R);

} // namespace dmll

#endif // DMLL_RUNTIME_PROFILEJSON_H
