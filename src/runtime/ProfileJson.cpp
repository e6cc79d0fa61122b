//===- runtime/ProfileJson.cpp ---------------------------------*- C++ -*-===//

#include "runtime/ProfileJson.h"

#include "engine/Engine.h"
#include "observe/MetricsRegistry.h"
#include "observe/Prof.h"
#include "support/Json.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace dmll;

namespace {

void jsonNum(std::ostringstream &OS, double X) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", X);
  OS << Buf;
}

} // namespace

std::string dmll::renderProfileJson(const ExecutionReport &R) {
  std::ostringstream OS;
  OS << "{\n\"schema\":\"dmll-profile-v1\",\n";
  OS << "\"engine\":" << json::quote(engine::engineModeName(R.Mode));
  OS << ",\n\"threads\":" << R.Threads;
  OS << ",\n\"millis\":";
  jsonNum(OS, R.Millis);
  OS << ",\n\"compile_millis\":";
  jsonNum(OS, R.CompileMillis);
  OS << ",\n\"parallel_loops\":" << R.ParallelLoops;
  OS << ",\n\"sequential_loops\":" << R.SequentialLoops;

  OS << ",\n\"hw_counters\":{\"available\":"
     << (ThreadCounters::hardwareAvailable() ? "true" : "false")
     << ",\"source\":" << json::quote(counterSourceName()) << "}";

  // Per-loop records. The key disambiguates repeated executions of the
  // same loop (memoization makes repeats rare, iterative drivers make them
  // real): Nth execution of a signature under an engine -> "#N".
  OS << ",\n\"loops\":[";
  std::map<std::string, int> Occurrence;
  bool First = true;
  for (const LoopProfile &LP : R.Loops) {
    int Occ = Occurrence[LP.Loop + "/" + LP.Engine]++;
    std::string Entry = First ? "\n{\"key\":" : ",\n{\"key\":";
    First = false;
    Entry += json::quote("loop:" + LP.Loop + "#" + std::to_string(Occ) + "/" +
                         LP.Engine);
    Entry += ",\"occurrence\":" + std::to_string(Occ);
    appendLoopFields(Entry, LP, /*WithCounters=*/true);
    OS << Entry << "}";
  }
  OS << "\n]";

  OS << ",\n\"workers\":[";
  First = true;
  for (const WorkerStats &W : R.Workers) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n{\"worker\":" << W.Worker << ",\"chunks\":" << W.Chunks
       << ",\"items\":" << W.Items << ",\"steals\":" << W.Steals
       << ",\"busy_ms\":";
    jsonNum(OS, W.BusyMs);
    OS << ",\"wait_ms\":";
    jsonNum(OS, W.WaitMs);
    std::string Counters;
    appendCounterJson(Counters, W.Counters);
    OS << ",\"counters\":" << Counters << "}";
  }
  OS << "\n]";

  OS << ",\n\"metrics\":" << MetricsRegistry::global().renderJson();

  // The run's sampling-profiler delta, when one was active: collapsed
  // (phase;loop) stacks plus the busy/idle tallies telemetry_smoke checks.
  OS << ",\n\"sampling\":{\"enabled\":"
     << (R.Sampling.Enabled ? "true" : "false") << ",\"period_ms\":";
  jsonNum(OS, R.Sampling.PeriodMs);
  OS << ",\"ticks\":" << R.Sampling.Ticks
     << ",\"samples\":" << R.Sampling.Samples
     << ",\"idle_samples\":" << R.Sampling.IdleSamples << ",\"stacks\":[";
  First = true;
  for (const auto &[Key, N] : R.Sampling.Stacks) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n{\"stack\":" << json::quote(Key) << ",\"samples\":" << N << "}";
  }
  OS << "\n]}";

  const CalibrationReport &C = R.Calibration;
  OS << ",\n\"calibration\":{\"machine\":" << json::quote(C.Machine)
     << ",\"cores\":" << C.Cores << ",\"measured_ms\":";
  jsonNum(OS, C.MeasuredMs);
  OS << ",\"predicted_ms\":";
  jsonNum(OS, C.PredictedMs);
  OS << ",\"ratio\":";
  jsonNum(OS, C.overallRatio());
  OS << ",\"loops\":[";
  First = true;
  for (const LoopCalibration &L : C.Loops) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n{\"loop\":" << json::quote(L.Loop)
       << ",\"engine\":" << json::quote(L.Engine) << ",\"iters\":" << L.Iters
       << ",\"measured_ms\":";
    jsonNum(OS, L.MeasuredMs);
    OS << ",\"predicted_ms\":";
    jsonNum(OS, L.PredictedMs);
    OS << ",\"ratio\":";
    jsonNum(OS, L.Ratio);
    OS << ",\"matched\":" << (L.Matched ? "true" : "false")
       << ",\"parallel\":" << (L.Parallel ? "true" : "false") << "}";
  }
  OS << "\n]}\n}\n";
  return OS.str();
}

bool dmll::writeProfileJson(const std::string &Path,
                            const ExecutionReport &R) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << renderProfileJson(R);
  return static_cast<bool>(Out);
}
