//===- examples/quickstart.cpp - DMLL in five minutes ----------*- C++ -*-===//
//
// The smallest end-to-end tour of the public API:
//   1. write an implicitly parallel program with the pattern front end;
//   2. compile it for a target (watch fusion fire);
//   3. run it — sequentially, and with the parallel executor;
//   4. observe it — rewrite provenance, per-worker metrics, per-loop counter
//      profiles with the simulator calibration (docs/TELEMETRY.md), and
//      optional Chrome-trace / profile-JSON dumps.
//
// Build and run:
//   ./build/examples/quickstart [--trace-out trace.json]
//                               [--profile-out p.json] [--engine MODE]
//                               [--tune-out t.json] [--tune-in t.json]
//                               [--metrics-out m.prom] [--metrics-live m.prom]
//                               [--metrics-port N] [--events-out e.jsonl]
//                               [--sample] [--sample-out s.collapsed]
//                               [--deadline-ms N] [--max-memory-mb N]
// where MODE is interp (boxed reference interpreter), kernel (compiled
// register bytecode, docs/EXECUTION.md), or auto (the default: kernels for
// non-tiny loops, interpreter otherwise). The profile JSON is the
// dmll-profile-v1 document tools/dmll-prof diffs for regressions.
// --tune-out searches per-loop execution knobs with the autotuner and
// writes the dmll-tune-v1 artifact; --tune-in replays a saved artifact
// through the executor (docs/TUNING.md). --deadline-ms / --max-memory-mb
// bound the parallel run with the recoverable execution limits
// (docs/ROBUSTNESS.md): an overrun comes back as a structured non-ok
// ExecutionReport with partial metrics, not a dead process.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"
#include "observe/LiveTelemetry.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "runtime/Executor.h"
#include "runtime/ProfileJson.h"
#include "support/Args.h"
#include "transform/Pipeline.h"
#include "tune/Tuner.h"

#include <cstdio>

using namespace dmll;
using namespace dmll::frontend;

int main(int Argc, char **Argv) {
  // Optional observability: with --trace-out, every compiler phase, rewrite
  // application, analysis, and executor chunk below records into Session.
  std::string TracePath = flagValue(Argc, Argv, "trace-out");
  std::string ProfilePath = flagValue(Argc, Argv, "profile-out");
  TraceSession Session;
  TraceActivation Activation(Session);
  // The always-on telemetry plane (docs/TELEMETRY.md): final/live Prometheus
  // snapshots, the dmll-events-v1 log, and the sampling profiler.
  TelemetryScope Telemetry(telemetryCliArgs(Argc, Argv));

  // --engine interp|kernel|auto selects the multiloop execution engine.
  engine::EngineMode Mode = engine::EngineMode::Auto;
  for (int I = 1; I + 1 < Argc; ++I)
    if (std::string(Argv[I]) == "--engine")
      Mode = engine::parseEngineMode(Argv[I + 1]);

  // 1. An implicitly parallel program: mean of the squares of the
  //    positive entries. Three logical patterns: filter, map, reduce.
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs", LayoutHint::Partitioned);
  Val Kept = filter(Xs, [](Val X) { return X > Val(0.0); });
  Val Squares = map(Kept, [](Val X) { return X * X; });
  Program P = B.build(sum(Squares) / toF64(Kept.len()));

  std::printf("=== program as written (%zu loops) ===\n%s\n",
              collectMultiloops(P.Result).size(),
              printProgram(P).c_str());

  // 2. Compile: pipeline fusion collapses the three patterns into a single
  //    traversal; the partitioning analysis decides @xs is streamed.
  CompileOptions Opts;
  Opts.T = Target::Numa;
  CompileResult CR = compileProgram(P, Opts);
  std::printf("=== optimized (%zu loops) ===\n%s\n",
              collectMultiloops(CR.P.Result).size(),
              printProgram(CR.P).c_str());
  // Rewrite provenance: not just how often each rule fired, but on what.
  for (const RewriteApplication &A : CR.Stats.Provenance)
    std::printf("rule %-20s [%s pass %d] %s => %s\n", A.Rule.c_str(),
                A.Phase.c_str(), A.Pass, A.Before.c_str(), A.After.c_str());

  // 3. Run it: once sequentially for reference, then through the full
  //    executor entry point (compile + adapt + parallel run + calibrate).
  //    MinChunk 128 lets this small input still exercise the chunked path.
  std::vector<double> Data;
  for (int I = -500; I < 500; ++I)
    Data.push_back(I * 0.1);
  InputMap Inputs{{"xs", Value::arrayOfDoubles(Data)}};
  Value Seq = evalProgram(CR.P, Inputs);

  // Optional autotuning (docs/TUNING.md): --tune-out searches per-loop
  // knobs and persists the decisions; --tune-in replays a saved artifact.
  ExecOptions Exec;
  Exec.Threads = 4;
  Exec.Mode = Mode;
  Exec.MinChunk = 128;
  // Optional resource ceilings (docs/ROBUSTNESS.md). Overruns surface as
  // a non-ok report status below instead of killing the process.
  for (int I = 1; I + 1 < Argc; ++I) {
    if (std::string(Argv[I]) == "--deadline-ms")
      Exec.Limits.DeadlineMs = std::atoll(Argv[I + 1]);
    else if (std::string(Argv[I]) == "--max-memory-mb")
      Exec.Limits.MaxMemoryBytes = std::atoll(Argv[I + 1]) * 1024 * 1024;
  }
  tune::DecisionTable Decisions;
  std::string TuneOut = flagValue(Argc, Argv, "tune-out");
  std::string TuneIn = flagValue(Argc, Argv, "tune-in");
  if (!TuneOut.empty()) {
    tune::TuneOptions TO;
    TO.Compile = Opts;
    TO.Exec = Exec;
    tune::TuningProfile TP = tune::tuneProgram("quickstart", P, Inputs, TO);
    if (tune::writeTuningProfile(TuneOut, TP))
      std::printf("wrote tuning artifact to %s (%zu tuned loop(s), "
                  "baseline %.3f ms, tuned %.3f ms)\n",
                  TuneOut.c_str(), TP.Loops.size(), TP.BaselineMs,
                  TP.TunedMs);
    Decisions = TP.decisions();
    Exec.Tuning = Decisions.empty() ? nullptr : &Decisions;
  } else if (!TuneIn.empty()) {
    tune::TuningProfile TP;
    if (tune::readTuningProfile(TuneIn, TP)) {
      Decisions = TP.decisions();
      Exec.Tuning = Decisions.empty() ? nullptr : &Decisions;
      std::printf("replaying %zu tuned decision(s) from %s\n",
                  TP.Loops.size(), TuneIn.c_str());
    } else {
      std::fprintf(stderr, "failed to read tuning artifact %s\n",
                   TuneIn.c_str());
    }
  }

  ExecutionReport R = executeProgram(P, Inputs, Opts, Exec);
  if (R.ok())
    std::printf("\nmean of squares of positives: sequential %.6f, "
                "4 threads (%s engine) %.6f\n",
                Seq.asFloat(), engine::engineModeName(Mode),
                R.Result.asFloat());
  else
    std::printf("\nrun ended %s (%s) — report below is partial\n",
                execStatusName(R.Status), R.TrapMessage.c_str());

  // 4. Executor metrics: how the parallel run spread across workers, and
  //    what the kernel engine did with each loop.
  std::printf("\n%lld parallel / %lld sequential loop(s)\n%s",
              static_cast<long long>(R.ParallelLoops),
              static_cast<long long>(R.SequentialLoops),
              renderWorkerStats(R.Workers).c_str());
  if (Mode != engine::EngineMode::Interp) {
    std::printf("\n%lld kernel(s) compiled in %.3f ms, %lld launch(es), "
                "%lld loop(s) fell back to the interpreter\n",
                static_cast<long long>(R.Kernels.Compiled),
                R.Kernels.CompileMillis,
                static_cast<long long>(R.Kernels.Launches),
                static_cast<long long>(R.Kernels.FallbackLoops));
    for (const std::string &F : R.Kernels.Fallbacks)
      std::printf("  fallback: %s\n", F.c_str());
  }

  // Per-loop measurements and the simulator's replayed prediction: the
  // ratio column is the calibration signal (docs/TELEMETRY.md).
  std::printf("\ncounters: %s\n", counterSourceName().c_str());
  for (const LoopCalibration &L : R.Calibration.Loops)
    std::printf("  loop %-24s %-6s iters %-6lld measured %8.3f ms  "
                "predicted %8.3f ms  ratio %s\n",
                L.Loop.c_str(), L.Engine.c_str(),
                static_cast<long long>(L.Iters), L.MeasuredMs, L.PredictedMs,
                L.Matched ? std::to_string(L.Ratio).c_str() : "(unmatched)");

  // With --sample: where this run's wall time went, by (phase, loop).
  if (R.Sampling.Enabled) {
    std::printf("\nsampling (%.3gms period): %lld tick(s), %lld busy / "
                "%lld idle sample(s)\n",
                R.Sampling.PeriodMs,
                static_cast<long long>(R.Sampling.Ticks),
                static_cast<long long>(R.Sampling.Samples),
                static_cast<long long>(R.Sampling.IdleSamples));
    for (const auto &[Stack, N] : R.Sampling.Stacks)
      std::printf("  %-52s %lld\n", Stack.c_str(),
                  static_cast<long long>(N));
  }

  if (!ProfilePath.empty()) {
    if (writeProfileJson(ProfilePath, R))
      std::printf("\nwrote execution profile to %s "
                  "(diff runs with tools/dmll-prof)\n",
                  ProfilePath.c_str());
    else
      std::fprintf(stderr, "\nfailed to write profile to %s\n",
                   ProfilePath.c_str());
  }

  if (!TracePath.empty()) {
    if (Session.writeChromeJson(TracePath))
      std::printf("\nwrote %zu trace events to %s "
                  "(open in chrome://tracing or ui.perfetto.dev)\n",
                  Session.size(), TracePath.c_str());
    else
      std::fprintf(stderr, "\nfailed to write trace to %s\n",
                   TracePath.c_str());
  } else {
    std::printf("\n=== trace (re-run with --trace-out trace.json for the "
                "Chrome-trace version) ===\n%s",
                Session.renderText().c_str());
  }
  return 0;
}
