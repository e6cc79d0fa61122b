//===- runtime/Executor.h - Shared-memory execution entry point -*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public entry point tying the compiler and the shared-memory runtime
/// together: compile for a target, adapt inputs to any SoA layout change,
/// then execute with the multithreaded chunked executor. (Scaling
/// *measurements* on NUMA/cluster/GPU targets come from the simulator in
/// src/sim; this executor is the real, correctness-bearing path.)
///
/// The returned ExecutionReport carries full observability data: compile
/// and execute wall times, the rewrite statistics with per-application
/// provenance (which rule fired where, transform/Rewriter.h), and the
/// per-worker executor metrics (chunks claimed, items covered, busy vs
/// queue-wait time, observe/Metrics.h). When a TraceSession is active
/// (observe/Trace.h) the whole run additionally records a phase/event tree
/// exportable as Chrome-trace JSON — see docs/TELEMETRY.md.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_RUNTIME_EXECUTOR_H
#define DMLL_RUNTIME_EXECUTOR_H

#include "interp/Interp.h"
#include "observe/Sampler.h"
#include "sim/Calibration.h"
#include "transform/Pipeline.h"

namespace dmll {

/// Result of executeProgram.
struct ExecutionReport {
  /// How the run ended (runtime/Cancel.h). On anything but Ok the report
  /// is *partial*: Result is meaningless, but the trap fields below and
  /// every metric accumulated before the unwind (loop profiles, worker
  /// stats, kernel stats) are valid — the trapped execution still tells
  /// its story. The process (and any persistent ThreadPool) survives.
  ExecStatus Status = ExecStatus::Ok;
  /// Trap message / loop signature of the unwind site; empty on Ok.
  std::string TrapMessage;
  std::string TrapLoop;
  bool ok() const { return Status == ExecStatus::Ok; }
  Value Result;
  /// Execution wall time (the parallel evaluation only).
  double Millis = 0;
  /// Workers the executor ran with.
  unsigned Threads = 1;
  /// Wall time spent in compileProgram (all phases and analyses).
  double CompileMillis = 0;
  /// Rewrite counters + per-application provenance from compilation.
  RewriteStats Rewrites;
  /// Per-worker executor metrics accumulated across all parallel loops:
  /// chunks claimed from the dynamic cursor, index-space items covered,
  /// busy time inside chunk bodies, and queue-wait in the claim loop.
  std::vector<WorkerStats> Workers;
  /// Multiloops that took the chunked parallel path / stayed sequential.
  int64_t ParallelLoops = 0;
  int64_t SequentialLoops = 0;
  /// Loop executions that matched a per-loop tuning decision (counts every
  /// execution, so a tuned loop inside an outer iteration counts per run).
  int64_t TunedLoops = 0;
  /// Kernel index blocks executed instruction-wide (Kernel::WideEligible).
  int64_t WideBlocks = 0;
  /// One record per executed closed multiloop, in execution order: engine,
  /// wall time, and hardware/rusage counter deltas (observe/Prof.h).
  std::vector<LoopProfile> Loops;
  /// Simulator prediction replayed for each measured loop on the host
  /// machine model (sim/Calibration.h).
  CalibrationReport Calibration;
  /// Engine mode the run executed with.
  engine::EngineMode Mode = engine::EngineMode::Interp;
  /// Kernel-engine stats: loops compiled to bytecode, launches, per-kernel
  /// timings, and per-loop fallback reasons. Empty under EngineMode::Interp.
  engine::KernelStats Kernels;
  /// This run's sampling-profiler delta (observe/Sampler.h): busy/idle
  /// sample counts and per-(phase, loop) collapsed stacks accumulated
  /// between run start and stop. Enabled=false when no profiler was active.
  SamplingSummary Sampling;
};

/// Compiles \p P with \p Opts, adapts \p Inputs to any SoA layout change,
/// and runs the optimized program with the runtime knobs in \p Exec:
/// worker count, engine mode (docs/EXECUTION.md — boxed interpreter,
/// compiled register bytecode with transparent per-loop fallback, or Auto),
/// minimum work units per parallel chunk (runtime/ThreadPool.h chunkCount:
/// a loop splits by its static work, not its length), and an optional
/// per-loop tuning decision table (docs/TUNING.md).
///
/// Execution is fault-isolated (docs/ROBUSTNESS.md): user-program traps,
/// deadline expiry, and budget overruns do not propagate — they come back
/// as ExecutionReport::Status with the trap message/loop and the partial
/// metrics gathered before the unwind. Only compiler invariants still
/// abort.
ExecutionReport executeProgram(const Program &P, const InputMap &Inputs,
                               const CompileOptions &Opts,
                               const ExecOptions &Exec);

/// Converts the inputs of \p Source that \p CR turned from array-of-structs
/// into struct-of-arrays (CompileResult::SoaConverted) to the SoA layout
/// the compiled program reads. Every other input is copied unchanged, and a
/// converted input the caller did not bind is skipped.
InputMap adaptInputs(const Program &Source, const CompileResult &CR,
                     const InputMap &Inputs);

} // namespace dmll

#endif // DMLL_RUNTIME_EXECUTOR_H
