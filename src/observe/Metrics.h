//===- observe/Metrics.h - Executor metrics and the loop record -*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executor metrics and the loop record (docs/TELEMETRY.md).
/// ThreadPool::parallelFor fills a ParallelForStats per call — per worker:
/// chunks, items, steals, busy vs wait time, counter deltas — and the
/// interpreter accumulates them into an ExecProfile. The closed multiloop is
/// the unit of execution (Section 5) and so the unit of report: the
/// interpreter builds one LoopProfile per closed-loop execution and hands it
/// to one LoopObservation, which feeds every telemetry sink from it.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_OBSERVE_METRICS_H
#define DMLL_OBSERVE_METRICS_H

#include "observe/Prof.h"
#include "observe/Sampler.h"
#include "observe/Trace.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dmll {

class EventLog;

/// One worker's share of one (or, after accumulation, many) parallel-for
/// executions.
struct WorkerStats {
  unsigned Worker = 0; ///< worker index, 0-based
  int64_t Chunks = 0;  ///< chunks executed (own deque plus stolen)
  int64_t Items = 0;   ///< iteration-space indices covered by those chunks
  int64_t Steals = 0;  ///< chunks taken from another worker's deque
  int64_t Skipped = 0; ///< chunks dropped after a trap / cancellation
  double BusyMs = 0;   ///< wall time inside chunk bodies
  double WaitMs = 0;   ///< wake-up / steal-probe time outside bodies
  /// Counter deltas summed over this worker's chunk bodies (hardware when
  /// available, getrusage fallback otherwise).
  CounterSample Counters;
};

/// Metrics of a single ThreadPool::parallelFor call.
struct ParallelForStats {
  double ElapsedMs = 0; ///< wall time of the whole call
  std::vector<WorkerStats> Workers;

  int64_t totalChunks() const;
  int64_t totalItems() const;
};

/// The record of one closed-multiloop execution: which engine ran it, with
/// which knobs, why not the kernel engine, how long it took, and what the
/// counters saw. The calibration layer (sim/Calibration.h) and the tuner's
/// cost model (tune/Tuner.h) read it too.
struct LoopProfile {
  std::string Loop;   ///< loopSignature of the multiloop
  std::string Engine = "interp"; ///< "interp" | "kernel"
  int64_t Iters = 0;
  double Millis = 0;    ///< wall time of the loop (execution + merge)
  /// Effective knobs the loop ran with, after any per-loop tuning decision
  /// (tune/Decision.h) was applied: workers available to the loop, minimum
  /// work units per parallel chunk, and whether wide kernel blocks were
  /// enabled.
  unsigned Threads = 1;
  int64_t MinChunk = 0;
  bool Wide = false;
  /// The chunk decision and its input: the loop's static work units per
  /// iteration (runtime/ThreadPool.h chunkWork of analysis/Cost.h's
  /// FlopsPerIter) and the chunkCount both engines ran it in; more than 1
  /// is the chunked path (`parallel` in the rendered record).
  double Work = 1;
  int64_t Chunks = 1;
  /// True when a DecisionTable entry matched this loop's signature.
  bool Tuned = false;
  /// Why the kernel engine did not run a loop it was asked to run (the
  /// compiler's rejection reason or a launch-time binding rejection).
  std::string Fallback;
  /// Counter deltas over the loop: the other workers' chunk-body sums plus
  /// the driver thread's own bracket. Measured only for a run with a
  /// Profile sink (EvalOptions::Profile); zero otherwise.
  CounterSample Counters;
};

/// Appends \p C as a JSON object: `hw`, the four hardware fields and `ipc`
/// when Hw, then the rusage fields.
void appendCounterJson(std::string &Out, const CounterSample &C);

/// Appends \p LP's fields as JSON members, each preceded by a comma — loop,
/// engine, iters, millis, parallel, threads, min_chunk, work, chunks, wide,
/// tuned, then fallback when set and counters when \p WithCounters.
/// `loop.end` and the dmll-profile-v1 `loops` entries both render through
/// it.
void appendLoopFields(std::string &Out, const LoopProfile &LP,
                      bool WithCounters);

/// The one observation of a closed-loop execution. Opening \p Rec (Loop,
/// Iters and knobs set) publishes the sampler phase `exec.loop`, opens the
/// `exec.loop` span and emits `loop.begin`; \p Measure brackets the loop
/// with ThreadCounters. Metric handles are resolved once per signature,
/// never per execution.
class LoopObservation {
public:
  LoopObservation(LoopProfile &Rec, bool Measure);

  /// The interned signature that chunk and kernel scopes publish.
  const char *sampleName() const { return Name; }

  /// Stamps Millis (and Counters) into the record and writes the span args,
  /// the per-loop metrics and `loop.end` from it. A loop that traps is
  /// never closed: the unwind only ends the span and the publication.
  void close();

private:
  LoopProfile &Rec;
  bool Measure;
  const char *Name;
  EventLog *Events;
  SampleScope Sample;
  TraceSpan Span;
  CounterSample Before;
  std::chrono::steady_clock::time_point T0;
};

/// Accumulated executor metrics across an evaluation (one entry per worker,
/// merged by worker index across all parallel loops).
struct ExecProfile {
  std::vector<WorkerStats> Workers;
  int64_t ParallelLoops = 0;   ///< multiloops that took the chunked path
  int64_t SequentialLoops = 0; ///< multiloops evaluated on one thread
  int64_t WideBlocks = 0;      ///< kernel index blocks run instruction-wide
  /// One record per executed closed multiloop, in execution order.
  std::vector<LoopProfile> Loops;

  /// Merges one parallel-for's stats into the per-worker totals.
  void accumulate(const ParallelForStats &S);
};

/// Fixed-width text table of per-worker stats (for benches/examples).
std::string renderWorkerStats(const std::vector<WorkerStats> &Workers);

} // namespace dmll

#endif // DMLL_OBSERVE_METRICS_H
