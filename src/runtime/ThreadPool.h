//===- runtime/ThreadPool.h - Persistent work-stealing pool ----*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent worker pool with a work-stealing parallel-for: workers are
/// created once in the constructor and woken by condition variable for each
/// job, so a program run executing many multiloops pays thread creation
/// exactly once. Each parallelFor slices the iteration space into chunks,
/// block-distributes contiguous runs onto per-worker deques, and lets idle
/// workers steal from the tail of a victim's deque — the "dynamic load
/// balancing within each machine" the paper's multi-core partitioner
/// provides for irregular applications (Section 5).
///
/// parallelFor is instrumented: when a ParallelForStats is supplied it
/// records per-worker chunk counts, items covered, steals, busy time and
/// queue-wait (observe/Metrics.h), and when a TraceSession is active
/// (observe/Trace.h) each chunk is recorded as a timed span on its worker's
/// trace thread.
///
/// Jobs are dispatched from one coordinating thread at a time; parallelFor
/// and run are not reentrant from inside a chunk body.
///
/// Trap containment (docs/ROBUSTNESS.md): a TrapError thrown by a chunk
/// body never escapes a worker thread. The pool catches it at the chunk
/// boundary, records it in a per-job trap slot where the trap whose chunk
/// covers the *lowest* iteration range wins, and rethrows the winner on the
/// dispatching thread once the job drains. Siblings keep executing chunks
/// below the recorded trap (one of them might trap even earlier — this is
/// what makes "first trap wins" deterministic: the winner is exactly the
/// trap sequential execution would have hit first) and skip chunks above
/// it. An external CancelToken (deadline / budget, runtime/Cancel.h) skips
/// *all* remaining chunks instead. The pool survives either way: deques
/// drain, workers re-park, and the next parallelFor on the same pool runs
/// normally.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_RUNTIME_THREADPOOL_H
#define DMLL_RUNTIME_THREADPOOL_H

#include "observe/Metrics.h"
#include "support/Error.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dmll {

class CancelToken;
class MetricHistogram;
class TraceSession;

/// Fixed-size persistent worker pool: Threads - 1 OS threads parked on a
/// condition variable plus the calling thread, which participates in every
/// job.
class ThreadPool {
public:
  /// \p Threads == 0 selects the hardware concurrency.
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const { return Threads; }

  /// Runs \p Body(begin, end, worker) over [0, N) in chunks of at most
  /// \p ChunkSize, block-distributed over per-worker deques with stealing.
  /// Blocks until complete. When \p Stats is non-null it is overwritten
  /// with this call's per-worker metrics; \p TaskName labels the chunk
  /// spans recorded into the active TraceSession (defaults to
  /// "exec.chunk").
  ///
  /// A TrapError thrown by \p Body is contained per the trap-slot protocol
  /// above and rethrown from this call on the dispatching thread; when
  /// \p Cancel is non-null, cancellation (first trap, deadline, budget)
  /// makes the remaining chunks drain as skips.
  void parallelFor(int64_t N, int64_t ChunkSize,
                   const std::function<void(int64_t, int64_t, unsigned)> &Body,
                   ParallelForStats *Stats = nullptr,
                   const char *TaskName = nullptr,
                   CancelToken *Cancel = nullptr);

  /// Runs \p Body(worker) once on each of the pool's workers (through the
  /// same persistent dispatch as parallelFor).
  void run(const std::function<void(unsigned)> &Body);

private:
  struct Chunk {
    int64_t Begin;
    int64_t End;
  };
  /// One worker's chunk queue: the owner pops from the front, thieves pop
  /// from the back.
  struct WorkDeque {
    std::mutex Mu;
    std::deque<Chunk> Q;
  };
  /// Where a job's winning trap is parked until the dispatcher rethrows it.
  /// Begin is the trapping chunk's start index; the lowest Begin wins so
  /// the surviving trap equals the one sequential execution hits first.
  struct TrapSlot {
    std::mutex Mu;
    /// Lock-free skip test for workers: chunks starting above this value
    /// are dropped. INT64_MAX while no trap is recorded.
    std::atomic<int64_t> Begin{INT64_MAX};
    bool Has = false;
    TrapKind Kind = TrapKind::Trap;
    std::string Msg;
  };

  /// The currently published job (valid while Remaining > 0).
  struct Job {
    const std::function<void(int64_t, int64_t, unsigned)> *For = nullptr;
    const std::function<void(unsigned)> *Once = nullptr;
    ParallelForStats *Stats = nullptr;
    TraceSession *Trace = nullptr;
    const char *Name = nullptr;
    /// Registry histograms (observe/MetricsRegistry.h), resolved once per
    /// parallelFor on the dispatching thread; null on unprofiled jobs.
    MetricHistogram *ChunkMs = nullptr; ///< chunk-body latency
    MetricHistogram *StealMs = nullptr; ///< probe time before a steal lands
    /// Trap containment state, owned by the dispatching frame.
    TrapSlot *Trap = nullptr;
    /// External cancellation: when set and cancelled, remaining chunks are
    /// skipped rather than run.
    CancelToken *Cancel = nullptr;
    std::chrono::steady_clock::time_point Start;
  };

  void workerMain(unsigned W);
  void participate(unsigned W);
  bool popOrSteal(unsigned W, Chunk &C, bool &Stolen);
  /// Records a trap from the chunk starting at \p Begin into \p Slot
  /// (lowest Begin wins) and, for deadline/budget kinds, flips \p Cancel.
  static void recordTrap(TrapSlot &Slot, CancelToken *Cancel, int64_t Begin,
                         TrapKind Kind, const std::string &Msg);
  void finishParticipant();
  void publishAndWait(Job J);

  unsigned Threads;
  std::unique_ptr<WorkDeque[]> Deques;
  std::vector<std::thread> Workers;

  std::mutex Mu;
  std::condition_variable WakeCV;
  std::condition_variable DoneCV;
  uint64_t Epoch = 0;
  unsigned Remaining = 0;
  bool Shutdown = false;
  Job Cur;
};

/// The work units per iteration the chunk rule counts for a static
/// estimate \p WorkPerIter: itself when finite and >= 1, else 1.
double chunkWork(double WorkPerIter);

/// The one chunk rule for a closed loop of \p N iterations (both engines,
/// the tuner and its cost model call it): with W = chunkWork(WorkPerIter),
/// a chunk holds E = max(1, floor(MinChunk / W)) iterations, the loop runs
/// chunked iff Threads > 1 and N >= 2E, and then into
/// min(ceil(N / E), 4 * Threads) chunks. 1 means sequential. MinChunk thus
/// counts work units, and a loop whose iterations are 1,000x heavier splits
/// 1,000x sooner.
int64_t chunkCount(int64_t N, double WorkPerIter, unsigned Threads,
                   int64_t MinChunk);

} // namespace dmll

#endif // DMLL_RUNTIME_THREADPOOL_H
