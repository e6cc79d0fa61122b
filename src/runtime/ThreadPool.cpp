//===- runtime/ThreadPool.cpp ----------------------------------*- C++ -*-===//

#include "runtime/ThreadPool.h"

#include "faultinject/FaultInject.h"
#include "observe/MetricsRegistry.h"
#include "observe/Prof.h"
#include "observe/Trace.h"
#include "runtime/Cancel.h"

#include <algorithm>
#include <cmath>

using namespace dmll;

namespace {

double sinceMs(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

double dmll::chunkWork(double WorkPerIter) {
  return std::isfinite(WorkPerIter) && WorkPerIter >= 1 ? WorkPerIter : 1;
}

int64_t dmll::chunkCount(int64_t N, double WorkPerIter, unsigned Threads,
                         int64_t MinChunk) {
  // Clamped below 2^62 so the conversion stays defined; N / 2 >= E is
  // N >= 2E without the overflow.
  int64_t E = std::max<int64_t>(
      1, static_cast<int64_t>(std::min(
             std::floor(static_cast<double>(MinChunk) / chunkWork(WorkPerIter)),
             0x1p62)));
  if (Threads <= 1 || N / 2 < E)
    return 1;
  return std::min<int64_t>((N - 1) / E + 1, static_cast<int64_t>(Threads) * 4);
}

ThreadPool::ThreadPool(unsigned T) : Threads(T) {
  if (!Threads) {
    Threads = std::thread::hardware_concurrency();
    if (!Threads)
      Threads = 1;
  }
  Deques = std::make_unique<WorkDeque[]>(Threads);
  Workers.reserve(Threads - 1);
  for (unsigned W = 1; W < Threads; ++W)
    Workers.emplace_back([this, W] { workerMain(W); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Shutdown = true;
  }
  WakeCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void ThreadPool::workerMain(unsigned W) {
  uint64_t Seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> L(Mu);
      WakeCV.wait(L, [&] { return Shutdown || Epoch != Seen; });
      if (Shutdown)
        return;
      Seen = Epoch;
    }
    participate(W);
    finishParticipant();
  }
}

void ThreadPool::finishParticipant() {
  std::lock_guard<std::mutex> L(Mu);
  if (--Remaining == 0)
    DoneCV.notify_all();
}

/// Pops the next chunk: front of the own deque first, then the tail of the
/// other workers' deques. One full empty sweep means the job is drained
/// (chunks are only enqueued before the job is published).
bool ThreadPool::popOrSteal(unsigned W, Chunk &C, bool &Stolen) {
  {
    WorkDeque &D = Deques[W];
    std::lock_guard<std::mutex> L(D.Mu);
    if (!D.Q.empty()) {
      C = D.Q.front();
      D.Q.pop_front();
      Stolen = false;
      return true;
    }
  }
  for (unsigned I = 1; I < Threads; ++I) {
    WorkDeque &D = Deques[(W + I) % Threads];
    std::lock_guard<std::mutex> L(D.Mu);
    if (!D.Q.empty()) {
      C = D.Q.back();
      D.Q.pop_back();
      Stolen = true;
      return true;
    }
  }
  return false;
}

void ThreadPool::recordTrap(TrapSlot &Slot, CancelToken *Cancel, int64_t Begin,
                            TrapKind Kind, const std::string &Msg) {
  {
    std::lock_guard<std::mutex> L(Slot.Mu);
    if (!Slot.Has || Begin < Slot.Begin.load(std::memory_order_relaxed)) {
      Slot.Has = true;
      Slot.Kind = Kind;
      Slot.Msg = Msg;
      Slot.Begin.store(Begin, std::memory_order_relaxed);
    }
  }
  // Deadline / budget overruns cancel the whole run: every sibling chunk
  // is skipped. A plain user trap does NOT flip the token — chunks below
  // the recorded one must still run so an even earlier trap can claim the
  // slot (that is what makes the winner deterministic).
  if (Cancel && Kind != TrapKind::Trap)
    Cancel->cancel(Kind, Msg);
}

void ThreadPool::participate(unsigned W) {
  // Snapshot the job description; it stays valid until every participant
  // has called finishParticipant.
  Job J = Cur;
  if (J.Once) {
    try {
      (*J.Once)(W);
    } catch (TrapError &E) {
      if (J.Trap)
        recordTrap(*J.Trap, J.Cancel, 0, E.kind(), E.message());
    }
    return;
  }
  if (!J.For)
    return;
  ParallelForStats *Stats = J.Stats;
  double Entered = Stats ? sinceMs(J.Start) : 0;
  int64_t Steals = 0;
  int64_t Skipped = 0;
  Chunk C;
  bool Stolen;
  double ClaimT0 = Stats ? sinceMs(J.Start) : 0;
  while (popOrSteal(W, C, Stolen)) {
    if (Stolen) {
      ++Steals;
      // Steal latency: how long this worker probed (own deque miss plus
      // victim scan) before landing the stolen chunk.
      if (Stats && J.StealMs)
        J.StealMs->observe(sinceMs(J.Start) - ClaimT0);
    }
    // Cooperative cancellation point: skip chunks an external cancel
    // (deadline/budget) invalidated, and chunks above a recorded trap.
    if ((J.Cancel && J.Cancel->cancelledRelaxed()) ||
        (J.Trap &&
         C.Begin > J.Trap->Begin.load(std::memory_order_relaxed))) {
      ++Skipped;
      if (Stats)
        ClaimT0 = sinceMs(J.Start);
      continue;
    }
    faults::shouldFire(faults::Hook::Delay);
    double T0 = Stats || J.Trace ? sinceMs(J.Start) : 0;
    CounterSample C0 = Stats ? ThreadCounters::now() : CounterSample{};
    {
      TraceSpan Span(J.Trace, J.Name, "exec", W + 1);
      Span.argInt("begin", C.Begin);
      Span.argInt("end", C.End);
      try {
        (*J.For)(C.Begin, C.End, W);
      } catch (TrapError &E) {
        if (J.Trap) {
          recordTrap(*J.Trap, J.Cancel, C.Begin, E.kind(), E.message());
        }
        // No slot (plain-callback job): swallow into a generic cancel so
        // the worker thread still never dies; the dispatcher cannot
        // rethrow without a slot.
      } catch (std::exception &E) {
        if (J.Trap)
          recordTrap(*J.Trap, J.Cancel, C.Begin, TrapKind::Trap,
                     std::string("worker chunk exception: ") + E.what());
      } catch (...) {
        if (J.Trap)
          recordTrap(*J.Trap, J.Cancel, C.Begin, TrapKind::Trap,
                     "worker chunk exception: unknown");
      }
    }
    faults::shouldFire(faults::Hook::Stall);
    if (Stats) {
      WorkerStats &WS = Stats->Workers[W];
      ++WS.Chunks;
      WS.Items += C.End - C.Begin;
      WS.Counters.add(ThreadCounters::now() - C0);
      double BodyMs = sinceMs(J.Start) - T0;
      WS.BusyMs += BodyMs;
      if (J.ChunkMs)
        J.ChunkMs->observe(BodyMs);
      ClaimT0 = sinceMs(J.Start);
    }
  }
  if (Stats) {
    // Queue-wait: everything outside chunk bodies while this worker took
    // part in the job — wake-up latency, deque contention, and the idle
    // tail after the last chunk was claimed by someone else.
    WorkerStats &WS = Stats->Workers[W];
    WS.Steals += Steals;
    WS.Skipped += Skipped;
    WS.WaitMs = sinceMs(J.Start) - Entered - WS.BusyMs;
    if (WS.WaitMs < 0)
      WS.WaitMs = 0;
  }
}

void ThreadPool::publishAndWait(Job J) {
  {
    std::lock_guard<std::mutex> L(Mu);
    Cur = J;
    ++Epoch;
    Remaining = Threads;
  }
  WakeCV.notify_all();
  participate(0);
  finishParticipant();
  {
    std::unique_lock<std::mutex> L(Mu);
    DoneCV.wait(L, [&] { return Remaining == 0; });
    Cur = Job{};
  }
}

void ThreadPool::parallelFor(
    int64_t N, int64_t ChunkSize,
    const std::function<void(int64_t, int64_t, unsigned)> &Body,
    ParallelForStats *Stats, const char *TaskName, CancelToken *Cancel) {
  if (Stats) {
    *Stats = ParallelForStats{};
    Stats->Workers.resize(Threads);
    for (unsigned W = 0; W < Threads; ++W)
      Stats->Workers[W].Worker = W;
  }
  if (N <= 0)
    return;
  ChunkSize = std::max<int64_t>(1, ChunkSize);
  TraceSession *Trace = TraceSession::active();
  const char *Name = TaskName ? TaskName : "exec.chunk";
  auto Start = std::chrono::steady_clock::now();
  // Registry instruments are resolved once per call on the dispatching
  // thread (creation/lookup takes the registry mutex; observing is
  // lock-free), and only when the caller asked for stats.
  MetricHistogram *ChunkMs = nullptr;
  MetricHistogram *StealMs = nullptr;
  if (Stats) {
    MetricsRegistry &R = MetricsRegistry::global();
    ChunkMs = &R.histogram("exec.chunk_ms");
    StealMs = &R.histogram("exec.steal_ms");
  }

  if (Threads == 1 || N <= ChunkSize) {
    // Inline on the calling thread; no dispatch overhead.
    double T0 = Stats || Trace ? sinceMs(Start) : 0;
    CounterSample C0 = Stats ? ThreadCounters::now() : CounterSample{};
    {
      TraceSpan Span(Trace, Name, "exec", 1);
      Span.argInt("begin", int64_t(0));
      Span.argInt("end", N);
      Body(0, N, 0);
    }
    if (Stats) {
      WorkerStats &WS = Stats->Workers[0];
      ++WS.Chunks;
      WS.Items += N;
      WS.Counters.add(ThreadCounters::now() - C0);
      double BodyMs = sinceMs(Start) - T0;
      WS.BusyMs += BodyMs;
      ChunkMs->observe(BodyMs);
      Stats->ElapsedMs = sinceMs(Start);
      MetricsRegistry::global().counter("exec.chunks").inc();
    }
    return;
  }

  // Slice into chunks and block-distribute contiguous runs onto the
  // per-worker deques: owners walk their run front-to-back, thieves take
  // from the far end, so locality survives until load imbalance appears.
  int64_t NumChunks = (N + ChunkSize - 1) / ChunkSize;
  int64_t PerWorker = (NumChunks + Threads - 1) / Threads;
  for (unsigned W = 0; W < Threads; ++W) {
    int64_t First = static_cast<int64_t>(W) * PerWorker;
    int64_t Last = std::min(First + PerWorker, NumChunks);
    if (First >= Last)
      continue;
    WorkDeque &D = Deques[W];
    std::lock_guard<std::mutex> L(D.Mu);
    for (int64_t C = First; C < Last; ++C)
      D.Q.push_back(
          {C * ChunkSize, std::min((C + 1) * ChunkSize, N)});
  }

  TrapSlot Slot;
  Job J;
  J.For = &Body;
  J.Stats = Stats;
  J.Trace = Trace;
  J.Name = Name;
  J.ChunkMs = ChunkMs;
  J.StealMs = StealMs;
  J.Trap = &Slot;
  J.Cancel = Cancel;
  J.Start = Start;
  publishAndWait(J);
  if (Stats) {
    Stats->ElapsedMs = sinceMs(Start);
    MetricsRegistry &R = MetricsRegistry::global();
    R.counter("exec.chunks").inc(Stats->totalChunks());
    int64_t Steals = 0;
    for (const WorkerStats &W : Stats->Workers)
      Steals += W.Steals;
    if (Steals)
      R.counter("exec.steals").inc(Steals);
  }
  // The job drained (workers are parked, deques empty): rethrow the winning
  // trap on the dispatching thread. No re-notification of the trap hook —
  // it already fired at the original trap() site.
  if (Slot.Has)
    throw TrapError(Slot.Kind, Slot.Msg);
}

void ThreadPool::run(const std::function<void(unsigned)> &Body) {
  if (Threads == 1) {
    Body(0);
    return;
  }
  TrapSlot Slot;
  Job J;
  J.Once = &Body;
  J.Trap = &Slot;
  publishAndWait(J);
  if (Slot.Has)
    throw TrapError(Slot.Kind, Slot.Msg);
}
