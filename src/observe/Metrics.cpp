//===- observe/Metrics.cpp -------------------------------------*- C++ -*-===//

#include "observe/Metrics.h"

#include "observe/Events.h"
#include "observe/MetricsRegistry.h"
#include "support/Json.h"

#include <cstdio>
#include <mutex>
#include <sstream>
#include <unordered_map>

using namespace dmll;

int64_t ParallelForStats::totalChunks() const {
  int64_t N = 0;
  for (const WorkerStats &W : Workers)
    N += W.Chunks;
  return N;
}

int64_t ParallelForStats::totalItems() const {
  int64_t N = 0;
  for (const WorkerStats &W : Workers)
    N += W.Items;
  return N;
}

void ExecProfile::accumulate(const ParallelForStats &S) {
  for (const WorkerStats &W : S.Workers) {
    if (W.Worker >= Workers.size()) {
      Workers.resize(W.Worker + 1);
      for (size_t I = 0; I < Workers.size(); ++I)
        Workers[I].Worker = static_cast<unsigned>(I);
    }
    WorkerStats &Acc = Workers[W.Worker];
    Acc.Chunks += W.Chunks;
    Acc.Items += W.Items;
    Acc.Steals += W.Steals;
    Acc.BusyMs += W.BusyMs;
    Acc.WaitMs += W.WaitMs;
    if (W.Chunks > 0)
      Acc.Counters.add(W.Counters);
  }
}

std::string dmll::renderWorkerStats(const std::vector<WorkerStats> &Workers) {
  std::ostringstream OS;
  OS << "worker   chunks      items   steals    busy(ms)    wait(ms)\n";
  for (const WorkerStats &W : Workers) {
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "%6u %8lld %10lld %8lld %11.3f %11.3f\n",
                  W.Worker, static_cast<long long>(W.Chunks),
                  static_cast<long long>(W.Items),
                  static_cast<long long>(W.Steals), W.BusyMs, W.WaitMs);
    OS << Buf;
  }
  return OS.str();
}

void dmll::appendCounterJson(std::string &Out, const CounterSample &C) {
  char Buf[256];
  if (C.Hw)
    std::snprintf(Buf, sizeof(Buf),
                  "{\"hw\":true,\"cycles\":%lld,\"instructions\":%lld,"
                  "\"llc_misses\":%lld,\"branch_misses\":%lld,\"ipc\":%.6g",
                  static_cast<long long>(C.Cycles),
                  static_cast<long long>(C.Instructions),
                  static_cast<long long>(C.LlcMisses),
                  static_cast<long long>(C.BranchMisses), C.ipc());
  Out += C.Hw ? Buf : "{\"hw\":false";
  std::snprintf(Buf, sizeof(Buf),
                ",\"user_ms\":%.6g,\"sys_ms\":%.6g,\"minor_faults\":%lld,"
                "\"major_faults\":%lld,\"ctx_switches\":%lld}",
                C.UserMs, C.SysMs, static_cast<long long>(C.MinorFaults),
                static_cast<long long>(C.MajorFaults),
                static_cast<long long>(C.CtxSwitches));
  Out += Buf;
}

void dmll::appendLoopFields(std::string &Out, const LoopProfile &LP,
                            bool WithCounters) {
  Out += ",\"loop\":" + json::quote(LP.Loop);
  Out += ",\"engine\":" + json::quote(LP.Engine);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                ",\"iters\":%lld,\"millis\":%.6g,\"parallel\":%s,"
                "\"threads\":%u,\"min_chunk\":%lld,\"work\":%.6g,"
                "\"chunks\":%lld,\"wide\":%s,\"tuned\":%s",
                static_cast<long long>(LP.Iters), LP.Millis,
                LP.Chunks > 1 ? "true" : "false", LP.Threads,
                static_cast<long long>(LP.MinChunk), LP.Work,
                static_cast<long long>(LP.Chunks), LP.Wide ? "true" : "false",
                LP.Tuned ? "true" : "false");
  Out += Buf;
  if (!LP.Fallback.empty())
    Out += ",\"fallback\":" + json::quote(LP.Fallback);
  if (WithCounters) {
    Out += ",\"counters\":";
    appendCounterJson(Out, LP.Counters);
  }
}

namespace {

/// The telemetry handles of one loop signature: the sampler's interned
/// name and the metric instruments, resolved once per signature and
/// registry generation (MetricsRegistry::reset() bumps it; instruments
/// resolved before a reset stay allocated). Guarded by SitesMu.
struct LoopSite {
  const char *Name = nullptr;
  uint64_t Gen = 0;
  MetricHistogram *Ms[2] = {};        ///< exec.loop_ms: interp, kernel
  MetricGauge *Threads = nullptr;     ///< exec.loop_threads
  MetricCounter *Loops = nullptr;     ///< exec.loops
  MetricCounter *Decisions = nullptr; ///< tune.decisions_applied
};

std::mutex SitesMu;

LoopSite &siteFor(const std::string &Sig) {
  static auto *Sites = new std::unordered_map<std::string, LoopSite>;
  LoopSite &S = (*Sites)[Sig];
  uint64_t Gen = MetricsRegistry::global().generation();
  if (!S.Name || S.Gen != Gen)
    S = LoopSite{S.Name ? S.Name : internSampleName(Sig), Gen};
  return S;
}

/// The interned name of \p Rec's loop; counts a tuned loop's decision.
const char *openSite(const LoopProfile &Rec) {
  std::lock_guard<std::mutex> L(SitesMu);
  LoopSite &S = siteFor(Rec.Loop);
  if (Rec.Tuned) {
    if (!S.Decisions)
      S.Decisions =
          &MetricsRegistry::global().counter("tune.decisions_applied");
    S.Decisions->inc();
  }
  return S.Name;
}

} // namespace

LoopObservation::LoopObservation(LoopProfile &Rec, bool Measure)
    : Rec(Rec), Measure(Measure), Name(openSite(Rec)),
      Events(EventLog::active()), Sample("exec.loop", Name),
      Span(TraceSession::active(), "exec.loop", "exec") {
  if (Span.live()) {
    Span.arg("loop", Rec.Loop);
    Span.argInt("iters", Rec.Iters);
  }
  if (Events)
    Events->emit(EventKind::LoopBegin, EventLog::str("loop", Rec.Loop) +
                                           EventLog::num("iters", Rec.Iters));
  if (Measure)
    Before = ThreadCounters::now();
  T0 = std::chrono::steady_clock::now();
}

void LoopObservation::close() {
  Rec.Millis = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - T0)
                   .count();
  // Chunk sums of the other workers are already in the record; the
  // driver's own bracket completes it.
  if (Measure)
    Rec.Counters.add(ThreadCounters::now() - Before);
  if (Span.live()) {
    if (Rec.Chunks > 1)
      Span.argInt("chunks", Rec.Chunks);
    Span.arg("engine", Rec.Engine);
    if (!Rec.Fallback.empty())
      Span.arg("fallback", Rec.Fallback);
    const CounterSample &C = Rec.Counters;
    if (Measure && C.Hw) {
      Span.argInt("cycles", C.Cycles);
      Span.argInt("instructions", C.Instructions);
      Span.argInt("llc_misses", C.LlcMisses);
      Span.argInt("branch_misses", C.BranchMisses);
    } else if (Measure) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.3f", C.UserMs);
      Span.arg("user_ms", Buf);
      std::snprintf(Buf, sizeof(Buf), "%.3f", C.SysMs);
      Span.arg("sys_ms", Buf);
    }
  }
  {
    // Always-on per-loop series: one histogram family labeled by (loop,
    // engine) plus a per-loop threads gauge. Signatures name IR shapes, not
    // data, so the label space stays small.
    std::lock_guard<std::mutex> L(SitesMu);
    LoopSite &S = siteFor(Rec.Loop);
    MetricsRegistry &R = MetricsRegistry::global();
    MetricHistogram *&Ms = S.Ms[Rec.Engine == "kernel"];
    if (!Ms)
      Ms = &R.histogram("exec.loop_ms|loop=" + Rec.Loop +
                        "|engine=" + Rec.Engine);
    if (!S.Threads)
      S.Threads = &R.gauge("exec.loop_threads|loop=" + Rec.Loop);
    if (!S.Loops)
      S.Loops = &R.counter("exec.loops");
    Ms->observe(Rec.Millis);
    S.Threads->set(Rec.Chunks > 1 ? Rec.Threads : 1);
    S.Loops->inc();
  }
  if (Events) {
    std::string Fields;
    appendLoopFields(Fields, Rec, Measure);
    Events->emit(EventKind::LoopEnd, Fields);
  }
}
