//===- observe/Trace.cpp ---------------------------------------*- C++ -*-===//

#include "observe/Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

using namespace dmll;

TraceSession *TraceSession::Active = nullptr;

namespace {

/// One open span of the calling OS thread. TraceSpan is strictly scoped
/// (RAII), so stack discipline holds. Entries carry their session (so a
/// parent is only linked within the same session when activations nest or
/// swap mid-span) and their logical trace thread: worker 0 participates on
/// the driver's OS thread but records under its own tid, and linking its
/// chunk spans to the driver-tid loop span would put parent and child on
/// different trace rows.
struct OpenSpan {
  TraceSession *S;
  uint64_t Id;
  unsigned Tid;
};

thread_local std::vector<OpenSpan> OpenSpans;

/// Innermost open span of this OS thread with matching session and logical
/// tid (every open span on this OS thread contains "now", so any match is
/// interval-correct); 0 when none.
uint64_t currentParent(TraceSession *S, unsigned Tid) {
  for (auto It = OpenSpans.rbegin(); It != OpenSpans.rend(); ++It)
    if (It->S == S && It->Tid == Tid)
      return It->Id;
  return 0;
}

} // namespace

uint64_t TraceSession::allocId() {
  return NextId.fetch_add(1, std::memory_order_relaxed);
}

TraceSession::TraceSession() : Epoch(std::chrono::steady_clock::now()) {}

double TraceSession::nowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void TraceSession::record(TraceEvent E) {
  std::lock_guard<std::mutex> Lock(Mu);
  Events.push_back(std::move(E));
}

void TraceSession::instant(
    std::string Name, std::string Cat,
    std::vector<std::pair<std::string, std::string>> Args, unsigned Tid) {
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = std::move(Cat);
  E.StartMs = nowMs();
  E.Tid = Tid;
  E.Instant = true;
  E.Id = allocId();
  E.Parent = currentParent(this, Tid);
  E.Args = std::move(Args);
  record(std::move(E));
}

void TraceSession::counter(std::string Name, double Value) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", Value);
  instant(std::move(Name), "counter", {{"value", Buf}});
}

std::vector<TraceEvent> TraceSession::events() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

size_t TraceSession::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events.size();
}

TraceSession *TraceSession::active() { return Active; }

TraceActivation::TraceActivation(TraceSession &S) : Prev(TraceSession::Active) {
  TraceSession::Active = &S;
}

TraceActivation::~TraceActivation() { TraceSession::Active = Prev; }

TraceSpan::TraceSpan(std::string Name, std::string Cat, unsigned Tid)
    : TraceSpan(TraceSession::active(), std::move(Name), std::move(Cat), Tid) {
}

TraceSpan::TraceSpan(TraceSession *S, std::string Name, std::string Cat,
                     unsigned Tid)
    : S(S), Name(std::move(Name)), Cat(std::move(Cat)), Tid(Tid) {
  if (!S)
    return;
  Start = S->nowMs();
  Id = S->allocId();
  Parent = currentParent(S, Tid);
  OpenSpans.push_back({S, Id, Tid});
}

TraceSpan::~TraceSpan() {
  if (!S)
    return;
  OpenSpans.pop_back();
  TraceEvent E;
  E.Name = std::move(Name);
  E.Cat = std::move(Cat);
  E.StartMs = Start;
  E.DurMs = S->nowMs() - Start;
  E.Tid = Tid;
  E.Id = Id;
  E.Parent = Parent;
  E.Args = std::move(Args);
  S->record(std::move(E));
}

void TraceSpan::arg(std::string Key, std::string Value) {
  if (S)
    Args.emplace_back(std::move(Key), std::move(Value));
}

void TraceSpan::argInt(std::string Key, int64_t Value) {
  arg(std::move(Key), std::to_string(Value));
}

namespace {

std::string threadName(unsigned Tid) {
  if (Tid == 0)
    return "compiler/driver";
  return "worker " + std::to_string(Tid - 1);
}

/// Events of one tid sorted for tree reconstruction: by start time, longer
/// spans first on ties so parents precede their children.
std::vector<const TraceEvent *> sortedForTid(const std::vector<TraceEvent> &Es,
                                             unsigned Tid) {
  std::vector<const TraceEvent *> Out;
  for (const TraceEvent &E : Es)
    if (E.Tid == Tid)
      Out.push_back(&E);
  std::stable_sort(Out.begin(), Out.end(),
                   [](const TraceEvent *A, const TraceEvent *B) {
                     if (A->StartMs != B->StartMs)
                       return A->StartMs < B->StartMs;
                     return A->DurMs > B->DurMs;
                   });
  return Out;
}

} // namespace

std::string TraceSession::renderText() const {
  std::vector<TraceEvent> Es = events();
  std::vector<unsigned> Tids;
  for (const TraceEvent &E : Es)
    if (std::find(Tids.begin(), Tids.end(), E.Tid) == Tids.end())
      Tids.push_back(E.Tid);
  std::sort(Tids.begin(), Tids.end());

  // Depth = length of the explicit parent chain (0 for roots and events
  // whose parent was recorded through raw record() without an id).
  std::map<uint64_t, uint64_t> ParentOf;
  for (const TraceEvent &E : Es)
    if (E.Id)
      ParentOf[E.Id] = E.Parent;
  auto DepthOf = [&](const TraceEvent *E) {
    size_t D = 0;
    uint64_t P = E->Parent;
    while (P) {
      ++D;
      auto It = ParentOf.find(P);
      P = It != ParentOf.end() ? It->second : 0;
    }
    return D;
  };

  std::ostringstream OS;
  for (unsigned Tid : Tids) {
    OS << "[" << threadName(Tid) << "]\n";
    for (const TraceEvent *E : sortedForTid(Es, Tid)) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%9.3fms ", E->StartMs);
      OS << Buf;
      for (size_t D = DepthOf(E); D > 0; --D)
        OS << "  ";
      OS << E->Name;
      if (!E->Instant) {
        std::snprintf(Buf, sizeof(Buf), " (%.3fms)", E->DurMs);
        OS << Buf;
      }
      for (const auto &[K, V] : E->Args)
        OS << " " << K << "=" << V;
      OS << "\n";
    }
  }
  return OS.str();
}

std::string TraceSession::renderChromeJson() const {
  std::vector<TraceEvent> Es = events();
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n";
  };
  // Thread-name metadata so chrome://tracing labels the rows.
  std::map<unsigned, bool> Seen;
  for (const TraceEvent &E : Es)
    Seen[E.Tid] = true;
  for (const auto &[Tid, Unused] : Seen) {
    (void)Unused;
    Sep();
    OS << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << Tid
       << ",\"args\":{\"name\":";
    OS << json::quote(threadName(Tid));
    OS << "}}";
  }
  for (const TraceEvent &E : Es) {
    Sep();
    bool IsCounter = E.Cat == "counter";
    OS << "{\"name\":" << json::quote(E.Name)
       << ",\"cat\":" << json::quote(E.Cat.empty() ? "trace" : E.Cat);
    OS << ",\"ph\":\"" << (IsCounter ? "C" : E.Instant ? "i" : "X") << "\"";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", E.StartMs * 1000.0);
    OS << ",\"ts\":" << Buf;
    if (!E.Instant && !IsCounter) {
      std::snprintf(Buf, sizeof(Buf), "%.3f", E.DurMs * 1000.0);
      OS << ",\"dur\":" << Buf;
    }
    if (E.Instant && !IsCounter)
      OS << ",\"s\":\"t\"";
    OS << ",\"pid\":1,\"tid\":" << E.Tid;
    if (!E.Args.empty()) {
      OS << ",\"args\":{";
      bool FirstArg = true;
      for (const auto &[K, V] : E.Args) {
        if (!FirstArg)
          OS << ",";
        FirstArg = false;
        OS << json::quote(K) << ":";
        // Counters must carry numeric args for the Chrome counter track.
        if (IsCounter && K == "value")
          OS << V;
        else
          OS << json::quote(V);
      }
      OS << "}";
    }
    OS << "}";
  }
  OS << "\n]}\n";
  return OS.str();
}

bool TraceSession::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << renderChromeJson();
  return static_cast<bool>(Out);
}
