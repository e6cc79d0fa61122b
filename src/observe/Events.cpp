//===- observe/Events.cpp --------------------------------------*- C++ -*-===//

#include "observe/Events.h"

#include "support/Error.h"
#include "support/Json.h"

#include <atomic>
#include <cstring>
#include <fstream>

using namespace dmll;

int dmll::telemetryThreadId() {
  static std::atomic<int> Next{0};
  thread_local int Id = Next.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

const char *dmll::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::LogOpen:
    return "log.open";
  case EventKind::RunStart:
    return "run.start";
  case EventKind::RunStop:
    return "run.stop";
  case EventKind::LoopBegin:
    return "loop.begin";
  case EventKind::LoopEnd:
    return "loop.end";
  case EventKind::EngineFallback:
    return "engine.fallback";
  case EventKind::MetricsSnapshot:
    return "metrics.snapshot";
  case EventKind::Trap:
    return "trap";
  }
  return "unknown";
}

namespace {

std::atomic<EventLog *> ActiveLog{nullptr};

void trapHook(const std::string &Msg) {
  if (EventLog *L = EventLog::active()) {
    L->emit(EventKind::Trap, EventLog::str("message", Msg));
    L->flush();
  }
}

} // namespace

EventLog::EventLog(const std::string &Path) {
  F = std::fopen(Path.c_str(), "w");
  Epoch = std::chrono::steady_clock::now();
  if (F)
    emit(EventKind::LogOpen, str("schema", "dmll-events-v1"));
}

EventLog::~EventLog() {
  if (F)
    std::fclose(F);
}

std::string EventLog::num(const std::string &Key, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), ":%.6g", V);
  return "," + json::quote(Key) + Buf;
}

std::string EventLog::str(const std::string &Key, const std::string &V) {
  return "," + json::quote(Key) + ":" + json::quote(V);
}

void EventLog::emit(EventKind K, const std::string &Fields) {
  if (!F)
    return;
  int Tid = telemetryThreadId();
  std::lock_guard<std::mutex> L(Mu);
  // Timestamp under the lock, so line order and ts_ms order agree — the
  // validator checks global monotonicity.
  double Ts = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - Epoch)
                  .count();
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "{\"ts_ms\":%.3f,\"tid\":%d,\"type\":", Ts,
                Tid);
  std::string Line = Buf;
  Line += json::quote(eventKindName(K));
  Line += Fields;
  Line += "}\n";
  std::fwrite(Line.data(), 1, Line.size(), F);
  std::fflush(F);
}

void EventLog::flush() {
  std::lock_guard<std::mutex> L(Mu);
  if (F)
    std::fflush(F);
}

EventLog *EventLog::active() {
  return ActiveLog.load(std::memory_order_acquire);
}

EventLogActivation::EventLogActivation(EventLog &L) {
  Prev = ActiveLog.exchange(&L, std::memory_order_release);
  setFatalErrorHook(trapHook);
}

EventLogActivation::~EventLogActivation() {
  ActiveLog.store(Prev, std::memory_order_release);
  if (!Prev)
    setFatalErrorHook(nullptr);
}

EventLogCheck dmll::validateEventLog(const std::string &Path) {
  EventLogCheck R;
  auto Fail = [&](const std::string &Msg) {
    R.Ok = false;
    if (R.Errors.size() < 20)
      R.Errors.push_back(Msg);
  };
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Fail("cannot open " + Path);
    return R;
  }
  static const char *Known[] = {
      "log.open",      "run.start",       "run.stop",
      "loop.begin",    "loop.end",        "engine.fallback",
      "tune.decision", "metrics.snapshot", "trap"};
  double LastTs = -1;
  int64_t RunStarts = 0, RunStops = 0, RunDepth = 0, Traps = 0;
  // Per-tid stack of open loop signatures (loop.begin/loop.end nest on the
  // thread that executes the loop).
  std::map<int64_t, std::vector<std::string>> OpenLoops;
  // Loops a trap abandoned per tid: a recoverable trap unwinds out of open
  // loops without emitting loop.end, so the trap event clears every open
  // stack. A sibling worker already inside a loop when the trap line landed
  // still emits its loop.end afterwards (per-tid program order puts such
  // stragglers before any post-trap loop.begin on that tid); this counter
  // is the per-tid allowance for them.
  std::map<int64_t, int64_t> TrapCleared;
  std::string Line;
  while (std::getline(In, Line)) {
    ++R.Lines;
    if (Line.empty())
      continue;
    std::string Where = "line " + std::to_string(R.Lines);
    json::JValue V;
    if (!json::parse(Line, V)) {
      Fail(Where + ": not valid JSON");
      continue;
    }
    if (V.K != json::JValue::Object) {
      Fail(Where + ": not a JSON object");
      continue;
    }
    const json::JValue *Ts = V.field("ts_ms");
    const json::JValue *Tid = V.field("tid");
    const json::JValue *TypeV = V.field("type");
    if (!Ts || Ts->K != json::JValue::Number)
      Fail(Where + ": missing numeric ts_ms");
    if (!Tid || Tid->K != json::JValue::Number)
      Fail(Where + ": missing numeric tid");
    if (!TypeV || TypeV->K != json::JValue::String) {
      Fail(Where + ": missing type");
      continue;
    }
    const std::string &Type = TypeV->Str;
    bool KnownType = false;
    for (const char *T : Known)
      KnownType |= Type == T;
    if (!KnownType)
      Fail(Where + ": unknown event type \"" + Type + "\"");
    ++R.CountsByType[Type];
    if (Ts && Ts->K == json::JValue::Number) {
      if (Ts->Num < LastTs)
        Fail(Where + ": ts_ms went backwards");
      LastTs = std::max(LastTs, Ts->Num);
    }
    if (R.Lines == 1) {
      if (Type != "log.open")
        Fail("line 1: first event must be log.open");
      if (V.strField("schema") != "dmll-events-v1")
        Fail("line 1: log.open must carry schema \"dmll-events-v1\"");
    }
    if (Type == "run.start") {
      ++RunStarts;
      ++RunDepth;
    } else if (Type == "run.stop") {
      ++RunStops;
      if (--RunDepth < 0)
        Fail(Where + ": run.stop without an open run.start");
      // A recovered run closes its bracket with an explicit status; when
      // present it must be one of the ExecStatus names (runtime/Cancel.h).
      std::string Status = V.strField("status");
      if (!Status.empty() && Status != "ok" && Status != "trapped" &&
          Status != "deadline_exceeded" && Status != "budget_exceeded")
        Fail(Where + ": run.stop with unknown status \"" + Status + "\"");
    } else if (Type == "trap") {
      // A trap unwinds out of every open loop without emitting loop.end;
      // the stream legitimately continues afterwards (run.stop with a
      // non-ok status, then fresh runs on the recovered executor).
      ++Traps;
      for (auto &[T, Stack] : OpenLoops) {
        TrapCleared[T] += static_cast<int64_t>(Stack.size());
        Stack.clear();
      }
    } else if (Type == "loop.begin" || Type == "loop.end") {
      const json::JValue *Loop = V.field("loop");
      int64_t T = Tid && Tid->K == json::JValue::Number
                      ? static_cast<int64_t>(Tid->Num)
                      : -1;
      if (!Loop || Loop->K != json::JValue::String) {
        Fail(Where + ": " + Type + " without loop signature");
      } else if (Type == "loop.begin") {
        OpenLoops[T].push_back(Loop->Str);
      } else {
        std::vector<std::string> &Stack = OpenLoops[T];
        if (!Stack.empty() && Stack.back() == Loop->Str) {
          Stack.pop_back();
        } else if (Stack.empty() && TrapCleared[T] > 0) {
          // Straggler loop.end whose loop.begin a trap cleared: a sibling
          // worker finishing the loop it was already inside.
          --TrapCleared[T];
        } else if (Stack.empty()) {
          Fail(Where + ": loop.end without matching loop.begin on tid " +
               std::to_string(T));
        } else {
          Fail(Where + ": loop.end signature \"" + Loop->Str +
               "\" does not match open loop \"" + Stack.back() + "\"");
        }
      }
    }
  }
  if (R.Lines == 0)
    Fail("empty event log");
  // Loops opened after the last trap must balance; loops a trap unwound
  // were already cleared above. An aborting (non-recovered) trap kills the
  // process right after the trap line, so its stacks are cleared too.
  for (const auto &[Tid, Stack] : OpenLoops)
    if (!Stack.empty())
      Fail("tid " + std::to_string(Tid) + " ended with " +
           std::to_string(Stack.size()) + " unclosed loop.begin event(s)");
  // Every trap may strand at most one run bracket (the process dying, or a
  // writer that never emits the closing run.stop); anything beyond that is
  // a real imbalance.
  if (RunStarts - RunStops > Traps)
    Fail("run.start/run.stop imbalance: " + std::to_string(RunStarts) +
         " vs " + std::to_string(RunStops) + " with only " +
         std::to_string(Traps) + " trap(s)");
  return R;
}
