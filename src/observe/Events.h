//===- observe/Events.h - Structured JSONL event log -----------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured runtime event log (`dmll-events-v1`, docs/TELEMETRY.md):
/// an append-only JSONL stream of execution milestones — run start/stop,
/// closed-loop begin/end, engine fallbacks, metrics snapshots, traps — one
/// `{"ts_ms":..,"tid":..,"type":"..",...}` object per line after a
/// `log.open` header, written and flushed as execution happens, so a
/// tailing consumer sees milestones live and a crash leaves everything up
/// to it on disk. Writes are serialized, so `ts_ms` is globally
/// non-decreasing.
///
/// Like TraceSession, an EventLog becomes the process-wide sink through an
/// RAII EventLogActivation, which also hooks fatalError so every trap emits
/// a `trap` event and flushes. A recoverable trap continues the stream: the
/// executor closes the bracket with a non-ok `run.stop`.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_OBSERVE_EVENTS_H
#define DMLL_OBSERVE_EVENTS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace dmll {

/// Small, stable per-thread id for telemetry records: 0, 1, 2, ... in order
/// of first use within the process (the driver is typically 0). Distinct
/// from pthread ids, which are neither small nor stable across runs.
int telemetryThreadId();

/// Event kinds of the dmll-events-v1 schema.
enum class EventKind {
  LogOpen,        ///< first line of every log; carries the schema tag
  RunStart,       ///< executeProgram began an evaluation
  RunStop,        ///< executeProgram finished (args: millis)
  LoopBegin,      ///< a closed multiloop started (args: iters)
  LoopEnd,        ///< it finished (args: the loop record's fields)
  EngineFallback, ///< kernel compilation rejected a loop (args: reason)
  MetricsSnapshot,///< snapshotter delta record (args: changed counters)
  Trap,           ///< fatalError fired (args: message); log flushes first
};

const char *eventKindName(EventKind K);

/// An open dmll-events-v1 log file. Thread-safe; every emit appends one
/// line and flushes (events are per-loop-coarse, not per-element, so the
/// stream stays cheap while remaining tail-able and abort-safe).
class EventLog {
public:
  /// Opens (truncates) \p Path and writes the log.open header line.
  explicit EventLog(const std::string &Path);
  ~EventLog();

  bool ok() const { return F != nullptr; }

  /// Appends one event line: ts_ms, tid and type, then \p Fields — JSON
  /// members each preceded by a comma, as num()/str() and appendLoopFields
  /// (observe/Metrics.h) render them.
  void emit(EventKind K, const std::string &Fields = {});
  void flush();

  /// One member for emit(): `,"Key":V` (%.6g) / `,"Key":"V"` (quoted).
  static std::string num(const std::string &Key, double V);
  static std::string str(const std::string &Key, const std::string &V);

  /// The process-wide active log, or null. Set by EventLogActivation.
  static EventLog *active();

private:
  std::FILE *F = nullptr;
  std::chrono::steady_clock::time_point Epoch;
  std::mutex Mu;
};

/// RAII activation: installs \p L as the process-wide event sink and hooks
/// fatalError to emit a trap event (and flush) before aborting. Restores
/// the previous sink/hook on destruction.
class EventLogActivation {
public:
  explicit EventLogActivation(EventLog &L);
  ~EventLogActivation();

private:
  EventLog *Prev;
};

/// Result of validating a JSONL file against dmll-events-v1.
struct EventLogCheck {
  bool Ok = true;
  std::vector<std::string> Errors;
  std::map<std::string, int64_t> CountsByType;
  int64_t Lines = 0;
};

/// Validates \p Path against the dmll-events-v1 schema: every line parses
/// as a JSON object with ts_ms/tid/type, the first line is log.open with
/// the right schema tag, ts_ms is globally non-decreasing, loop begin/end
/// nest per thread with matching signatures, run depth never goes
/// negative, and any run.stop status is a known ExecStatus name. Traps may
/// appear mid-stream: a trap clears every open loop stack (the unwind
/// emits no loop.end; straggling sibling loop.end events are absorbed) and
/// the log may continue with recovery events afterwards. At end of file
/// the run.start/run.stop imbalance may not exceed the trap count, and
/// every loop opened after the last trap must have closed.
EventLogCheck validateEventLog(const std::string &Path);

} // namespace dmll

#endif // DMLL_OBSERVE_EVENTS_H
