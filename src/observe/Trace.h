//===- observe/Trace.h - Compiler/runtime trace sessions -------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiler and runtime trace sessions (docs/TELEMETRY.md, "Traces"): a
/// TraceSession records an ordered tree of timed events — compiler phases,
/// rewrite-rule firings, analyses, codegen steps, executor spans — and
/// renders it as an indented text tree or as Chrome-trace JSON for
/// chrome://tracing / Perfetto. Instrumentation uses the LLVM time-trace
/// idiom: one session is made active (TraceActivation, RAII) and TraceSpan
/// records into it with zero plumbing; with none active every probe is a
/// no-op. Activate while single-threaded; recording itself is thread-safe.
/// Names are dotted lowercase `<area>.<step>` ("compile.fusion",
/// "exec.chunk"); categories ("phase", "pass", "rewrite", "analysis",
/// "codegen", "exec", "counter") group them for filtering.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_OBSERVE_TRACE_H
#define DMLL_OBSERVE_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dmll {

/// One completed (or instantaneous) event; spans record themselves on
/// close. Nesting is explicit: a span's Parent is the innermost span open
/// at its opening on the same OS thread, session and trace thread (Tid), so
/// "a parent's interval contains its children's" is a checkable invariant.
struct TraceEvent {
  std::string Name; ///< dotted name, e.g. "compile.fusion"
  std::string Cat;  ///< "phase" | "pass" | "rewrite" | "analysis" |
                    ///< "codegen" | "exec" | "counter" | ...
  double StartMs = 0; ///< milliseconds since the session epoch
  double DurMs = 0;   ///< 0 for instants and counters
  unsigned Tid = 0;   ///< 0 = compile/driver thread; executor worker W is W+1
  bool Instant = false; ///< zero-duration marker (Chrome phase "i" / "C")
  uint64_t Id = 0;     ///< session-unique span id (0 only for raw record()s)
  uint64_t Parent = 0; ///< Id of the enclosing span on this thread; 0 = root
  /// Extra metadata: counter values, IR node counts, rule summaries.
  std::vector<std::pair<std::string, std::string>> Args;
};

/// An append-only event log with a steady-clock epoch. Sessions are created
/// by tools (benches, examples, tests), activated for a region, and
/// exported at the end.
class TraceSession {
public:
  TraceSession();

  /// Milliseconds since this session was constructed.
  double nowMs() const;

  /// Appends one event. Thread-safe.
  void record(TraceEvent E);

  /// Records a zero-duration marker event.
  void instant(std::string Name, std::string Cat,
               std::vector<std::pair<std::string, std::string>> Args = {},
               unsigned Tid = 0);

  /// Records a named counter sample (rendered as a Chrome "C" event).
  void counter(std::string Name, double Value);

  /// Snapshot of all events recorded so far, in recording order.
  std::vector<TraceEvent> events() const;

  /// Number of events recorded so far.
  size_t size() const;

  /// The currently active session, or nullptr. Probes (TraceSpan and the
  /// instrumentation in compiler/runtime code) no-op when this is null.
  static TraceSession *active();

  /// Allocates a session-unique span id (thread-safe).
  uint64_t allocId();

  /// Indented per-thread text tree (nesting from explicit parent ids).
  std::string renderText() const;

  /// Chrome trace format: {"traceEvents": [...]} with complete ("X"),
  /// instant ("i"), counter ("C") and thread-name metadata ("M") records.
  /// Loadable by chrome://tracing and https://ui.perfetto.dev.
  std::string renderChromeJson() const;

  /// Writes renderChromeJson() to \p Path; returns false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;

private:
  friend class TraceActivation;
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
  std::atomic<uint64_t> NextId{1};
  static TraceSession *Active;
};

/// RAII: makes a session the active one for its scope (restoring the
/// previous active session on destruction). Activate while single-threaded.
class TraceActivation {
public:
  explicit TraceActivation(TraceSession &S);
  ~TraceActivation();
  TraceActivation(const TraceActivation &) = delete;
  TraceActivation &operator=(const TraceActivation &) = delete;

private:
  TraceSession *Prev;
};

/// RAII timed span recorded into the active session (or an explicit one) at
/// scope exit. Args attached before destruction land on the event.
class TraceSpan {
public:
  /// Span against the active session; no-op when none is active.
  TraceSpan(std::string Name, std::string Cat, unsigned Tid = 0);
  /// Span against an explicit session (\p S may be null: no-op).
  TraceSpan(TraceSession *S, std::string Name, std::string Cat,
            unsigned Tid = 0);
  ~TraceSpan();
  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// Attaches a string argument to the pending event.
  void arg(std::string Key, std::string Value);
  /// Attaches an integer argument to the pending event.
  void argInt(std::string Key, int64_t Value);

  /// True if this span will actually record (a session is attached).
  bool live() const { return S != nullptr; }

  /// This span's session-unique id (0 when not live).
  uint64_t id() const { return Id; }

private:
  TraceSession *S;
  std::string Name, Cat;
  unsigned Tid;
  double Start = 0;
  uint64_t Id = 0;     ///< allocated at open
  uint64_t Parent = 0; ///< innermost open span on this thread at open time
  std::vector<std::pair<std::string, std::string>> Args;
};

} // namespace dmll

#endif // DMLL_OBSERVE_TRACE_H
