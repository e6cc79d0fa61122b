//===- support/Error.h - Traps, fatal errors, diagnostics ------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Error reporting for three distinct failure classes (docs/ROBUSTNESS.md):
///
///  * Recoverable *traps* — runtime faults of the evaluated user program
///    (division by zero, out-of-range reads, bad bucket keys, deadline /
///    budget overruns). These throw TrapError via trap(), unwind cleanly
///    out of Interp / KernelVM / worker chunks, and surface as a structured
///    status at the evalProgramRecover (ExecResult) / executeProgram
///    (ExecutionReport) boundary; only evalProgram, the reference
///    semantics, lets them reach its caller. A process hosting many
///    queries survives them.
///  * Violated *invariants* — compiler or runtime bugs (type confusion in
///    the IR builder, unreachable codegen cases). These still abort via
///    fatalError / dmllUnreachable: the process state can no longer be
///    trusted.
///  * Compiler *warnings* — user-facing conditions (e.g. the partitioning
///    analysis of Algorithm 1 calling `warn()`) routed to a DiagSink that
///    callers can capture.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_SUPPORT_ERROR_H
#define DMLL_SUPPORT_ERROR_H

#include <exception>
#include <string>
#include <vector>

namespace dmll {

/// Why a recoverable execution unwound (docs/ROBUSTNESS.md trap taxonomy).
enum class TrapKind {
  Trap,     ///< user-program runtime fault (div/0, OOR read, bad key, ...)
  Deadline, ///< ExecLimits::DeadlineMs expired
  Budget,   ///< ExecLimits memory / iteration budget exhausted
};

const char *trapKindName(TrapKind K);

/// The structured, recoverable trap: thrown by trap() (and by the runtime
/// limit checks in runtime/Cancel.h), caught at the executor boundary and
/// converted into an ExecResult. Worker threads never let it escape — the
/// ThreadPool catches it at chunk boundaries and rethrows the winning trap
/// on the dispatching thread.
class TrapError : public std::exception {
public:
  TrapError(TrapKind K, std::string Msg, std::string Loop = {})
      : Kind(K), Msg(std::move(Msg)), LoopSig(std::move(Loop)) {}

  const char *what() const noexcept override { return Msg.c_str(); }
  const std::string &message() const { return Msg; }
  /// Signature of the innermost closed multiloop that was executing when
  /// the trap fired; empty when the trap hit outside any closed loop.
  const std::string &loop() const { return LoopSig; }
  void setLoop(const std::string &Sig) { LoopSig = Sig; }
  TrapKind kind() const { return Kind; }

private:
  TrapKind Kind;
  std::string Msg;
  std::string LoopSig;
};

/// Reports a recoverable user-program trap: notifies the trap hook (so the
/// telemetry event log records it) and throws TrapError{TrapKind::Trap}.
/// Never returns; unlike fatalError it does not abort and does not print.
[[noreturn]] void trap(const std::string &Msg);

/// Like trap() but with an explicit kind (deadline / budget overruns).
[[noreturn]] void trapWithKind(TrapKind K, const std::string &Msg);

/// Prints \p Msg to stderr and aborts. Used for violated invariants that
/// cannot be expressed as a plain assert (e.g. carry runtime data).
[[noreturn]] void fatalError(const std::string &Msg);

/// Observer invoked with the message by fatalError just before the abort
/// and by trap()/trapWithKind() just before the throw. Installed by the
/// telemetry event log (observe/Events.h) so every trap — recovered or
/// fatal — lands in the JSONL stream; null clears. The hook must not
/// itself call fatalError or trap.
using FatalErrorHook = void (*)(const std::string &Msg);
void setFatalErrorHook(FatalErrorHook H);

/// Marks a point in the code that must never be reached.
[[noreturn]] void dmllUnreachable(const char *Msg);

/// Collects compiler warnings (the `warn()` calls of Algorithm 1 and the
/// stencil fallback of Section 4.2) so tests can assert on them and tools can
/// print them.
class DiagSink {
public:
  /// Records one warning message.
  void warn(const std::string &Msg) { Warnings.push_back(Msg); }

  /// All warnings recorded so far, in emission order.
  const std::vector<std::string> &warnings() const { return Warnings; }

  /// True if at least one warning whose text contains \p Substr was emitted.
  bool hasWarningContaining(const std::string &Substr) const;

  /// Drops all recorded warnings.
  void clear() { Warnings.clear(); }

private:
  std::vector<std::string> Warnings;
};

} // namespace dmll

#endif // DMLL_SUPPORT_ERROR_H
