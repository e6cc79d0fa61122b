//===- runtime/Cancel.h - Cooperative cancellation and limits --*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run control plane for recoverable execution (docs/ROBUSTNESS.md):
///
///  * CancelToken — a first-cancel-wins flag siblings poll cooperatively.
///    When one worker chunk traps, the token flips and every other worker
///    skips its remaining chunks at the next chunk boundary; deadlines and
///    budget overruns flip the same token so all three unwind identically.
///  * MemoryBudget — a per-run allocation meter charged (at checkpoint
///    granularity, not per malloc) by Value materialization and column
///    flattening; exceeding ExecLimits::MaxMemoryBytes converts what would
///    have been an OOM into a graceful BudgetExceeded result.
///  * ExecLimits / RunControl — the user-facing knob declared in
///    ExecOptions (interp/Interp.h) and threaded into LaunchContext, and
///    the per-execution object that enforces it by throwing TrapError.
///
/// All checks are cooperative: workers poll at chunk boundaries and the
/// evaluators poll every few hundred iterations, so enforcement granularity
/// is a chunk, never an instruction. There is no asynchronous interruption.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_RUNTIME_CANCEL_H
#define DMLL_RUNTIME_CANCEL_H

#include "support/Error.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace dmll {

/// How a recoverable execution ended. The structured result of
/// evalProgramRecover / executeProgram — a trapping program returns
/// Trapped, it does not kill the process.
enum class ExecStatus {
  Ok,               ///< ran to completion
  Trapped,          ///< user-program runtime fault (TrapKind::Trap)
  DeadlineExceeded, ///< ExecLimits::DeadlineMs expired mid-run
  BudgetExceeded,   ///< memory or iteration budget exhausted
};

const char *execStatusName(ExecStatus S);

/// The ExecStatus a given TrapKind unwinds to.
ExecStatus execStatusForTrap(TrapKind K);

/// Resource ceilings for one execution. Zero means unlimited. Enforced
/// cooperatively at chunk / checkpoint granularity: a run may overshoot a
/// deadline by one chunk's latency and a memory budget by one checkpoint
/// interval's allocations before it notices.
struct ExecLimits {
  /// Wall-clock deadline for the whole run, in milliseconds.
  int64_t DeadlineMs = 0;
  /// Ceiling on bytes of Value/column payload materialized by the run.
  int64_t MaxMemoryBytes = 0;
  /// Ceiling on total loop iterations executed by the run (all multiloops,
  /// all nesting levels combined).
  int64_t MaxIterations = 0;

  bool any() const { return DeadlineMs > 0 || MaxMemoryBytes > 0 ||
                            MaxIterations > 0; }
};

/// First-cancel-wins cooperative cancellation flag. cancel() from any
/// thread arms it; every later cancel() is a no-op, so the recorded kind
/// and message are those of the first cause. cancelled() also polls the
/// armed deadline, converting clock expiry into a cancellation.
class CancelToken {
public:
  /// Arms a wall-clock deadline \p Ms milliseconds from now (no-op if
  /// Ms <= 0).
  void armDeadline(int64_t Ms);

  /// Requests cancellation for \p K / \p Msg. Only the first call records
  /// its cause.
  void cancel(TrapKind K, const std::string &Msg);

  /// True once cancelled (checks the deadline as a side effect).
  bool cancelled();

  /// True without polling the deadline — cheap form for hot paths that are
  /// polled elsewhere.
  bool cancelledRelaxed() const {
    return Flag.load(std::memory_order_acquire);
  }

  /// Throws the recorded cause as a TrapError. Pre: cancelled().
  [[noreturn]] void rethrow() const;

  TrapKind kind() const { return Kind; }
  std::string message() const;

private:
  std::atomic<bool> Flag{false};
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline;
  mutable std::mutex Mu; ///< guards Kind/Msg during the first cancel()
  TrapKind Kind = TrapKind::Trap;
  std::string Msg;
};

/// Per-run allocation meter. charge() is thread-safe (workers of one run
/// charge concurrently); the limit check is performed by RunControl, which
/// converts overruns into BudgetExceeded.
class MemoryBudget {
public:
  void setLimit(int64_t Bytes) { Limit = Bytes; }
  int64_t limit() const { return Limit; }

  /// Adds \p Bytes to the meter and returns the new total.
  int64_t charge(int64_t Bytes) {
    return Used.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  }

  int64_t used() const { return Used.load(std::memory_order_relaxed); }
  bool exceeded() const { return Limit > 0 && used() > Limit; }

private:
  std::atomic<int64_t> Used{0};
  int64_t Limit = 0;
};

/// The per-execution control block: one per run() (evalProgramRecover and
/// executeProgram run through it), shared (by pointer, via LaunchContext
/// and the chunk-spawned sub-evaluators) with every worker of the run.
/// Null RunControl pointers everywhere mean "no limits".
class RunControl {
public:
  RunControl() = default;
  explicit RunControl(const ExecLimits &L) { arm(L); }

  /// Installs \p L: arms the deadline and budget ceilings.
  void arm(const ExecLimits &L);

  CancelToken &token() { return Token; }
  MemoryBudget &memory() { return Mem; }

  /// Full checkpoint: polls deadline + cancellation + budgets and throws
  /// the winning TrapError if the run must unwind. Called at chunk
  /// boundaries and every few hundred evaluator iterations.
  void checkpoint();

  /// Charges \p N loop iterations against MaxIterations (checked at the
  /// next checkpoint()).
  void chargeIterations(int64_t N) {
    Iterations.fetch_add(N, std::memory_order_relaxed);
  }

  /// Charges \p Bytes of payload against the memory budget (checked at the
  /// next checkpoint()).
  void chargeMemory(int64_t Bytes) { Mem.charge(Bytes); }

  int64_t iterations() const {
    return Iterations.load(std::memory_order_relaxed);
  }

private:
  CancelToken Token;
  MemoryBudget Mem;
  std::atomic<int64_t> Iterations{0};
  int64_t MaxIterations = 0;
};

/// Number of evaluator iterations between RunControl::checkpoint() polls —
/// a power of two so the hot-loop test is a mask.
constexpr int64_t CheckpointInterval = 1024;

} // namespace dmll

#endif // DMLL_RUNTIME_CANCEL_H
