//===- fuzz/Oracle.h - Fork-sandboxed differential harness ----*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle: runs one generated program through several
/// executor configurations — unoptimized interpreter (the Fig. 2(b) ground
/// truth), interpreter after the full rewrite pipeline, kernel VM at
/// several thread counts, a tuned configuration executing a synthetic
/// per-loop decision table (tune/Tuner.h syntheticDecisions — mixed
/// engines, globals pinned so chunking matches), a telemetry configuration
/// running with the sampling profiler and event log live (observability
/// must be a pure observer: bit-identical to the untuned interpreter at
/// the same globals), and the independent mini evaluator — and checks that
/// every configuration agrees. Every configuration but the mini evaluator
/// runs through evalProgramRecover, so a trap comes back as a structured
/// ExecResult. Each configuration runs in a forked child so a
/// genuine crash (or a compiler-invariant fatalError, which still aborts)
/// cannot take the harness down: the child serializes its result over a
/// pipe and the parent classifies the exit status (clean exit = Ok or
/// Trap depending on the payload tag, SIGABRT with a "dmll fatal error:"
/// banner = Trap, any other signal = Crash, deadline exceeded = Timeout).
/// Recoverable traps — an ExecResult status, or a TrapError unwinding out
/// of the mini evaluator — are reported by the child as a first-class trap
/// payload over the pipe with a clean exit.
///
/// Agreement policy:
///  * Baseline Ok: every configuration must produce an equal value (floats
///    under relative tolerance, NaN equal to NaN, index order exact). A
///    trap or crash anywhere else is a divergence — rewrites must not
///    introduce traps.
///  * Baseline Trap: configurations running the *same* program (kernel VM,
///    mini evaluator) must trap too. Single-threaded ones must match the
///    message exactly; multi-threaded ones must only match the trap *class*
///    (the message with indices/bounds digits blanked), because parallel
///    chunk workers race to the first fatalError and the reported index is
///    legitimately nondeterministic. Optimized configurations may
///    legitimately not trap (DCE can delete the trapping site), but may
///    not crash.
///  * The two unoptimized kernel configurations must report identical
///    per-loop fallback reasons (fallback asymmetry is an engine bug).
///    The lists are compared sorted: with nested loops compiling inside
///    concurrent chunk workers, recording order is racy.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_FUZZ_ORACLE_H
#define DMLL_FUZZ_ORACLE_H

#include "fuzz/Gen.h"

#include <functional>
#include <string>
#include <vector>

namespace dmll {
namespace fuzz {

/// How one sandboxed execution ended.
enum class RunStatus { Ok, Trap, Crash, Timeout, Skipped };

const char *runStatusName(RunStatus S);

/// Result of one sandboxed execution.
struct RunResult {
  RunStatus Status = RunStatus::Ok;
  Value Out;                          ///< valid when Status == Ok
  std::string TrapMessage;            ///< fatalError payload when Trap
  std::vector<std::string> Fallbacks; ///< kernel fallback reasons when Ok
  int Signal = 0;                     ///< terminating signal when Crash
};

/// One executor configuration of the differential matrix.
struct ExecConfig {
  enum class Engine { Interp, Kernel, Ref };
  std::string Name;
  Engine E = Engine::Interp;
  bool Optimize = false; ///< run the full rewrite pipeline first
  /// With Optimize, keep the loop-transform layer (transform/loop/) on.
  /// The matrix runs one optimized configuration with it off so the
  /// gather-precompute rewrite and its downstream effects are diffed
  /// against the same pipeline without them.
  bool LoopTransforms = true;
  unsigned Threads = 1;
  int64_t MinChunk = 1024;
  /// Execute under a synthetic per-loop decision table (mixed engines,
  /// Threads/MinChunk pinned to the globals above). Results must stay
  /// bit-identical to the untuned interpreter at the same globals.
  bool Tuned = false;
  /// Execute with the telemetry plane live: sampling profiler running and
  /// a dmll-events-v1 log (to /dev/null) activated in the forked child.
  /// Telemetry is a pure observer, so results must stay bit-identical to
  /// the untuned interpreter at the same globals.
  bool Telemetry = false;
};

/// The standard matrix; the first entry is the baseline (unoptimized
/// interpreter, one thread).
std::vector<ExecConfig> defaultConfigs();

/// Runs \p Body in a forked child and classifies the outcome; the child's
/// RunResult (value + fallback list) is piped back on clean return. This is
/// the machinery under runSandboxed, exposed so tests can exercise the
/// classification against synthetic children (fatalError, raw signals).
RunResult runForked(const std::function<RunResult()> &Body,
                    int TimeoutSec = 10);

/// Executes \p C under \p Cfg in a forked child. Returns Skipped (without
/// forking) for the Ref engine when the program is not expressible.
RunResult runSandboxed(const FuzzCase &C, const ExecConfig &Cfg,
                       int TimeoutSec = 10);

/// Divergence classification, most severe first.
enum class DivergenceKind { Crash, WrongValue, TrapMismatch,
                            FallbackAsymmetry };

const char *divergenceKindName(DivergenceKind K);

/// One disagreement between a configuration and the baseline (or, for
/// fallback asymmetry, between the two unoptimized kernel configurations).
struct Divergence {
  DivergenceKind Kind;
  std::string Config;
  std::string Detail;
};

/// Outcome of a full differential run.
struct Verdict {
  uint64_t Seed = 0;
  std::vector<Divergence> Divergences;
  /// The "<loop>: <reason>" kernel compile fallbacks of the unoptimized
  /// one-thread kernel configuration, when it ran clean (dmll-fuzz's
  /// fallback census).
  std::vector<std::string> KernelFallbacks;
  bool ok() const { return Divergences.empty(); }
  /// Multi-line human-readable report ("seed N: clean" when ok).
  std::string str() const;
};

/// Runs \p C through every configuration and applies the agreement policy.
Verdict runDifferential(const FuzzCase &C, double Tol = 1e-6,
                        int TimeoutSec = 10);

/// Deep equality as the oracle defines it: index order exact, struct
/// arity exact, NaN equal to NaN, floats within |a-b| <= Tol*max(1,|a|,|b|).
bool oracleEquals(const Value &A, const Value &B, double Tol);

/// Outcome of a chaos run (runChaos): how many fault schedules executed,
/// how many actually injected something, how many runs ended non-Ok, and
/// every invariant violation found. Problems empty = the program survived
/// all schedules with clean state.
struct ChaosReport {
  uint64_t Seed = 0;   ///< generator seed of the case driven
  int Schedules = 0;   ///< fault schedules executed
  int Faulted = 0;     ///< schedules where >= 1 Alloc/Trap fault fired
  int Disturbed = 0;   ///< faulted runs that ended with a non-Ok status
  std::vector<std::string> Problems;
  bool ok() const { return Problems.empty(); }
  /// Human-readable multi-line report ("seed N: survived K schedules...").
  std::string str() const;
};

/// The chaos oracle: drives \p C *in-process* (no fork — surviving is the
/// point) through \p Schedules deterministic fault schedules derived from
/// \p SeedBase on one persistent 4-worker ThreadPool and one
/// CompiledProgram handle (interp/Interp.h), which the reference, every
/// faulted schedule and every re-run share. Each schedule arms a FaultPlan
/// (faultinject/FaultInject.h) — injected allocation failures, synthetic
/// traps, worker delays, chunk-boundary stalls — sometimes stacked with
/// tight deadlines / iteration budgets, and runs through run(). Invariants
/// checked per schedule:
///  * no TrapError (or any exception) escapes the recover boundary;
///  * a fault-free re-run on the *same* pool and handle reproduces the
///    fault-free reference bit-for-bit (Tol = 0) — no poisoned pool,
///    kernel cache, or column store survives the unwind;
///  * every MetricsRegistry counter stays monotonic across the fault.
ChaosReport runChaos(const FuzzCase &C, int Schedules, uint64_t SeedBase);

} // namespace fuzz
} // namespace dmll

#endif // DMLL_FUZZ_ORACLE_H
