//===- interp/Interp.h - Reference evaluator for DMLL IR -------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference interpreter. It implements exactly the sequential semantics
/// of Fig. 2(b) and is the ground truth every transformation is property-
/// tested against: for random inputs, eval(P) == eval(transform(P)).
///
/// Notable defined behaviours:
///  * Empty reductions produce Value::zeroOf(value type); the hand-written
///    reference implementations replicate this.
///  * Select is lazy (only the chosen arm is evaluated); And/Or evaluate
///    both operands (generator conditions are pure).
///  * One iteration's conds, keys and values, across all generators of a
///    multiloop, share one scope that binds the index, and a false cond
///    still skips its generator's value and key.
///  * Multiloop and Flatten results are memoized in the innermost scope that
///    binds one of their free symbols, so a loop shared by several consumers
///    executes once per iteration and loop-invariant inner loops are hoisted
///    implicitly; a closed one executes once per run, even when the loops
///    around it run chunked. Before a loop starts its chunks, the closed
///    loops its generators read that cannot trap (per mayTrap, or bounded
///    gathers) run on the whole pool, not in the first chunk to reach them.
///  * Four fast paths skip per-element work and are unobservable — the same
///    bits, the same trap message at the same element, the same iterations
///    and memory charged at the same checkpoints, the same fault-hook
///    opportunities:
///    - an element-wise-add vector (Bucket)Reduce (codegen/LowerCommon.h
///      matchInPlaceAdd) adds each value into its accumulator in place
///      unless another handle (an input, a memoized loop) owns it;
///    - a scalar reduce whose body is one BinOp of its parameters is
///      applied without building a scope;
///    - a BinOp whose two operands are one node (x * x) evaluates it once;
///    - input reads resolve through a table built once per input set.
///
/// The recoverable entry point is run() over a CompiledProgram handle, the
/// state every run of one program on one input set shares (below).
/// evalProgramRecover is run() over a throwaway handle, so the two differ
/// only in how long that prepared state lives.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_INTERP_INTERP_H
#define DMLL_INTERP_INTERP_H

#include "engine/Engine.h"
#include "interp/Value.h"
#include "ir/Expr.h"
#include "observe/Metrics.h"
#include "runtime/Cancel.h"
#include "tune/Decision.h"

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace dmll {

class ThreadPool;
struct CompileOptions;

namespace engine {
struct Kernel;
} // namespace engine

/// Named input bindings for a Program.
using InputMap = std::unordered_map<std::string, Value>;

/// Cross-run compiled-kernel cache, keyed by multiloop node identity. A
/// single evaluation already memoizes kernel compilations per loop; this
/// cache extends that memoization across *runs* of the same Program object
/// (same ExprRef graph — the pointers are the keys), which is what lets a
/// long-lived service (service/Serve.h) pay kernel compilation once per
/// cached program instead of once per request. Known compile failures are
/// cached too (a null kernel with the compiler's reason), so a rejected
/// loop is not re-lowered on every request either, and every later run
/// still reports why it fell back. Thread-safe; entries live as long as the
/// cache, so the owner must keep the Program (and its Exprs) alive
/// alongside it.
class KernelReuseCache {
public:
  /// One compile outcome: the kernel, or null plus the rejection reason.
  struct Entry {
    std::shared_ptr<const engine::Kernel> K;
    std::string Reason;
  };
  /// True when \p E has a recorded outcome, copied into \p Out.
  bool lookup(const Expr *E, Entry &Out) const;
  /// Records the compile outcome for \p E (first store wins).
  void store(const Expr *E, Entry Outcome);
  size_t size() const;

private:
  mutable std::mutex Mu;
  std::unordered_map<const Expr *, Entry> Map;
};

/// The run knobs, declared once for every entry point that executes a
/// program: run() and evalProgramRecover (through EvalOptions) and
/// executeProgram (runtime/Executor.h). Defaults reproduce the classic single-threaded
/// interpreter run.
struct ExecOptions {
  unsigned Threads = 1;    ///< workers (0 selects 1)
  /// Minimum work units per parallel chunk, one unit being one flop per
  /// iteration (runtime/ThreadPool.h chunkCount); <= 0 selects 1024.
  int64_t MinChunk = 1024;
  /// Multiloop execution engine: the boxed interpreter, compiled kernels
  /// with transparent fallback, or Auto (kernels for non-tiny loops).
  engine::EngineMode Mode = engine::EngineMode::Interp;
  /// Run wide-eligible kernels instruction-wide over index blocks
  /// (engine/KernelVM.h). Bit-identical either way; the knob exists for
  /// ablation and differential testing.
  bool WideKernels = true;
  /// Per-loop tuning decisions keyed by loop signature (tune/Decision.h).
  /// For every closed multiloop with an entry, the decision's engine /
  /// thread-cap / chunk-size / wide knobs replace the globals above for
  /// that loop only. Null or empty reproduces untuned execution exactly.
  const tune::DecisionTable *Tuning = nullptr;
  /// Resource ceilings for this run (runtime/Cancel.h); all-zero means
  /// unlimited. Overruns come back as a DeadlineExceeded / BudgetExceeded
  /// status.
  ExecLimits Limits;
  /// External persistent worker pool. Null (the default) makes the run own
  /// a pool sized to Threads; non-null reuses the caller's pool across
  /// runs (the ThreadPool survives traps, so a service can keep one pool
  /// for many queries). Threads should equal Pool->numThreads().
  ThreadPool *Pool = nullptr;
};

/// Knobs for run() and evalProgramRecover: the run knobs plus the cross-run
/// kernel cache and the optional stats sinks. executeProgram takes
/// ExecOptions alone because it compiles and frees its own program, whose
/// Expr pointers a KernelReuseCache would outlive.
struct EvalOptions : ExecOptions {
  /// Cross-run compiled-kernel cache for repeated evaluations of the same
  /// Program object, read by evalProgramRecover only: its throwaway handle
  /// borrows it (run() uses the handle's own). Null compiles per run;
  /// non-null makes the run consult the cache before invoking the kernel
  /// compiler and record its fresh outcomes into it (hits count as
  /// `engine.kernel_cache_hits` in the metrics registry).
  KernelReuseCache *KernelReuse = nullptr;
  ExecProfile *Profile = nullptr;          ///< optional worker metrics out
  engine::KernelStats *Kernels = nullptr;  ///< optional engine stats out
};

/// Structured outcome of a recoverable evaluation: the value on Ok, or the
/// trap's message plus the signature of the innermost closed multiloop it
/// unwound from (empty when it hit outside any closed loop).
struct ExecResult {
  ExecStatus Status = ExecStatus::Ok;
  Value Out;               ///< result value; only meaningful when ok()
  std::string TrapMessage; ///< set when !ok()
  std::string TrapLoop;    ///< loop signature of the trap site, may be empty
  bool ok() const { return Status == ExecStatus::Ok; }
};

/// Reference semantics: evaluates \p P.Result sequentially on the boxed
/// interpreter. User-program runtime faults (division by zero, out-of-range
/// reads, bad bucket keys) throw TrapError (support/Error.h); type
/// confusion aborts (programs are verified before evaluation in tests).
Value evalProgram(const Program &P, const InputMap &Inputs);

/// A program prepared once for many runs: the one thing run() executes.
/// It holds what a run would otherwise derive on every call, in two
/// layers that copies of the handle share:
///  * per program: the compiled program (the CompileResult when the handle
///    compiled it), the cross-run KernelReuseCache, the tuning table, and
///    the hash of the source program's IR (the daemon's response key);
///  * per bound input set: the inputs, adapted to the compiled layout; the
///    binding of each input read and each multiloop's fast-path facts; each
///    closed loop's static work per iteration, which the chunk rule reads;
///    and a store of the flat typed columns of every array the inputs own,
///    filled as kernels first read them (engine/KernelVM.h ColumnCache).
/// Tables are read-only once built; the column store and the kernel cache
/// fill under their own locks, so several threads may run one handle at
/// once. Arrays a run computes are flattened into that run's own cache
/// and freed with it.
class CompiledProgram {
public:
  struct ProgramState; ///< the per-program layer (Interp.cpp)
  struct InputState;   ///< one bound input set (Interp.cpp)

  /// Wraps the already-compiled program \p P, which must outlive the
  /// handle, with kernel cache \p Kernels (the handle's own when null).
  /// Inputs bind as given.
  explicit CompiledProgram(const Program &P,
                           KernelReuseCache *Kernels = nullptr);

  /// Compiles \p Source with \p Opts and owns the result; the inputs it
  /// binds are adapted to the compiled layout (adaptInputs). \p Tuning,
  /// copied when set, steers every run.
  CompiledProgram(const Program &Source, const CompileOptions &Opts,
                  const tune::DecisionTable *Tuning = nullptr);

  /// This program with \p Inputs, in the source layout, bound.
  CompiledProgram bind(const InputMap &Inputs) const;

  /// This program with the input set \p Make returns bound under \p Key:
  /// built on the first call for Key, outside any lock but Key's own, and
  /// shared by every later call.
  CompiledProgram bind(int64_t Key,
                       const std::function<InputMap()> &Make) const;

  /// FNV-1a hash of the source program's printed IR; empty for a wrapped
  /// program.
  const std::string &key() const;

private:
  CompiledProgram(std::shared_ptr<ProgramState> Prog,
                  std::shared_ptr<const InputState> In);
  std::shared_ptr<ProgramState> Prog;
  std::shared_ptr<const InputState> In;
  friend ExecResult run(const CompiledProgram &H, const EvalOptions &Opts);
  friend ExecResult evalProgramRecover(const Program &P,
                                       const InputMap &Inputs,
                                       const EvalOptions &Opts);
};

/// Runs the program of bound handle \p H on its inputs with the knobs in
/// \p Opts and never lets a trap escape.
///
/// Closed multiloops are split by their static work, not their length: the
/// handle holds each closed loop's work per iteration W (analysis/Cost.h
/// FlopsPerIter against the input sizes), and runtime/ThreadPool.h
/// chunkCount splits a loop of N iterations into chunks of
/// max(1, floor(MinChunk / W)) iterations when N is at least twice that,
/// up to 4 * Threads chunks. Chunks run on Threads workers and merge in
/// index order — the Section 5 insight that a multiloop is agnostic to
/// whether it runs over the whole range or a subset. Collect chunks
/// concatenate; reductions combine with the (associative) reduction
/// operator; hash buckets merge preserving first-occurrence key order.
/// Results equal sequential evaluation up to floating-point reassociation.
/// Under EngineMode::Kernel / Auto each closed multiloop is compiled once
/// to register bytecode (src/engine) and executed unboxed; loops the kernel
/// compiler rejects fall back transparently to the interpreter, with
/// per-loop reasons in \p Opts.Kernels. The chunk count is decided once per
/// loop execution for either engine, so kernel results are bit-identical to
/// the interpreter at equal Threads/MinChunk, including parallel float
/// reassociation. One
/// persistent work-stealing ThreadPool serves every loop of the run. Every
/// closed multiloop execution builds one LoopProfile record and reports it
/// through one LoopObservation (observe/Metrics.h): the sampler, the
/// "exec.loop" span, loop.begin/loop.end events and the per-loop metrics.
/// With \p Opts.Profile set the run also measures counters per loop and
/// keeps the records and per-worker executor metrics.
///
/// Traps, deadline expiry, and budget overruns come back as a structured
/// ExecResult. The process — and the ThreadPool, when \p Opts.Pool names a
/// persistent one — survives and stays reusable, and so does \p H: a
/// subsequent fault-free run on the same pool and handle is bit-identical
/// to a fresh evaluation, and charges the same budgets (docs/ROBUSTNESS.md).
/// \p Opts.Tuning, when set, replaces the handle's table;
/// \p Opts.KernelReuse is not read.
ExecResult run(const CompiledProgram &H, const EvalOptions &Opts);

/// run() over a throwaway handle: \p P, already compiled, with \p Inputs
/// bound as given and \p Opts.KernelReuse as its kernel cache. Its
/// prepared state lives for this call only.
ExecResult evalProgramRecover(const Program &P, const InputMap &Inputs,
                              const EvalOptions &Opts);

} // namespace dmll

#endif // DMLL_INTERP_INTERP_H
