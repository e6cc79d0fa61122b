//===- engine/KernelVM.h - Bytecode execution over typed columns *- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled kernels (engine/Kernel.h): binds loop-invariant
/// uniforms and flat typed column buffers at launch, then runs the
/// instruction stream once per index with unboxed per-chunk accumulators.
/// Parallel launches run the chunk count the caller decided, over the
/// interpreter's chunk boundaries, with its index-ordered merge, so a kernel
/// result is bit-identical to the interpreter at the same knobs — including
/// the floating-point reassociation introduced by chunking. Launch-time
/// binding can still reject a kernel (an array element whose runtime kind
/// contradicts its static type); the caller then falls back to the
/// interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_ENGINE_KERNELVM_H
#define DMLL_ENGINE_KERNELVM_H

#include "engine/Kernel.h"
#include "interp/Value.h"
#include "observe/Metrics.h"

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dmll {

class RunControl;
class ThreadPool;

namespace engine {

/// A loop-invariant array flattened into one typed buffer (only the vector
/// matching Kind is populated). Keepalive pins the source array so element
/// pointers in Cache stay valid.
struct ColBuf {
  lower::ScalarKind Kind = lower::ScalarKind::F64;
  std::vector<int64_t> I;
  std::vector<double> F;
  std::vector<uint8_t> B;
  ArrayPtr Keepalive;
  size_t Size = 0;
};

/// Flat columns keyed by the source ArrayData's identity, so an array read
/// by several kernels is flattened once. One type serves two lifetimes:
///  * a store, held by a bound input set (interp/Interp.h CompiledProgram),
///    keeps the columns of the arrays those inputs own across runs;
///  * a run's cache charges each column's first read in the run and keeps
///    the columns of the arrays the run computed, freed with the run; it
///    takes input-owned columns from its store.
/// Thread-safe: chunk workers of one run share its cache, and concurrent
/// runs share a store. A column is published only once complete.
class ColumnCache {
public:
  /// A store for the columns of the arrays in \p Owned.
  explicit ColumnCache(std::unordered_set<const ArrayData *> Owned)
      : Owned(std::move(Owned)) {}

  /// A run's cache over \p Store (may be null), charging \p Control (may
  /// be null).
  ColumnCache(ColumnCache *Store, RunControl *Control)
      : Store(Store), Control(Control) {}

  /// A run's cache: returns the flat buffer for \p Arr, or nullptr when
  /// some element's runtime kind contradicts \p Kind (the kernel then
  /// falls back to the interpreter). The first read of a column in a run
  /// charges the run's memory budget and is an allocation-failure
  /// fault-injection point (both may throw TrapError), whether the store
  /// already holds the column or not, so a warm run charges exactly as a
  /// cold one.
  const ColBuf *get(const ArrayPtr &Arr, lower::ScalarKind Kind);

private:
  struct Entry {
    lower::ScalarKind Kind;
    const ColBuf *Col; ///< null: the flatten was rejected
    std::unique_ptr<ColBuf> Own; ///< null when Col lives in the store
  };
  /// \p Arr's column in \p Kind, flattened on first use; Mu must be held.
  const ColBuf *fill(const ArrayPtr &Arr, lower::ScalarKind Kind);

  std::mutex Mu;
  std::unordered_map<const ArrayData *, std::vector<Entry>> Map;
  const std::unordered_set<const ArrayData *> Owned; ///< a store's arrays
  ColumnCache *Store = nullptr;
  RunControl *Control = nullptr;
};

/// Everything a launch needs from the surrounding evaluator.
struct LaunchContext {
  /// Evaluates a loop-invariant (closed) expression through the
  /// interpreter, with its global-scope memoization — nested producer
  /// loops still execute once.
  std::function<Value(const ExprRef &)> EvalInvariant;
  ThreadPool *Pool = nullptr; ///< persistent pool; required when Chunks > 1
  /// Chunks to run in, decided once by the caller (runtime/ThreadPool.h
  /// chunkCount); 1 runs sequentially.
  int64_t Chunks = 1;
  /// Run wide-eligible kernels (Kernel::WideEligible) instruction-wide
  /// over index blocks. Results are bit-identical either way; the knob
  /// exists for ablation and differential testing.
  bool EnableWide = true;
  ExecProfile *Profile = nullptr;
  ColumnCache *Columns = nullptr; ///< the run's column cache (required)
  /// Out: chunk-body counter deltas from non-driver workers (worker 0 runs
  /// on the launching thread, so its chunks are already inside the caller's
  /// own ThreadCounters bracket — adding them here would double-count).
  CounterSample *LoopCounters = nullptr;
  /// Interned loop signature (observe/Sampler.h) for sample attribution, or
  /// null when no sampling profiler is active. Threaded from the evaluator
  /// so kernel and chunk phases attribute to the loop without unwinding.
  const char *SampleLoop = nullptr;
  /// Per-run limits enforcement (runtime/Cancel.h): deadline / budget
  /// checkpoints inside span execution and the cancel token handed to
  /// parallel launches. Null = unlimited.
  RunControl *Control = nullptr;
  /// True when the run has already computed closed loop \p Root, as
  /// decided by evaluation order (UniformRef::Root). Null: never.
  std::function<bool(const ExprRef &)> Computed;
};

/// Runs \p K over [0, N). Returns null on success, or the reason
/// (leaving \p Out untouched) when launch-time binding rejects the kernel;
/// runtime faults (division by zero, out-of-range reads, negative inner
/// loop sizes) throw TrapError with the interpreter's messages, unwinding
/// cleanly out of worker chunks (runtime/ThreadPool.h trap containment).
const char *runKernel(const Kernel &K, int64_t N, const LaunchContext &Ctx,
                      Value &Out);

} // namespace engine
} // namespace dmll

#endif // DMLL_ENGINE_KERNELVM_H
