//===- interp/Interp.cpp ---------------------------------------*- C++ -*-===//

#include "interp/Interp.h"

#include "codegen/LowerCommon.h"
#include "engine/KernelCompiler.h"
#include "engine/KernelVM.h"
#include "faultinject/FaultInject.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"
#include "observe/Events.h"
#include "observe/MetricsRegistry.h"
#include "observe/Sampler.h"
#include "observe/Trace.h"
#include "runtime/Executor.h"
#include "runtime/ThreadPool.h"
#include "sim/Calibration.h"
#include "support/Error.h"
#include "support/Once.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_set>

using namespace dmll;

namespace {

using Binding = std::pair<uint64_t, Value>;

/// A lexical scope: a view of symbol bindings that its creator holds, plus
/// a memo table for expensive nodes whose innermost free symbol is bound
/// here. Neither allocates until something is memoized.
struct Scope {
  Scope *Parent = nullptr;
  std::span<const Binding> Bindings;
  std::unordered_map<const Expr *, Value> Memo;

  bool binds(uint64_t Id) const {
    for (const auto &[K, V] : Bindings)
      if (K == Id)
        return true;
    return false;
  }

  const Value *lookup(uint64_t Id) const {
    for (const Scope *S = this; S; S = S->Parent)
      for (const auto &[K, V] : S->Bindings)
        if (K == Id)
          return &V;
    return nullptr;
  }
};

/// How runRange folds a value into one generator's accumulator without
/// evaluating the reduce function, when it can; computed once per run.
struct GenFacts {
  /// An element-wise-add vector reduce: accumulated in place.
  lower::InPlaceAdd InPlace;
  /// A scalar reduce whose body is one BinOp of its parameters: applied to
  /// the operands directly, with no scope. Lhs/RhsAcc: which operand is the
  /// accumulator (Params[0]) rather than the new value.
  const BinOpExpr *Direct = nullptr;
  bool LhsAcc = false, RhsAcc = false;
};

GenFacts factsOf(const Generator &Gen) {
  GenFacts F;
  if (!Gen.isReduce() || !Gen.Reduce.isSet())
    return F;
  F.InPlace = lower::matchInPlaceAdd(Gen);
  const auto *B = dyn_cast<BinOpExpr>(Gen.Reduce.Body);
  if (!B)
    return F;
  const auto *L = dyn_cast<SymExpr>(B->lhs());
  const auto *R = dyn_cast<SymExpr>(B->rhs());
  uint64_t Acc = Gen.Reduce.Params[0]->id(), New = Gen.Reduce.Params[1]->id();
  auto IsParam = [&](const SymExpr *S) {
    return S && (S->id() == Acc || S->id() == New);
  };
  if (IsParam(L) && IsParam(R)) {
    F.Direct = B;
    F.LhsAcc = L->id() == Acc;
    F.RhsAcc = R->id() == Acc;
  }
  return F;
}

/// runRange's checkpoint cadence: every CheckpointInterval iterations, and
/// once at the end, the iterations and (shallow, per-element) memory
/// charged since the last checkpoint flush to RunControl, which throws
/// TrapError on any exceeded limit, and the fault injector's Trap hook gets
/// a firing opportunity. The in-place reduce path counts its skipped loops
/// through it too, so they charge exactly as if they ran.
struct Checkpoints {
  RunControl *Control;
  int64_t SinceCheck = 0;
  int64_t PendingElems = 0;

  /// Called at the top of each iteration.
  void step() {
    if (++SinceCheck >= CheckpointInterval)
      flush();
  }
  /// Called after the last iteration.
  void done() {
    if (SinceCheck || PendingElems)
      flush();
  }
  void flush() {
    if (faults::shouldFire(faults::Hook::Trap))
      trap("injected trap");
    if (Control) {
      Control->chargeIterations(SinceCheck);
      if (PendingElems)
        Control->chargeMemory(PendingElems *
                              static_cast<int64_t>(sizeof(Value)));
      Control->checkpoint();
    }
    SinceCheck = 0;
    PendingElems = 0;
  }
};

/// Element \p Idx of array \p Arr, trapping like an out-of-range ArrayRead.
const Value &elemAt(const Value &Arr, int64_t Idx) {
  if (Idx < 0 || static_cast<size_t>(Idx) >= Arr.arraySize())
    trap("array read out of range: index " + std::to_string(Idx) +
         ", size " + std::to_string(Arr.arraySize()));
  return Arr.at(static_cast<size_t>(Idx));
}

/// The array \p V holds when \p V is its only owner, else null.
ArrayData *ownedArray(const Value &V) {
  const ArrayPtr &A = V.array();
  return A.use_count() == 1 ? A.get() : nullptr;
}

/// Adds the arrays \p V owns to \p Out: itself when an array, and its
/// fields and elements when they are arrays or structs, recursively.
void collectArrays(const Value &V, std::unordered_set<const ArrayData *> &Out) {
  if (V.isStruct()) {
    for (const Value &F : V.strct()->Fields)
      collectArrays(F, Out);
    return;
  }
  if (!V.isArray() || !Out.insert(V.array().get()).second)
    return;
  // One array's elements share a type, so a scalar first element means a
  // flat array, whose elements own nothing.
  const ArrayData &A = *V.array();
  if (!A.empty() && (A[0].isArray() || A[0].isStruct()))
    for (const Value &E : A)
      collectArrays(E, Out);
}

std::unordered_set<const ArrayData *> arraysOf(const InputMap &Inputs) {
  std::unordered_set<const ArrayData *> Out;
  for (const auto &[Name, V] : Inputs)
    collectArrays(V, Out);
  return Out;
}

} // namespace

/// The per-program layer of a CompiledProgram.
struct CompiledProgram::ProgramState {
  /// Set when the handle compiled its program: the result, and the source
  /// program the inputs it binds are adapted from.
  std::unique_ptr<CompileResult> CR;
  Program Source;
  const Program *P = nullptr; ///< the program runs execute
  std::string Key;
  std::optional<tune::DecisionTable> Tuning;
  KernelReuseCache OwnKernels;
  KernelReuseCache *Kernels = &OwnKernels;
  /// One latch per bind(Key, Make) key; BindMu guards the map only.
  std::mutex BindMu;
  std::map<int64_t, std::unique_ptr<Once<std::shared_ptr<const InputState>>>>
      Binds;
};

/// One bound input set: the inputs, the read-only tables every run over
/// them reads, and the store of the columns they own.
struct CompiledProgram::InputState {
  /// Binds \p Own, or the caller's \p Borrowed map when set, to \p P.
  /// \p ForRuns also builds what only run() reads: the work table and the
  /// column store's arrays.
  InputState(const Program &P, InputMap Own, const InputMap *Borrowed,
             bool ForRuns)
      : Own(std::move(Own)), Inputs(Borrowed ? Borrowed : &this->Own),
        Columns(ForRuns ? arraysOf(*Inputs)
                        : std::unordered_set<const ArrayData *>()) {
    visitAll(P.Result, [&](const ExprRef &N) {
      if (const auto *In = dyn_cast<InputExpr>(N)) {
        auto It = Inputs->find(In->name());
        InputSlots.emplace(N.get(),
                           It == Inputs->end() ? nullptr : &It->second);
      } else if (const auto *ML = dyn_cast<MultiloopExpr>(N)) {
        std::vector<GenFacts> &F = Facts[ML];
        for (const Generator &Gen : ML->gens())
          F.push_back(factsOf(Gen));
      }
    });
    // FlopsPerIter does not depend on partitioning, so an empty
    // PartitionInfo gives the same work as the compiler's.
    if (ForRuns)
      for (const LoopCost &C :
           analyzeCosts(P, PartitionInfo(), sizeEnvFromInputs(P, *Inputs)))
        Work.emplace(C.Loop, C.FlopsPerIter);
  }

  InputMap Own;
  const InputMap *Inputs;
  /// The binding of each input read (null when unbound) and the
  /// per-generator fast-path facts of each multiloop reachable from the
  /// program's result. Nodes missing from them (built after the run began)
  /// take the general paths.
  std::unordered_map<const Expr *, const Value *> InputSlots;
  std::unordered_map<const Expr *, std::vector<GenFacts>> Facts;
  /// Static work per iteration of each closed multiloop (analysis/Cost.h
  /// FlopsPerIter), the chunk rule's input.
  std::unordered_map<const Expr *, double> Work;
  /// The flat columns of the arrays the inputs own; fills under its lock.
  mutable engine::ColumnCache Columns;
};

namespace {

using InputState = CompiledProgram::InputState;

class Evaluator {
public:
  /// The reference evaluator over \p Bound (evalProgram).
  explicit Evaluator(const InputState &Bound) : Bound(Bound) {}

  /// Full-option evaluator over \p Bound, with the tuning table \p Tuning
  /// and the cross-run kernel cache \p Reuse (both may be null). \p Pool
  /// (required when Threads > 1) is the persistent worker pool shared by
  /// every loop of the evaluation; \p Control (may be null) enforces the
  /// run's ExecLimits at evaluator checkpoints.
  Evaluator(const InputState &Bound, const EvalOptions &Opts,
            const tune::DecisionTable *Tuning, KernelReuseCache *Reuse,
            ThreadPool *Pool, RunControl *Control)
      : Bound(Bound), Threads(Opts.Threads ? Opts.Threads : 1),
        MinChunk(Opts.MinChunk > 0 ? Opts.MinChunk : 1024),
        Profile(Opts.Profile), Mode(Opts.Mode),
        WideKernels(Opts.WideKernels), KStats(Opts.Kernels),
        Tuning(Tuning && !Tuning->empty() ? Tuning : nullptr), Pool(Pool),
        Control(Control), Reuse(Reuse) {
    if (Profile)
      OwnShared.Loops = &Profile->Loops;
    OwnShared.Columns.emplace(&Bound.Columns, Control);
  }

  Value evalTop(const ExprRef &E) {
    Scope Global;
    return eval(E, Global);
  }

private:
  /// The inputs and the tables built with them.
  const InputState &Bound;
  unsigned Threads = 1;
  int64_t MinChunk = 1024;
  ExecProfile *Profile = nullptr;
  engine::EngineMode Mode = engine::EngineMode::Interp;
  bool WideKernels = true;
  engine::KernelStats *KStats = nullptr;
  /// Per-loop tuning decisions (tune/Decision.h); null when untuned.
  const tune::DecisionTable *Tuning = nullptr;
  ThreadPool *Pool = nullptr;
  /// A chunk sub-evaluator of a parallel interpreter loop.
  bool InChunk = false;
  /// Per-run limits enforcement (runtime/Cancel.h); null = unlimited.
  /// Shared by pointer with chunk sub-evaluators so every worker observes
  /// the same cancel token and charges the same budgets.
  RunControl *Control = nullptr;
  /// Compiled kernels (or recorded compile failures, with the reason) per
  /// multiloop node.
  struct KernelEntry : KernelReuseCache::Entry {
    size_t TimingIdx = 0; ///< index into KStats->Kernels
  };
  /// Run state shared with the chunk-worker sub-evaluators: the kernel
  /// cache, closed-node results, the profile's loop records and the run's
  /// column cache. M guards the maps, the records and KStats; each closed
  /// result's latch and the column cache have their own locks. Sharing them
  /// makes a nested closed loop pick the same engine (recording its
  /// compile outcome once), run once and report once whether the enclosing
  /// loop ran sequentially or chunked — none of that may depend on the
  /// thread count.
  struct SharedState {
    std::mutex M;
    std::unordered_map<const Expr *, KernelEntry> Compiled;
    /// Each closed Multiloop or Flatten result, computed once per run under
    /// its latch; a trap leaves the latch empty, so the next reader
    /// re-raises it.
    std::unordered_map<const Expr *, Once<Value>> Closed;
    std::vector<LoopProfile> *Loops = nullptr; ///< null without a Profile
    /// Columns of the arrays this run computes, and its charges for the
    /// input-owned ones the bound input set's store holds.
    std::optional<engine::ColumnCache> Columns;
  };
  SharedState OwnShared;
  SharedState *Shared = &OwnShared;
  /// Optional cross-run kernel cache (EvalOptions::KernelReuse); consulted
  /// and fed under Shared->M, so the lock order is always run-local state
  /// first, then the shared cache.
  KernelReuseCache *Reuse = nullptr;
  // Free symbols per node, cached (the IR is immutable).
  std::unordered_map<const Expr *, std::vector<uint64_t>> FreeCache;

  const std::vector<uint64_t> &freeOf(const ExprRef &E) {
    auto It = FreeCache.find(E.get());
    if (It != FreeCache.end())
      return It->second;
    std::unordered_set<uint64_t> S = freeSyms(E);
    std::vector<uint64_t> V(S.begin(), S.end());
    return FreeCache.emplace(E.get(), std::move(V)).first->second;
  }

  /// The innermost scope binding any free symbol of \p E; the global scope
  /// for closed expressions. Memoizing there is sound (the value cannot
  /// change while that scope is alive) and maximally reusable.
  Scope &memoScope(const ExprRef &E, Scope &S) {
    const std::vector<uint64_t> &Free = freeOf(E);
    Scope *Cur = &S;
    while (Cur->Parent) {
      for (uint64_t Id : Free)
        if (Cur->binds(Id))
          return *Cur;
      Cur = Cur->Parent;
    }
    return *Cur;
  }

  /// Callers move the accumulator in and assign the result back to it.
  Value applyReduce(const Func &R, Value A, Value B, Scope &S) {
    const Binding Args[] = {{R.Params[0]->id(), std::move(A)},
                            {R.Params[1]->id(), std::move(B)}};
    Scope Child{&S, Args, {}};
    return eval(R.Body, Child);
  }

  /// Folds \p V into \p Acc with \p Gen's reduce: in place or directly when
  /// \p F allows it, else through applyReduce, always to the same bits.
  void reduceInto(const Generator &Gen, const GenFacts *F, Value &Acc,
                  Value V, Scope &S) {
    if (F && F->InPlace.Depth && addInPlace(F->InPlace, Acc, V))
      return;
    if (F && F->Direct) {
      Acc = binOpValue(F->Direct, F->LhsAcc ? Acc : V, F->RhsAcc ? Acc : V);
      return;
    }
    Acc = applyReduce(Gen.Reduce, std::move(Acc), std::move(V), S);
  }

  /// `Acc (+)= V` element by element in place, for a reduce \p M matched:
  /// the bits applyReduce would build, the same trap at the same element,
  /// and the same charges at the same checkpoints as the reduce's Collects
  /// running (one per level), with no scope, memo or array allocated.
  /// False, touching nothing, when the accumulator or one of its rows has
  /// another owner (an input, a memoized loop result).
  bool addInPlace(const lower::InPlaceAdd &M, Value &Acc, const Value &V) {
    ArrayData *A = ownedArray(Acc);
    if (!A)
      return false;
    if (M.Depth == 2)
      for (const Value &Row : *A)
        if (!ownedArray(Row))
          return false;
    auto Add = [&](Value &X, const Value &Y) {
      X = M.AccOnLeft ? binOpValue(M.Add, X, Y) : binOpValue(M.Add, Y, X);
    };
    Checkpoints Outer{Control};
    for (size_t K = 0; K < A->size(); ++K) {
      Outer.step();
      if (M.Depth == 1) {
        Add((*A)[K], elemAt(V, static_cast<int64_t>(K)));
      } else {
        // The inner Collect reads V's row K first at its first element.
        ArrayData &Row = *(*A)[K].array();
        const Value *VRow = nullptr;
        Checkpoints Inner{Control};
        for (size_t K2 = 0; K2 < Row.size(); ++K2) {
          Inner.step();
          if (!VRow)
            VRow = &elemAt(V, static_cast<int64_t>(K));
          Add(Row[K2], elemAt(*VRow, static_cast<int64_t>(K2)));
          ++Inner.PendingElems;
        }
        Inner.done();
      }
      ++Outer.PendingElems;
    }
    Outer.done();
    return true;
  }

  /// Per-generator accumulation state; chunk-local during parallel
  /// execution, merged in index order afterwards.
  struct GenState {
    ArrayData Collected;
    Value Acc;
    bool HasAcc = false;
    // Dense buckets.
    int64_t NumKeys = 0;
    std::vector<Value> DenseVals;
    std::vector<char> DenseHas;
    std::vector<ArrayData> DenseColl;
    // Hash buckets.
    std::unordered_map<int64_t, size_t> KeyIndex;
    std::vector<int64_t> KeysInOrder;
    std::vector<Value> HashVals;
    std::vector<ArrayData> HashColl;
  };

  std::vector<GenState> initStates(const MultiloopExpr *ML, Scope &S) {
    std::vector<GenState> States(ML->numGens());
    for (size_t G = 0; G < ML->numGens(); ++G) {
      const Generator &Gen = ML->gen(G);
      if (Gen.isDenseBucket()) {
        int64_t K = eval(Gen.NumKeys, S).toInt();
        if (K < 0)
          trap("negative dense bucket count");
        States[G].NumKeys = K;
        // Charge the dense state against the memory budget *before*
        // allocating, so a huge key count becomes BudgetExceeded rather
        // than OOM. Charged per chunk: each worker really allocates it.
        if (Control) {
          Control->chargeMemory(K * static_cast<int64_t>(sizeof(Value)));
          Control->checkpoint();
        }
        if (faults::shouldFire(faults::Hook::Alloc))
          trap("injected allocation failure");
        if (Gen.Kind == GenKind::BucketReduce) {
          States[G].DenseVals.resize(static_cast<size_t>(K));
          States[G].DenseHas.assign(static_cast<size_t>(K), 0);
        } else {
          States[G].DenseColl.resize(static_cast<size_t>(K));
        }
      }
    }
    return States;
  }

  /// The GenFacts for \p ML's generators; null when it has none.
  const GenFacts *factsFor(const MultiloopExpr *ML) const {
    auto It = Bound.Facts.find(ML);
    return It == Bound.Facts.end() ? nullptr : It->second.data();
  }

  /// Runs [Begin, End) of the loop, accumulating into \p States. Every
  /// CheckpointInterval iterations this is also a cancellation / budget
  /// checkpoint (Checkpoints), so enforcement granularity is the checkpoint
  /// interval, never a single iteration.
  void runRange(const MultiloopExpr *ML, int64_t Begin, int64_t End,
                std::vector<GenState> &States, Scope &S) {
    Checkpoints Chk{Control};
    const GenFacts *Facts = factsFor(ML);
    // One scope per iteration binds the index parameter of every
    // generator's cond, key and value (fused generators share one), so a
    // loop-varying subexpression that several parts read is memoized once
    // per iteration. The bindings are overwritten in place.
    std::vector<Binding> Index;
    for (const Generator &Gen : ML->gens())
      for (const Func *F : {&Gen.Cond, &Gen.Key, &Gen.Value})
        if (F->isSet() &&
            std::ranges::count(Index, F->Params[0]->id(), &Binding::first) == 0)
          Index.emplace_back(F->Params[0]->id(), Value());
    for (int64_t I = Begin; I < End; ++I) {
      Chk.step();
      for (Binding &B : Index)
        B.second = Value(I);
      Scope Iter{&S, Index, {}};
      for (size_t G = 0; G < ML->numGens(); ++G) {
        const Generator &Gen = ML->gen(G);
        const GenFacts *F = Facts ? &Facts[G] : nullptr;
        GenState &St = States[G];
        if (Gen.Cond.isSet() && !eval(Gen.Cond.Body, Iter).asBool())
          continue;
        Value V = eval(Gen.Value.Body, Iter);
        switch (Gen.Kind) {
        case GenKind::Collect:
          ++Chk.PendingElems;
          St.Collected.push_back(std::move(V));
          break;
        case GenKind::Reduce:
          if (!St.HasAcc) {
            St.Acc = std::move(V);
            St.HasAcc = true;
          } else {
            reduceInto(Gen, F, St.Acc, std::move(V), S);
          }
          break;
        case GenKind::BucketCollect:
        case GenKind::BucketReduce: {
          ++Chk.PendingElems;
          int64_t Key = eval(Gen.Key.Body, Iter).toInt();
          if (Gen.NumKeys) {
            if (Key < 0 || Key >= St.NumKeys)
              trap("dense bucket key " + std::to_string(Key) +
                   " out of range [0," + std::to_string(St.NumKeys) + ")");
            size_t K = static_cast<size_t>(Key);
            if (Gen.Kind == GenKind::BucketCollect) {
              St.DenseColl[K].push_back(std::move(V));
            } else if (!St.DenseHas[K]) {
              St.DenseVals[K] = std::move(V);
              St.DenseHas[K] = 1;
            } else {
              reduceInto(Gen, F, St.DenseVals[K], std::move(V), S);
            }
          } else {
            auto [It, Inserted] =
                St.KeyIndex.try_emplace(Key, St.KeysInOrder.size());
            if (Inserted) {
              St.KeysInOrder.push_back(Key);
              if (Gen.Kind == GenKind::BucketCollect)
                St.HashColl.emplace_back();
              else
                St.HashVals.emplace_back();
            }
            size_t K = It->second;
            if (Gen.Kind == GenKind::BucketCollect) {
              St.HashColl[K].push_back(std::move(V));
            } else if (Inserted) {
              St.HashVals[K] = std::move(V);
            } else {
              reduceInto(Gen, F, St.HashVals[K], std::move(V), S);
            }
          }
          break;
        }
        }
      }
    }
    Chk.done();
  }

  /// Merges the chunk state \p Next (covering later indices) into \p Acc.
  void mergeStates(const MultiloopExpr *ML, std::vector<GenState> &Acc,
                   std::vector<GenState> &Next, Scope &S) {
    const GenFacts *Facts = factsFor(ML);
    for (size_t G = 0; G < ML->numGens(); ++G) {
      const Generator &Gen = ML->gen(G);
      const GenFacts *F = Facts ? &Facts[G] : nullptr;
      GenState &A = Acc[G];
      GenState &B = Next[G];
      switch (Gen.Kind) {
      case GenKind::Collect:
        A.Collected.insert(A.Collected.end(),
                           std::make_move_iterator(B.Collected.begin()),
                           std::make_move_iterator(B.Collected.end()));
        break;
      case GenKind::Reduce:
        if (!A.HasAcc) {
          A.Acc = std::move(B.Acc);
          A.HasAcc = B.HasAcc;
        } else if (B.HasAcc) {
          reduceInto(Gen, F, A.Acc, std::move(B.Acc), S);
        }
        break;
      case GenKind::BucketCollect:
      case GenKind::BucketReduce:
        if (Gen.NumKeys) {
          for (size_t K = 0; K < static_cast<size_t>(A.NumKeys); ++K) {
            if (Gen.Kind == GenKind::BucketCollect) {
              A.DenseColl[K].insert(
                  A.DenseColl[K].end(),
                  std::make_move_iterator(B.DenseColl[K].begin()),
                  std::make_move_iterator(B.DenseColl[K].end()));
            } else if (B.DenseHas[K]) {
              if (!A.DenseHas[K]) {
                A.DenseVals[K] = std::move(B.DenseVals[K]);
                A.DenseHas[K] = 1;
              } else {
                reduceInto(Gen, F, A.DenseVals[K], std::move(B.DenseVals[K]),
                           S);
              }
            }
          }
        } else {
          for (size_t BK = 0; BK < B.KeysInOrder.size(); ++BK) {
            int64_t Key = B.KeysInOrder[BK];
            auto [It, Inserted] =
                A.KeyIndex.try_emplace(Key, A.KeysInOrder.size());
            if (Inserted) {
              A.KeysInOrder.push_back(Key);
              if (Gen.Kind == GenKind::BucketCollect)
                A.HashColl.push_back(std::move(B.HashColl[BK]));
              else
                A.HashVals.push_back(std::move(B.HashVals[BK]));
              continue;
            }
            size_t K = It->second;
            if (Gen.Kind == GenKind::BucketCollect)
              A.HashColl[K].insert(
                  A.HashColl[K].end(),
                  std::make_move_iterator(B.HashColl[BK].begin()),
                  std::make_move_iterator(B.HashColl[BK].end()));
            else
              reduceInto(Gen, F, A.HashVals[K], std::move(B.HashVals[BK]), S);
          }
        }
        break;
      }
    }
  }

  Value finishGen(const MultiloopExpr *ML, std::vector<GenState> &States,
                  size_t G) {
    const Generator &Gen = ML->gen(G);
    GenState &St = States[G];
    switch (Gen.Kind) {
    case GenKind::Collect:
      return Value::makeArray(std::move(St.Collected));
    case GenKind::Reduce:
      if (St.HasAcc)
        return std::move(St.Acc);
      return Value::zeroOf(*Gen.Value.Body->type());
    case GenKind::BucketCollect: {
      if (Gen.NumKeys) {
        ArrayData Buckets;
        for (ArrayData &B : St.DenseColl)
          Buckets.push_back(Value::makeArray(std::move(B)));
        return Value::makeArray(std::move(Buckets));
      }
      ArrayData Keys, Buckets;
      for (int64_t K : St.KeysInOrder)
        Keys.push_back(Value(K));
      for (ArrayData &B : St.HashColl)
        Buckets.push_back(Value::makeArray(std::move(B)));
      return Value::makeStruct({Value::makeArray(std::move(Keys)),
                                Value::makeArray(std::move(Buckets))});
    }
    case GenKind::BucketReduce: {
      if (Gen.NumKeys) {
        ArrayData Out;
        for (size_t K = 0; K < St.DenseVals.size(); ++K)
          Out.push_back(St.DenseHas[K]
                            ? std::move(St.DenseVals[K])
                            : Value::zeroOf(*Gen.Value.Body->type()));
        return Value::makeArray(std::move(Out));
      }
      ArrayData Keys;
      for (int64_t K : St.KeysInOrder)
        Keys.push_back(Value(K));
      return Value::makeStruct(
          {Value::makeArray(std::move(Keys)),
           Value::makeArray(ArrayData(std::move(St.HashVals)))});
    }
    }
    dmllUnreachable("bad GenKind");
  }

  /// Looks up (or compiles) the kernel for multiloop \p E, recording stats
  /// and the fallback reason on failure. Caller must hold Shared->M; the
  /// returned reference stays valid after unlocking (unordered_map never
  /// invalidates element references on insert).
  KernelEntry &kernelFor(const ExprRef &E) {
    auto It = Shared->Compiled.find(E.get());
    if (It != Shared->Compiled.end())
      return It->second;
    KernelEntry Entry;
    // Cross-run cache (service/Serve.h): a previous run of this Program
    // already compiled (or rejected) this exact node — adopt the outcome
    // without re-lowering, registering this run's stats rows as usual.
    if (Reuse && Reuse->lookup(E.get(), Entry)) {
      MetricsRegistry::global().counter("engine.kernel_cache_hits").inc();
    } else {
      auto T0 = std::chrono::steady_clock::now();
      engine::CompileOutcome Outcome;
      {
        TraceSpan Span("engine.compile", "compile");
        if (Span.live())
          Span.arg("loop", loopSignature(E));
        Outcome = engine::compileKernel(E);
        if (Span.live() && !Outcome.K)
          Span.arg("fallback", Outcome.Reason);
      }
      double Ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
      // Registry: compile latency distribution plus outcome tallies, fed
      // regardless of whether the caller asked for KernelStats.
      MetricsRegistry &R = MetricsRegistry::global();
      R.histogram("engine.compile_ms").observe(Ms);
      R.counter(Outcome.K ? "engine.compiled" : "engine.fallback_loops").inc();
      if (!Outcome.K)
        if (EventLog *EL = EventLog::active())
          EL->emit(EventKind::EngineFallback,
                   EventLog::str("loop", loopSignature(E)) +
                       EventLog::str("reason", Outcome.Reason));
      if (KStats) {
        KStats->Compiled += Outcome.K != nullptr;
        KStats->CompileMillis += Ms;
      }
      Entry.K = std::move(Outcome.K);
      Entry.Reason = std::move(Outcome.Reason);
      if (Reuse)
        Reuse->store(E.get(), Entry);
    }
    if (KStats && Entry.K) {
      Entry.TimingIdx = KStats->Kernels.size();
      engine::KernelTiming T;
      T.Loop = Entry.K->Signature;
      KStats->Kernels.push_back(std::move(T));
    } else if (KStats) {
      ++KStats->FallbackLoops;
      KStats->Fallbacks.push_back(loopSignature(E) + ": " + Entry.Reason);
    }
    return Shared->Compiled.emplace(E.get(), std::move(Entry)).first->second;
  }

  /// Attempts kernel execution of closed multiloop \p E with \p Rec's
  /// knobs and chunk count. On success sets Rec.Engine; returns false with
  /// Rec.Fallback set (counting a fallback run) when the loop didn't lower
  /// or launch binding rejected it, and the caller takes the interpreter
  /// path. With \p Measure, chunk counters of workers other than the driver
  /// accumulate into Rec.Counters.
  bool tryKernel(const ExprRef &E, Scope &S, Value &Out, LoopProfile &Rec,
                 bool Measure, const char *SampleName) {
    std::shared_ptr<const engine::Kernel> K;
    size_t TimingIdx = 0;
    {
      std::lock_guard<std::mutex> Lock(Shared->M);
      KernelEntry &Entry = kernelFor(E);
      K = Entry.K;
      TimingIdx = Entry.TimingIdx;
      if (!K)
        Rec.Fallback = Entry.Reason;
    }
    auto Fallback = [&] {
      if (KStats) {
        std::lock_guard<std::mutex> Lock(Shared->M);
        ++KStats->FallbackRuns;
      }
      return false;
    };
    if (!K)
      return Fallback();
    engine::LaunchContext Ctx;
    Ctx.EvalInvariant = [this, &S](const ExprRef &Inv) {
      return eval(Inv, S);
    };
    Ctx.Pool = Pool;
    Ctx.Chunks = Rec.Chunks;
    Ctx.EnableWide = Rec.Wide;
    Ctx.Profile = Profile;
    Ctx.Columns = &*Shared->Columns;
    Ctx.Control = Control;
    Ctx.LoopCounters = Measure ? &Rec.Counters : nullptr;
    Ctx.SampleLoop = SampleName;
    // A closed loop counts as computed only from the root evaluator, which
    // runs the program's closed loops in evaluation order; inside a chunk,
    // another worker may be computing it concurrently.
    if (!InChunk)
      Ctx.Computed = [this](const ExprRef &Root) {
        std::lock_guard<std::mutex> Lock(Shared->M);
        auto It = Shared->Closed.find(Root.get());
        return It != Shared->Closed.end() && It->second.ready();
      };
    auto T0 = std::chrono::steady_clock::now();
    if (const char *Why = engine::runKernel(*K, Rec.Iters, Ctx, Out)) {
      Rec.Fallback = Why;
      return Fallback();
    }
    Rec.Engine = "kernel";
    if (KStats) {
      std::lock_guard<std::mutex> Lock(Shared->M);
      ++KStats->Launches;
      engine::KernelTiming &T = KStats->Kernels[TimingIdx];
      ++T.Launches;
      T.Iters += Rec.Iters;
      T.Millis += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
      T.Parallel |= Rec.Chunks > 1;
    }
    return true;
  }

  /// The loop's value from its final generator states.
  Value finish(const MultiloopExpr *ML, std::vector<GenState> &States) {
    if (ML->isSingle())
      return finishGen(ML, States, 0);
    std::vector<Value> Outs;
    for (size_t G = 0; G < ML->numGens(); ++G)
      Outs.push_back(finishGen(ML, States, G));
    return Value::makeStruct(std::move(Outs));
  }

  /// The closed Multiloop and Flatten nodes \p ML's generators read (not
  /// looking inside them) that cannot trap — KernelCompiler's rule for
  /// columns — in the order a sequential run first reaches them.
  std::vector<ExprRef> hoistable(const MultiloopExpr *ML) {
    std::vector<ExprRef> Out, Stack;
    for (size_t G = ML->numGens(); G-- > 0;) {
      const Generator &Gen = ML->gen(G);
      for (const Func *F : {&Gen.Reduce, &Gen.Key, &Gen.Value, &Gen.Cond})
        if (F->isSet())
          Stack.push_back(F->Body);
    }
    std::unordered_set<const Expr *> Seen;
    while (!Stack.empty()) {
      ExprRef N = std::move(Stack.back());
      Stack.pop_back();
      if (!Seen.insert(N.get()).second)
        continue;
      if ((isa<MultiloopExpr>(N) || isa<FlattenExpr>(N)) &&
          freeOf(N).empty()) {
        if (!mayTrap(N) || lower::isBoundedGatherLoop(N))
          Out.push_back(N);
        continue;
      }
      std::vector<ExprRef> Kids = exprChildren(N);
      Stack.insert(Stack.end(), Kids.rbegin(), Kids.rend());
    }
    return Out;
  }

  /// Runs closed multiloop \p ML on the interpreter in \p Rec's chunk
  /// count: chunked over the pool, or sequentially when it is 1.
  Value interpLoop(const MultiloopExpr *ML, Scope &S, LoopProfile &Rec,
                   const char *SampleName) {
    const int64_t N = Rec.Iters;
    std::vector<GenState> States = initStates(ML, S);
    if (Rec.Chunks <= 1) {
      if (Profile)
        ++Profile->SequentialLoops;
      runRange(ML, 0, N, States, S);
      return finish(ML, States);
    }
    // Closed loops the chunks read that cannot trap run first, here, with
    // the whole pool (once per run, through memoized): left to the chunks,
    // the first worker to reach one would run it alone while the others
    // wait on its latch.
    for (const ExprRef &C : hoistable(ML))
      memoized(C, S);
    // Chunked parallel execution (Section 5): workers evaluate disjoint
    // subranges with independent evaluators; chunk states merge in index
    // order, so element order and first-occurrence key order match the
    // sequential semantics.
    int64_t Per = (N + Rec.Chunks - 1) / Rec.Chunks;
    std::vector<std::vector<GenState>> ChunkStates(
        static_cast<size_t>(Rec.Chunks));
    // Threads > 1 implies the persistent pool exists (evalProgramRecover
    // creates one per program run; workers are reused across loops).
    ParallelForStats PStats;
    Pool->parallelFor(
        Rec.Chunks, 1,
        [&](int64_t CB, int64_t CE, unsigned) {
          // Pool workers start with a fresh slot, so they publish the
          // loop themselves (the driver's scope isn't inherited).
          SampleScope ChunkSample("exec.chunk", SampleName);
          for (int64_t C = CB; C < CE; ++C) {
            Evaluator Sub(Bound);
            // Nested loops inside a chunk must run the way the
            // sequential path would: same mode, same shared state (so
            // a nested closed loop compiles, runs and reports once),
            // same stats sink. Only the parallelism stays chunk-local.
            Sub.Mode = Mode;
            Sub.KStats = KStats;
            Sub.Shared = Shared;
            Sub.Reuse = Reuse;
            Sub.Tuning = Tuning;
            Sub.Control = Control;
            Sub.InChunk = true;
            Scope Local;
            ChunkStates[static_cast<size_t>(C)] = Sub.initStates(ML, Local);
            Sub.runRange(ML, C * Per, std::min((C + 1) * Per, N),
                         ChunkStates[static_cast<size_t>(C)], Local);
          }
        },
        Profile ? &PStats : nullptr, "exec.chunk",
        Control ? &Control->token() : nullptr);
    if (Profile) {
      Profile->accumulate(PStats);
      ++Profile->ParallelLoops;
      // The driver's own chunks are inside the observation's bracket.
      for (size_t W = 1; W < PStats.Workers.size(); ++W)
        if (PStats.Workers[W].Chunks > 0)
          Rec.Counters.add(PStats.Workers[W].Counters);
    }
    {
      TraceSpan MergeSpan("exec.merge", "exec");
      States = std::move(ChunkStates[0]);
      for (size_t C = 1; C < ChunkStates.size(); ++C)
        mergeStates(ML, States, ChunkStates[C], S);
    }
    return finish(ML, States);
  }

  // Kept out of line: inlined into memoized(), which every nested loop's
  // recursion passes through, the loop record and its observation would
  // enlarge that frame.
  [[gnu::noinline]] Value evalMultiloop(const ExprRef &E,
                                        const MultiloopExpr *ML, Scope &S) {
    int64_t N = eval(ML->size(), S).toInt();
    if (N < 0)
      trap("negative multiloop size " + std::to_string(N));
    // Open loops run per-element inside an enclosing closed loop: they keep
    // its knobs and its attribution, and always run sequentially here.
    if (!freeOf(E).empty()) {
      std::vector<GenState> States = initStates(ML, S);
      runRange(ML, 0, N, States, S);
      return finish(ML, States);
    }
    // A closed loop is the unit of execution, tuning and report: one record
    // carries its signature, knobs, engine and timing to every sink.
    LoopProfile Rec;
    Rec.Loop = loopSignature(E);
    Rec.Iters = N;
    Rec.Threads = Threads;
    Rec.MinChunk = MinChunk;
    Rec.Wide = WideKernels;
    // A per-loop tuning decision narrows or pins the run's knobs for this
    // loop only.
    const tune::LoopDecision *TD = Tuning ? Tuning->lookup(Rec.Loop) : nullptr;
    if (TD) {
      Rec.Tuned = true;
      if (TD->Threads)
        Rec.Threads = std::min(Threads, TD->Threads);
      if (TD->MinChunk > 0)
        Rec.MinChunk = TD->MinChunk;
      if (TD->Wide >= 0)
        Rec.Wide = TD->Wide != 0;
    }
    // The chunk count, decided once after the decision resolves, for
    // whichever engine runs the loop: MinChunk counts work units.
    auto W = Bound.Work.find(E.get());
    Rec.Work = chunkWork(W == Bound.Work.end() ? 0 : W->second);
    Rec.Chunks = chunkCount(N, Rec.Work, Rec.Threads, Rec.MinChunk);
    const bool Measure = Profile != nullptr;
    LoopObservation Obs(Rec, Measure);
    // Engine choice: a pinned per-loop decision replaces the global mode
    // outright (Kernel attempts compilation even under EngineMode::Interp;
    // Interp suppresses it even under EngineMode::Kernel). Default keeps
    // the global policy.
    bool WantKernel;
    if (TD && TD->Engine != tune::LoopEngine::Default)
      WantKernel = TD->Engine == tune::LoopEngine::Kernel;
    else
      WantKernel = Mode != engine::EngineMode::Interp &&
                   (Mode == engine::EngineMode::Kernel ||
                    N >= engine::AutoMinIters);
    Value Result;
    if (!WantKernel || !tryKernel(E, S, Result, Rec, Measure, Obs.sampleName()))
      Result = interpLoop(ML, S, Rec, Obs.sampleName());
    Obs.close();
    if (Shared->Loops) {
      std::lock_guard<std::mutex> Lock(Shared->M);
      Shared->Loops->push_back(std::move(Rec));
    }
    return Result;
  }

  /// Computes Multiloop or Flatten node \p E; memoized() caches it.
  Value compute(const ExprRef &E, Scope &S) {
    if (const auto *F = dyn_cast<FlattenExpr>(E)) {
      Value Tmp;
      ArrayData Out;
      for (const Value &Inner : *evalRef(F->array(), S, Tmp).array())
        for (const Value &V : *Inner.array())
          Out.push_back(V);
      return Value::makeArray(std::move(Out));
    }
    try {
      return evalMultiloop(E, cast<MultiloopExpr>(E), S);
    } catch (TrapError &Err) {
      // Attribute the trap to the innermost *closed* loop it unwound
      // from (the unit telemetry and tuning key on); the innermost
      // catch wins because it stamps first.
      if (Err.loop().empty() && freeOf(E).empty())
        Err.setLoop(loopSignature(E));
      throw;
    }
  }

  /// \p E's value, memoized in the innermost scope binding one of its free
  /// symbols. A closed node is computed once per run under its latch in
  /// Shared, which the chunk sub-evaluators share, and then copied into
  /// this evaluator's root scope.
  [[gnu::noinline]] const Value &memoized(const ExprRef &E, Scope &S) {
    Scope &MS = memoScope(E, S);
    auto It = MS.Memo.find(E.get());
    if (It != MS.Memo.end())
      return It->second;
    if (!freeOf(E).empty())
      return MS.Memo.emplace(E.get(), compute(E, S)).first->second;
    Once<Value> *Slot;
    {
      std::lock_guard<std::mutex> Lock(Shared->M);
      Slot = &Shared->Closed[E.get()];
    }
    const Value &V = Slot->get([&] { return compute(E, S); });
    return MS.Memo.emplace(E.get(), V).first->second;
  }

  /// \p E's value by reference when it already lives somewhere stable — a
  /// binding, an input, a memo entry, or an element or field of one — and
  /// evaluated into \p Tmp otherwise (a projection then refers into Tmp),
  /// so reading an array or a struct copies no handle. The one lookup path
  /// of the node kinds it names.
  const Value &evalRef(const ExprRef &E, Scope &S, Value &Tmp) {
    switch (E->kind()) {
    case ExprKind::Sym: {
      const auto *Sym = cast<SymExpr>(E);
      if (const Value *V = S.lookup(Sym->id()))
        return *V;
      trap("unbound symbol " + Sym->name() + std::to_string(Sym->id()));
    }
    case ExprKind::Input: {
      auto Slot = Bound.InputSlots.find(E.get());
      if (Slot != Bound.InputSlots.end() && Slot->second)
        return *Slot->second;
      const auto *In = cast<InputExpr>(E);
      auto It = Bound.Inputs->find(In->name());
      if (It == Bound.Inputs->end())
        trap("no binding for input '" + In->name() + "'");
      return It->second;
    }
    case ExprKind::Multiloop:
    case ExprKind::Flatten:
      return memoized(E, S);
    case ExprKind::ArrayRead: {
      const auto *R = cast<ArrayReadExpr>(E);
      const Value &Arr = evalRef(R->array(), S, Tmp);
      return elemAt(Arr, eval(R->index(), S).toInt());
    }
    case ExprKind::GetField: {
      const auto *G = cast<GetFieldExpr>(E);
      return evalRef(G->base(), S, Tmp).strct()->Fields[G->index()];
    }
    case ExprKind::LoopOut: {
      const auto *LO = cast<LoopOutExpr>(E);
      return evalRef(LO->loop(), S, Tmp).strct()->Fields[LO->index()];
    }
    default:
      return Tmp = eval(E, S);
    }
  }

  Value evalBinOp(const BinOpExpr *B, Scope &S) {
    Value L = eval(B->lhs(), S);
    // x * x reads one node twice. Evaluating it once is unobservable: a
    // trap fires on the first evaluation, and loops, which alone charge
    // budgets, are memoized.
    if (B->rhs().get() == B->lhs().get())
      return binOpValue(B, L, L);
    return binOpValue(B, L, eval(B->rhs(), S));
  }

  /// \p B applied to the operand values \p L and \p R.
  static Value binOpValue(const BinOpExpr *B, const Value &L,
                          const Value &R) {
    BinOpKind Op = B->op();
    switch (Op) {
    case BinOpKind::And:
      return Value(L.asBool() && R.asBool());
    case BinOpKind::Or:
      return Value(L.asBool() || R.asBool());
    case BinOpKind::Eq:
    case BinOpKind::Ne:
    case BinOpKind::Lt:
    case BinOpKind::Le:
    case BinOpKind::Gt:
    case BinOpKind::Ge: {
      bool Result;
      if (L.isFloat() || R.isFloat()) {
        double A = L.toDouble(), C = R.toDouble();
        Result = Op == BinOpKind::Eq   ? A == C
                 : Op == BinOpKind::Ne ? A != C
                 : Op == BinOpKind::Lt ? A < C
                 : Op == BinOpKind::Le ? A <= C
                 : Op == BinOpKind::Gt ? A > C
                                       : A >= C;
      } else {
        int64_t A = L.toInt(), C = R.toInt();
        Result = Op == BinOpKind::Eq   ? A == C
                 : Op == BinOpKind::Ne ? A != C
                 : Op == BinOpKind::Lt ? A < C
                 : Op == BinOpKind::Le ? A <= C
                 : Op == BinOpKind::Gt ? A > C
                                       : A >= C;
      }
      return Value(Result);
    }
    default:
      break;
    }
    if (B->type()->isFloat()) {
      double A = L.toDouble(), C = R.toDouble();
      switch (Op) {
      case BinOpKind::Add:
        return Value(A + C);
      case BinOpKind::Sub:
        return Value(A - C);
      case BinOpKind::Mul:
        return Value(A * C);
      case BinOpKind::Div:
        return Value(A / C);
      case BinOpKind::Mod:
        return Value(std::fmod(A, C));
      case BinOpKind::Min:
        return Value(std::fmin(A, C));
      case BinOpKind::Max:
        return Value(std::fmax(A, C));
      default:
        dmllUnreachable("bad float binop");
      }
    }
    int64_t A = L.toInt(), C = R.toInt();
    switch (Op) {
    case BinOpKind::Add:
      return Value(A + C);
    case BinOpKind::Sub:
      return Value(A - C);
    case BinOpKind::Mul:
      return Value(A * C);
    case BinOpKind::Div:
      // INT64_MIN / -1 overflows (SIGFPE on x86); trap it under the same
      // message as /0 so every executor reports identical behaviour.
      if (C == 0 || (C == -1 && A == std::numeric_limits<int64_t>::min()))
        trap("integer division by zero");
      return Value(A / C);
    case BinOpKind::Mod:
      if (C == 0 || (C == -1 && A == std::numeric_limits<int64_t>::min()))
        trap("integer modulo by zero");
      return Value(A % C);
    case BinOpKind::Min:
      return Value(A < C ? A : C);
    case BinOpKind::Max:
      return Value(A > C ? A : C);
    default:
      dmllUnreachable("bad int binop");
    }
  }

  Value evalUnOp(const UnOpExpr *U, Scope &S) {
    Value A = eval(U->operand(), S);
    switch (U->op()) {
    case UnOpKind::Not:
      return Value(!A.asBool());
    case UnOpKind::Neg:
      if (U->type()->isFloat())
        return Value(-A.toDouble());
      return Value(-A.toInt());
    case UnOpKind::Abs:
      if (U->type()->isFloat())
        return Value(std::fabs(A.toDouble()));
      return Value(A.toInt() < 0 ? -A.toInt() : A.toInt());
    case UnOpKind::Exp:
      return Value(std::exp(A.toDouble()));
    case UnOpKind::Log:
      return Value(std::log(A.toDouble()));
    case UnOpKind::Sqrt:
      return Value(std::sqrt(A.toDouble()));
    }
    dmllUnreachable("bad UnOpKind");
  }

  Value eval(const ExprRef &E, Scope &S) {
    switch (E->kind()) {
    case ExprKind::ConstInt:
      return Value(cast<ConstIntExpr>(E)->value());
    case ExprKind::ConstFloat:
      return Value(cast<ConstFloatExpr>(E)->value());
    case ExprKind::ConstBool:
      return Value(cast<ConstBoolExpr>(E)->value());
    case ExprKind::Sym:
    case ExprKind::Input:
    case ExprKind::Flatten:
    case ExprKind::Multiloop:
    case ExprKind::ArrayRead:
    case ExprKind::GetField:
    case ExprKind::LoopOut: {
      Value Tmp;
      return evalRef(E, S, Tmp);
    }
    case ExprKind::BinOp:
      return evalBinOp(cast<BinOpExpr>(E), S);
    case ExprKind::UnOp:
      return evalUnOp(cast<UnOpExpr>(E), S);
    case ExprKind::Select: {
      const auto *Sel = cast<SelectExpr>(E);
      // Lazy: only the chosen arm is evaluated.
      if (eval(Sel->cond(), S).asBool())
        return eval(Sel->trueVal(), S);
      return eval(Sel->falseVal(), S);
    }
    case ExprKind::Cast: {
      Value A = eval(cast<CastExpr>(E)->operand(), S);
      if (E->type()->isFloat())
        return Value(A.toDouble());
      if (E->type()->isInt())
        return Value(A.toInt());
      return Value(A.toDouble() != 0.0);
    }
    case ExprKind::ArrayLen: {
      Value Tmp;
      return Value(static_cast<int64_t>(
          evalRef(cast<ArrayLenExpr>(E)->array(), S, Tmp).arraySize()));
    }
    case ExprKind::MakeStruct: {
      std::vector<Value> Fields;
      for (const ExprRef &Op : E->ops())
        Fields.push_back(eval(Op, S));
      return Value::makeStruct(std::move(Fields));
    }
    }
    dmllUnreachable("bad ExprKind");
  }
};

} // namespace

bool KernelReuseCache::lookup(const Expr *E, Entry &Out) const {
  std::lock_guard<std::mutex> L(Mu);
  auto It = Map.find(E);
  if (It == Map.end())
    return false;
  Out = It->second;
  return true;
}

void KernelReuseCache::store(const Expr *E, Entry Outcome) {
  std::lock_guard<std::mutex> L(Mu);
  Map.emplace(E, std::move(Outcome));
}

size_t KernelReuseCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Map.size();
}

Value dmll::evalProgram(const Program &P, const InputMap &Inputs) {
  InputState In(P, InputMap(), &Inputs, /*ForRuns=*/false);
  return Evaluator(In).evalTop(P.Result);
}

CompiledProgram::CompiledProgram(std::shared_ptr<ProgramState> Prog,
                                 std::shared_ptr<const InputState> In)
    : Prog(std::move(Prog)), In(std::move(In)) {}

CompiledProgram::CompiledProgram(const Program &P, KernelReuseCache *Kernels)
    : Prog(std::make_shared<ProgramState>()) {
  Prog->P = &P;
  if (Kernels)
    Prog->Kernels = Kernels;
}

CompiledProgram::CompiledProgram(const Program &Source,
                                 const CompileOptions &Opts,
                                 const tune::DecisionTable *Tuning)
    : Prog(std::make_shared<ProgramState>()) {
  Prog->CR = std::make_unique<CompileResult>(compileProgram(Source, Opts));
  Prog->Source = Source;
  Prog->P = &Prog->CR->P;
  Prog->Key = hashKey(printProgram(Source));
  if (Tuning)
    Prog->Tuning = *Tuning;
}

CompiledProgram CompiledProgram::bind(const InputMap &Inputs) const {
  InputMap Own = Prog->CR ? adaptInputs(Prog->Source, *Prog->CR, Inputs)
                          : Inputs;
  return CompiledProgram(Prog, std::make_shared<const InputState>(
                                   *Prog->P, std::move(Own), nullptr,
                                   /*ForRuns=*/true));
}

CompiledProgram
CompiledProgram::bind(int64_t Key,
                      const std::function<InputMap()> &Make) const {
  Once<std::shared_ptr<const InputState>> *Latch;
  {
    std::lock_guard<std::mutex> Lock(Prog->BindMu);
    auto &Slot = Prog->Binds[Key];
    if (!Slot)
      Slot = std::make_unique<Once<std::shared_ptr<const InputState>>>();
    Latch = Slot.get();
  }
  return CompiledProgram(Prog, Latch->get([&] { return bind(Make()).In; }));
}

const std::string &CompiledProgram::key() const { return Prog->Key; }

ExecResult dmll::run(const CompiledProgram &H, const EvalOptions &Opts) {
  assert(H.In && "run() needs a bound input set");
  const CompiledProgram::ProgramState &PS = *H.Prog;
  unsigned Threads = Opts.Threads ? Opts.Threads : 1;
  // The run's control block lives on this frame; worker chunks observe it
  // through the shared Evaluator / LaunchContext pointers. Only armed when
  // limits were requested — the unlimited path carries no checkpoint state.
  RunControl RC;
  RunControl *Control = nullptr;
  if (Opts.Limits.any()) {
    RC.arm(Opts.Limits);
    Control = &RC;
  }
  // One persistent pool for the whole run: workers spawn once here and are
  // reused by every parallel loop (interpreter chunks and kernel launches).
  std::optional<ThreadPool> OwnPool;
  ThreadPool *Pool = Opts.Pool;
  if (!Pool && Threads > 1)
    Pool = &OwnPool.emplace(Threads);
  const tune::DecisionTable *Tuning =
      Opts.Tuning ? Opts.Tuning : PS.Tuning ? &*PS.Tuning : nullptr;
  ExecResult R;
  try {
    R.Out = Evaluator(*H.In, Opts, Tuning, PS.Kernels, Pool, Control)
                .evalTop(PS.P->Result);
  } catch (TrapError &E) {
    R.Status = execStatusForTrap(E.kind());
    R.TrapMessage = E.message();
    R.TrapLoop = E.loop();
  }
  return R;
}

ExecResult dmll::evalProgramRecover(const Program &P, const InputMap &Inputs,
                                    const EvalOptions &Opts) {
  CompiledProgram H(P, Opts.KernelReuse);
  H.In = std::make_shared<const InputState>(P, InputMap(), &Inputs,
                                            /*ForRuns=*/true);
  return run(H, Opts);
}
