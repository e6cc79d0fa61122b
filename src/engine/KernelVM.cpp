//===- engine/KernelVM.cpp -------------------------------------*- C++ -*-===//

#include "engine/KernelVM.h"

#include "faultinject/FaultInject.h"
#include "observe/Sampler.h"
#include "observe/Trace.h"
#include "runtime/Cancel.h"
#include "runtime/ThreadPool.h"
#include "support/Error.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <type_traits>

using namespace dmll;
using namespace dmll::engine;
using lower::ScalarKind;

const ColBuf *ColumnCache::get(const ArrayPtr &Arr, ScalarKind Kind) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Entry> &Slot = Map[Arr.get()];
  for (const Entry &E : Slot)
    if (E.Kind == Kind && E.Col)
      return E.Col;

  // The column's first read in this run: charge the flat buffer against
  // the run's memory budget before allocating (a huge column becomes
  // BudgetExceeded, not OOM), and give the injector's allocation-failure
  // hook its opportunity — even when the store already holds the column.
  if (Control) {
    int64_t Elem = Kind == ScalarKind::I1 ? 1 : 8;
    Control->chargeMemory(static_cast<int64_t>(Arr->size()) * Elem);
    Control->checkpoint();
  }
  if (faults::shouldFire(faults::Hook::Alloc))
    trap("injected allocation failure");
  if (!Store || !Store->Owned.contains(Arr.get()))
    return fill(Arr, Kind);
  const ColBuf *Col;
  {
    std::lock_guard<std::mutex> StoreLock(Store->Mu);
    Col = Store->fill(Arr, Kind);
  }
  if (Col)
    Slot.push_back({Kind, Col, nullptr});
  return Col;
}

const ColBuf *ColumnCache::fill(const ArrayPtr &Arr, ScalarKind Kind) {
  std::vector<Entry> &Slot = Map[Arr.get()];
  for (const Entry &E : Slot)
    if (E.Kind == Kind)
      return E.Col;
  auto Buf = std::make_unique<ColBuf>();
  Buf->Kind = Kind;
  Buf->Keepalive = Arr;
  Buf->Size = Arr->size();
  // A rejection is remembered too, so a rejected array is read once; its
  // entry still pins the array, whose address keys the map.
  auto Reject = [&]() -> const ColBuf * {
    Buf->I = {};
    Buf->F = {};
    Buf->B = {};
    Slot.push_back({Kind, nullptr, std::move(Buf)});
    return nullptr;
  };
  switch (Kind) {
  case ScalarKind::I64:
    Buf->I.reserve(Arr->size());
    for (const Value &V : *Arr) {
      if (!V.isInt())
        return Reject();
      Buf->I.push_back(V.asInt());
    }
    break;
  case ScalarKind::F64:
    Buf->F.reserve(Arr->size());
    for (const Value &V : *Arr) {
      if (!V.isFloat())
        return Reject();
      Buf->F.push_back(V.asFloat());
    }
    break;
  case ScalarKind::I1:
    Buf->B.reserve(Arr->size());
    for (const Value &V : *Arr) {
      if (!V.isBool())
        return Reject();
      Buf->B.push_back(V.asBool() ? 1 : 0);
    }
    break;
  case ScalarKind::NotScalar:
    return Reject();
  }
  const ColBuf *Col = Buf.get();
  Slot.push_back({Kind, Col, std::move(Buf)});
  return Col;
}

namespace {

/// Unboxed spans run far more iterations per unit time than the boxed
/// interpreter, so they checkpoint on a coarser cadence: every KernelCheck
/// iterations (outer indices plus inner-loop iterations and vector
/// elements) a span charges them, polls deadline/budget cancellation, and
/// gives the fault injector's Trap hook an opportunity.
constexpr int64_t KernelCheck = 4096;

/// A per-chunk local array (Kernel::Locals): only the vector of its bank
/// is used; Rows holds each row's end offset for a 2-level local.
struct Local {
  std::vector<int64_t> I;
  std::vector<double> F;
  std::vector<uint8_t> B;
  std::vector<size_t> Rows;
};

/// The state of one executing chunk: three register banks, the local
/// arrays, and the work done since the last checkpoint.
struct Regs {
  std::vector<int64_t> I;
  std::vector<double> F;
  std::vector<uint8_t> B;
  std::vector<Local> L;
  int64_t Work = 0; ///< iterations not yet charged
  int64_t Mem = 0;  ///< collect bytes not yet charged
  RunControl *Control = nullptr;

  explicit Regs(const Kernel &K)
      : I(K.NumI, 0), F(K.NumF, 0.0), B(K.NumB, 0), L(K.Locals.size()) {}
};

/// Charges the work done since the last checkpoint and checkpoints.
void flushWork(Regs &R) {
  if (faults::shouldFire(faults::Hook::Trap))
    trap("injected trap");
  if (R.Control) {
    R.Control->chargeIterations(R.Work);
    if (R.Mem)
      R.Control->chargeMemory(R.Mem);
    R.Control->checkpoint();
  }
  R.Work = 0;
  R.Mem = 0;
}

/// Counts one unit of work as it starts (an iteration, or an element a
/// vector add touches), checkpointing once KernelCheck are pending — the
/// interpreter's Checkpoints::step, so work is never charged before it
/// runs and a long inner loop still polls the deadline.
void tick(Regs &R) {
  if (++R.Work >= KernelCheck)
    flushWork(R);
}

/// Counts one element's memory (a Value, as the interpreter charges each
/// collected or bucketed element), charged at the next checkpoint.
void chargeElem(Regs &R) { R.Mem += static_cast<int64_t>(sizeof(Value)); }

/// Unboxed per-chunk accumulation state for one generator; the typed
/// mirror of the interpreter's GenState. Only the members matching the
/// generator kind and value bank are used.
struct ChunkGen {
  // Collect.
  std::vector<int64_t> CI;
  std::vector<double> CF;
  std::vector<uint8_t> CB;
  // Reduce.
  int64_t AccI = 0;
  double AccF = 0;
  uint8_t AccB = 0;
  bool Has = false;
  // Dense buckets.
  std::vector<int64_t> DVI;
  std::vector<double> DVF;
  std::vector<uint8_t> DVB;
  std::vector<char> DHas;
  std::vector<std::vector<int64_t>> DCI;
  std::vector<std::vector<double>> DCF;
  std::vector<std::vector<uint8_t>> DCB;
  // Hash buckets (first-occurrence key order).
  std::unordered_map<int64_t, size_t> KeyIndex;
  std::vector<int64_t> KeysInOrder;
  std::vector<int64_t> HVI;
  std::vector<double> HVF;
  std::vector<uint8_t> HVB;
  std::vector<std::vector<int64_t>> HCI;
  std::vector<std::vector<double>> HCF;
  std::vector<std::vector<uint8_t>> HCB;
  // Slot between a BucketHead and its BucketStore.
  int64_t Pending = -1;
  // Vector accumulators: Reduce (Has) and dense buckets (DHas).
  Local Vec;
  std::vector<Local> DVec;
};

/// Charges one dense bucket table, NumKeys Values, before it is allocated,
/// as the interpreter's initStates does for each state it builds.
void chargeTable(int64_t NumKeys, RunControl *Control) {
  if (Control) {
    Control->chargeMemory(NumKeys * static_cast<int64_t>(sizeof(Value)));
    Control->checkpoint();
  }
}

/// Sizes a chunk's accumulation state; \p Control, when set, is charged
/// for its dense tables first.
void initChunk(const Kernel &K, const std::vector<int64_t> &NumKeys,
               std::vector<ChunkGen> &Gens, RunControl *Control) {
  for (size_t G = 0; G < K.Gens.size(); ++G)
    if (K.Gens[G].Dense)
      chargeTable(NumKeys[G], Control);
  Gens.clear();
  Gens.resize(K.Gens.size());
  for (size_t G = 0; G < K.Gens.size(); ++G) {
    const GenPlan &P = K.Gens[G];
    if (!P.Dense)
      continue;
    size_t NK = static_cast<size_t>(NumKeys[G]);
    if (P.VecDepth) {
      Gens[G].DVec.resize(NK);
      Gens[G].DHas.assign(NK, 0);
    } else if (P.Kind == GenKind::BucketReduce) {
      switch (P.ValKind) {
      case ScalarKind::I64:
        Gens[G].DVI.assign(NK, 0);
        break;
      case ScalarKind::F64:
        Gens[G].DVF.assign(NK, 0.0);
        break;
      default:
        Gens[G].DVB.assign(NK, 0);
        break;
      }
      Gens[G].DHas.assign(NK, 0);
    } else {
      switch (P.ValKind) {
      case ScalarKind::I64:
        Gens[G].DCI.resize(NK);
        break;
      case ScalarKind::F64:
        Gens[G].DCF.resize(NK);
        break;
      default:
        Gens[G].DCB.resize(NK);
        break;
      }
    }
  }
}

[[noreturn]] void colOutOfRange(int64_t Idx, size_t Size) {
  trap("array read out of range: index " + std::to_string(Idx) + ", size " +
       std::to_string(Size));
}

/// Elements of local \p L in bank \p Kind.
size_t localSize(const Local &L, ScalarKind Kind) {
  return Kind == ScalarKind::I64   ? L.I.size()
         : Kind == ScalarKind::F64 ? L.F.size()
                                   : L.B.size();
}

/// `Acc (+)= V` element by element over the accumulator's shape, as the
/// interpreter's in-place add (or the reduce's Collects) does it: the same
/// additions in the same operand order, reading V with the same
/// out-of-range trap at the same element, and the same work and memory
/// counted per row and element as those Collects running.
template <typename T>
void addInto(std::vector<T> &A, const std::vector<size_t> &ARows,
             const std::vector<T> &V, const std::vector<size_t> &VRows,
             unsigned Depth, bool AccOnLeft, Regs &R) {
  auto Add = [&](size_t At, size_t From) {
    A[At] = AccOnLeft ? A[At] + V[From] : V[From] + A[At];
  };
  if (Depth == 1) {
    for (size_t K = 0; K < A.size(); ++K) {
      tick(R);
      if (K >= V.size())
        colOutOfRange(static_cast<int64_t>(K), V.size());
      Add(K, K);
      chargeElem(R);
    }
    return;
  }
  for (size_t Row = 0; Row < ARows.size(); ++Row) {
    tick(R);
    size_t Begin = Row ? ARows[Row - 1] : 0, Len = ARows[Row] - Begin;
    // The interpreter reads V's row at its first element.
    size_t VBegin = 0, VLen = 0;
    for (size_t K = 0; K < Len; ++K) {
      tick(R);
      if (K == 0) {
        if (Row >= VRows.size())
          colOutOfRange(static_cast<int64_t>(Row), VRows.size());
        VBegin = Row ? VRows[Row - 1] : 0;
        VLen = VRows[Row] - VBegin;
      }
      if (K >= VLen)
        colOutOfRange(static_cast<int64_t>(K), VLen);
      Add(Begin + K, VBegin + K);
      chargeElem(R);
    }
    chargeElem(R);
  }
}

/// Folds value \p V into a vector accumulator: the first value is copied
/// (adding it to zeros would turn -0.0 into 0.0), later ones add in place.
void foldVec(const GenPlan &P, Local &Acc, bool First, const Local &V,
             Regs &R) {
  if (First) {
    Acc = V;
    return;
  }
  if (P.ValKind == ScalarKind::I64)
    addInto(Acc.I, Acc.Rows, V.I, V.Rows, P.VecDepth, P.AccOnLeft, R);
  else
    addInto(Acc.F, Acc.Rows, V.F, V.Rows, P.VecDepth, P.AccOnLeft, R);
}

/// The dense bucket slot of key \p Key, trapping like the interpreter.
size_t denseSlot(int64_t Key, int64_t NK) {
  if (Key < 0 || Key >= NK)
    trap("dense bucket key " + std::to_string(Key) + " out of range [0," +
         std::to_string(NK) + ")");
  return static_cast<size_t>(Key);
}

/// Executes instructions [Begin, End). \p NumKeys holds the dense bucket
/// counts (parallel to K.Gens). The interpreter's fatal errors reproduce
/// with identical messages.
void execRange(const Kernel &K, int32_t Begin, int32_t End, Regs &R,
               const std::vector<const ColBuf *> &Cols,
               std::vector<ChunkGen> &Gens,
               const std::vector<int64_t> &NumKeys) {
  const Inst *Code = K.Code.data();
  int32_t Ip = Begin;
  while (Ip < End) {
    const Inst &In = Code[Ip];
    ++Ip;
    switch (In.Op) {
    case ROp::Jump:
      Ip = In.Target;
      break;
    case ROp::JumpIfFalse:
      if (!R.B[In.A])
        Ip = In.Target;
      break;
    case ROp::JumpIfTrue:
      if (R.B[In.A])
        Ip = In.Target;
      break;
    case ROp::LoadImmI:
      R.I[In.Dst] = In.ImmI;
      break;
    case ROp::LoadImmF:
      R.F[In.Dst] = In.ImmF;
      break;
    case ROp::LoadImmB:
      R.B[In.Dst] = In.ImmI != 0;
      break;
    case ROp::MoveI:
      R.I[In.Dst] = R.I[In.A];
      break;
    case ROp::MoveF:
      R.F[In.Dst] = R.F[In.A];
      break;
    case ROp::MoveB:
      R.B[In.Dst] = R.B[In.A];
      break;
    case ROp::LoadColI: {
      const ColBuf *C = Cols[In.A];
      int64_t Idx = R.I[In.B];
      if (Idx < 0 || static_cast<size_t>(Idx) >= C->Size)
        colOutOfRange(Idx, C->Size);
      R.I[In.Dst] = C->I[static_cast<size_t>(Idx)];
      break;
    }
    case ROp::LoadColF: {
      const ColBuf *C = Cols[In.A];
      int64_t Idx = R.I[In.B];
      if (Idx < 0 || static_cast<size_t>(Idx) >= C->Size)
        colOutOfRange(Idx, C->Size);
      R.F[In.Dst] = C->F[static_cast<size_t>(Idx)];
      break;
    }
    case ROp::LoadColB: {
      const ColBuf *C = Cols[In.A];
      int64_t Idx = R.I[In.B];
      if (Idx < 0 || static_cast<size_t>(Idx) >= C->Size)
        colOutOfRange(Idx, C->Size);
      R.B[In.Dst] = C->B[static_cast<size_t>(Idx)] != 0;
      break;
    }
    case ROp::AddI:
      R.I[In.Dst] = R.I[In.A] + R.I[In.B];
      break;
    case ROp::SubI:
      R.I[In.Dst] = R.I[In.A] - R.I[In.B];
      break;
    case ROp::MulI:
      R.I[In.Dst] = R.I[In.A] * R.I[In.B];
      break;
    case ROp::DivI:
      // INT64_MIN / -1 overflows (SIGFPE on x86); trap it under the same
      // message as /0, mirroring the interpreter exactly.
      if (R.I[In.B] == 0 ||
          (R.I[In.B] == -1 &&
           R.I[In.A] == std::numeric_limits<int64_t>::min()))
        trap("integer division by zero");
      R.I[In.Dst] = R.I[In.A] / R.I[In.B];
      break;
    case ROp::ModI:
      if (R.I[In.B] == 0 ||
          (R.I[In.B] == -1 &&
           R.I[In.A] == std::numeric_limits<int64_t>::min()))
        trap("integer modulo by zero");
      R.I[In.Dst] = R.I[In.A] % R.I[In.B];
      break;
    case ROp::MinI:
      R.I[In.Dst] = R.I[In.A] < R.I[In.B] ? R.I[In.A] : R.I[In.B];
      break;
    case ROp::MaxI:
      R.I[In.Dst] = R.I[In.A] > R.I[In.B] ? R.I[In.A] : R.I[In.B];
      break;
    case ROp::NegI:
      R.I[In.Dst] = -R.I[In.A];
      break;
    case ROp::AbsI:
      R.I[In.Dst] = R.I[In.A] < 0 ? -R.I[In.A] : R.I[In.A];
      break;
    case ROp::AddF:
      R.F[In.Dst] = R.F[In.A] + R.F[In.B];
      break;
    case ROp::SubF:
      R.F[In.Dst] = R.F[In.A] - R.F[In.B];
      break;
    case ROp::MulF:
      R.F[In.Dst] = R.F[In.A] * R.F[In.B];
      break;
    case ROp::DivF:
      R.F[In.Dst] = R.F[In.A] / R.F[In.B];
      break;
    case ROp::ModF:
      R.F[In.Dst] = std::fmod(R.F[In.A], R.F[In.B]);
      break;
    case ROp::MinF:
      R.F[In.Dst] = std::fmin(R.F[In.A], R.F[In.B]);
      break;
    case ROp::MaxF:
      R.F[In.Dst] = std::fmax(R.F[In.A], R.F[In.B]);
      break;
    case ROp::NegF:
      R.F[In.Dst] = -R.F[In.A];
      break;
    case ROp::AbsF:
      R.F[In.Dst] = std::fabs(R.F[In.A]);
      break;
    case ROp::ExpF:
      R.F[In.Dst] = std::exp(R.F[In.A]);
      break;
    case ROp::LogF:
      R.F[In.Dst] = std::log(R.F[In.A]);
      break;
    case ROp::SqrtF:
      R.F[In.Dst] = std::sqrt(R.F[In.A]);
      break;
    case ROp::EqI:
      R.B[In.Dst] = R.I[In.A] == R.I[In.B];
      break;
    case ROp::NeI:
      R.B[In.Dst] = R.I[In.A] != R.I[In.B];
      break;
    case ROp::LtI:
      R.B[In.Dst] = R.I[In.A] < R.I[In.B];
      break;
    case ROp::LeI:
      R.B[In.Dst] = R.I[In.A] <= R.I[In.B];
      break;
    case ROp::GtI:
      R.B[In.Dst] = R.I[In.A] > R.I[In.B];
      break;
    case ROp::GeI:
      R.B[In.Dst] = R.I[In.A] >= R.I[In.B];
      break;
    case ROp::EqF:
      R.B[In.Dst] = R.F[In.A] == R.F[In.B];
      break;
    case ROp::NeF:
      R.B[In.Dst] = R.F[In.A] != R.F[In.B];
      break;
    case ROp::LtF:
      R.B[In.Dst] = R.F[In.A] < R.F[In.B];
      break;
    case ROp::LeF:
      R.B[In.Dst] = R.F[In.A] <= R.F[In.B];
      break;
    case ROp::GtF:
      R.B[In.Dst] = R.F[In.A] > R.F[In.B];
      break;
    case ROp::GeF:
      R.B[In.Dst] = R.F[In.A] >= R.F[In.B];
      break;
    case ROp::AndB:
      R.B[In.Dst] = R.B[In.A] && R.B[In.B];
      break;
    case ROp::OrB:
      R.B[In.Dst] = R.B[In.A] || R.B[In.B];
      break;
    case ROp::NotB:
      R.B[In.Dst] = !R.B[In.A];
      break;
    case ROp::I2F:
      R.F[In.Dst] = static_cast<double>(R.I[In.A]);
      break;
    case ROp::F2I:
      R.I[In.Dst] = static_cast<int64_t>(R.F[In.A]);
      break;
    case ROp::B2I:
      R.I[In.Dst] = R.B[In.A] ? 1 : 0;
      break;
    case ROp::B2F:
      R.F[In.Dst] = R.B[In.A] ? 1.0 : 0.0;
      break;
    case ROp::I2B:
      R.B[In.Dst] = R.I[In.A] != 0;
      break;
    case ROp::F2B:
      R.B[In.Dst] = R.F[In.A] != 0.0;
      break;

    case ROp::EmitCollect: {
      const GenPlan &P = K.Gens[In.Dst];
      ChunkGen &G = Gens[In.Dst];
      switch (P.ValKind) {
      case ScalarKind::I64:
        G.CI.push_back(R.I[In.A]);
        break;
      case ScalarKind::F64:
        G.CF.push_back(R.F[In.A]);
        break;
      default:
        G.CB.push_back(R.B[In.A]);
        break;
      }
      chargeElem(R);
      break;
    }
    case ROp::EmitBucket: {
      const GenPlan &P = K.Gens[In.Dst];
      ChunkGen &G = Gens[In.Dst];
      int64_t Key = R.I[P.KeyReg];
      chargeElem(R);
      if (P.Dense) {
        size_t Slot = denseSlot(Key, NumKeys[In.Dst]);
        switch (P.ValKind) {
        case ScalarKind::I64:
          G.DCI[Slot].push_back(R.I[In.A]);
          break;
        case ScalarKind::F64:
          G.DCF[Slot].push_back(R.F[In.A]);
          break;
        default:
          G.DCB[Slot].push_back(R.B[In.A]);
          break;
        }
      } else {
        auto [It, Inserted] =
            G.KeyIndex.try_emplace(Key, G.KeysInOrder.size());
        if (Inserted) {
          G.KeysInOrder.push_back(Key);
          switch (P.ValKind) {
          case ScalarKind::I64:
            G.HCI.emplace_back();
            break;
          case ScalarKind::F64:
            G.HCF.emplace_back();
            break;
          default:
            G.HCB.emplace_back();
            break;
          }
        }
        size_t Slot = It->second;
        switch (P.ValKind) {
        case ScalarKind::I64:
          G.HCI[Slot].push_back(R.I[In.A]);
          break;
        case ScalarKind::F64:
          G.HCF[Slot].push_back(R.F[In.A]);
          break;
        default:
          G.HCB[Slot].push_back(R.B[In.A]);
          break;
        }
      }
      break;
    }
    case ROp::ReduceHead: {
      const GenPlan &P = K.Gens[In.Dst];
      ChunkGen &G = Gens[In.Dst];
      if (!G.Has) {
        G.Has = true;
        switch (P.ValKind) {
        case ScalarKind::I64:
          G.AccI = R.I[In.A];
          break;
        case ScalarKind::F64:
          G.AccF = R.F[In.A];
          break;
        default:
          G.AccB = R.B[In.A];
          break;
        }
        Ip = In.Target;
      } else {
        switch (P.ValKind) {
        case ScalarKind::I64:
          R.I[P.AccInReg] = G.AccI;
          R.I[P.ValInReg] = R.I[In.A];
          break;
        case ScalarKind::F64:
          R.F[P.AccInReg] = G.AccF;
          R.F[P.ValInReg] = R.F[In.A];
          break;
        default:
          R.B[P.AccInReg] = G.AccB;
          R.B[P.ValInReg] = R.B[In.A];
          break;
        }
      }
      break;
    }
    case ROp::ReduceStore: {
      const GenPlan &P = K.Gens[In.Dst];
      ChunkGen &G = Gens[In.Dst];
      switch (P.ValKind) {
      case ScalarKind::I64:
        G.AccI = R.I[In.A];
        break;
      case ScalarKind::F64:
        G.AccF = R.F[In.A];
        break;
      default:
        G.AccB = R.B[In.A];
        break;
      }
      break;
    }
    case ROp::BucketHead: {
      const GenPlan &P = K.Gens[In.Dst];
      ChunkGen &G = Gens[In.Dst];
      int64_t Key = R.I[P.KeyReg];
      chargeElem(R);
      size_t Slot;
      bool First;
      if (P.Dense) {
        Slot = denseSlot(Key, NumKeys[In.Dst]);
        First = !G.DHas[Slot];
        if (First)
          G.DHas[Slot] = 1;
      } else {
        auto [It, Inserted] =
            G.KeyIndex.try_emplace(Key, G.KeysInOrder.size());
        First = Inserted;
        if (Inserted) {
          G.KeysInOrder.push_back(Key);
          switch (P.ValKind) {
          case ScalarKind::I64:
            G.HVI.emplace_back();
            break;
          case ScalarKind::F64:
            G.HVF.emplace_back();
            break;
          default:
            G.HVB.emplace_back();
            break;
          }
        }
        Slot = It->second;
      }
      auto &DI = P.Dense ? G.DVI : G.HVI;
      auto &DF = P.Dense ? G.DVF : G.HVF;
      auto &DB = P.Dense ? G.DVB : G.HVB;
      if (First) {
        switch (P.ValKind) {
        case ScalarKind::I64:
          DI[Slot] = R.I[In.A];
          break;
        case ScalarKind::F64:
          DF[Slot] = R.F[In.A];
          break;
        default:
          DB[Slot] = R.B[In.A];
          break;
        }
        Ip = In.Target;
      } else {
        G.Pending = static_cast<int64_t>(Slot);
        switch (P.ValKind) {
        case ScalarKind::I64:
          R.I[P.AccInReg] = DI[Slot];
          R.I[P.ValInReg] = R.I[In.A];
          break;
        case ScalarKind::F64:
          R.F[P.AccInReg] = DF[Slot];
          R.F[P.ValInReg] = R.F[In.A];
          break;
        default:
          R.B[P.AccInReg] = DB[Slot];
          R.B[P.ValInReg] = R.B[In.A];
          break;
        }
      }
      break;
    }
    case ROp::BucketStore: {
      const GenPlan &P = K.Gens[In.Dst];
      ChunkGen &G = Gens[In.Dst];
      size_t Slot = static_cast<size_t>(G.Pending);
      auto &DI = P.Dense ? G.DVI : G.HVI;
      auto &DF = P.Dense ? G.DVF : G.HVF;
      auto &DB = P.Dense ? G.DVB : G.HVB;
      switch (P.ValKind) {
      case ScalarKind::I64:
        DI[Slot] = R.I[In.A];
        break;
      case ScalarKind::F64:
        DF[Slot] = R.F[In.A];
        break;
      default:
        DB[Slot] = R.B[In.A];
        break;
      }
      break;
    }

    case ROp::ResetFlags:
      for (uint16_t F : K.FlagLists[In.A])
        R.B[F] = 0;
      break;
    case ROp::LoopEnter: {
      int64_t N = R.I[In.A];
      if (N < 0)
        trap("negative multiloop size " + std::to_string(N));
      if (N == 0)
        Ip = In.Target;
      else
        tick(R);
      break;
    }
    case ROp::LoopNext:
      if (++R.I[In.B] < R.I[In.A]) {
        tick(R);
        Ip = In.Target;
      }
      break;
    case ROp::LocalClear: {
      Local &L = R.L[In.A];
      L.I.clear();
      L.F.clear();
      L.B.clear();
      L.Rows.clear();
      break;
    }
    case ROp::PushLocI:
      R.L[In.Dst].I.push_back(R.I[In.A]);
      chargeElem(R);
      break;
    case ROp::PushLocF:
      R.L[In.Dst].F.push_back(R.F[In.A]);
      chargeElem(R);
      break;
    case ROp::PushLocB:
      R.L[In.Dst].B.push_back(R.B[In.A]);
      chargeElem(R);
      break;
    case ROp::AppendLoc: {
      const Local &From = R.L[In.A];
      Local &To = R.L[In.Dst];
      To.I.insert(To.I.end(), From.I.begin(), From.I.end());
      To.F.insert(To.F.end(), From.F.begin(), From.F.end());
      To.B.insert(To.B.end(), From.B.begin(), From.B.end());
      break;
    }
    case ROp::LocalRowEnd: {
      Local &L = R.L[In.A];
      L.Rows.push_back(localSize(L, K.Locals[In.A].Kind));
      chargeElem(R);
      break;
    }
    case ROp::LoadLocI: {
      const std::vector<int64_t> &V = R.L[In.A].I;
      int64_t Idx = R.I[In.B];
      if (Idx < 0 || static_cast<size_t>(Idx) >= V.size())
        colOutOfRange(Idx, V.size());
      R.I[In.Dst] = V[static_cast<size_t>(Idx)];
      break;
    }
    case ROp::LoadLocF: {
      const std::vector<double> &V = R.L[In.A].F;
      int64_t Idx = R.I[In.B];
      if (Idx < 0 || static_cast<size_t>(Idx) >= V.size())
        colOutOfRange(Idx, V.size());
      R.F[In.Dst] = V[static_cast<size_t>(Idx)];
      break;
    }
    case ROp::LoadLocB: {
      const std::vector<uint8_t> &V = R.L[In.A].B;
      int64_t Idx = R.I[In.B];
      if (Idx < 0 || static_cast<size_t>(Idx) >= V.size())
        colOutOfRange(Idx, V.size());
      R.B[In.Dst] = V[static_cast<size_t>(Idx)] != 0;
      break;
    }
    case ROp::LocalLen:
      R.I[In.Dst] =
          static_cast<int64_t>(localSize(R.L[In.A], K.Locals[In.A].Kind));
      break;
    case ROp::EmitVecReduce: {
      ChunkGen &G = Gens[In.Dst];
      foldVec(K.Gens[In.Dst], G.Vec, !G.Has, R.L[In.A], R);
      G.Has = true;
      break;
    }
    case ROp::EmitVecBucket: {
      const GenPlan &P = K.Gens[In.Dst];
      ChunkGen &G = Gens[In.Dst];
      size_t Slot = denseSlot(R.I[P.KeyReg], NumKeys[In.Dst]);
      chargeElem(R);
      foldVec(P, G.DVec[Slot], !G.DHas[Slot], R.L[In.A], R);
      G.DHas[Slot] = 1;
      break;
    }
    }
  }
}

/// Applies the generator's reduce fragment to (A, B) standalone, returning
/// the result through the fragment's result register. \p R must have the
/// uniform snapshot loaded.
template <typename T>
T applyFrag(const Kernel &K, const GenPlan &P, Regs &R,
            const std::vector<const ColBuf *> &Cols,
            std::vector<ChunkGen> &Scratch,
            const std::vector<int64_t> &NumKeys, T A, T B,
            std::vector<T> Regs::*Bank) {
  (R.*Bank)[P.AccInReg] = A;
  (R.*Bank)[P.ValInReg] = B;
  execRange(K, P.FragBegin, P.FragEnd, R, Cols, Scratch, NumKeys);
  return (R.*Bank)[P.ResultReg];
}

/// Lane count for instruction-wide execution of eligible kernels. Large
/// enough to amortize opcode dispatch and fill vector units, small enough
/// that the widened register banks stay cache-resident.
constexpr int64_t WideW = 32;

/// Widened register banks: lane L of register R lives at [R * WideW + L].
/// Construction broadcasts the launch snapshot (uniforms) into every lane;
/// all other registers are written before read in a straight-line stream.
struct WideRegs {
  std::vector<int64_t> I;
  std::vector<double> F;
  std::vector<uint8_t> B;

  WideRegs(const Kernel &K, const Regs &Uni)
      : I(static_cast<size_t>(K.NumI) * WideW, 0),
        F(static_cast<size_t>(K.NumF) * WideW, 0.0),
        B(static_cast<size_t>(K.NumB) * WideW, 0) {
    for (size_t R = 0; R < Uni.I.size(); ++R)
      for (int64_t L = 0; L < WideW; ++L)
        I[R * WideW + static_cast<size_t>(L)] = Uni.I[R];
    for (size_t R = 0; R < Uni.F.size(); ++R)
      for (int64_t L = 0; L < WideW; ++L)
        F[R * WideW + static_cast<size_t>(L)] = Uni.F[R];
    for (size_t R = 0; R < Uni.B.size(); ++R)
      for (int64_t L = 0; L < WideW; ++L)
        B[R * WideW + static_cast<size_t>(L)] = Uni.B[R];
  }
};

/// Executes indices [Base, Base + WideW) of a wide-eligible kernel
/// instruction-wide: each opcode dispatches once and its lane loop runs over
/// the block, which the compiler can vectorize. Phase A computes every
/// instruction with traps *recorded* instead of thrown (a would-trap lane
/// computes a placeholder); on any violation the function returns false
/// with no state modified, and the caller replays the block scalar so the
/// abort happens at exactly the interpreter's element, with its message.
/// Phase B appends the collect emits lane-by-lane in index order, so the
/// result is bit-identical to the scalar path. Emitted values are
/// snapshotted during Phase A because a value register may be reused by a
/// later generator's section.
bool execWideBlock(const Kernel &K, int64_t Base,
                   const std::vector<const ColBuf *> &Cols, WideRegs &W,
                   Regs &R, std::vector<ChunkGen> &Gens,
                   std::vector<std::vector<int64_t>> &EmitI,
                   std::vector<std::vector<double>> &EmitF,
                   std::vector<std::vector<uint8_t>> &EmitB) {
  // Lay the index sequence into register 0's lanes.
  for (int64_t L = 0; L < WideW; ++L)
    W.I[static_cast<size_t>(L)] = Base + L;

  size_t NextEmit = 0;
  auto LI = [&](uint16_t R) { return W.I.data() + size_t(R) * WideW; };
  auto LF = [&](uint16_t R) { return W.F.data() + size_t(R) * WideW; };
  auto LB = [&](uint16_t R) { return W.B.data() + size_t(R) * WideW; };

  for (const Inst &In : K.Code) {
    switch (In.Op) {
    case ROp::LoadImmI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = In.ImmI;
      break;
    case ROp::LoadImmF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = In.ImmF;
      break;
    case ROp::LoadImmB:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = In.ImmI != 0;
      break;
    case ROp::MoveI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = LI(In.A)[L];
      break;
    case ROp::MoveF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = LF(In.A)[L];
      break;
    case ROp::MoveB:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LB(In.A)[L];
      break;
    case ROp::LoadColI: {
      const ColBuf *C = Cols[In.A];
      for (int64_t L = 0; L < WideW; ++L) {
        int64_t Idx = LI(In.B)[L];
        if (Idx < 0 || static_cast<size_t>(Idx) >= C->Size)
          return false;
        LI(In.Dst)[L] = C->I[static_cast<size_t>(Idx)];
      }
      break;
    }
    case ROp::LoadColF: {
      const ColBuf *C = Cols[In.A];
      for (int64_t L = 0; L < WideW; ++L) {
        int64_t Idx = LI(In.B)[L];
        if (Idx < 0 || static_cast<size_t>(Idx) >= C->Size)
          return false;
        LF(In.Dst)[L] = C->F[static_cast<size_t>(Idx)];
      }
      break;
    }
    case ROp::LoadColB: {
      const ColBuf *C = Cols[In.A];
      for (int64_t L = 0; L < WideW; ++L) {
        int64_t Idx = LI(In.B)[L];
        if (Idx < 0 || static_cast<size_t>(Idx) >= C->Size)
          return false;
        LB(In.Dst)[L] = C->B[static_cast<size_t>(Idx)] != 0;
      }
      break;
    }
    case ROp::AddI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = LI(In.A)[L] + LI(In.B)[L];
      break;
    case ROp::SubI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = LI(In.A)[L] - LI(In.B)[L];
      break;
    case ROp::MulI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = LI(In.A)[L] * LI(In.B)[L];
      break;
    case ROp::DivI:
      for (int64_t L = 0; L < WideW; ++L) {
        if (LI(In.B)[L] == 0 ||
            (LI(In.B)[L] == -1 &&
             LI(In.A)[L] == std::numeric_limits<int64_t>::min()))
          return false;
        LI(In.Dst)[L] = LI(In.A)[L] / LI(In.B)[L];
      }
      break;
    case ROp::ModI:
      for (int64_t L = 0; L < WideW; ++L) {
        if (LI(In.B)[L] == 0 ||
            (LI(In.B)[L] == -1 &&
             LI(In.A)[L] == std::numeric_limits<int64_t>::min()))
          return false;
        LI(In.Dst)[L] = LI(In.A)[L] % LI(In.B)[L];
      }
      break;
    case ROp::MinI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] =
            LI(In.A)[L] < LI(In.B)[L] ? LI(In.A)[L] : LI(In.B)[L];
      break;
    case ROp::MaxI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] =
            LI(In.A)[L] > LI(In.B)[L] ? LI(In.A)[L] : LI(In.B)[L];
      break;
    case ROp::NegI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = -LI(In.A)[L];
      break;
    case ROp::AbsI:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = LI(In.A)[L] < 0 ? -LI(In.A)[L] : LI(In.A)[L];
      break;
    case ROp::AddF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = LF(In.A)[L] + LF(In.B)[L];
      break;
    case ROp::SubF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = LF(In.A)[L] - LF(In.B)[L];
      break;
    case ROp::MulF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = LF(In.A)[L] * LF(In.B)[L];
      break;
    case ROp::DivF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = LF(In.A)[L] / LF(In.B)[L];
      break;
    case ROp::ModF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = std::fmod(LF(In.A)[L], LF(In.B)[L]);
      break;
    case ROp::MinF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = std::fmin(LF(In.A)[L], LF(In.B)[L]);
      break;
    case ROp::MaxF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = std::fmax(LF(In.A)[L], LF(In.B)[L]);
      break;
    case ROp::NegF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = -LF(In.A)[L];
      break;
    case ROp::AbsF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = std::fabs(LF(In.A)[L]);
      break;
    case ROp::ExpF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = std::exp(LF(In.A)[L]);
      break;
    case ROp::LogF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = std::log(LF(In.A)[L]);
      break;
    case ROp::SqrtF:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = std::sqrt(LF(In.A)[L]);
      break;
    case ROp::EqI:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LI(In.A)[L] == LI(In.B)[L];
      break;
    case ROp::NeI:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LI(In.A)[L] != LI(In.B)[L];
      break;
    case ROp::LtI:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LI(In.A)[L] < LI(In.B)[L];
      break;
    case ROp::LeI:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LI(In.A)[L] <= LI(In.B)[L];
      break;
    case ROp::GtI:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LI(In.A)[L] > LI(In.B)[L];
      break;
    case ROp::GeI:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LI(In.A)[L] >= LI(In.B)[L];
      break;
    case ROp::EqF:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LF(In.A)[L] == LF(In.B)[L];
      break;
    case ROp::NeF:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LF(In.A)[L] != LF(In.B)[L];
      break;
    case ROp::LtF:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LF(In.A)[L] < LF(In.B)[L];
      break;
    case ROp::LeF:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LF(In.A)[L] <= LF(In.B)[L];
      break;
    case ROp::GtF:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LF(In.A)[L] > LF(In.B)[L];
      break;
    case ROp::GeF:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LF(In.A)[L] >= LF(In.B)[L];
      break;
    case ROp::AndB:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LB(In.A)[L] && LB(In.B)[L];
      break;
    case ROp::OrB:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LB(In.A)[L] || LB(In.B)[L];
      break;
    case ROp::NotB:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = !LB(In.A)[L];
      break;
    case ROp::I2F:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = static_cast<double>(LI(In.A)[L]);
      break;
    case ROp::F2I:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = static_cast<int64_t>(LF(In.A)[L]);
      break;
    case ROp::B2I:
      for (int64_t L = 0; L < WideW; ++L)
        LI(In.Dst)[L] = LB(In.A)[L] ? 1 : 0;
      break;
    case ROp::B2F:
      for (int64_t L = 0; L < WideW; ++L)
        LF(In.Dst)[L] = LB(In.A)[L] ? 1.0 : 0.0;
      break;
    case ROp::I2B:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LI(In.A)[L] != 0;
      break;
    case ROp::F2B:
      for (int64_t L = 0; L < WideW; ++L)
        LB(In.Dst)[L] = LF(In.A)[L] != 0.0;
      break;
    case ROp::EmitCollect: {
      // Snapshot the lanes now; the register may be clobbered by a later
      // generator's section before Phase B runs.
      if (NextEmit >= EmitI.size()) {
        EmitI.emplace_back();
        EmitF.emplace_back();
        EmitB.emplace_back();
      }
      const GenPlan &P = K.Gens[In.Dst];
      switch (P.ValKind) {
      case ScalarKind::I64:
        EmitI[NextEmit].assign(LI(In.A), LI(In.A) + WideW);
        break;
      case ScalarKind::F64:
        EmitF[NextEmit].assign(LF(In.A), LF(In.A) + WideW);
        break;
      default:
        EmitB[NextEmit].assign(LB(In.A), LB(In.A) + WideW);
        break;
      }
      ++NextEmit;
      break;
    }
    default:
      // Eligibility excludes control flow and reduce/bucket state.
      return false;
    }
  }

  // Phase B: no lane trapped anywhere — land the snapshotted emits, in
  // lane (= index) order per generator, exactly as the scalar path would.
  NextEmit = 0;
  for (const Inst &In : K.Code) {
    if (In.Op != ROp::EmitCollect)
      continue;
    const GenPlan &P = K.Gens[In.Dst];
    ChunkGen &G = Gens[In.Dst];
    switch (P.ValKind) {
    case ScalarKind::I64:
      G.CI.insert(G.CI.end(), EmitI[NextEmit].begin(), EmitI[NextEmit].end());
      break;
    case ScalarKind::F64:
      G.CF.insert(G.CF.end(), EmitF[NextEmit].begin(), EmitF[NextEmit].end());
      break;
    default:
      G.CB.insert(G.CB.end(), EmitB[NextEmit].begin(), EmitB[NextEmit].end());
      break;
    }
    R.Mem += WideW * static_cast<int64_t>(sizeof(Value));
    ++NextEmit;
  }
  return true;
}

/// Merges chunk state \p B (later indices) into \p A, mirroring the
/// interpreter's mergeStates: collects concatenate, reductions combine via
/// the reduce fragment, hash buckets merge preserving first-occurrence key
/// order.
void mergeChunk(const Kernel &K, std::vector<ChunkGen> &A,
                std::vector<ChunkGen> &B, Regs &R,
                const std::vector<const ColBuf *> &Cols,
                const std::vector<int64_t> &NumKeys) {
  std::vector<ChunkGen> NoGens; // fragments contain no emit ops
  auto Red = [&](const GenPlan &P, auto X, auto Y) {
    using T = decltype(X);
    if constexpr (std::is_same_v<T, int64_t>)
      return applyFrag<int64_t>(K, P, R, Cols, NoGens, NumKeys, X, Y,
                                &Regs::I);
    else if constexpr (std::is_same_v<T, double>)
      return applyFrag<double>(K, P, R, Cols, NoGens, NumKeys, X, Y,
                               &Regs::F);
    else
      return applyFrag<uint8_t>(K, P, R, Cols, NoGens, NumKeys, X, Y,
                                &Regs::B);
  };

  for (size_t GI = 0; GI < K.Gens.size(); ++GI) {
    const GenPlan &P = K.Gens[GI];
    ChunkGen &GA = A[GI];
    ChunkGen &GB = B[GI];
    if (P.VecDepth) {
      // Element by element, chunk after chunk in index order, counted like
      // the interpreter's merge.
      if (P.Kind == GenKind::Reduce) {
        if (GB.Has)
          foldVec(P, GA.Vec, !GA.Has, GB.Vec, R);
        GA.Has |= GB.Has;
      } else {
        for (size_t S = 0; S < GA.DVec.size(); ++S)
          if (GB.DHas[S]) {
            foldVec(P, GA.DVec[S], !GA.DHas[S], GB.DVec[S], R);
            GA.DHas[S] = 1;
          }
      }
      if (R.Work || R.Mem)
        flushWork(R);
      continue;
    }
    switch (P.Kind) {
    case GenKind::Collect:
      GA.CI.insert(GA.CI.end(), GB.CI.begin(), GB.CI.end());
      GA.CF.insert(GA.CF.end(), GB.CF.begin(), GB.CF.end());
      GA.CB.insert(GA.CB.end(), GB.CB.begin(), GB.CB.end());
      break;
    case GenKind::Reduce:
      if (!GA.Has) {
        GA.AccI = GB.AccI;
        GA.AccF = GB.AccF;
        GA.AccB = GB.AccB;
        GA.Has = GB.Has;
      } else if (GB.Has) {
        switch (P.ValKind) {
        case ScalarKind::I64:
          GA.AccI = Red(P, GA.AccI, GB.AccI);
          break;
        case ScalarKind::F64:
          GA.AccF = Red(P, GA.AccF, GB.AccF);
          break;
        default:
          GA.AccB = Red(P, GA.AccB, GB.AccB);
          break;
        }
      }
      break;
    case GenKind::BucketCollect:
      if (P.Dense) {
        size_t NK = static_cast<size_t>(NumKeys[GI]);
        for (size_t S = 0; S < NK; ++S) {
          switch (P.ValKind) {
          case ScalarKind::I64:
            GA.DCI[S].insert(GA.DCI[S].end(), GB.DCI[S].begin(),
                             GB.DCI[S].end());
            break;
          case ScalarKind::F64:
            GA.DCF[S].insert(GA.DCF[S].end(), GB.DCF[S].begin(),
                             GB.DCF[S].end());
            break;
          default:
            GA.DCB[S].insert(GA.DCB[S].end(), GB.DCB[S].begin(),
                             GB.DCB[S].end());
            break;
          }
        }
      } else {
        for (size_t BK = 0; BK < GB.KeysInOrder.size(); ++BK) {
          int64_t Key = GB.KeysInOrder[BK];
          auto [It, Inserted] =
              GA.KeyIndex.try_emplace(Key, GA.KeysInOrder.size());
          if (Inserted) {
            GA.KeysInOrder.push_back(Key);
            switch (P.ValKind) {
            case ScalarKind::I64:
              GA.HCI.push_back(std::move(GB.HCI[BK]));
              break;
            case ScalarKind::F64:
              GA.HCF.push_back(std::move(GB.HCF[BK]));
              break;
            default:
              GA.HCB.push_back(std::move(GB.HCB[BK]));
              break;
            }
            continue;
          }
          size_t S = It->second;
          switch (P.ValKind) {
          case ScalarKind::I64:
            GA.HCI[S].insert(GA.HCI[S].end(), GB.HCI[BK].begin(),
                             GB.HCI[BK].end());
            break;
          case ScalarKind::F64:
            GA.HCF[S].insert(GA.HCF[S].end(), GB.HCF[BK].begin(),
                             GB.HCF[BK].end());
            break;
          default:
            GA.HCB[S].insert(GA.HCB[S].end(), GB.HCB[BK].begin(),
                             GB.HCB[BK].end());
            break;
          }
        }
      }
      break;
    case GenKind::BucketReduce:
      if (P.Dense) {
        size_t NK = static_cast<size_t>(NumKeys[GI]);
        for (size_t S = 0; S < NK; ++S) {
          if (!GB.DHas[S])
            continue;
          if (!GA.DHas[S]) {
            GA.DHas[S] = 1;
            switch (P.ValKind) {
            case ScalarKind::I64:
              GA.DVI[S] = GB.DVI[S];
              break;
            case ScalarKind::F64:
              GA.DVF[S] = GB.DVF[S];
              break;
            default:
              GA.DVB[S] = GB.DVB[S];
              break;
            }
          } else {
            switch (P.ValKind) {
            case ScalarKind::I64:
              GA.DVI[S] = Red(P, GA.DVI[S], GB.DVI[S]);
              break;
            case ScalarKind::F64:
              GA.DVF[S] = Red(P, GA.DVF[S], GB.DVF[S]);
              break;
            default:
              GA.DVB[S] = Red(P, GA.DVB[S], GB.DVB[S]);
              break;
            }
          }
        }
      } else {
        for (size_t BK = 0; BK < GB.KeysInOrder.size(); ++BK) {
          int64_t Key = GB.KeysInOrder[BK];
          auto [It, Inserted] =
              GA.KeyIndex.try_emplace(Key, GA.KeysInOrder.size());
          if (Inserted) {
            GA.KeysInOrder.push_back(Key);
            switch (P.ValKind) {
            case ScalarKind::I64:
              GA.HVI.push_back(GB.HVI[BK]);
              break;
            case ScalarKind::F64:
              GA.HVF.push_back(GB.HVF[BK]);
              break;
            default:
              GA.HVB.push_back(GB.HVB[BK]);
              break;
            }
            continue;
          }
          size_t S = It->second;
          switch (P.ValKind) {
          case ScalarKind::I64:
            GA.HVI[S] = Red(P, GA.HVI[S], GB.HVI[BK]);
            break;
          case ScalarKind::F64:
            GA.HVF[S] = Red(P, GA.HVF[S], GB.HVF[BK]);
            break;
          default:
            GA.HVB[S] = Red(P, GA.HVB[S], GB.HVB[BK]);
            break;
          }
        }
      }
      break;
    }
  }
}

Value boxScalar(ScalarKind K, int64_t I, double F, uint8_t B) {
  switch (K) {
  case ScalarKind::I64:
    return Value(I);
  case ScalarKind::F64:
    return Value(F);
  default:
    return Value(B != 0);
  }
}

/// Boxes a vector accumulator as the interpreter's nested arrays.
Value boxVec(const GenPlan &P, const Local &L) {
  auto Elems = [&](size_t Begin, size_t End) {
    ArrayData Out;
    Out.reserve(End - Begin);
    for (size_t I = Begin; I < End; ++I)
      Out.push_back(P.ValKind == ScalarKind::I64 ? Value(L.I[I]) : Value(L.F[I]));
    return Value::makeArray(std::move(Out));
  };
  if (P.VecDepth == 1)
    return Elems(0, localSize(L, P.ValKind));
  ArrayData Rows;
  Rows.reserve(L.Rows.size());
  for (size_t Row = 0; Row < L.Rows.size(); ++Row)
    Rows.push_back(Elems(Row ? L.Rows[Row - 1] : 0, L.Rows[Row]));
  return Value::makeArray(std::move(Rows));
}

/// Boxes one generator's final state, mirroring the interpreter's
/// finishGen exactly (including zeroOf for empty reductions and untouched
/// dense buckets).
Value finishGen(const GenPlan &P, ChunkGen &G, int64_t NumKeys) {
  if (P.VecDepth && P.Kind == GenKind::Reduce)
    return G.Has ? boxVec(P, G.Vec) : Value::zeroOf(*P.ValType);
  if (P.VecDepth) {
    ArrayData Out;
    for (size_t S = 0; S < G.DVec.size(); ++S)
      Out.push_back(G.DHas[S] ? boxVec(P, G.DVec[S])
                              : Value::zeroOf(*P.ValType));
    return Value::makeArray(std::move(Out));
  }
  switch (P.Kind) {
  case GenKind::Collect: {
    ArrayData Out;
    switch (P.ValKind) {
    case ScalarKind::I64:
      Out.reserve(G.CI.size());
      for (int64_t V : G.CI)
        Out.push_back(Value(V));
      break;
    case ScalarKind::F64:
      Out.reserve(G.CF.size());
      for (double V : G.CF)
        Out.push_back(Value(V));
      break;
    default:
      Out.reserve(G.CB.size());
      for (uint8_t V : G.CB)
        Out.push_back(Value(V != 0));
      break;
    }
    return Value::makeArray(std::move(Out));
  }
  case GenKind::Reduce:
    if (G.Has)
      return boxScalar(P.ValKind, G.AccI, G.AccF, G.AccB);
    return Value::zeroOf(*P.ValType);
  case GenKind::BucketCollect: {
    auto BoxBucket = [&](std::vector<int64_t> &BI, std::vector<double> &BF,
                         std::vector<uint8_t> &BB) {
      ArrayData Elems;
      switch (P.ValKind) {
      case ScalarKind::I64:
        Elems.reserve(BI.size());
        for (int64_t V : BI)
          Elems.push_back(Value(V));
        break;
      case ScalarKind::F64:
        Elems.reserve(BF.size());
        for (double V : BF)
          Elems.push_back(Value(V));
        break;
      default:
        Elems.reserve(BB.size());
        for (uint8_t V : BB)
          Elems.push_back(Value(V != 0));
        break;
      }
      return Value::makeArray(std::move(Elems));
    };
    std::vector<int64_t> EmptyI;
    std::vector<double> EmptyF;
    std::vector<uint8_t> EmptyB;
    if (P.Dense) {
      ArrayData Buckets;
      size_t NK = static_cast<size_t>(NumKeys);
      for (size_t S = 0; S < NK; ++S)
        Buckets.push_back(BoxBucket(
            P.ValKind == ScalarKind::I64 ? G.DCI[S] : EmptyI,
            P.ValKind == ScalarKind::F64 ? G.DCF[S] : EmptyF,
            P.ValKind == ScalarKind::I1 ? G.DCB[S] : EmptyB));
      return Value::makeArray(std::move(Buckets));
    }
    ArrayData Keys, Buckets;
    for (int64_t Key : G.KeysInOrder)
      Keys.push_back(Value(Key));
    for (size_t S = 0; S < G.KeysInOrder.size(); ++S)
      Buckets.push_back(BoxBucket(
          P.ValKind == ScalarKind::I64 ? G.HCI[S] : EmptyI,
          P.ValKind == ScalarKind::F64 ? G.HCF[S] : EmptyF,
          P.ValKind == ScalarKind::I1 ? G.HCB[S] : EmptyB));
    return Value::makeStruct({Value::makeArray(std::move(Keys)),
                              Value::makeArray(std::move(Buckets))});
  }
  case GenKind::BucketReduce: {
    if (P.Dense) {
      ArrayData Out;
      size_t NK = static_cast<size_t>(NumKeys);
      for (size_t S = 0; S < NK; ++S)
        Out.push_back(G.DHas[S]
                          ? boxScalar(P.ValKind,
                                      P.ValKind == ScalarKind::I64 ? G.DVI[S]
                                                                   : 0,
                                      P.ValKind == ScalarKind::F64 ? G.DVF[S]
                                                                   : 0,
                                      P.ValKind == ScalarKind::I1 ? G.DVB[S]
                                                                  : 0)
                          : Value::zeroOf(*P.ValType));
      return Value::makeArray(std::move(Out));
    }
    ArrayData Keys, Vals;
    for (int64_t Key : G.KeysInOrder)
      Keys.push_back(Value(Key));
    for (size_t S = 0; S < G.KeysInOrder.size(); ++S)
      Vals.push_back(boxScalar(
          P.ValKind, P.ValKind == ScalarKind::I64 ? G.HVI[S] : 0,
          P.ValKind == ScalarKind::F64 ? G.HVF[S] : 0,
          P.ValKind == ScalarKind::I1 ? G.HVB[S] : 0));
    return Value::makeStruct({Value::makeArray(std::move(Keys)),
                              Value::makeArray(std::move(Vals))});
  }
  }
  dmllUnreachable("bad GenKind");
}

const char *const NotComputed =
    "closed source not yet computed by the run";
const char *const KindMismatch = "launch-time binding rejected the inputs";

} // namespace

const char *engine::runKernel(const Kernel &K, int64_t N,
                              const LaunchContext &Ctx, Value &Out) {
  // Dense bucket counts evaluate on every launch, even for empty loops —
  // the interpreter's initStates does the same.
  std::vector<int64_t> NumKeys(K.Gens.size(), 0);
  for (size_t G = 0; G < K.Gens.size(); ++G) {
    const GenPlan &P = K.Gens[G];
    if (!P.Dense)
      continue;
    int64_t NK = Ctx.EvalInvariant(P.NumKeys).toInt();
    if (NK < 0)
      trap("negative dense bucket count");
    NumKeys[G] = NK;
  }

  Regs Snapshot(K);
  Snapshot.Control = Ctx.Control;
  std::vector<const ColBuf *> Cols;
  if (N > 0) {
    // Bind uniforms and columns. A source projected from a closed loop the
    // run has not computed yet, or a runtime kind that contradicts the
    // compiled expectation, rejects the launch (interpreter fallback).
    auto Uncomputed = [&](const ExprRef &Root) {
      return Root && !(Ctx.Computed && Ctx.Computed(Root));
    };
    for (const UniformRef &U : K.Uniforms)
      if (Uncomputed(U.Root))
        return NotComputed;
    for (const ColumnRef &C : K.Columns)
      if (Uncomputed(C.Root))
        return NotComputed;
    for (const UniformRef &U : K.Uniforms) {
      Value V = Ctx.EvalInvariant(U.E);
      switch (U.Kind) {
      case ScalarKind::I64:
        if (!V.isInt())
          return KindMismatch;
        Snapshot.I[U.Reg] = V.asInt();
        break;
      case ScalarKind::F64:
        if (!V.isFloat())
          return KindMismatch;
        Snapshot.F[U.Reg] = V.asFloat();
        break;
      case ScalarKind::I1:
        if (!V.isBool())
          return KindMismatch;
        Snapshot.B[U.Reg] = V.asBool();
        break;
      case ScalarKind::NotScalar:
        return KindMismatch;
      }
    }
    Cols.reserve(K.Columns.size());
    for (const ColumnRef &C : K.Columns) {
      Value V = Ctx.EvalInvariant(C.E);
      const ColBuf *Buf = Ctx.Columns->get(V.array(), C.Kind);
      if (!Buf)
        return KindMismatch;
      Cols.push_back(Buf);
    }
  }

  TraceSpan Span("engine.kernel", "exec");
  if (Span.live()) {
    Span.arg("loop", K.Signature);
    Span.argInt("iters", N);
  }
  SampleScope KernelSample("engine.kernel", Ctx.SampleLoop);

  std::vector<ChunkGen> Final;
  // Index spans run scalar, or — for wide-eligible kernels — in WideW
  // blocks with a scalar tail. A block whose pre-validation detects a trap
  // replays scalar from its base, which aborts at the interpreter's exact
  // element; pre-trap indices re-execute identically (straight-line code,
  // emits landed only by the replay).
  const bool UseWide = K.WideEligible && Ctx.EnableWide && N >= WideW;
  std::atomic<int64_t> WideBlocks{0};
  auto ExecSpanRaw = [&](int64_t Begin, int64_t End, Regs &R,
                         std::vector<ChunkGen> &Gens) {
    int64_t I = Begin;
    if (UseWide && End - Begin >= WideW) {
      WideRegs WR(K, R);
      std::vector<std::vector<int64_t>> EI;
      std::vector<std::vector<double>> EF;
      std::vector<std::vector<uint8_t>> EB;
      int64_t Blocks = 0;
      for (; I + WideW <= End; I += WideW) {
        if (execWideBlock(K, I, Cols, WR, R, Gens, EI, EF, EB)) {
          ++Blocks;
          continue;
        }
        for (int64_t J = I; J < I + WideW; ++J) {
          R.I[0] = J;
          execRange(K, 0, static_cast<int32_t>(K.Code.size()), R, Cols, Gens,
                    NumKeys);
        }
      }
      WideBlocks.fetch_add(Blocks, std::memory_order_relaxed);
    }
    for (; I < End; ++I) {
      R.I[0] = I;
      execRange(K, 0, static_cast<int32_t>(K.Code.size()), R, Cols, Gens,
                NumKeys);
    }
  };
  // Checkpoints every KernelCheck iterations: a flat span by outer indices,
  // before each block; a nested span by work as it runs, each outer index,
  // inner iteration and vector element counted as it starts (tick).
  auto ExecSpan = [&](int64_t Begin, int64_t End, Regs &R,
                      std::vector<ChunkGen> &Gens) {
    if (K.Nested) {
      for (int64_t I = Begin; I < End; ++I) {
        tick(R);
        R.I[0] = I;
        execRange(K, 0, static_cast<int32_t>(K.Code.size()), R, Cols, Gens,
                  NumKeys);
      }
      if (R.Work || R.Mem)
        flushWork(R);
      return;
    }
    for (int64_t SB = Begin; SB < End; SB += KernelCheck) {
      int64_t SE = std::min(SB + KernelCheck, End);
      if (faults::shouldFire(faults::Hook::Trap))
        trap("injected trap");
      if (Ctx.Control) {
        Ctx.Control->chargeIterations(SE - SB);
        Ctx.Control->chargeMemory(R.Mem);
        Ctx.Control->checkpoint();
      }
      R.Mem = 0;
      ExecSpanRaw(SB, SE, R, Gens);
    }
    if (Ctx.Control && R.Mem) {
      Ctx.Control->chargeMemory(R.Mem);
      Ctx.Control->checkpoint();
    }
    R.Mem = 0;
  };
  if (Ctx.Chunks > 1) {
    // The interpreter's exact chunk boundaries, so float reassociation is
    // identical between engine and interpreter.
    const int64_t NumChunks = Ctx.Chunks;
    int64_t Per = (N + NumChunks - 1) / NumChunks;
    std::vector<std::vector<ChunkGen>> ChunkStates(
        static_cast<size_t>(NumChunks));
    // The interpreter builds the loop's own state before its chunks' too.
    for (size_t G = 0; G < K.Gens.size(); ++G)
      if (K.Gens[G].Dense)
        chargeTable(NumKeys[G], Ctx.Control);
    ParallelForStats PStats;
    Ctx.Pool->parallelFor(
        NumChunks, 1,
        [&](int64_t CB, int64_t CE, unsigned) {
          SampleScope ChunkSample("engine.chunk", Ctx.SampleLoop);
          for (int64_t C = CB; C < CE; ++C) {
            Regs R = Snapshot;
            std::vector<ChunkGen> &Gens = ChunkStates[static_cast<size_t>(C)];
            initChunk(K, NumKeys, Gens, Ctx.Control);
            int64_t End = std::min((C + 1) * Per, N);
            ExecSpan(C * Per, End, R, Gens);
          }
        },
        Ctx.Profile ? &PStats : nullptr, "engine.chunk",
        Ctx.Control ? &Ctx.Control->token() : nullptr);
    if (Ctx.Profile) {
      Ctx.Profile->accumulate(PStats);
      ++Ctx.Profile->ParallelLoops;
      if (Ctx.LoopCounters)
        for (size_t W = 1; W < PStats.Workers.size(); ++W)
          if (PStats.Workers[W].Chunks > 0)
            Ctx.LoopCounters->add(PStats.Workers[W].Counters);
    }
    if (Span.live())
      Span.argInt("chunks", NumChunks);
    Regs Scratch = Snapshot;
    Final = std::move(ChunkStates[0]);
    for (size_t C = 1; C < ChunkStates.size(); ++C)
      mergeChunk(K, Final, ChunkStates[C], Scratch, Cols, NumKeys);
  } else {
    if (Ctx.Profile)
      ++Ctx.Profile->SequentialLoops;
    Regs R = Snapshot;
    initChunk(K, NumKeys, Final, Ctx.Control);
    ExecSpan(0, N, R, Final);
  }
  if (Ctx.Profile)
    Ctx.Profile->WideBlocks += WideBlocks.load(std::memory_order_relaxed);

  if (K.Single) {
    Out = finishGen(K.Gens[0], Final[0], NumKeys[0]);
    return nullptr;
  }
  std::vector<Value> Outs;
  for (size_t G = 0; G < K.Gens.size(); ++G)
    Outs.push_back(finishGen(K.Gens[G], Final[G], NumKeys[G]));
  Out = Value::makeStruct(std::move(Outs));
  return nullptr;
}
