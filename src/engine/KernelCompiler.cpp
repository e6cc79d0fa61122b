//===- engine/KernelCompiler.cpp -------------------------------*- C++ -*-===//

#include "engine/KernelCompiler.h"

#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace dmll;
using namespace dmll::engine;
using lower::ScalarKind;

namespace {

/// A typed register: which bank plus the bank-local index.
struct Reg {
  ScalarKind Kind = ScalarKind::I64;
  uint16_t Idx = 0;
};

/// A lowered non-scalar value: a struct of scalars, one register per field,
/// or a per-chunk local array (Slot >= 0).
struct Agg {
  std::vector<Reg> Fields;
  int32_t Slot = -1;
};

/// Value numbering valid at one code position: scalars and aggregates.
struct Memo {
  std::unordered_map<const Expr *, Reg> Scalar;
  std::unordered_map<const Expr *, Agg> Aggs;
};

/// A loop-varying nested loop: its result lives in fixed registers (or a
/// local array) shared by every site that may compute it, and Flag says
/// whether the current iteration of its innermost binder has computed it —
/// the interpreter's memo in that binder's scope.
struct Held {
  Agg Val; ///< allocated by the first site, once its value's kinds are known
  uint16_t Flag = 0;
};

/// The i64 register every generator's index parameter maps to; the VM
/// writes the current index there before each element.
constexpr uint16_t IdxReg = 0;

class Lowering {
public:
  explicit Lowering(const MultiloopExpr *ML) : ML(ML) {}

  CompileOutcome run(const ExprRef &Loop);

private:
  const MultiloopExpr *ML;
  Kernel K;
  std::string Fail;

  /// Bound parameters: symbol id -> register (scalars) or fields (structs).
  std::unordered_map<uint64_t, Reg> Bound;
  std::unordered_map<uint64_t, Agg> BoundAgg;
  /// Binder level of each loop index parameter: 0 for the kernel's own
  /// index, one more per enclosing inner loop. LevelLists[L] is level L's
  /// FlagLists entry.
  std::unordered_map<uint64_t, size_t> SymLevel;
  std::vector<uint32_t> LevelLists;
  /// Value numbering at the current position, and the part of it computed
  /// unconditionally in every iteration (the generators' conditions, and
  /// the key and value of unconditional generators), which later
  /// generators share like the interpreter's one per-iteration scope.
  Memo M, Base;
  std::unordered_map<const Expr *, Held> Holders;
  /// Uniform / column dedup, global across sections (always valid).
  std::unordered_map<const Expr *, Reg> UniformRegs;
  std::unordered_map<const Expr *, uint16_t> ColumnSlots;
  /// Free-symbol sets, cached per node.
  std::unordered_map<const Expr *, std::unordered_set<uint64_t>> FreeCache;
  /// mayTrap() results, cached per node.
  std::unordered_map<const Expr *, bool> TrapCache;

  bool fail(const std::string &Why) {
    if (Fail.empty())
      Fail = Why;
    return false;
  }

  const std::unordered_set<uint64_t> &freeOf(const ExprRef &E) {
    auto It = FreeCache.find(E.get());
    if (It != FreeCache.end())
      return It->second;
    return FreeCache.emplace(E.get(), freeSyms(E)).first->second;
  }

  /// True when no currently-bound parameter occurs free in \p E, i.e. the
  /// expression is invariant across the loop (the loop itself is closed).
  bool isInvariant(const ExprRef &E) {
    for (uint64_t Id : freeOf(E))
      if (Bound.count(Id) || BoundAgg.count(Id))
        return false;
    return true;
  }

  /// Cached dmll::mayTrap. Uniforms and column sources are evaluated
  /// unconditionally at launch, so hoisting a may-trap expression would
  /// speculate past generator conditions and zero-trip loops the
  /// interpreter uses to skip it; such expressions must stay in the
  /// per-iteration code, where the condition branch guards them and the VM
  /// raises the identical trap.
  bool mayTrap(const ExprRef &E) {
    auto It = TrapCache.find(E.get());
    if (It != TrapCache.end())
      return It->second;
    return TrapCache.emplace(E.get(), dmll::mayTrap(E)).first->second;
  }

  /// The closed Multiloop or Flatten that invariant \p E projects from
  /// (through fields, loop outputs and a length), else null. Once the run
  /// has computed it, evaluating E cannot trap.
  static ExprRef closedRoot(ExprRef E) {
    for (;;) {
      if (const auto *G = dyn_cast<GetFieldExpr>(E))
        E = G->base();
      else if (const auto *LO = dyn_cast<LoopOutExpr>(E))
        E = LO->loop();
      else if (const auto *L = dyn_cast<ArrayLenExpr>(E))
        E = L->array();
      else
        break;
    }
    return isa<MultiloopExpr>(E) || isa<FlattenExpr>(E) ? E : ExprRef();
  }

  uint16_t *counter(ScalarKind Kind) {
    return Kind == ScalarKind::I64   ? &K.NumI
           : Kind == ScalarKind::F64 ? &K.NumF
                                     : &K.NumB;
  }

  std::optional<Reg> alloc(ScalarKind Kind) {
    uint16_t *Ctr = counter(Kind);
    if (*Ctr >= 60000) {
      fail("register bank overflow");
      return std::nullopt;
    }
    return Reg{Kind, (*Ctr)++};
  }

  int32_t emit(ROp Op, uint16_t Dst = 0, uint16_t A = 0, uint16_t B = 0,
               int32_t Target = 0, int64_t ImmI = 0, double ImmF = 0) {
    K.Code.push_back({Op, Dst, A, B, Target, ImmI, ImmF});
    return static_cast<int32_t>(K.Code.size()) - 1;
  }

  int32_t here() const { return static_cast<int32_t>(K.Code.size()); }

  void patch(int32_t At) { K.Code[static_cast<size_t>(At)].Target = here(); }

  void move(Reg Dst, Reg Src) {
    if (Dst.Idx == Src.Idx)
      return;
    emit(Dst.Kind == ScalarKind::I64   ? ROp::MoveI
         : Dst.Kind == ScalarKind::F64 ? ROp::MoveF
                                       : ROp::MoveB,
         Dst.Idx, Src.Idx);
  }

  /// Why non-scalar \p E cannot be lowered where it occurs.
  const char *nonScalarReason(const ExprRef &E) {
    return isInvariant(E)             ? "loop-invariant non-scalar value in body"
           : E->type()->isStruct()    ? "struct value in kernel body"
                                      : "loop-varying array in kernel body";
  }

  std::optional<Reg> lowerUniform(const ExprRef &E, ExprRef Root);
  std::optional<uint16_t> lowerColumn(const ExprRef &Base, ScalarKind Kind);
  std::optional<Reg> coerceTo(Reg R, ScalarKind Want);
  std::optional<Reg> lowerExpr(const ExprRef &E);
  std::optional<Reg> lowerBinOp(const ExprRef &E);
  std::optional<Reg> lowerUnOp(const ExprRef &E);
  std::optional<Agg> lowerAgg(const ExprRef &E);
  std::optional<Agg> lowerSelectAgg(const ExprRef &E);
  std::optional<Agg> lowerValue(const ExprRef &E);
  std::optional<Agg> lowerInner(const ExprRef &E);
  std::optional<Agg> lowerHeld(const ExprRef &E,
                               const std::function<bool(Agg &)> &Compute);
  std::optional<int32_t> lowerVec2(const ExprRef &E,
                                   const lower::InPlaceAdd &V);
  bool assign(const std::vector<Reg> &Dst, const std::vector<Reg> &Src);
  bool bindsHeld(const std::vector<ExprRef> &Roots,
                 const std::vector<uint64_t> &Params);
  void openLevel(const std::vector<uint64_t> &Params, Reg Idx,
                 const std::vector<ExprRef> &Roots);
  bool emitLoop(const MultiloopExpr *L, const std::function<bool()> &Body);
  bool pushLocal(int32_t Slot, const ExprRef &Elem);

  bool lowerGenerator(size_t G);
};

/// Every function of \p Gen that runs per index, with its parameter.
void genFuncs(const Generator &Gen, std::vector<uint64_t> &Params,
              std::vector<ExprRef> &Roots) {
  for (const Func *F : {&Gen.Cond, &Gen.Key, &Gen.Value, &Gen.Reduce}) {
    if (!F->isSet())
      continue;
    Roots.push_back(F->Body);
    if (F != &Gen.Reduce)
      Params.push_back(F->Params[0]->id());
  }
}

std::optional<Reg> Lowering::lowerUniform(const ExprRef &E, ExprRef Root) {
  auto It = UniformRegs.find(E.get());
  if (It != UniformRegs.end())
    return It->second;
  ScalarKind Kind = lower::scalarKindOf(*E->type());
  if (Kind == ScalarKind::NotScalar) {
    fail("loop-invariant non-scalar value in body");
    return std::nullopt;
  }
  std::optional<Reg> R = alloc(Kind);
  if (!R)
    return std::nullopt;
  K.Uniforms.push_back({E, Kind, R->Idx, std::move(Root)});
  UniformRegs.emplace(E.get(), *R);
  return R;
}

std::optional<uint16_t> Lowering::lowerColumn(const ExprRef &Base,
                                              ScalarKind Kind) {
  auto It = ColumnSlots.find(Base.get());
  if (It != ColumnSlots.end())
    return It->second;
  // Column sources are materialized at launch; a trapping source would be
  // evaluated speculatively, ahead of any guarding condition. A bounded
  // gather loop (the shape gatherPrecompute builds) provably cannot trap,
  // and a projection of a closed loop cannot once the run has computed
  // the loop, which the launch checks.
  ExprRef Root;
  if (mayTrap(Base) && !lower::isBoundedGatherLoop(Base)) {
    Root = closedRoot(Base);
    if (!Root) {
      fail("may-trap column source");
      return std::nullopt;
    }
  }
  if (K.Columns.size() >= 60000) {
    fail("column slot overflow");
    return std::nullopt;
  }
  uint16_t Slot = static_cast<uint16_t>(K.Columns.size());
  K.Columns.push_back({Base, Kind, Slot, std::move(Root)});
  ColumnSlots.emplace(Base.get(), Slot);
  return Slot;
}

/// Inserts a conversion mirroring Value::toInt / Value::toDouble / the
/// bool cast when \p R is not already in bank \p Want.
std::optional<Reg> Lowering::coerceTo(Reg R, ScalarKind Want) {
  if (R.Kind == Want)
    return R;
  std::optional<Reg> Out = alloc(Want);
  if (!Out)
    return std::nullopt;
  if (Want == ScalarKind::I64)
    emit(R.Kind == ScalarKind::F64 ? ROp::F2I : ROp::B2I, Out->Idx, R.Idx);
  else if (Want == ScalarKind::F64)
    emit(R.Kind == ScalarKind::I64 ? ROp::I2F : ROp::B2F, Out->Idx, R.Idx);
  else
    emit(R.Kind == ScalarKind::I64 ? ROp::I2B : ROp::F2B, Out->Idx, R.Idx);
  return Out;
}

std::optional<Reg> Lowering::lowerBinOp(const ExprRef &E) {
  const auto *B = cast<BinOpExpr>(E);
  std::optional<Reg> L = lowerExpr(B->lhs());
  if (!L)
    return std::nullopt;
  std::optional<Reg> R = lowerExpr(B->rhs());
  if (!R)
    return std::nullopt;
  BinOpKind Op = B->op();

  // And/Or: eager like the interpreter, bool operands required.
  if (Op == BinOpKind::And || Op == BinOpKind::Or) {
    if (L->Kind != ScalarKind::I1 || R->Kind != ScalarKind::I1) {
      fail("non-bool operand to And/Or");
      return std::nullopt;
    }
    std::optional<Reg> Out = alloc(ScalarKind::I1);
    if (!Out)
      return std::nullopt;
    emit(Op == BinOpKind::And ? ROp::AndB : ROp::OrB, Out->Idx, L->Idx,
         R->Idx);
    return Out;
  }

  // Comparisons dispatch on the *runtime* kinds, like evalBinOp's
  // L.isFloat() || R.isFloat() check.
  if (Op == BinOpKind::Eq || Op == BinOpKind::Ne || Op == BinOpKind::Lt ||
      Op == BinOpKind::Le || Op == BinOpKind::Gt || Op == BinOpKind::Ge) {
    bool FloatCmp =
        L->Kind == ScalarKind::F64 || R->Kind == ScalarKind::F64;
    ScalarKind Bank = FloatCmp ? ScalarKind::F64 : ScalarKind::I64;
    L = coerceTo(*L, Bank);
    R = L ? coerceTo(*R, Bank) : std::nullopt;
    if (!R)
      return std::nullopt;
    std::optional<Reg> Out = alloc(ScalarKind::I1);
    if (!Out)
      return std::nullopt;
    static const ROp IntCmp[] = {ROp::EqI, ROp::NeI, ROp::LtI,
                                 ROp::LeI, ROp::GtI, ROp::GeI};
    static const ROp FltCmp[] = {ROp::EqF, ROp::NeF, ROp::LtF,
                                 ROp::LeF, ROp::GtF, ROp::GeF};
    size_t Off = static_cast<size_t>(Op) - static_cast<size_t>(BinOpKind::Eq);
    emit(FloatCmp ? FltCmp[Off] : IntCmp[Off], Out->Idx, L->Idx, R->Idx);
    return Out;
  }

  // Arithmetic: the bank follows the node's *static* type, with operand
  // coercion mirroring toDouble/toInt (float->int truncates).
  bool Float = E->type()->isFloat();
  ScalarKind Bank = Float ? ScalarKind::F64 : ScalarKind::I64;
  L = coerceTo(*L, Bank);
  R = L ? coerceTo(*R, Bank) : std::nullopt;
  if (!R)
    return std::nullopt;
  std::optional<Reg> Out = alloc(Bank);
  if (!Out)
    return std::nullopt;
  ROp OpCode;
  switch (Op) {
  case BinOpKind::Add:
    OpCode = Float ? ROp::AddF : ROp::AddI;
    break;
  case BinOpKind::Sub:
    OpCode = Float ? ROp::SubF : ROp::SubI;
    break;
  case BinOpKind::Mul:
    OpCode = Float ? ROp::MulF : ROp::MulI;
    break;
  case BinOpKind::Div:
    OpCode = Float ? ROp::DivF : ROp::DivI;
    break;
  case BinOpKind::Mod:
    OpCode = Float ? ROp::ModF : ROp::ModI;
    break;
  case BinOpKind::Min:
    OpCode = Float ? ROp::MinF : ROp::MinI;
    break;
  case BinOpKind::Max:
    OpCode = Float ? ROp::MaxF : ROp::MaxI;
    break;
  default:
    fail("unexpected binop");
    return std::nullopt;
  }
  emit(OpCode, Out->Idx, L->Idx, R->Idx);
  return Out;
}

std::optional<Reg> Lowering::lowerUnOp(const ExprRef &E) {
  const auto *U = cast<UnOpExpr>(E);
  std::optional<Reg> A = lowerExpr(U->operand());
  if (!A)
    return std::nullopt;
  switch (U->op()) {
  case UnOpKind::Not: {
    if (A->Kind != ScalarKind::I1) {
      fail("non-bool operand to Not");
      return std::nullopt;
    }
    std::optional<Reg> Out = alloc(ScalarKind::I1);
    if (!Out)
      return std::nullopt;
    emit(ROp::NotB, Out->Idx, A->Idx);
    return Out;
  }
  case UnOpKind::Neg:
  case UnOpKind::Abs: {
    bool Float = E->type()->isFloat();
    ScalarKind Bank = Float ? ScalarKind::F64 : ScalarKind::I64;
    A = coerceTo(*A, Bank);
    if (!A)
      return std::nullopt;
    std::optional<Reg> Out = alloc(Bank);
    if (!Out)
      return std::nullopt;
    emit(U->op() == UnOpKind::Neg ? (Float ? ROp::NegF : ROp::NegI)
                                  : (Float ? ROp::AbsF : ROp::AbsI),
         Out->Idx, A->Idx);
    return Out;
  }
  case UnOpKind::Exp:
  case UnOpKind::Log:
  case UnOpKind::Sqrt: {
    // The interpreter always produces a double here regardless of the
    // node's static type, so the result lives in the f64 bank.
    A = coerceTo(*A, ScalarKind::F64);
    if (!A)
      return std::nullopt;
    std::optional<Reg> Out = alloc(ScalarKind::F64);
    if (!Out)
      return std::nullopt;
    emit(U->op() == UnOpKind::Exp   ? ROp::ExpF
         : U->op() == UnOpKind::Log ? ROp::LogF
                                    : ROp::SqrtF,
         Out->Idx, A->Idx);
    return Out;
  }
  }
  fail("unexpected unop");
  return std::nullopt;
}

std::optional<Reg> Lowering::lowerExpr(const ExprRef &E) {
  // Bound parameters resolve directly to their register.
  if (const auto *Sym = dyn_cast<SymExpr>(E)) {
    auto It = Bound.find(Sym->id());
    if (It != Bound.end())
      return It->second;
    fail("unbound symbol " + Sym->name());
    return std::nullopt;
  }

  auto MemoIt = M.Scalar.find(E.get());
  if (MemoIt != M.Scalar.end())
    return MemoIt->second;
  if (!E->type()->isScalar()) {
    fail(nonScalarReason(E));
    return std::nullopt;
  }

  // Loop-invariant scalars hoist to launch-time uniforms (the interpreter
  // reaches the same effect through its innermost-scope memoization) —
  // unless evaluating them could trap, in which case they stay inline so
  // the generator's condition branch still guards them; a projection of a
  // closed loop binds once the run has computed the loop.
  std::optional<Reg> R;
  if (E->kind() != ExprKind::ConstInt && E->kind() != ExprKind::ConstFloat &&
      E->kind() != ExprKind::ConstBool && isInvariant(E)) {
    ExprRef Root = mayTrap(E) ? closedRoot(E) : ExprRef();
    if (!mayTrap(E) || Root) {
      R = lowerUniform(E, std::move(Root));
      if (R)
        M.Scalar.emplace(E.get(), *R);
      return R;
    }
  }

  switch (E->kind()) {
  case ExprKind::ConstInt: {
    R = alloc(ScalarKind::I64);
    if (R)
      emit(ROp::LoadImmI, R->Idx, 0, 0, 0, cast<ConstIntExpr>(E)->value());
    break;
  }
  case ExprKind::ConstFloat: {
    R = alloc(ScalarKind::F64);
    if (R)
      emit(ROp::LoadImmF, R->Idx, 0, 0, 0, 0,
           cast<ConstFloatExpr>(E)->value());
    break;
  }
  case ExprKind::ConstBool: {
    R = alloc(ScalarKind::I1);
    if (R)
      emit(ROp::LoadImmB, R->Idx, 0, 0, 0,
           cast<ConstBoolExpr>(E)->value() ? 1 : 0);
    break;
  }
  case ExprKind::BinOp:
    R = lowerBinOp(E);
    break;
  case ExprKind::UnOp:
    R = lowerUnOp(E);
    break;
  case ExprKind::Select:
    if (std::optional<Agg> A = lowerSelectAgg(E))
      R = A->Fields[0];
    break;
  case ExprKind::Cast: {
    std::optional<Reg> A = lowerExpr(cast<CastExpr>(E)->operand());
    if (!A)
      return std::nullopt;
    ScalarKind Want = E->type()->isFloat()  ? ScalarKind::F64
                      : E->type()->isInt()  ? ScalarKind::I64
                      : E->type()->isBool() ? ScalarKind::I1
                                            : ScalarKind::NotScalar;
    if (Want == ScalarKind::NotScalar) {
      fail("cast to non-scalar type");
      return std::nullopt;
    }
    R = coerceTo(*A, Want);
    break;
  }
  case ExprKind::ArrayRead: {
    // The interpreter reads the array before its index: a loop-varying
    // array (a nested Collect) computes first, then the index.
    const auto *Rd = cast<ArrayReadExpr>(E);
    ScalarKind ElemKind = lower::scalarKindOf(*Rd->array()->type()->elem());
    if (ElemKind == ScalarKind::NotScalar) {
      fail("array of non-scalar elements");
      return std::nullopt;
    }
    int32_t Local = -1;
    std::optional<uint16_t> Slot;
    if (isInvariant(Rd->array())) {
      Slot = lowerColumn(Rd->array(), ElemKind);
    } else if (std::optional<Agg> A = lowerAgg(Rd->array())) {
      Local = A->Slot;
      ElemKind = K.Locals[static_cast<size_t>(Local)].Kind;
      Slot = static_cast<uint16_t>(Local);
    }
    if (!Slot)
      return std::nullopt;
    std::optional<Reg> Idx = lowerExpr(Rd->index());
    Idx = Idx ? coerceTo(*Idx, ScalarKind::I64) : std::nullopt;
    if (!Idx)
      return std::nullopt;
    R = alloc(ElemKind);
    if (!R)
      return std::nullopt;
    static const ROp ColOps[] = {ROp::LoadColB, ROp::LoadColI, ROp::LoadColF};
    static const ROp LocOps[] = {ROp::LoadLocB, ROp::LoadLocI, ROp::LoadLocF};
    emit((Local < 0 ? ColOps : LocOps)[static_cast<size_t>(ElemKind)], R->Idx,
         *Slot, Idx->Idx);
    break;
  }
  case ExprKind::GetField: {
    // Projection of a locally built struct forwards the field operand; a
    // loop-varying struct (a nested struct Reduce, a struct parameter)
    // lives field by field in registers.
    const auto *G = cast<GetFieldExpr>(E);
    if (const auto *MS = dyn_cast<MakeStructExpr>(G->base())) {
      R = lowerExpr(MS->ops()[G->index()]);
      break;
    }
    std::optional<Agg> A = lowerAgg(G->base());
    if (!A)
      return std::nullopt;
    R = A->Fields[G->index()];
    break;
  }
  case ExprKind::ArrayLen: {
    const ExprRef &Arr = cast<ArrayLenExpr>(E)->array();
    if (isInvariant(Arr)) {
      fail("length of may-trap array");
      return std::nullopt;
    }
    std::optional<Agg> A = lowerAgg(Arr);
    if (!A)
      return std::nullopt;
    R = alloc(ScalarKind::I64);
    if (R)
      emit(ROp::LocalLen, R->Idx, static_cast<uint16_t>(A->Slot));
    break;
  }
  case ExprKind::Flatten:
    fail("loop-varying Flatten in body");
    return std::nullopt;
  case ExprKind::Multiloop: {
    std::optional<Agg> A = lowerInner(E);
    if (!A)
      return std::nullopt;
    R = A->Fields[0];
    break;
  }
  case ExprKind::LoopOut:
    fail("multi-generator nested multiloop");
    return std::nullopt;
  case ExprKind::MakeStruct:
  case ExprKind::Sym:
  case ExprKind::Input:
    fail("unexpected node in body");
    return std::nullopt;
  }
  if (R)
    M.Scalar.emplace(E.get(), *R);
  return R;
}

std::optional<Agg> Lowering::lowerAgg(const ExprRef &E) {
  if (const auto *Sym = dyn_cast<SymExpr>(E)) {
    auto It = BoundAgg.find(Sym->id());
    if (It != BoundAgg.end())
      return It->second;
    fail("unbound symbol " + Sym->name());
    return std::nullopt;
  }
  auto MemoIt = M.Aggs.find(E.get());
  if (MemoIt != M.Aggs.end())
    return MemoIt->second;
  std::optional<Agg> A;
  switch (E->kind()) {
  case ExprKind::MakeStruct:
    A.emplace();
    for (const ExprRef &Op : E->ops()) {
      if (!Op->type()->isScalar()) {
        fail("struct of non-scalars in kernel body");
        return std::nullopt;
      }
      std::optional<Reg> R = lowerExpr(Op);
      if (!R)
        return std::nullopt;
      A->Fields.push_back(*R);
    }
    break;
  case ExprKind::Select:
    A = lowerSelectAgg(E);
    break;
  case ExprKind::Multiloop:
    if (!isInvariant(E))
      return lowerInner(E);
    [[fallthrough]];
  default:
    fail(nonScalarReason(E));
    return std::nullopt;
  }
  if (A)
    M.Aggs.emplace(E.get(), *A);
  return A;
}

/// A Select of scalars or of structs of scalars: a diamond moving the
/// taken arm's fields into fresh registers. Lazy like the interpreter:
/// nodes first lowered inside an arm are not value-numbered outside it.
std::optional<Agg> Lowering::lowerSelectAgg(const ExprRef &E) {
  const auto *Sel = cast<SelectExpr>(E);
  if (E->type()->isArray()) {
    fail("array-valued select in kernel body");
    return std::nullopt;
  }
  std::optional<Reg> C = lowerExpr(Sel->cond());
  if (!C)
    return std::nullopt;
  if (C->Kind != ScalarKind::I1) {
    fail("non-bool select condition");
    return std::nullopt;
  }
  int32_t Branch = emit(ROp::JumpIfFalse, 0, C->Idx);
  Memo Saved = M;
  std::optional<Agg> T = lowerValue(Sel->trueVal());
  M = Saved;
  if (!T)
    return std::nullopt;
  Agg Out;
  for (Reg F : T->Fields) {
    std::optional<Reg> R = alloc(F.Kind);
    if (!R)
      return std::nullopt;
    Out.Fields.push_back(*R);
  }
  if (!assign(Out.Fields, T->Fields))
    return std::nullopt;
  int32_t SkipElse = emit(ROp::Jump);
  patch(Branch);
  std::optional<Agg> F = lowerValue(Sel->falseVal());
  M = std::move(Saved);
  if (!F || !assign(Out.Fields, F->Fields))
    return std::nullopt;
  patch(SkipElse);
  return Out;
}

/// Dst = Src field by field, through fresh registers when a source field
/// is also a different destination field (a permuting reduce).
bool Lowering::assign(const std::vector<Reg> &Dst, const std::vector<Reg> &Src) {
  if (Dst.size() != Src.size())
    return fail("struct arms differ in arity");
  for (size_t I = 0; I < Dst.size(); ++I)
    if (Dst[I].Kind != Src[I].Kind)
      return fail("select arms differ in runtime kind");
  bool Overlap = false;
  for (size_t I = 0; I < Src.size(); ++I)
    for (size_t J = 0; J < Dst.size(); ++J)
      Overlap |= I != J && Src[I].Idx == Dst[J].Idx &&
                 Src[I].Kind == Dst[J].Kind;
  std::vector<Reg> From = Src;
  if (Overlap)
    for (Reg &F : From) {
      std::optional<Reg> T = alloc(F.Kind);
      if (!T)
        return false;
      move(*T, F);
      F = *T;
    }
  for (size_t I = 0; I < Dst.size(); ++I)
    move(Dst[I], From[I]);
  return true;
}

/// A generator value: a scalar as a one-field aggregate, else a struct.
std::optional<Agg> Lowering::lowerValue(const ExprRef &E) {
  if (E->type()->isStruct())
    return lowerAgg(E);
  std::optional<Reg> R = lowerExpr(E);
  if (!R)
    return std::nullopt;
  return Agg{{*R}, -1};
}

/// True when an open loop under \p Roots would have one of \p Params as its
/// innermost binder: the level then needs a flag reset per iteration.
bool Lowering::bindsHeld(const std::vector<ExprRef> &Roots,
                         const std::vector<uint64_t> &Params) {
  bool Need = false;
  for (const ExprRef &Root : Roots)
    visitAll(Root, [&](const ExprRef &N) {
      if (Need || !isa<MultiloopExpr>(N))
        return;
      bool Mine = false, Deeper = false;
      for (uint64_t S : freeOf(N)) {
        if (std::find(Params.begin(), Params.end(), S) != Params.end())
          Mine = true;
        else if (!SymLevel.count(S))
          Deeper = true;
      }
      Need = Mine && !Deeper;
    });
  return Need;
}

/// Opens a binder level: \p Params bind to \p Idx, and the iteration
/// starts by clearing the level's computed-flags when an open loop under
/// \p Roots may be held there.
void Lowering::openLevel(const std::vector<uint64_t> &Params, Reg Idx,
                         const std::vector<ExprRef> &Roots) {
  size_t Level = LevelLists.size();
  LevelLists.push_back(static_cast<uint32_t>(K.FlagLists.size()));
  K.FlagLists.emplace_back();
  for (uint64_t S : Params) {
    Bound[S] = Idx;
    SymLevel[S] = Level;
  }
  if (bindsHeld(Roots, Params))
    emit(ROp::ResetFlags, 0, static_cast<uint16_t>(LevelLists.back()));
}

/// Emits `for (k = 0; k < size; ++k)` over \p L's single generator: the
/// index binds the generator's parameters one binder level down, a
/// condition that is not constant true skips to the next index, and \p
/// Body lowers the rest of an iteration. Memo entries made inside do not
/// outlive the loop, which may run zero times.
bool Lowering::emitLoop(const MultiloopExpr *L,
                        const std::function<bool()> &Body) {
  std::optional<Reg> N = lowerExpr(L->size());
  N = N ? coerceTo(*N, ScalarKind::I64) : std::nullopt;
  std::optional<Reg> Idx = N ? alloc(ScalarKind::I64) : std::nullopt;
  if (!Idx)
    return false;
  emit(ROp::LoadImmI, Idx->Idx);
  int32_t Enter = emit(ROp::LoopEnter, 0, N->Idx);
  const Generator &G = L->gen();
  std::vector<uint64_t> Params;
  std::vector<ExprRef> Roots;
  genFuncs(G, Params, Roots);
  Memo Saved = M;
  int32_t Top = here();
  openLevel(Params, *Idx, Roots);
  int32_t Skip = -1;
  bool Ok = true;
  if (G.Cond.isSet() && !isTrueCond(G.Cond)) {
    std::optional<Reg> C = lowerExpr(G.Cond.Body);
    Ok = C && (C->Kind == ScalarKind::I1 ||
               fail("non-bool generator condition"));
    if (Ok)
      Skip = emit(ROp::JumpIfFalse, 0, C->Idx);
  }
  Ok = Ok && Body();
  for (uint64_t S : Params) {
    Bound.erase(S);
    SymLevel.erase(S);
  }
  LevelLists.pop_back();
  M = std::move(Saved);
  if (!Ok)
    return false;
  int32_t Next = emit(ROp::LoopNext, 0, N->Idx, Idx->Idx, Top);
  if (Skip >= 0)
    K.Code[static_cast<size_t>(Skip)].Target = Next;
  patch(Enter);
  K.Nested = true;
  return true;
}

/// Lowers \p Elem and appends it to local \p Slot, whose element kind is
/// the element's.
bool Lowering::pushLocal(int32_t Slot, const ExprRef &Elem) {
  std::optional<Reg> V = lowerExpr(Elem);
  if (!V)
    return false;
  static const ROp Push[] = {ROp::PushLocB, ROp::PushLocI, ROp::PushLocF};
  K.Locals[static_cast<size_t>(Slot)].Kind = V->Kind;
  emit(Push[static_cast<size_t>(V->Kind)], static_cast<uint16_t>(Slot),
       V->Idx);
  return true;
}

/// A loop-varying nested loop: a scalar Reduce into a register, a Reduce
/// over a struct of scalars into one register per field, a scalar Collect
/// into a local, each computed where the interpreter computes it
/// (lowerHeld).
std::optional<Agg> Lowering::lowerInner(const ExprRef &E) {
  const auto *L = cast<MultiloopExpr>(E);
  if (!L->isSingle()) {
    fail("multi-generator nested multiloop");
    return std::nullopt;
  }
  const Generator &G = L->gen();
  const TypeRef &VT = G.Value.Body->type();
  bool ScalarStruct = VT->isStruct();
  for (size_t F = 0; ScalarStruct && F < VT->fields().size(); ++F)
    ScalarStruct = VT->fields()[F].Ty->isScalar();
  if (!(G.Kind == GenKind::Reduce && (VT->isScalar() || ScalarStruct)) &&
      !(G.Kind == GenKind::Collect && VT->isScalar())) {
    fail("nested multiloop of unsupported shape");
    return std::nullopt;
  }

  auto Collect = [&](Agg &Val) {
    if (Val.Slot < 0) {
      Val.Slot = static_cast<int32_t>(K.Locals.size());
      K.Locals.push_back({});
    }
    emit(ROp::LocalClear, 0, static_cast<uint16_t>(Val.Slot));
    return emitLoop(L, [&] { return pushLocal(Val.Slot, G.Value.Body); });
  };
  auto Reduce = [&](Agg &Val) {
    std::optional<Reg> Has = alloc(ScalarKind::I1);
    if (!Has)
      return false;
    emit(ROp::LoadImmB, Has->Idx, 0, 0, 0, 0);
    bool Ok = emitLoop(L, [&] {
      std::optional<Agg> V = lowerValue(G.Value.Body);
      if (!V)
        return false;
      if (Val.Fields.empty())
        for (Reg F : V->Fields) {
          std::optional<Reg> R = alloc(F.Kind);
          if (!R)
            return false;
          Val.Fields.push_back(*R);
        }
      int32_t Combine = emit(ROp::JumpIfTrue, 0, Has->Idx);
      if (!assign(Val.Fields, V->Fields))
        return false;
      emit(ROp::LoadImmB, Has->Idx, 0, 0, 0, 1);
      int32_t Done = emit(ROp::Jump);
      patch(Combine);
      if (!G.Reduce.isSet() || G.Reduce.arity() != 2)
        return fail("reduce generator without binary reduce function");
      uint64_t P0 = G.Reduce.Params[0]->id(), P1 = G.Reduce.Params[1]->id();
      Memo Saved = M;
      if (ScalarStruct) {
        BoundAgg[P0] = Val;
        BoundAgg[P1] = *V;
      } else {
        Bound[P0] = Val.Fields[0];
        Bound[P1] = V->Fields[0];
      }
      std::optional<Agg> R = lowerValue(G.Reduce.Body);
      Bound.erase(P0);
      Bound.erase(P1);
      BoundAgg.erase(P0);
      BoundAgg.erase(P1);
      M = std::move(Saved);
      if (!R || !assign(Val.Fields, R->Fields))
        return false;
      patch(Done);
      return true;
    });
    if (!Ok)
      return false;
    // No element: the interpreter's zeroOf the value type, which the
    // registers can hold only when each field's bank is its type's.
    int32_t Skip = emit(ROp::JumpIfTrue, 0, Has->Idx);
    for (size_t F = 0; F < Val.Fields.size(); ++F) {
      const Type &FT = ScalarStruct ? *VT->fields()[F].Ty : *VT;
      Reg R = Val.Fields[F];
      if (lower::scalarKindOf(FT) != R.Kind)
        return fail("reduce value kind differs from its type");
      emit(R.Kind == ScalarKind::I64   ? ROp::LoadImmI
           : R.Kind == ScalarKind::F64 ? ROp::LoadImmF
                                       : ROp::LoadImmB,
           R.Idx);
    }
    patch(Skip);
    return true;
  };
  std::optional<Agg> A =
      G.Kind == GenKind::Collect ? lowerHeld(E, Collect) : lowerHeld(E, Reduce);
  if (A && VT->isScalar() && G.Kind == GenKind::Reduce)
    M.Scalar.emplace(E.get(), A->Fields[0]);
  else if (A)
    M.Aggs.emplace(E.get(), *A);
  return A;
}

/// Emits \p Compute, which computes loop-varying nested loop \p E into
/// the node's fixed result registers or local, where the interpreter
/// computes E: once per iteration of its innermost binder, at first use.
/// Every site that may be the first emits it behind the node's flag,
/// which that binder's iteration clears.
std::optional<Agg>
Lowering::lowerHeld(const ExprRef &E,
                    const std::function<bool(Agg &)> &Compute) {
  size_t Level = 0;
  for (uint64_t S : freeOf(E)) {
    auto It = SymLevel.find(S);
    if (It == SymLevel.end()) {
      fail("nested multiloop over reduce parameters");
      return std::nullopt;
    }
    Level = std::max(Level, It->second);
  }
  auto HIt = Holders.find(E.get());
  if (HIt == Holders.end()) {
    std::optional<Reg> Flag = alloc(ScalarKind::I1);
    if (!Flag)
      return std::nullopt;
    HIt = Holders.emplace(E.get(), Held{{}, Flag->Idx}).first;
  }
  Held &H = HIt->second;
  std::vector<uint16_t> &Flags = K.FlagLists[LevelLists[Level]];
  if (std::find(Flags.begin(), Flags.end(), H.Flag) == Flags.end())
    Flags.push_back(H.Flag);
  int32_t Guard = emit(ROp::JumpIfTrue, 0, H.Flag);
  if (!Compute(H.Val))
    return std::nullopt;
  emit(ROp::LoadImmB, H.Flag, 0, 0, 0, 1);
  patch(Guard);
  return H.Val;
}

/// A generator value \p E of two unconditional Collect levels, computed
/// into a 2-level local, one row per outer element, where the interpreter
/// computes it (lowerHeld). An inner level that reads the outer index is
/// computed straight into its row; one that does not is a nested loop of
/// its own, computed once per iteration of its innermost binder as the
/// interpreter memoizes it, and each row copies it.
std::optional<int32_t> Lowering::lowerVec2(const ExprRef &E,
                                           const lower::InPlaceAdd &V) {
  const MultiloopExpr *Outer = V.Levels[0], *Inner = V.Levels[1];
  const ExprRef &InnerE = Outer->gen().Value.Body;
  bool PerRow = freeOf(InnerE).count(Outer->gen().Value.Params[0]->id());
  std::optional<Agg> A = lowerHeld(E, [&](Agg &Val) {
    if (Val.Slot < 0) {
      Val.Slot = static_cast<int32_t>(K.Locals.size());
      K.Locals.push_back({});
    }
    uint16_t Slot = static_cast<uint16_t>(Val.Slot);
    emit(ROp::LocalClear, 0, Slot);
    return emitLoop(Outer, [&] {
      if (PerRow) {
        if (!emitLoop(Inner,
                      [&] { return pushLocal(Slot, Inner->gen().Value.Body); }))
          return false;
      } else {
        std::optional<Agg> Row = lowerAgg(InnerE);
        if (!Row)
          return false;
        K.Locals[Slot].Kind = K.Locals[static_cast<size_t>(Row->Slot)].Kind;
        emit(ROp::AppendLoc, Slot, static_cast<uint16_t>(Row->Slot));
      }
      emit(ROp::LocalRowEnd, 0, Slot);
      return true;
    });
  });
  if (!A)
    return std::nullopt;
  return A->Slot;
}

bool Lowering::lowerGenerator(size_t G) {
  const Generator &Gen = ML->gen(G);
  GenPlan Plan;
  Plan.Kind = Gen.Kind;
  Plan.ValType = Gen.Value.Body->type();
  Plan.Dense = Gen.isDenseBucket();
  Plan.NumKeys = Gen.NumKeys;

  // A generator starts from what every iteration has computed before it
  // (the interpreter's one per-iteration scope); its condition always
  // runs, so its values join that prefix, while its key and value run only
  // when the condition passed.
  M = Base;
  bool Conditional = Gen.Cond.isSet() && !isTrueCond(Gen.Cond);
  int32_t CondBranch = -1;
  if (Conditional) {
    std::optional<Reg> C = lowerExpr(Gen.Cond.Body);
    if (!C)
      return false;
    if (C->Kind != ScalarKind::I1)
      return fail("non-bool generator condition");
    CondBranch = emit(ROp::JumpIfFalse, 0, C->Idx);
    Base = M;
  }

  // The value, then the key: the interpreter's order, so that when both
  // trap, the value's trap is the one raised.
  uint16_t Ord = static_cast<uint16_t>(G);
  int32_t Head = -1;
  lower::InPlaceAdd Vec = lower::matchInPlaceAdd(Gen);
  if (Vec.Depth) {
    // An element-wise-add array reduce: the value computes into a local,
    // which the VM copies (first value) or adds into a per-chunk vector
    // accumulator.
    if (Gen.Kind == GenKind::BucketReduce && !Plan.Dense)
      return fail("vector reduce into hash buckets");
    if (Vec.Levels.empty() || isInvariant(Gen.Value.Body))
      return fail("loop-invariant non-scalar value in body");
    std::optional<int32_t> Slot;
    if (Vec.Depth == 1) {
      std::optional<Agg> A = lowerAgg(Gen.Value.Body);
      if (A)
        Slot = A->Slot;
    } else {
      Slot = lowerVec2(Gen.Value.Body, Vec);
    }
    if (!Slot)
      return false;
    Plan.ValKind = K.Locals[static_cast<size_t>(*Slot)].Kind;
    if (Plan.ValKind != (Vec.Add->type()->isFloat() ? ScalarKind::F64
                                                    : ScalarKind::I64))
      return fail("vector reduce element kind differs from its addition");
    Plan.VecDepth = Vec.Depth;
    Plan.AccOnLeft = Vec.AccOnLeft;
    Plan.ValReg = static_cast<uint16_t>(*Slot);
  } else {
    std::optional<Reg> Val = lowerExpr(Gen.Value.Body);
    if (!Val)
      return false;
    Plan.ValKind = Val->Kind;
    Plan.ValReg = Val->Idx;
  }
  if (Gen.isBucket()) {
    std::optional<Reg> Key = lowerExpr(Gen.Key.Body);
    Key = Key ? coerceTo(*Key, ScalarKind::I64) : std::nullopt;
    if (!Key)
      return false;
    Plan.KeyReg = Key->Idx;
  }
  if (!Conditional)
    Base = M;

  if (Vec.Depth) {
    emit(Gen.Kind == GenKind::Reduce ? ROp::EmitVecReduce : ROp::EmitVecBucket,
         Ord, Plan.ValReg);
  } else {
    switch (Gen.Kind) {
    case GenKind::Collect:
      emit(ROp::EmitCollect, Ord, Plan.ValReg);
      break;
    case GenKind::BucketCollect:
      emit(ROp::EmitBucket, Ord, Plan.ValReg);
      break;
    case GenKind::Reduce:
    case GenKind::BucketReduce: {
      Head = emit(Gen.Kind == GenKind::Reduce ? ROp::ReduceHead
                                              : ROp::BucketHead,
                  Ord, Plan.ValReg);
      // The inline reduce fragment: acc/val arrive in dedicated registers
      // so the VM can also replay [FragBegin, FragEnd) standalone when
      // merging chunk accumulators — so it sees only its parameters.
      std::optional<Reg> AccIn = alloc(Plan.ValKind);
      std::optional<Reg> ValIn = alloc(Plan.ValKind);
      if (!AccIn || !ValIn)
        return false;
      Plan.AccInReg = AccIn->Idx;
      Plan.ValInReg = ValIn->Idx;
      if (!Gen.Reduce.isSet() || Gen.Reduce.arity() != 2)
        return fail("reduce generator without binary reduce function");
      std::unordered_map<uint64_t, Reg> Outer = std::move(Bound);
      Bound = {{Gen.Reduce.Params[0]->id(), *AccIn},
               {Gen.Reduce.Params[1]->id(), *ValIn}};
      Memo Saved = std::move(M);
      M = Memo();
      Plan.FragBegin = here();
      std::optional<Reg> Res = lowerExpr(Gen.Reduce.Body);
      Bound = std::move(Outer);
      M = std::move(Saved);
      if (!Res)
        return false;
      if (Res->Kind != Plan.ValKind)
        return fail("reduce changes runtime kind");
      Plan.ResultReg = Res->Idx;
      Plan.FragEnd = here();
      emit(Gen.Kind == GenKind::Reduce ? ROp::ReduceStore
                                       : ROp::BucketStore,
           Ord, Plan.ResultReg);
      break;
    }
    }
  }

  if (CondBranch >= 0)
    patch(CondBranch);
  if (Head >= 0)
    patch(Head);
  K.Gens.push_back(std::move(Plan));
  return true;
}

CompileOutcome Lowering::run(const ExprRef &Loop) {
  K.Single = ML->isSingle();
  K.Signature = loopSignature(Loop);
  K.NumI = 1; // register 0 holds the loop index

  // Every generator's index parameter is the kernel's index, one binder
  // level, as in the interpreter's one scope per iteration.
  std::vector<uint64_t> Params;
  std::vector<ExprRef> Roots;
  for (const Generator &Gen : ML->gens())
    genFuncs(Gen, Params, Roots);
  openLevel(Params, Reg{ScalarKind::I64, IdxReg}, Roots);

  bool Ok = true;
  for (size_t G = 0; Ok && G < ML->numGens(); ++G)
    Ok = lowerGenerator(G);

  CompileOutcome Out;
  if (!Ok) {
    Out.Reason = Fail.empty() ? "unknown lowering failure" : Fail;
    return Out;
  }

  // Wide-eligibility post-scan: straight-line collect-only streams (no
  // control flow, no reduce/bucket state carried between indices, no inner
  // loops) can run instruction-wide over index blocks — the loop-transform
  // layer's widening, applied to the VM's dispatch loop (see KernelVM.cpp).
  K.WideEligible = !K.Code.empty() && !K.Nested;
  for (const Inst &In : K.Code) {
    switch (In.Op) {
    case ROp::Jump:
    case ROp::JumpIfFalse:
    case ROp::JumpIfTrue:
    case ROp::EmitBucket:
    case ROp::ReduceHead:
    case ROp::ReduceStore:
    case ROp::BucketHead:
    case ROp::BucketStore:
    case ROp::ResetFlags:
    case ROp::EmitVecReduce:
    case ROp::EmitVecBucket:
      K.WideEligible = false;
      break;
    default:
      break;
    }
  }

  Out.K = std::make_unique<Kernel>(std::move(K));
  return Out;
}

} // namespace

CompileOutcome engine::compileKernel(const ExprRef &Loop) {
  const auto *ML = dyn_cast<MultiloopExpr>(Loop);
  if (!ML) {
    CompileOutcome Out;
    Out.Reason = "not a multiloop";
    return Out;
  }
  return Lowering(ML).run(Loop);
}
