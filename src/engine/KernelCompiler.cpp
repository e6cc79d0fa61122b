//===- engine/KernelCompiler.cpp -------------------------------*- C++ -*-===//

#include "engine/KernelCompiler.h"

#include "ir/Printer.h"
#include "ir/Traversal.h"

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

  /// Current function parameters: symbol id -> register.
  std::unordered_map<uint64_t, Reg> Bound;
  /// Per-section value numbering (cleared per generator component group;
  /// snapshot/restored around Select arms).
  std::unordered_map<const Expr *, Reg> Memo;
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
      if (Bound.count(Id))
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

  std::optional<Reg> alloc(ScalarKind Kind) {
    uint16_t *Ctr = Kind == ScalarKind::I64   ? &K.NumI
                    : Kind == ScalarKind::F64 ? &K.NumF
                                              : &K.NumB;
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

  std::optional<Reg> lowerUniform(const ExprRef &E);
  std::optional<uint16_t> lowerColumn(const ExprRef &Base, ScalarKind Kind);
  std::optional<Reg> coerceTo(Reg R, ScalarKind Want);
  std::optional<Reg> lowerExpr(const ExprRef &E);
  std::optional<Reg> lowerBinOp(const ExprRef &E);
  std::optional<Reg> lowerUnOp(const ExprRef &E);
  std::optional<Reg> lowerSelect(const ExprRef &E);

  /// Lowers a unary generator component (cond/key/value) with its index
  /// parameter bound to IdxReg. Shares the current Memo so common
  /// subexpressions across cond/key/value of one generator compute once.
  std::optional<Reg> lowerUnaryFunc(const Func &F) {
    Bound.clear();
    Bound.emplace(F.Params[0]->id(), Reg{ScalarKind::I64, IdxReg});
    return lowerExpr(F.Body);
  }

  bool lowerGenerator(size_t G);
};

std::optional<Reg> Lowering::lowerUniform(const ExprRef &E) {
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
  K.Uniforms.push_back({E, Kind, R->Idx});
  UniformRegs.emplace(E.get(), *R);
  return R;
}

std::optional<uint16_t> Lowering::lowerColumn(const ExprRef &Base,
                                              ScalarKind Kind) {
  auto It = ColumnSlots.find(Base.get());
  if (It != ColumnSlots.end())
    return It->second;
  if (K.Columns.size() >= 60000) {
    fail("column slot overflow");
    return std::nullopt;
  }
  uint16_t Slot = static_cast<uint16_t>(K.Columns.size());
  K.Columns.push_back({Base, Kind, Slot});
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

std::optional<Reg> Lowering::lowerSelect(const ExprRef &E) {
  const auto *Sel = cast<SelectExpr>(E);
  std::optional<Reg> C = lowerExpr(Sel->cond());
  if (!C)
    return std::nullopt;
  if (C->Kind != ScalarKind::I1) {
    fail("non-bool select condition");
    return std::nullopt;
  }
  int32_t Branch = emit(ROp::JumpIfFalse, 0, C->Idx);

  // Each arm runs under its own control path, so nodes first lowered inside
  // an arm must not be value-numbered for code outside it: snapshot the memo
  // around each arm (lazy Select, matching the interpreter).
  std::unordered_map<const Expr *, Reg> Saved = Memo;
  std::optional<Reg> T = lowerExpr(Sel->trueVal());
  Memo = Saved;
  if (!T)
    return std::nullopt;
  std::optional<Reg> Out = alloc(T->Kind);
  if (!Out)
    return std::nullopt;
  ROp Move = T->Kind == ScalarKind::I64   ? ROp::MoveI
             : T->Kind == ScalarKind::F64 ? ROp::MoveF
                                          : ROp::MoveB;
  emit(Move, Out->Idx, T->Idx);
  int32_t SkipElse = emit(ROp::Jump);

  K.Code[static_cast<size_t>(Branch)].Target = here();
  Saved = Memo;
  std::optional<Reg> F = lowerExpr(Sel->falseVal());
  Memo = Saved;
  if (!F)
    return std::nullopt;
  if (F->Kind != T->Kind) {
    fail("select arms differ in runtime kind");
    return std::nullopt;
  }
  emit(Move, Out->Idx, F->Idx);
  K.Code[static_cast<size_t>(SkipElse)].Target = here();
  return Out;
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

  auto MemoIt = Memo.find(E.get());
  if (MemoIt != Memo.end())
    return MemoIt->second;

  // Loop-invariant scalars hoist to launch-time uniforms (the interpreter
  // reaches the same effect through its innermost-scope memoization) —
  // unless evaluating them could trap, in which case they stay inline so
  // the generator's condition branch still guards them.
  std::optional<Reg> R;
  if (E->kind() != ExprKind::ConstInt && E->kind() != ExprKind::ConstFloat &&
      E->kind() != ExprKind::ConstBool && isInvariant(E) && !mayTrap(E)) {
    R = lowerUniform(E);
    if (R)
      Memo.emplace(E.get(), *R);
    return R;
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
    R = lowerSelect(E);
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
    const auto *Rd = cast<ArrayReadExpr>(E);
    if (!isInvariant(Rd->array())) {
      fail("array read from loop-varying array");
      return std::nullopt;
    }
    if (mayTrap(Rd->array()) && !lower::isBoundedGatherLoop(Rd->array())) {
      // Column sources are materialized at launch; a trapping source would
      // be evaluated speculatively, ahead of any guarding condition. A
      // bounded gather loop (the shape gatherPrecompute builds) provably
      // cannot trap, so it binds as a column like any input array.
      fail("may-trap column source");
      return std::nullopt;
    }
    ScalarKind ElemKind = lower::scalarKindOf(*Rd->array()->type()->elem());
    if (ElemKind == ScalarKind::NotScalar) {
      fail("array of non-scalar elements");
      return std::nullopt;
    }
    std::optional<uint16_t> Slot = lowerColumn(Rd->array(), ElemKind);
    if (!Slot)
      return std::nullopt;
    std::optional<Reg> Idx = lowerExpr(Rd->index());
    Idx = Idx ? coerceTo(*Idx, ScalarKind::I64) : std::nullopt;
    if (!Idx)
      return std::nullopt;
    R = alloc(ElemKind);
    if (R)
      emit(ElemKind == ScalarKind::I64   ? ROp::LoadColI
           : ElemKind == ScalarKind::F64 ? ROp::LoadColF
                                         : ROp::LoadColB,
           R->Idx, *Slot, Idx->Idx);
    break;
  }
  case ExprKind::GetField: {
    // Projection of a locally built struct forwards the field operand;
    // anything else (a loop-varying struct value) cannot live in scalar
    // registers.
    const auto *G = cast<GetFieldExpr>(E);
    if (const auto *MS = dyn_cast<MakeStructExpr>(G->base())) {
      R = lowerExpr(MS->ops()[G->index()]);
      break;
    }
    fail("field read from loop-varying struct");
    return std::nullopt;
  }
  case ExprKind::ArrayLen:
    fail("length of loop-varying array");
    return std::nullopt;
  case ExprKind::Flatten:
    fail("loop-varying Flatten in body");
    return std::nullopt;
  case ExprKind::Multiloop:
  case ExprKind::LoopOut:
    fail("loop-varying nested multiloop");
    return std::nullopt;
  case ExprKind::MakeStruct:
    fail("struct value in kernel body");
    return std::nullopt;
  case ExprKind::Sym:
  case ExprKind::Input:
    fail("unexpected node in body");
    return std::nullopt;
  }
  if (R)
    Memo.emplace(E.get(), *R);
  return R;
}

bool Lowering::lowerGenerator(size_t G) {
  const Generator &Gen = ML->gen(G);
  GenPlan Plan;
  Plan.Kind = Gen.Kind;
  Plan.ValType = Gen.Value.Body->type();
  Plan.Dense = Gen.isDenseBucket();
  Plan.NumKeys = Gen.NumKeys;

  // Condition / key / value of one generator share a value numbering: the
  // condition always runs first, and key/value only run when it passed, so
  // reuse is safe. State from other generators' sections must not leak in.
  Memo.clear();

  int32_t CondBranch = -1;
  if (Gen.Cond.isSet()) {
    std::optional<Reg> C = lowerUnaryFunc(Gen.Cond);
    if (!C)
      return false;
    if (C->Kind != ScalarKind::I1)
      return fail("non-bool generator condition");
    CondBranch = emit(ROp::JumpIfFalse, 0, C->Idx);
  }

  if (Gen.isBucket()) {
    std::optional<Reg> Key = lowerUnaryFunc(Gen.Key);
    Key = Key ? coerceTo(*Key, ScalarKind::I64) : std::nullopt;
    if (!Key)
      return false;
    Plan.KeyReg = Key->Idx;
  }

  std::optional<Reg> Val = lowerUnaryFunc(Gen.Value);
  if (!Val)
    return false;
  Plan.ValKind = Val->Kind;
  Plan.ValReg = Val->Idx;

  uint16_t Ord = static_cast<uint16_t>(G);
  int32_t Head = -1;
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
    // The inline reduce fragment: acc/val arrive in dedicated registers so
    // the VM can also replay [FragBegin, FragEnd) standalone when merging
    // chunk accumulators.
    std::optional<Reg> AccIn = alloc(Plan.ValKind);
    std::optional<Reg> ValIn = alloc(Plan.ValKind);
    if (!AccIn || !ValIn)
      return false;
    Plan.AccInReg = AccIn->Idx;
    Plan.ValInReg = ValIn->Idx;
    if (!Gen.Reduce.isSet() || Gen.Reduce.arity() != 2)
      return fail("reduce generator without binary reduce function");
    Bound.clear();
    Bound.emplace(Gen.Reduce.Params[0]->id(), *AccIn);
    Bound.emplace(Gen.Reduce.Params[1]->id(), *ValIn);
    Memo.clear();
    Plan.FragBegin = here();
    std::optional<Reg> Res = lowerExpr(Gen.Reduce.Body);
    if (!Res)
      return false;
    if (Res->Kind != Plan.ValKind)
      return fail("reduce changes runtime kind");
    Plan.ResultReg = Res->Idx;
    Plan.FragEnd = here();
    emit(Gen.Kind == GenKind::Reduce ? ROp::ReduceStore : ROp::BucketStore,
         Ord, Plan.ResultReg);
    break;
  }
  }

  int32_t End = here();
  if (CondBranch >= 0)
    K.Code[static_cast<size_t>(CondBranch)].Target = End;
  if (Head >= 0)
    K.Code[static_cast<size_t>(Head)].Target = End;
  K.Gens.push_back(std::move(Plan));
  return true;
}

CompileOutcome Lowering::run(const ExprRef &Loop) {
  K.Single = ML->isSingle();
  K.Signature = loopSignature(Loop);
  K.NumI = 1; // register 0 holds the loop index

  bool Ok = true;
  for (size_t G = 0; Ok && G < ML->numGens(); ++G)
    Ok = lowerGenerator(G);

  CompileOutcome Out;
  if (!Ok) {
    Out.Reason = Fail.empty() ? "unknown lowering failure" : Fail;
    return Out;
  }

  // Wide-eligibility post-scan: straight-line collect-only streams (no
  // control flow, no reduce/bucket state carried between indices) can run
  // instruction-wide over index blocks — the loop-transform layer's
  // widening, applied to the VM's dispatch loop (see KernelVM.cpp).
  K.WideEligible = !K.Code.empty();
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
