//===- ir/Builder.cpp ------------------------------------------*- C++ -*-===//

#include "ir/Builder.h"

#include "support/Error.h"

#include <limits>

using namespace dmll;

ExprRef dmll::constI64(int64_t V) {
  return std::make_shared<ConstIntExpr>(V, Type::i64());
}

ExprRef dmll::constI32(int64_t V) {
  return std::make_shared<ConstIntExpr>(V, Type::i32());
}

ExprRef dmll::constF64(double V) {
  return std::make_shared<ConstFloatExpr>(V, Type::f64());
}

ExprRef dmll::constBool(bool V) { return std::make_shared<ConstBoolExpr>(V); }

SymRef dmll::freshSym(const std::string &Name, TypeRef Ty) {
  return std::make_shared<SymExpr>(Name, std::move(Ty));
}

std::shared_ptr<const InputExpr> dmll::input(const std::string &Name,
                                             TypeRef Ty, LayoutHint Hint) {
  return std::make_shared<InputExpr>(Name, std::move(Ty), Hint);
}

/// Numeric promotion: the wider of the two scalar types, floats dominating
/// integers.
static TypeRef promote(const TypeRef &A, const TypeRef &B) {
  assert(A->isScalar() && B->isScalar() && "promote on non-scalar types");
  auto Rank = [](const TypeRef &T) {
    switch (T->getKind()) {
    case TypeKind::Bool:
      return 0;
    case TypeKind::Int32:
      return 1;
    case TypeKind::Int64:
      return 2;
    case TypeKind::Float32:
      return 3;
    case TypeKind::Float64:
      return 4;
    default:
      dmllUnreachable("promote on non-scalar type");
    }
  };
  return Rank(A) >= Rank(B) ? A : B;
}

static bool isComparison(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::Eq:
  case BinOpKind::Ne:
  case BinOpKind::Lt:
  case BinOpKind::Le:
  case BinOpKind::Gt:
  case BinOpKind::Ge:
    return true;
  default:
    return false;
  }
}

static bool isLogical(BinOpKind Op) {
  return Op == BinOpKind::And || Op == BinOpKind::Or;
}

/// Constant folds integer/bool binops where both operands are literals.
static ExprRef tryFoldBinOp(BinOpKind Op, const ExprRef &A, const ExprRef &B) {
  const auto *IA = dyn_cast<ConstIntExpr>(A);
  const auto *IB = dyn_cast<ConstIntExpr>(B);
  if (IA && IB) {
    int64_t X = IA->value(), Y = IB->value();
    // Overflowing folds (INT64_MIN / -1 would even SIGFPE here) are left as
    // runtime nodes so the executors' trap semantics apply uniformly.
    int64_t F;
    switch (Op) {
    case BinOpKind::Add:
      return __builtin_add_overflow(X, Y, &F) ? nullptr : constI64(F);
    case BinOpKind::Sub:
      return __builtin_sub_overflow(X, Y, &F) ? nullptr : constI64(F);
    case BinOpKind::Mul:
      return __builtin_mul_overflow(X, Y, &F) ? nullptr : constI64(F);
    case BinOpKind::Div:
      return Y == 0 || (Y == -1 && X == std::numeric_limits<int64_t>::min())
                 ? nullptr
                 : constI64(X / Y);
    case BinOpKind::Mod:
      return Y == 0 || (Y == -1 && X == std::numeric_limits<int64_t>::min())
                 ? nullptr
                 : constI64(X % Y);
    case BinOpKind::Min:
      return constI64(X < Y ? X : Y);
    case BinOpKind::Max:
      return constI64(X > Y ? X : Y);
    case BinOpKind::Eq:
      return constBool(X == Y);
    case BinOpKind::Ne:
      return constBool(X != Y);
    case BinOpKind::Lt:
      return constBool(X < Y);
    case BinOpKind::Le:
      return constBool(X <= Y);
    case BinOpKind::Gt:
      return constBool(X > Y);
    case BinOpKind::Ge:
      return constBool(X >= Y);
    default:
      return nullptr;
    }
  }
  const auto *BA = dyn_cast<ConstBoolExpr>(A);
  const auto *BB = dyn_cast<ConstBoolExpr>(B);
  if (Op == BinOpKind::And) {
    if (BA)
      return BA->value() ? B : constBool(false);
    if (BB)
      return BB->value() ? A : constBool(false);
  }
  if (Op == BinOpKind::Or) {
    if (BA)
      return BA->value() ? constBool(true) : B;
    if (BB)
      return BB->value() ? constBool(true) : A;
  }
  // x + 0, x * 1 on integers.
  if (IB && (Op == BinOpKind::Add || Op == BinOpKind::Sub) &&
      IB->value() == 0 && A->type()->isInt())
    return A;
  if (IB && Op == BinOpKind::Mul && IB->value() == 1 && A->type()->isInt())
    return A;
  return nullptr;
}

ExprRef dmll::binop(BinOpKind Op, ExprRef A, ExprRef B) {
  assert(A && B && "binop operands must be set");
  if (ExprRef Folded = tryFoldBinOp(Op, A, B))
    return Folded;
  TypeRef Ty;
  if (isLogical(Op)) {
    if (!A->type()->isBool() || !B->type()->isBool())
      fatalError("logical binop requires bool operands, got " +
                 A->type()->str() + " and " + B->type()->str());
    Ty = Type::boolTy();
  } else if (isComparison(Op)) {
    if (!A->type()->isScalar() || !B->type()->isScalar())
      fatalError("comparison requires scalar operands");
    Ty = Type::boolTy();
  } else {
    if (!A->type()->isScalar() || !B->type()->isScalar())
      fatalError("arithmetic binop requires scalar operands, got " +
                 A->type()->str() + " and " + B->type()->str());
    Ty = promote(A->type(), B->type());
  }
  return std::make_shared<BinOpExpr>(Op, std::move(Ty), std::move(A),
                                     std::move(B));
}

ExprRef dmll::unop(UnOpKind Op, ExprRef A) {
  assert(A && "unop operand must be set");
  TypeRef Ty;
  switch (Op) {
  case UnOpKind::Not:
    if (!A->type()->isBool())
      fatalError("Not requires a bool operand");
    Ty = Type::boolTy();
    break;
  case UnOpKind::Neg:
  case UnOpKind::Abs:
    if (!A->type()->isScalar() || A->type()->isBool())
      fatalError("Neg/Abs require a numeric operand");
    Ty = A->type();
    break;
  case UnOpKind::Exp:
  case UnOpKind::Log:
  case UnOpKind::Sqrt:
    if (!A->type()->isScalar())
      fatalError("math unop requires a scalar operand");
    Ty = A->type()->isFloat() ? A->type() : Type::f64();
    break;
  }
  return std::make_shared<UnOpExpr>(Op, std::move(Ty), std::move(A));
}

ExprRef dmll::select(ExprRef C, ExprRef A, ExprRef B) {
  if (!C->type()->isBool())
    fatalError("select condition must be bool");
  TypeRef Ty;
  if (sameType(A->type(), B->type()))
    Ty = A->type();
  else if (A->type()->isScalar() && B->type()->isScalar() &&
           !A->type()->isBool() && !B->type()->isBool())
    Ty = promote(A->type(), B->type());
  else
    fatalError("select arms have incompatible types " + A->type()->str() +
               " and " + B->type()->str());
  if (const auto *CB = dyn_cast<ConstBoolExpr>(C))
    return CB->value() ? A : B;
  return std::make_shared<SelectExpr>(std::move(Ty), std::move(C),
                                      std::move(A), std::move(B));
}

ExprRef dmll::castTo(TypeRef Ty, ExprRef A) {
  if (!Ty->isScalar() || !A->type()->isScalar())
    fatalError("cast requires scalar types");
  if (sameType(Ty, A->type()))
    return A;
  return std::make_shared<CastExpr>(std::move(Ty), std::move(A));
}

ExprRef dmll::arrayRead(ExprRef Arr, ExprRef Idx) {
  if (!Arr->type()->isArray())
    fatalError("arrayRead on non-array of type " + Arr->type()->str());
  if (!Idx->type()->isInt())
    fatalError("arrayRead index must be an integer");
  TypeRef Ty = Arr->type()->elem();
  return std::make_shared<ArrayReadExpr>(std::move(Ty), std::move(Arr),
                                         std::move(Idx));
}

ExprRef dmll::arrayLen(ExprRef Arr) {
  if (!Arr->type()->isArray())
    fatalError("arrayLen on non-array of type " + Arr->type()->str());
  return std::make_shared<ArrayLenExpr>(std::move(Arr));
}

ExprRef dmll::flatten(ExprRef ArrOfArr) {
  if (!ArrOfArr->type()->isArray() || !ArrOfArr->type()->elem()->isArray())
    fatalError("flatten requires Array[Array[T]]");
  TypeRef Ty = ArrOfArr->type()->elem();
  return std::make_shared<FlattenExpr>(std::move(Ty), std::move(ArrOfArr));
}

ExprRef dmll::makeStruct(std::vector<Type::Field> Fields,
                         std::vector<ExprRef> Values) {
  assert(Fields.size() == Values.size() && "field/value arity mismatch");
  for (size_t I = 0; I < Fields.size(); ++I)
    if (!sameType(Fields[I].Ty, Values[I]->type()))
      fatalError("makeStruct field '" + Fields[I].Name + "' expects " +
                 Fields[I].Ty->str() + " but got " +
                 Values[I]->type()->str());
  TypeRef Ty = Type::structOf(std::move(Fields));
  return std::make_shared<MakeStructExpr>(std::move(Ty), std::move(Values));
}

ExprRef dmll::getField(ExprRef Base, const std::string &Field) {
  if (!Base->type()->isStruct())
    fatalError("getField on non-struct of type " + Base->type()->str());
  TypeRef Ty = Base->type()->fieldType(Field);
  auto Idx = static_cast<size_t>(Base->type()->fieldIndex(Field));
  // Fold projection of a literal struct.
  if (const auto *MS = dyn_cast<MakeStructExpr>(Base))
    return MS->ops()[Idx];
  return std::make_shared<GetFieldExpr>(std::move(Ty), std::move(Base), Field,
                                        Idx);
}

ExprRef dmll::multiloop(ExprRef Size, std::vector<Generator> Gens) {
  assert(!Gens.empty() && "multiloop needs generators");
  if (!Size->type()->isInt())
    fatalError("multiloop size must be an integer");
  TypeRef Ty;
  if (Gens.size() == 1) {
    Ty = Gens[0].resultType();
  } else {
    std::vector<Type::Field> Fields;
    for (size_t I = 0; I < Gens.size(); ++I)
      Fields.push_back({"out" + std::to_string(I), Gens[I].resultType()});
    Ty = Type::structOf(std::move(Fields));
  }
  return std::make_shared<MultiloopExpr>(std::move(Ty), std::move(Size),
                                         std::move(Gens));
}

ExprRef dmll::loopOut(ExprRef Loop, unsigned Index) {
  const auto *ML = dyn_cast<MultiloopExpr>(Loop);
  if (!ML)
    fatalError("loopOut requires a multiloop operand");
  if (ML->isSingle()) {
    assert(Index == 0 && "loopOut index out of range");
    return Loop;
  }
  assert(Index < ML->numGens() && "loopOut index out of range");
  TypeRef Ty = ML->gen(Index).resultType();
  return std::make_shared<LoopOutExpr>(std::move(Ty), std::move(Loop), Index);
}

ExprRef dmll::singleLoop(ExprRef Size, Generator Gen) {
  std::vector<Generator> Gens;
  Gens.push_back(std::move(Gen));
  return multiloop(std::move(Size), std::move(Gens));
}

Func dmll::trueCond() {
  return indexFunc("i", [](const ExprRef &) { return constBool(true); });
}

bool dmll::isTrueCond(const Func &F) {
  if (!F.isSet())
    return true;
  const auto *CB = dyn_cast<ConstBoolExpr>(F.Body);
  return CB && CB->value();
}

ExprRef dmll::reductionIdentity(BinOpKind Op, const TypeRef &Ty) {
  if (!Ty->isScalar())
    return nullptr;
  switch (Op) {
  case BinOpKind::Add:
    return Ty->isFloat() ? constF64(0.0) : constI64(0);
  case BinOpKind::Mul:
    return Ty->isFloat() ? constF64(1.0) : constI64(1);
  case BinOpKind::Min:
    return Ty->isFloat() ? constF64(std::numeric_limits<double>::infinity())
                         : constI64(std::numeric_limits<int64_t>::max());
  case BinOpKind::Max:
    return Ty->isFloat() ? constF64(-std::numeric_limits<double>::infinity())
                         : constI64(std::numeric_limits<int64_t>::min());
  case BinOpKind::And:
    return constBool(true);
  case BinOpKind::Or:
    return constBool(false);
  default:
    return nullptr;
  }
}
