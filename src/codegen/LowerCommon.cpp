//===- codegen/LowerCommon.cpp ---------------------------------*- C++ -*-===//

#include "codegen/LowerCommon.h"

#include "ir/Builder.h"
#include "ir/Traversal.h"

#include <functional>

using namespace dmll;

lower::ScalarKind lower::scalarKindOf(const Type &Ty) {
  switch (Ty.getKind()) {
  case TypeKind::Bool:
    return ScalarKind::I1;
  case TypeKind::Int32:
  case TypeKind::Int64:
    return ScalarKind::I64;
  case TypeKind::Float32:
  case TypeKind::Float64:
    return ScalarKind::F64;
  case TypeKind::Array:
  case TypeKind::Struct:
    return ScalarKind::NotScalar;
  }
  return ScalarKind::NotScalar;
}

const char *lower::scalarKindName(ScalarKind K) {
  switch (K) {
  case ScalarKind::I1:
    return "i1";
  case ScalarKind::I64:
    return "i64";
  case ScalarKind::F64:
    return "f64";
  case ScalarKind::NotScalar:
    return "non-scalar";
  }
  return "non-scalar";
}

bool lower::isScalarAddReduce(const Func &R) {
  if (!R.isSet() || R.arity() != 2 || !R.Body->type()->isScalar())
    return false;
  const auto *Add = dyn_cast<BinOpExpr>(R.Body);
  if (!Add || Add->op() != BinOpKind::Add)
    return false;
  const auto *L = dyn_cast<SymExpr>(Add->lhs());
  const auto *Rr = dyn_cast<SymExpr>(Add->rhs());
  if (!L || !Rr)
    return false;
  uint64_t A = R.Params[0]->id(), B = R.Params[1]->id();
  return (L->id() == A && Rr->id() == B) || (L->id() == B && Rr->id() == A);
}

/// One unconditional single-generator Collect.
static bool isPlainCollect(const MultiloopExpr *ML) {
  return ML && ML->isSingle() && ML->gen().Kind == GenKind::Collect &&
         isTrueCond(ML->gen().Cond);
}

lower::InPlaceAdd lower::matchInPlaceAdd(const Generator &Gen) {
  InPlaceAdd M;
  if (!Gen.isReduce() || !Gen.Reduce.isSet() ||
      Gen.Value.Body->type()->isScalar())
    return M;
  unsigned Depth = 0;
  TypeRef Ty = Gen.Value.Body->type();
  for (; Ty->isArray() && Depth < 2; Ty = Ty->elem())
    ++Depth;
  if (!Ty->isScalar())
    return M;
  // Reduce side: per level a Collect over len(acc) reading both operands
  // at its index, then the scalar addition of the two elements.
  ExprRef A(Gen.Reduce.Params[0]), B(Gen.Reduce.Params[1]);
  ExprRef Body = Gen.Reduce.Body;
  for (unsigned L = 0; L < Depth; ++L) {
    const auto *ML = dyn_cast<MultiloopExpr>(Body);
    if (!isPlainCollect(ML) || !structuralEq(ML->size(), arrayLen(A)))
      return M;
    ExprRef K(ML->gen().Value.Params[0]);
    A = arrayRead(A, K);
    B = arrayRead(B, K);
    Body = ML->gen().Value.Body;
  }
  const auto *Add = dyn_cast<BinOpExpr>(Body);
  if (!Add || Add->op() != BinOpKind::Add)
    return M;
  if (structuralEq(Add->lhs(), A) && structuralEq(Add->rhs(), B))
    M.AccOnLeft = true;
  else if (structuralEq(Add->lhs(), B) && structuralEq(Add->rhs(), A))
    M.AccOnLeft = false;
  else
    return M;
  M.Depth = Depth;
  M.Add = Add;
  // Value side: Depth nested Collects.
  std::vector<const MultiloopExpr *> Levels;
  const Expr *Cur = Gen.Value.Body.get();
  for (unsigned L = 0; L < Depth; ++L) {
    const auto *ML = dyn_cast<MultiloopExpr>(Cur);
    if (!isPlainCollect(ML))
      return M;
    Levels.push_back(ML);
    Cur = ML->gen().Value.Body.get();
  }
  M.Levels = std::move(Levels);
  return M;
}

bool lower::isBoundedGatherLoop(const ExprRef &E) {
  const auto *ML = dyn_cast<MultiloopExpr>(E);
  if (!ML || !ML->isSingle())
    return false;
  const Generator &G = ML->gen();
  if (G.Kind != GenKind::Collect || !isTrueCond(G.Cond) || G.Key.isSet())
    return false;
  if (!G.Value.isSet() || G.Value.arity() != 1)
    return false;
  if (mayTrap(ML->size()))
    return false;
  uint64_t Idx = G.Value.Params[0]->id();

  // Arrays whose length bounds the loop: leaves of the size's Min-chain.
  std::vector<ExprRef> Bounding;
  std::function<void(const ExprRef &)> Chain = [&](const ExprRef &S) {
    if (const auto *B = dyn_cast<BinOpExpr>(S); B && B->op() == BinOpKind::Min) {
      Chain(B->lhs());
      Chain(B->rhs());
      return;
    }
    if (const auto *L = dyn_cast<ArrayLenExpr>(S))
      Bounding.push_back(L->array());
  };
  Chain(ML->size());

  // The body may trap only through in-bounds reads: every ArrayRead must be
  // at exactly the loop index, from an index-invariant array whose length
  // bounds the loop; no integer division; no nested loops.
  bool Ok = true;
  visitAll(G.Value.Body, [&](const ExprRef &Node) {
    switch (Node->kind()) {
    case ExprKind::Multiloop:
    case ExprKind::LoopOut:
      Ok = false;
      return;
    case ExprKind::BinOp: {
      const auto *B = cast<BinOpExpr>(Node);
      if ((B->op() == BinOpKind::Div || B->op() == BinOpKind::Mod) &&
          B->type()->isInt())
        Ok = false;
      return;
    }
    case ExprKind::ArrayRead: {
      const auto *Rd = cast<ArrayReadExpr>(Node);
      const auto *S = dyn_cast<SymExpr>(Rd->index());
      if (!S || S->id() != Idx || freeSyms(Rd->array()).count(Idx) ||
          mayTrap(Rd->array())) {
        Ok = false;
        return;
      }
      bool Covered = false;
      for (const ExprRef &A : Bounding)
        Covered |= A.get() == Rd->array().get() ||
                   structuralEq(A, Rd->array());
      Ok &= Covered;
      return;
    }
    default:
      return;
    }
  });
  return Ok;
}
