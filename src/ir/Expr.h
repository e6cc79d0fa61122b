//===- ir/Expr.h - DMLL IR expression nodes --------------------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DMLL intermediate representation. Programs are immutable expression
/// DAGs. The central node is Multiloop: a single-dimensional traversal of a
/// fixed-size integer range carrying a set of generators (Fig. 2 of the
/// paper): Collect, Reduce, BucketCollect, BucketReduce. Generator component
/// functions (condition, key, value, reduction) are stored separately so the
/// nested-pattern transformations of Section 3.2 and the per-target code
/// generators can recompose them.
///
/// The class hierarchy uses LLVM-style kind-tag RTTI (classof + isa<> /
/// dyn_cast<> / cast<> defined in this header); no C++ RTTI or exceptions.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_IR_EXPR_H
#define DMLL_IR_EXPR_H

#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace dmll {

class Expr;
class SymExpr;
using ExprRef = std::shared_ptr<const Expr>;
using SymRef = std::shared_ptr<const SymExpr>;

/// Discriminator for the Expr hierarchy.
enum class ExprKind {
  ConstInt,
  ConstFloat,
  ConstBool,
  Sym,
  Input,
  BinOp,
  UnOp,
  Select,
  Cast,
  ArrayRead,
  ArrayLen,
  Flatten,
  MakeStruct,
  GetField,
  Multiloop,
  LoopOut,
};

/// Binary operators. Arithmetic ops promote operand types; comparisons
/// produce bool; And/Or require bool operands.
enum class BinOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Min,
  Max,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
};

/// Unary operators.
enum class UnOpKind { Neg, Not, Exp, Log, Sqrt, Abs };

/// The four generator forms of Fig. 2.
enum class GenKind { Collect, Reduce, BucketCollect, BucketReduce };

/// Data-source partitioning annotation (Section 4.1): the user marks each
/// input; everything else is derived by the partitioning analysis.
enum class LayoutHint { Default, Local, Partitioned };

/// A first-order function: named, globally unique parameters plus a body
/// expression. Functions are not first-class values in DMLL; they only occur
/// as generator components.
struct Func {
  std::vector<SymRef> Params;
  ExprRef Body;

  Func() = default;
  Func(std::vector<SymRef> Params, ExprRef Body)
      : Params(std::move(Params)), Body(std::move(Body)) {}

  bool isSet() const { return Body != nullptr; }
  size_t arity() const { return Params.size(); }
};

/// One generator of a multiloop (Fig. 2(a)). Component functions:
///   Cond  : Index -> bool      (always present; trivially `true` when unset
///                               by the front end)
///   Key   : Index -> i64       (bucket generators only)
///   Value : Index -> V         (always present)
///   Reduce: (V, V) -> V        (reduce generators only)
/// NumKeys, when set on a bucket generator, selects the *dense* bucket
/// representation: keys are indices in [0, NumKeys) and the result is
/// indexed directly by key. When unset, the *hash* representation is used:
/// buckets appear in first-occurrence order and the result is a struct
/// {keys, values}.
struct Generator {
  GenKind Kind = GenKind::Collect;
  Func Cond;
  Func Key;
  Func Value;
  Func Reduce;
  ExprRef NumKeys;

  bool isBucket() const {
    return Kind == GenKind::BucketCollect || Kind == GenKind::BucketReduce;
  }
  bool isReduce() const {
    return Kind == GenKind::Reduce || Kind == GenKind::BucketReduce;
  }
  bool isDenseBucket() const { return isBucket() && NumKeys != nullptr; }

  /// The type of the value this generator returns to the surrounding
  /// program after the loop terminates.
  TypeRef resultType() const;
};

/// Base class of all IR nodes. Immutable; operand edges make the IR a DAG
/// (shared subexpressions are shared nodes).
class Expr {
public:
  virtual ~Expr() = default;

  ExprKind kind() const { return Kind; }
  const TypeRef &type() const { return Ty; }

  /// Non-function operands (e.g. the two sides of a BinOp, a multiloop's
  /// size). Function bodies of Multiloop generators are *not* listed here;
  /// traversal utilities handle them explicitly because they sit under
  /// binders.
  const std::vector<ExprRef> &ops() const { return Ops; }

protected:
  Expr(ExprKind K, TypeRef T, std::vector<ExprRef> O)
      : Kind(K), Ty(std::move(T)), Ops(std::move(O)) {
    assert(Ty && "every expression must be typed");
  }

private:
  ExprKind Kind;
  TypeRef Ty;
  std::vector<ExprRef> Ops;
};

// LLVM-style isa<> / cast<> / dyn_cast<> over ExprKind tags.
template <typename T> bool isa(const Expr *E) {
  return E && T::classof(E);
}
template <typename T> bool isa(const ExprRef &E) { return isa<T>(E.get()); }
template <typename T> const T *cast(const Expr *E) {
  assert(isa<T>(E) && "cast<> to incompatible expression kind");
  return static_cast<const T *>(E);
}
template <typename T> const T *cast(const ExprRef &E) {
  return cast<T>(E.get());
}
template <typename T> const T *dyn_cast(const Expr *E) {
  return isa<T>(E) ? static_cast<const T *>(E) : nullptr;
}
template <typename T> const T *dyn_cast(const ExprRef &E) {
  return dyn_cast<T>(E.get());
}

/// Integer literal (i32 or i64).
class ConstIntExpr : public Expr {
public:
  ConstIntExpr(int64_t V, TypeRef T)
      : Expr(ExprKind::ConstInt, std::move(T), {}), V(V) {
    assert(type()->isInt() && "ConstInt requires an integer type");
  }
  int64_t value() const { return V; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::ConstInt; }

private:
  int64_t V;
};

/// Floating-point literal (f32 or f64).
class ConstFloatExpr : public Expr {
public:
  ConstFloatExpr(double V, TypeRef T)
      : Expr(ExprKind::ConstFloat, std::move(T), {}), V(V) {
    assert(type()->isFloat() && "ConstFloat requires a float type");
  }
  double value() const { return V; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ConstFloat;
  }

private:
  double V;
};

/// Boolean literal.
class ConstBoolExpr : public Expr {
public:
  explicit ConstBoolExpr(bool V)
      : Expr(ExprKind::ConstBool, Type::boolTy(), {}), V(V) {}
  bool value() const { return V; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ConstBool;
  }

private:
  bool V;
};

/// A symbol: a function parameter or loop index. Symbols are globally unique
/// (fresh id per construction), which makes substitution capture-free as
/// long as duplicated functions are re-parameterized (see freshened()).
class SymExpr : public Expr {
public:
  SymExpr(std::string Name, TypeRef T);
  uint64_t id() const { return Id; }
  const std::string &name() const { return Name; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Sym; }

private:
  uint64_t Id;
  std::string Name;
};

/// A named external dataset (e.g. a file-reader result), optionally carrying
/// the user's partitioning annotation of Section 4.1.
class InputExpr : public Expr {
public:
  InputExpr(std::string Name, TypeRef T, LayoutHint Hint)
      : Expr(ExprKind::Input, std::move(T), {}), Name(std::move(Name)),
        Hint(Hint) {}
  const std::string &name() const { return Name; }
  LayoutHint hint() const { return Hint; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Input; }

private:
  std::string Name;
  LayoutHint Hint;
};

/// Binary arithmetic / comparison / logical operation.
class BinOpExpr : public Expr {
public:
  BinOpExpr(BinOpKind Op, TypeRef T, ExprRef A, ExprRef B)
      : Expr(ExprKind::BinOp, std::move(T), {std::move(A), std::move(B)}),
        Op(Op) {}
  BinOpKind op() const { return Op; }
  const ExprRef &lhs() const { return ops()[0]; }
  const ExprRef &rhs() const { return ops()[1]; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::BinOp; }

private:
  BinOpKind Op;
};

/// Unary operation.
class UnOpExpr : public Expr {
public:
  UnOpExpr(UnOpKind Op, TypeRef T, ExprRef A)
      : Expr(ExprKind::UnOp, std::move(T), {std::move(A)}), Op(Op) {}
  UnOpKind op() const { return Op; }
  const ExprRef &operand() const { return ops()[0]; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::UnOp; }

private:
  UnOpKind Op;
};

/// Ternary select: cond ? a : b.
class SelectExpr : public Expr {
public:
  SelectExpr(TypeRef T, ExprRef C, ExprRef A, ExprRef B)
      : Expr(ExprKind::Select, std::move(T),
             {std::move(C), std::move(A), std::move(B)}) {}
  const ExprRef &cond() const { return ops()[0]; }
  const ExprRef &trueVal() const { return ops()[1]; }
  const ExprRef &falseVal() const { return ops()[2]; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Select; }
};

/// Scalar conversion to the node's type.
class CastExpr : public Expr {
public:
  CastExpr(TypeRef T, ExprRef A)
      : Expr(ExprKind::Cast, std::move(T), {std::move(A)}) {}
  const ExprRef &operand() const { return ops()[0]; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Cast; }
};

/// Random-access read `arr(idx)`. DMLL permits arbitrary read patterns
/// (Table 1, "random reads"); the stencil analysis of Section 4.2 classifies
/// each read site.
class ArrayReadExpr : public Expr {
public:
  ArrayReadExpr(TypeRef T, ExprRef Arr, ExprRef Idx)
      : Expr(ExprKind::ArrayRead, std::move(T), {std::move(Arr),
                                                 std::move(Idx)}) {}
  const ExprRef &array() const { return ops()[0]; }
  const ExprRef &index() const { return ops()[1]; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::ArrayRead;
  }
};

/// Length of a collection. Whitelisted by the sequential-operation rule of
/// Section 4.3 (stored as metadata, no dereference of partitioned payload).
class ArrayLenExpr : public Expr {
public:
  explicit ArrayLenExpr(ExprRef Arr)
      : Expr(ExprKind::ArrayLen, Type::i64(), {std::move(Arr)}) {}
  const ExprRef &array() const { return ops()[0]; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::ArrayLen; }
};

/// Concatenation of an Array[Array[V]] into Array[V]; the primitive behind
/// flatMap.
class FlattenExpr : public Expr {
public:
  FlattenExpr(TypeRef T, ExprRef Arr)
      : Expr(ExprKind::Flatten, std::move(T), {std::move(Arr)}) {}
  const ExprRef &array() const { return ops()[0]; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::Flatten; }
};

/// Struct construction; field names come from the node's struct type, in
/// order, one operand per field.
class MakeStructExpr : public Expr {
public:
  MakeStructExpr(TypeRef T, std::vector<ExprRef> FieldVals)
      : Expr(ExprKind::MakeStruct, std::move(T), std::move(FieldVals)) {
    assert(type()->isStruct() && ops().size() == type()->fields().size() &&
           "MakeStruct operand/field arity mismatch");
  }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::MakeStruct;
  }
};

/// Struct field projection.
class GetFieldExpr : public Expr {
public:
  /// \p Index is \p Field's position in the base's struct type, resolved
  /// once by dmll::getField (ir/Builder.h), the only builder.
  GetFieldExpr(TypeRef T, ExprRef Base, std::string Field, size_t Index)
      : Expr(ExprKind::GetField, std::move(T), {std::move(Base)}),
        Field(std::move(Field)), Index(Index) {}
  const ExprRef &base() const { return ops()[0]; }
  const std::string &field() const { return Field; }
  size_t index() const { return Index; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::GetField;
  }

private:
  std::string Field;
  size_t Index;
};

/// The multiloop (Fig. 2): a traversal of [0, size) with one or more
/// generators. With a single generator the node's type is the generator's
/// result type; with several (after horizontal fusion) it is a struct
/// {out0, out1, ...} whose components are read with LoopOut.
class MultiloopExpr : public Expr {
public:
  MultiloopExpr(TypeRef T, ExprRef Size, std::vector<Generator> Gens)
      : Expr(ExprKind::Multiloop, std::move(T), {std::move(Size)}),
        Gens(std::move(Gens)) {
    assert(!this->Gens.empty() && "multiloop needs at least one generator");
  }
  const ExprRef &size() const { return ops()[0]; }
  const std::vector<Generator> &gens() const { return Gens; }
  size_t numGens() const { return Gens.size(); }
  const Generator &gen(size_t I = 0) const {
    assert(I < Gens.size() && "generator index out of range");
    return Gens[I];
  }
  bool isSingle() const { return Gens.size() == 1; }
  static bool classof(const Expr *E) {
    return E->kind() == ExprKind::Multiloop;
  }

private:
  std::vector<Generator> Gens;
};

/// Selects output \p Index of a multi-generator multiloop.
class LoopOutExpr : public Expr {
public:
  LoopOutExpr(TypeRef T, ExprRef Loop, unsigned Index)
      : Expr(ExprKind::LoopOut, std::move(T), {std::move(Loop)}),
        Index(Index) {}
  const ExprRef &loop() const { return ops()[0]; }
  unsigned index() const { return Index; }
  static bool classof(const Expr *E) { return E->kind() == ExprKind::LoopOut; }

private:
  unsigned Index;
};

/// A whole program: named inputs plus a result expression (possibly a struct
/// of several outputs). Iterative algorithms are modeled as one iteration
/// with the loop-carried state among the inputs, matching how the paper
/// reports per-iteration times.
struct Program {
  std::vector<std::shared_ptr<const InputExpr>> Inputs;
  ExprRef Result;

  /// Finds an input by name; returns nullptr if absent.
  const InputExpr *findInput(const std::string &Name) const {
    for (const auto &I : Inputs)
      if (I->name() == Name)
        return I.get();
    return nullptr;
  }
};

} // namespace dmll

#endif // DMLL_IR_EXPR_H
