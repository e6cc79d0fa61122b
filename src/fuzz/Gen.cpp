//===- fuzz/Gen.cpp --------------------------------------------*- C++ -*-===//

#include "fuzz/Gen.h"

#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Rng.h"

#include <algorithm>
#include <limits>

using namespace dmll;
using namespace dmll::fuzz;

namespace {

/// What is visible at a generation site: scalar expressions by type, array
/// expressions (inputs and shared loop results), and reads that are known
/// in-bounds because the enclosing loop ranges over exactly len(array).
struct Env {
  std::vector<ExprRef> I64s;
  std::vector<ExprRef> F64s;
  std::vector<ExprRef> Arrays;
  /// Arrays indexed safely by the current loop index (loop size == len(A)).
  std::vector<std::pair<ExprRef, ExprRef>> Aligned; // (array, index sym)
  int LoopDepth = 0;
};

class Gen {
public:
  Gen(uint64_t Seed, const GenOptions &O)
      : R(Seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull), O(O),
        Adversarial(static_cast<int>(R.nextBelow(100)) < O.AdversarialPct) {}

  FuzzCase run(uint64_t Seed) {
    FuzzCase C;
    C.Seed = Seed;
    genInputs(C);
    Env E;
    for (const auto &In : Inputs) {
      if (In->type()->isArray())
        E.Arrays.push_back(In);
      else if (In->type()->isInt())
        E.I64s.push_back(In);
      else if (In->type()->isFloat())
        E.F64s.push_back(In);
    }
    // 1-3 roots; later roots can share earlier loop results (DAG sharing,
    // which CSE and the interpreter's memo table both key on).
    size_t NumRoots = 1 + R.nextBelow(3);
    std::vector<ExprRef> Roots;
    for (size_t I = 0; I < NumRoots; ++I) {
      ExprRef Root = genRoot(E);
      if (Root->type()->isArray() && chance(30))
        E.Arrays.push_back(Root);
      Roots.push_back(std::move(Root));
    }
    if (Roots.size() == 1) {
      C.P.Result = Roots[0];
    } else {
      std::vector<Type::Field> Fields;
      for (size_t I = 0; I < Roots.size(); ++I)
        Fields.push_back({"r" + std::to_string(I), Roots[I]->type()});
      C.P.Result = makeStruct(std::move(Fields), std::move(Roots));
    }
    C.P.Inputs = Inputs;
    C.Inputs = std::move(Data);
    return C;
  }

private:
  Rng R;
  const GenOptions &O;
  std::vector<std::shared_ptr<const InputExpr>> Inputs;
  InputMap Data;
  bool Adversarial;     ///< this program gets one adversarial site
  bool AdvPlaced = false;

  bool chance(int Pct) { return static_cast<int>(R.nextBelow(100)) < Pct; }
  int64_t irange(int64_t Lo, int64_t Hi) { // inclusive
    return Lo + static_cast<int64_t>(R.nextBelow(
                    static_cast<uint64_t>(Hi - Lo + 1)));
  }

  LayoutHint randHint() {
    switch (R.nextBelow(3)) {
    case 0:
      return LayoutHint::Default;
    case 1:
      return LayoutHint::Local;
    default:
      return LayoutHint::Partitioned;
    }
  }

  //===--------------------------------------------------------------------===//
  // Inputs.
  //===--------------------------------------------------------------------===//

  void genInputs(FuzzCase &) {
    size_t N = 1 + R.nextBelow(3);
    for (size_t I = 0; I < N; ++I) {
      std::string Name = "in" + std::to_string(I);
      // 0-length inputs are part of the grammar on purpose: empty loops,
      // empty reductions and all-filtered groups are classic rewrite bugs.
      int64_t Len = chance(12) ? 0 : irange(1, O.MaxInputLen);
      switch (R.nextBelow(6)) {
      case 0:
      case 1: { // Array[i64]
        std::vector<int64_t> Xs(static_cast<size_t>(Len));
        for (int64_t &X : Xs)
          X = irange(-20, 20);
        addInput(Name, Type::arrayOf(Type::i64()), Value::arrayOfInts(Xs));
        break;
      }
      case 2:
      case 3: { // Array[f64]
        std::vector<double> Xs(static_cast<size_t>(Len));
        for (double &X : Xs)
          X = R.nextGaussian() * 2.0;
        addInput(Name, Type::arrayOf(Type::f64()), Value::arrayOfDoubles(Xs));
        break;
      }
      case 4: { // Array[{a:i64, b:f64}] — exercises AoS-to-SoA + DFE
        TypeRef Elem = Type::structOf({{"a", Type::i64()},
                                       {"b", Type::f64()}});
        ArrayData Elems;
        for (int64_t K = 0; K < Len; ++K)
          Elems.push_back(Value::makeStruct(
              {Value(irange(-10, 10)), Value(R.nextGaussian())}));
        addInput(Name, Type::arrayOf(Elem),
                 Value::makeArray(std::move(Elems)));
        break;
      }
      default: { // scalar i64
        addInput(Name, Type::i64(), Value(irange(-4, 12)));
        break;
      }
      }
    }
  }

  void addInput(const std::string &Name, TypeRef Ty, Value V) {
    Inputs.push_back(input(Name, std::move(Ty), randHint()));
    Data.emplace(Name, std::move(V));
  }

  //===--------------------------------------------------------------------===//
  // Scalar expressions. AllowLoops gates Reduce subloops; float expressions
  // feeding conditions, keys, or int casts must stay loop-free so parallel
  // reassociation cannot flip a discrete decision.
  //===--------------------------------------------------------------------===//

  ExprRef constI64Tame() {
    static const int64_t Pool[] = {0, 1, 2, 3, -1, -2, 5, 7};
    if (chance(60))
      return constI64(Pool[R.nextBelow(sizeof(Pool) / sizeof(Pool[0]))]);
    return constI64(irange(-6, 9));
  }

  ExprRef constF64Tame() {
    static const double Pool[] = {0.0, 1.0, -1.0, 0.5, 2.5, -3.25};
    if (chance(50))
      return constF64(Pool[R.nextBelow(sizeof(Pool) / sizeof(Pool[0]))]);
    return constF64(static_cast<double>(irange(-40, 40)) / 8.0);
  }

  /// i64-element arrays currently in scope.
  std::vector<ExprRef> arraysOf(const Env &E, const TypeRef &Elem) {
    std::vector<ExprRef> Out;
    for (const ExprRef &A : E.Arrays)
      if (sameType(A->type()->elem(), Elem))
        Out.push_back(A);
    return Out;
  }

  /// A read that cannot trap: aligned A(i) when available, else the
  /// select-guarded `len==0 ? dflt : A(abs(idx) % len)` form.
  ExprRef safeRead(const Env &E, const ExprRef &Arr, int Depth) {
    for (const auto &[A, I] : E.Aligned)
      if (A.get() == Arr.get())
        return arrayRead(A, I);
    ExprRef Idx = genI64(E, Depth - 1, /*AllowLoops=*/false);
    ExprRef Len = arrayLen(Arr);
    ExprRef Guarded = arrayRead(
        Arr, binop(BinOpKind::Mod, unop(UnOpKind::Abs, Idx), Len));
    ExprRef Dflt = zeroExprOf(Arr->type()->elem());
    return select(binop(BinOpKind::Eq, Len, constI64(0)), Dflt, Guarded);
  }

  /// A zero-valued expression of scalar/struct type (used as guard default).
  ExprRef zeroExprOf(const TypeRef &Ty) {
    if (Ty->isInt())
      return constI64(0);
    if (Ty->isFloat())
      return constF64(0.0);
    if (Ty->isBool())
      return constBool(false);
    if (Ty->isStruct()) {
      std::vector<Type::Field> Fields = Ty->fields();
      std::vector<ExprRef> Vals;
      for (const auto &F : Fields)
        Vals.push_back(zeroExprOf(F.Ty));
      return makeStruct(std::move(Fields), std::move(Vals));
    }
    // Arrays: an empty Collect of the right element type.
    Generator G;
    G.Kind = GenKind::Collect;
    G.Value = indexFunc("z", [&](const ExprRef &) {
      return zeroExprOf(Ty->elem());
    });
    return singleLoop(constI64(0), std::move(G));
  }

  /// The single adversarial site: unguarded division/modulo (divisor can be
  /// 0 or -1 against an INT64_MIN numerator) or an unguarded array read.
  ExprRef adversarialI64(const Env &E, int Depth) {
    AdvPlaced = true;
    switch (R.nextBelow(3)) {
    case 0: { // INT64_MIN / smallExpr: hits /0 and the /-1 overflow trap.
      // The quotient is clamped before it escapes so a surviving INT64_MIN
      // (e.g. divisor 1) cannot feed signed-overflow UB in outer arithmetic.
      ExprRef Num = constI64(chance(50)
                                 ? std::numeric_limits<int64_t>::min()
                                 : std::numeric_limits<int64_t>::max());
      ExprRef Den = genI64(E, 1, false);
      ExprRef Q =
          binop(chance(50) ? BinOpKind::Div : BinOpKind::Mod, Num, Den);
      return binop(BinOpKind::Min,
                   binop(BinOpKind::Max, Q, constI64(-1000)),
                   constI64(1000));
    }
    case 1: { // unguarded division by a data-dependent divisor
      ExprRef Num = genI64(E, Depth - 1, false);
      ExprRef Den = genI64(E, 1, false);
      return binop(chance(50) ? BinOpKind::Div : BinOpKind::Mod, Num, Den);
    }
    default: { // unguarded read: index may be out of range
      std::vector<ExprRef> As = arraysOf(E, Type::i64());
      if (As.empty())
        return binop(BinOpKind::Div, genI64(E, 1, false),
                     genI64(E, 1, false));
      return arrayRead(As[R.nextBelow(As.size())], genI64(E, 1, false));
    }
    }
  }

  ExprRef genI64(const Env &E, int Depth, bool AllowLoops) {
    if (Adversarial && !AdvPlaced && Depth >= 2 && chance(25))
      return adversarialI64(E, Depth);
    if (Depth <= 0 || chance(25)) {
      // Leaves: constants, in-scope symbols, lengths.
      size_t NumSyms = E.I64s.size();
      uint64_t Pick = R.nextBelow(3 + NumSyms);
      if (Pick < NumSyms)
        return E.I64s[Pick];
      if (!E.Arrays.empty() && chance(40))
        return arrayLen(E.Arrays[R.nextBelow(E.Arrays.size())]);
      return constI64Tame();
    }
    switch (R.nextBelow(8)) {
    case 0:
    case 1: {
      static const BinOpKind Ops[] = {BinOpKind::Add, BinOpKind::Sub,
                                      BinOpKind::Min, BinOpKind::Max};
      BinOpKind Op = Ops[R.nextBelow(4)];
      ExprRef L = genI64(E, Depth - 1, AllowLoops);
      // Sometimes one operand node read twice (x + x).
      return binop(Op, L, chance(15) ? L : genI64(E, Depth - 1, AllowLoops));
    }
    case 2: // multiply by a small constant only (bounded growth)
      return binop(BinOpKind::Mul, genI64(E, Depth - 1, AllowLoops),
                   constI64(irange(-4, 4)));
    case 3: { // guarded division / modulo
      ExprRef A = genI64(E, Depth - 1, AllowLoops);
      ExprRef D = genI64(E, Depth - 1, false);
      ExprRef Guarded = binop(chance(50) ? BinOpKind::Div : BinOpKind::Mod,
                              A, D);
      return select(binop(BinOpKind::Eq, D, constI64(0)), constI64Tame(),
                    Guarded);
    }
    case 4: {
      std::vector<ExprRef> As = arraysOf(E, Type::i64());
      if (!As.empty())
        return safeRead(E, As[R.nextBelow(As.size())], Depth);
      return genI64(E, Depth - 1, AllowLoops);
    }
    case 5:
      return select(genBool(E, Depth - 1), genI64(E, Depth - 1, AllowLoops),
                    genI64(E, Depth - 1, AllowLoops));
    case 6: // cast of a clamped, loop-free float
      if (chance(50)) {
        ExprRef F = genF64(E, Depth - 1, false);
        ExprRef Clamped = binop(
            BinOpKind::Min, binop(BinOpKind::Max, F, constF64(-1.0e9)),
            constF64(1.0e9));
        return castTo(Type::i64(), Clamped);
      }
      return unop(chance(50) ? UnOpKind::Neg : UnOpKind::Abs,
                  binop(BinOpKind::Max,
                        genI64(E, Depth - 1, AllowLoops),
                        constI64(-1000000)));
    default:
      if (AllowLoops && E.LoopDepth < O.MaxLoopDepth)
        return chance(25) ? argminIndex(E) : genReduceLoop(E, Type::i64());
      return genI64(E, Depth - 1, AllowLoops);
    }
  }

  ExprRef genF64(const Env &E, int Depth, bool AllowLoops) {
    if (Depth <= 0 || chance(25)) {
      size_t NumSyms = E.F64s.size();
      uint64_t Pick = R.nextBelow(2 + NumSyms);
      if (Pick < NumSyms)
        return E.F64s[Pick];
      return constF64Tame();
    }
    switch (R.nextBelow(8)) {
    case 0:
    case 1: {
      static const BinOpKind Ops[] = {BinOpKind::Add, BinOpKind::Sub,
                                      BinOpKind::Mul, BinOpKind::Min,
                                      BinOpKind::Max};
      BinOpKind Op = Ops[R.nextBelow(5)];
      ExprRef L = genF64(E, Depth - 1, AllowLoops);
      // Sometimes one operand node read twice (x * x).
      return binop(Op, L, chance(15) ? L : genF64(E, Depth - 1, AllowLoops));
    }
    case 2: // float division: /0 gives inf/NaN deterministically, no trap
      return binop(BinOpKind::Div, genF64(E, Depth - 1, AllowLoops),
                   genF64(E, Depth - 1, AllowLoops));
    case 3: {
      std::vector<ExprRef> As = arraysOf(E, Type::f64());
      if (!As.empty())
        return safeRead(E, As[R.nextBelow(As.size())], Depth);
      return genF64(E, Depth - 1, AllowLoops);
    }
    case 4: {
      switch (R.nextBelow(4)) {
      case 0: // exp of a capped operand so sums stay finite
        return unop(UnOpKind::Exp,
                    binop(BinOpKind::Min, genF64(E, Depth - 1, AllowLoops),
                          constF64(20.0)));
      case 1:
        return unop(UnOpKind::Sqrt,
                    unop(UnOpKind::Abs, genF64(E, Depth - 1, AllowLoops)));
      case 2:
        return unop(UnOpKind::Neg, genF64(E, Depth - 1, AllowLoops));
      default:
        return unop(UnOpKind::Abs, genF64(E, Depth - 1, AllowLoops));
      }
    }
    case 5:
      return select(genBool(E, Depth - 1), genF64(E, Depth - 1, AllowLoops),
                    genF64(E, Depth - 1, AllowLoops));
    case 6:
      return castTo(Type::f64(), genI64(E, Depth - 1, AllowLoops));
    default:
      if (AllowLoops && E.LoopDepth < O.MaxLoopDepth)
        return genReduceLoop(E, Type::f64());
      return genF64(E, Depth - 1, AllowLoops);
    }
  }

  /// Conditions and keys: i64 comparisons may contain subloops (integer
  /// results are exact), float comparisons stay loop-free.
  ExprRef genBool(const Env &E, int Depth) {
    if (Depth <= 0 || chance(20))
      return constBool(chance(70));
    switch (R.nextBelow(5)) {
    case 0: {
      static const BinOpKind Cmp[] = {BinOpKind::Eq, BinOpKind::Ne,
                                      BinOpKind::Lt, BinOpKind::Le,
                                      BinOpKind::Gt, BinOpKind::Ge};
      return binop(Cmp[R.nextBelow(6)], genI64(E, Depth - 1, false),
                   genI64(E, Depth - 1, false));
    }
    case 1: {
      static const BinOpKind Cmp[] = {BinOpKind::Lt, BinOpKind::Le,
                                      BinOpKind::Gt, BinOpKind::Ge};
      return binop(Cmp[R.nextBelow(4)], genF64(E, Depth - 1, false),
                   genF64(E, Depth - 1, false));
    }
    case 2:
      return binop(chance(50) ? BinOpKind::And : BinOpKind::Or,
                   genBool(E, Depth - 1), genBool(E, Depth - 1));
    case 3:
      return unop(UnOpKind::Not, genBool(E, Depth - 1));
    default:
      return binop(BinOpKind::Eq,
                   binop(BinOpKind::Mod,
                         unop(UnOpKind::Abs, genI64(E, Depth - 1, false)),
                         constI64(irange(2, 5))),
                   constI64(0));
    }
  }

  //===--------------------------------------------------------------------===//
  // Multiloops.
  //===--------------------------------------------------------------------===//

  /// Loop size: a small constant (0 and 1 included), len(array), or a
  /// clamped combination. Records the array whose length the size is, so
  /// the body can read it at the loop index without a guard.
  ExprRef genSize(const Env &E, ExprRef *AlignedArr) {
    *AlignedArr = nullptr;
    if (!E.Arrays.empty() && chance(55)) {
      ExprRef A = E.Arrays[R.nextBelow(E.Arrays.size())];
      *AlignedArr = A;
      return arrayLen(A);
    }
    if (chance(15))
      return constI64(R.nextBelow(2)); // 0 or 1
    return constI64(irange(2, O.MaxConstSize));
  }

  /// `len(A) == 0 ? 0 : A(abs(Idx) % len(A))`: a read of i64 array \p A
  /// that cannot trap.
  ExprRef guardedRead(const ExprRef &A, const ExprRef &Idx) {
    ExprRef Len = arrayLen(A);
    return select(binop(BinOpKind::Eq, Len, constI64(0)), constI64(0),
                  arrayRead(A, binop(BinOpKind::Mod,
                                     unop(UnOpKind::Abs, Idx), Len)));
  }

  /// A scalar Reduce loop of result type \p Ty (used inside expressions).
  /// Inside a loop it sometimes runs over one CSR segment, as pagerank's
  /// does: a loop-varying range sized by two reads of an i64 array at the
  /// enclosing index and its successor, clamped to [0, 8], whose first
  /// offset the body may use.
  ExprRef genReduceLoop(const Env &E, const TypeRef &Ty) {
    ExprRef AlignedArr, SegBase;
    ExprRef Size;
    std::vector<ExprRef> Offs = arraysOf(E, Type::i64());
    if (E.LoopDepth > 0 && !Offs.empty() && chance(30)) {
      ExprRef Off = Offs[R.nextBelow(Offs.size())];
      ExprRef At = E.I64s.back(); // the innermost loop index
      SegBase = guardedRead(Off, At);
      ExprRef End = guardedRead(Off, binop(BinOpKind::Add, At, constI64(1)));
      Size = binop(BinOpKind::Min,
                   binop(BinOpKind::Max, binop(BinOpKind::Sub, End, SegBase),
                         constI64(0)),
                   constI64(8));
    } else {
      Size = genSize(E, &AlignedArr);
    }
    Generator G;
    G.Kind = GenKind::Reduce;
    SymRef I = freshSym("i", Type::i64());
    Env Body = E;
    ++Body.LoopDepth;
    Body.I64s.push_back(I);
    if (SegBase)
      Body.I64s.push_back(binop(BinOpKind::Add, SegBase, ExprRef(I)));
    Body.Aligned.clear();
    if (AlignedArr)
      Body.Aligned.emplace_back(AlignedArr, I);
    if (chance(40)) {
      SymRef C = freshSym("c", Type::i64());
      Env CondEnv = E;
      ++CondEnv.LoopDepth;
      CondEnv.I64s.push_back(C);
      CondEnv.Aligned.clear();
      if (AlignedArr)
        CondEnv.Aligned.emplace_back(AlignedArr, C);
      ExprRef CondBody = genBool(CondEnv, 2);
      G.Cond = Func({C}, std::move(CondBody));
    }
    G.Value = Func({I}, Ty->isFloat() ? clampF64(genF64(Body, 2, true))
                                      : genI64(Body, 2, true));
    G.Reduce = genReduceFunc(Ty);
    return singleLoop(Size, std::move(G));
  }

  /// k-means's assignment step as a shape: an argmin Reduce over a struct
  /// accumulator {v, i} (a loop-free float and the index), reduced with
  /// `if(a.v <= b.v, a, b)`, read at its i field.
  ExprRef argminIndex(const Env &E) {
    ExprRef AlignedArr;
    ExprRef Size = genSize(E, &AlignedArr);
    SymRef I = freshSym("i", Type::i64());
    Env Body = E;
    ++Body.LoopDepth;
    Body.I64s.push_back(I);
    Body.Aligned.clear();
    if (AlignedArr)
      Body.Aligned.emplace_back(AlignedArr, I);
    // Inside a loop the compared value depends on its index, as k-means's
    // distances depend on the row.
    ExprRef V = genF64(Body, 2, false);
    if (E.LoopDepth > 0)
      V = binop(BinOpKind::Sub, V, castTo(Type::f64(), E.I64s.back()));
    Generator G;
    G.Kind = GenKind::Reduce;
    G.Value = Func({I}, makeStruct({{"v", Type::f64()}, {"i", Type::i64()}},
                                   {clampF64(V), ExprRef(I)}));
    G.Reduce = binFunc("m", G.Value.Body->type(),
                       [](const ExprRef &A, const ExprRef &B) {
                         return select(binop(BinOpKind::Le, getField(A, "v"),
                                             getField(B, "v")),
                                       A, B);
                       });
    return getField(singleLoop(Size, std::move(G)), "i");
  }

  /// Bounds a float reduce value to [-1e6, 1e6] (and squashes NaN, which
  /// fmax drops). Reassociating a parallel sum of bounded terms keeps the
  /// absolute error far below the oracle tolerance; unbounded terms that
  /// cancel would not. Non-reduce float values stay unclamped — their
  /// evaluation order is fixed, so inf/NaN are compared exactly.
  ExprRef clampF64(ExprRef V) {
    return binop(BinOpKind::Min,
                 binop(BinOpKind::Max, std::move(V), constF64(-1.0e6)),
                 constF64(1.0e6));
  }

  /// Associative reduction operator over \p Ty. Float multiply is excluded
  /// (overflow at the DBL_MAX boundary is association-dependent); integer
  /// multiply is excluded (wrapping is UB in the executors' native code).
  Func genReduceFunc(const TypeRef &Ty) {
    if (Ty->isBool())
      return binFunc("r", Ty, [&](const ExprRef &A, const ExprRef &B) {
        return binop(chance(50) ? BinOpKind::And : BinOpKind::Or, A, B);
      });
    if (Ty->isStruct()) {
      // Argmin-style: keep the operand with the smaller first field; ties
      // keep the left (earlier) operand, which ordered merges preserve.
      return binFunc("r", Ty, [&](const ExprRef &A, const ExprRef &B) {
        const std::string &F0 = Ty->fields()[0].Name;
        return select(binop(BinOpKind::Le, getField(A, F0), getField(B, F0)),
                      A, B);
      });
    }
    switch (R.nextBelow(4)) {
    case 0:
      return binFunc("r", Ty, [&](const ExprRef &A, const ExprRef &B) {
        return binop(BinOpKind::Add, A, B);
      });
    case 1:
      return binFunc("r", Ty, [&](const ExprRef &A, const ExprRef &B) {
        return binop(BinOpKind::Min, A, B);
      });
    case 2:
      return binFunc("r", Ty, [&](const ExprRef &A, const ExprRef &B) {
        return binop(BinOpKind::Max, A, B);
      });
    default: // min/max spelled as a select (non-trivial reduce body)
      return binFunc("r", Ty, [&](const ExprRef &A, const ExprRef &B) {
        if (chance(50))
          return select(binop(BinOpKind::Le, A, B), A, B);
        return select(binop(BinOpKind::Lt, A, B), B, A);
      });
    }
  }

  /// Element-wise addition of \p A and \p B of type \p Ty, the reduce the
  /// interpreter folds in place: per array level a Collect over len(A);
  /// \p Swap puts B's element on the left of the scalar addition.
  ExprRef zipAdd(const ExprRef &A, const ExprRef &B, const TypeRef &Ty,
                 bool Swap) {
    if (!Ty->isArray())
      return Swap ? binop(BinOpKind::Add, B, A) : binop(BinOpKind::Add, A, B);
    Generator Z;
    Z.Kind = GenKind::Collect;
    Z.Value = indexFunc("z", [&](const ExprRef &K) {
      return zipAdd(arrayRead(A, K), arrayRead(B, K), Ty->elem(), Swap);
    });
    return singleLoop(arrayLen(A), std::move(Z));
  }

  /// A Collect of \p Size scalars of type \p Elem (loop-free bodies; float
  /// ones clamped, as every reduce value is). \p Aligned, when set, is an
  /// array of length \p Size the body may read at the index.
  ExprRef vectorRow(const Env &E, const ExprRef &Size, const TypeRef &Elem,
                    const ExprRef &Aligned) {
    Generator C;
    C.Kind = GenKind::Collect;
    SymRef K = freshSym("v", Type::i64());
    Env Row = E;
    Row.I64s.push_back(K);
    Row.Aligned.clear();
    if (Aligned)
      Row.Aligned.emplace_back(Aligned, K);
    C.Value = Func({K}, Elem->isFloat() ? clampF64(genF64(Row, 2, false))
                                        : genI64(Row, 2, false));
    return singleLoop(Size, std::move(C));
  }

  /// Value and reduce of an element-wise-add vector (Bucket)Reduce with
  /// index \p I over \p Body: 1 or 2 Collect levels of constant sizes, so
  /// every value has the accumulator's shape; sometimes an in-scope array
  /// instead (an input or an earlier root's closed loop, which the
  /// accumulator starts as and must never write through); and, as the
  /// adversarial site, a value that shrinks as the index grows, so a fold
  /// reads past its end.
  void genVectorReduce(Generator &G, const Env &Body, const SymRef &I) {
    TypeRef Elem = chance(50) ? Type::i64() : Type::f64();
    bool TwoLevels = chance(30);
    std::vector<ExprRef> Shared =
        TwoLevels ? std::vector<ExprRef>() : arraysOf(Body, Elem);
    ExprRef V;
    if (!Shared.empty() && chance(40)) {
      ExprRef Arr = Shared[R.nextBelow(Shared.size())];
      V = chance(50) ? Arr
                     : select(genBool(Body, 1), Arr,
                              vectorRow(Body, arrayLen(Arr), Elem, Arr));
    } else {
      ExprRef Size = constI64(irange(1, 4));
      if (Adversarial && !AdvPlaced && chance(30)) {
        AdvPlaced = true;
        Size = binop(BinOpKind::Max,
                     binop(BinOpKind::Sub, Size, ExprRef(I)), constI64(0));
      }
      if (TwoLevels) {
        Generator Outer;
        Outer.Kind = GenKind::Collect;
        SymRef J = freshSym("w", Type::i64());
        Env Row = Body;
        Row.I64s.push_back(J);
        Row.Aligned.clear();
        Outer.Value =
            Func({J}, vectorRow(Row, constI64(irange(1, 3)), Elem, nullptr));
        V = singleLoop(Size, std::move(Outer));
      } else {
        V = vectorRow(Body, Size, Elem, nullptr);
      }
    }
    G.Value = Func({I}, V);
    bool Swap = chance(50);
    G.Reduce = binFunc("r", V->type(), [&](const ExprRef &A, const ExprRef &B) {
      return zipAdd(A, B, V->type(), Swap);
    });
  }

  /// One full generator (any of the four kinds) for a loop over \p Size.
  Generator genGenerator(const Env &Outer, const ExprRef &AlignedArr,
                         bool AllowNested) {
    Generator G;
    uint64_t K = R.nextBelow(100);
    G.Kind = K < 35   ? GenKind::Collect
             : K < 65 ? GenKind::Reduce
             : K < 82 ? GenKind::BucketCollect
                      : GenKind::BucketReduce;

    SymRef I = freshSym("i", Type::i64());
    Env Body = Outer;
    ++Body.LoopDepth;
    Body.I64s.push_back(I);
    Body.Aligned.clear();
    if (AlignedArr)
      Body.Aligned.emplace_back(AlignedArr, I);

    // Value type: scalars mostly; structs, nested collects and vectors
    // that the reduce kinds add element-wise too.
    TypeRef VTy;
    uint64_t T = R.nextBelow(100);
    bool Nested = AllowNested && Body.LoopDepth < O.MaxLoopDepth;
    bool Vector = Nested && G.isReduce() && chance(20);
    if (Vector)
      genVectorReduce(G, Body, I);
    else if (T < 40)
      VTy = Type::i64();
    else if (T < 75)
      VTy = Type::f64();
    else if (T < 85 && !G.isReduce())
      VTy = Type::boolTy();
    else if (T < 93)
      VTy = Type::structOf({{"x", Type::i64()}, {"y", Type::f64()}});
    else if (Nested && G.Kind == GenKind::Collect)
      VTy = nullptr; // nested loop value; type comes from the inner loop
    else
      VTy = Type::i64();

    if (Vector) {
      // Value and reduce are set.
    } else if (!VTy) {
      ExprRef InnerAligned;
      Env Inner = Body;
      ExprRef InnerSize = genSize(Inner, &InnerAligned);
      Generator IG = genGenerator(Inner, InnerAligned, false);
      G.Value = Func({I}, singleLoop(InnerSize, std::move(IG)));
    } else if (VTy->isStruct()) {
      std::vector<Type::Field> Fields = VTy->fields();
      G.Value = Func({I}, makeStruct(Fields, {genI64(Body, 2, Nested),
                                              genF64(Body, 2, Nested)}));
    } else if (VTy->isFloat()) {
      ExprRef V = genF64(Body, 3, Nested);
      G.Value = Func({I}, G.isReduce() ? clampF64(std::move(V))
                                       : std::move(V));
    } else if (VTy->isBool()) {
      G.Value = Func({I}, genBool(Body, 2));
    } else {
      G.Value = Func({I}, genI64(Body, 3, Nested));
    }

    if (chance(50)) {
      SymRef C = freshSym("c", Type::i64());
      Env CondEnv = Outer;
      ++CondEnv.LoopDepth;
      CondEnv.I64s.push_back(C);
      CondEnv.Aligned.clear();
      if (AlignedArr)
        CondEnv.Aligned.emplace_back(AlignedArr, C);
      G.Cond = Func({C}, genBool(CondEnv, 2));
    }

    if (G.isBucket()) {
      SymRef KSym = freshSym("k", Type::i64());
      Env KeyEnv = Outer;
      ++KeyEnv.LoopDepth;
      KeyEnv.I64s.push_back(KSym);
      KeyEnv.Aligned.clear();
      if (AlignedArr)
        KeyEnv.Aligned.emplace_back(AlignedArr, KSym);
      bool Dense = chance(50);
      if (Dense) {
        int64_t NK = irange(1, 6);
        G.NumKeys = constI64(NK);
        if (Adversarial && !AdvPlaced && chance(30)) {
          // Unchecked dense key: traps once the range outgrows NumKeys.
          AdvPlaced = true;
          G.Key = Func({KSym}, ExprRef(KSym));
        } else {
          G.Key = Func({KSym},
                       binop(BinOpKind::Mod,
                             unop(UnOpKind::Abs, genI64(KeyEnv, 2, false)),
                             constI64(NK)));
        }
      } else {
        // Hash buckets: any i64 key, negative values included.
        G.Key = Func({KSym}, genI64(KeyEnv, 2, false));
      }
    }

    if (G.isReduce() && !Vector)
      G.Reduce = genReduceFunc(G.Value.Body->type());
    return G;
  }

  /// A root expression: one multiloop (sometimes multi-generator), its
  /// output optionally post-processed (LoopOut picks, field reads, flatten).
  ExprRef genRoot(Env &E) {
    ExprRef AlignedArr;
    ExprRef Size = genSize(E, &AlignedArr);
    std::vector<Generator> Gens;
    Gens.push_back(genGenerator(E, AlignedArr, true));
    if (chance(20))
      Gens.push_back(genGenerator(E, AlignedArr, false));
    ExprRef Loop = multiloop(Size, std::move(Gens));
    const auto *ML = cast<MultiloopExpr>(Loop);
    ExprRef Out = ML->isSingle() ? Loop
                                 : loopOut(Loop, static_cast<unsigned>(
                                                     R.nextBelow(ML->numGens())));
    // Post-processing keeps the surrounding program non-trivial.
    if (Out->type()->isStruct() && chance(40)) {
      const auto &Fields = Out->type()->fields();
      Out = getField(Out, Fields[R.nextBelow(Fields.size())].Name);
    }
    if (Out->type()->isArray() && Out->type()->elem()->isArray() &&
        chance(50))
      Out = flatten(Out);
    if (Out->type()->isArray() && Out->type()->elem()->isScalar() &&
        !Out->type()->elem()->isBool() && chance(25)) {
      // Fold the array away with a scalar summary read or length.
      if (chance(50))
        return arrayLen(Out);
      Env E2 = E;
      E2.Arrays.push_back(Out);
      return safeRead(E2, Out, 2);
    }
    return Out;
  }
};

} // namespace

FuzzCase dmll::fuzz::generateCase(uint64_t Seed, const GenOptions &O) {
  Gen G(Seed, O);
  FuzzCase C = G.run(Seed);
  std::vector<std::string> Errs = verify(C.P);
  if (!Errs.empty())
    fatalError("fuzz generator produced an ill-formed program (seed " +
               std::to_string(Seed) + "): " + Errs[0]);
  return C;
}
