//===- codegen/CppEmitter.cpp ----------------------------------*- C++ -*-===//

#include "codegen/CppEmitter.h"

#include "codegen/LowerCommon.h"
#include "ir/Builder.h"
#include "ir/Traversal.h"
#include "observe/Trace.h"
#include "support/Error.h"
#include "transform/loop/LoopTransforms.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_map>

using namespace dmll;

namespace {

//===----------------------------------------------------------------------===//
// Emitter.
//===----------------------------------------------------------------------===//

class Emitter {
public:
  Emitter(const Program &P, const CppEmitOptions &Opts) : P(P), Opts(Opts) {
    if (Opts.EnableLoopTransforms)
      Plan = planLoopTransforms(P, {}, Opts.Tuning);
  }

  std::string run();

private:
  const Program &P;
  CppEmitOptions Opts;
  LoopTransformPlan Plan; ///< per-generator loop-transform decisions
  int VarCounter = 0;
  int StructCounter = 0;
  // Canonical type string -> generated struct name, in creation order.
  std::map<std::string, std::string> StructNames;
  std::vector<std::pair<std::string, TypeRef>> StructOrder;
  std::unordered_map<const Expr *, std::vector<uint64_t>> FreeCache;
  std::unordered_map<const Expr *, std::vector<std::string>> LoopOutVars;

  /// One emission scope: a statement sink plus symbol bindings. Statements
  /// of an expression go to the innermost scope binding one of its free
  /// symbols (code motion); a scope's Code is spliced into its parent once
  /// complete, so hoisted statements always precede the loop they were
  /// hoisted out of.
  struct Scope {
    Scope *Parent = nullptr;
    std::string Code;
    std::string Indent;
    std::unordered_map<const Expr *, std::string> Memo;
    std::unordered_map<uint64_t, std::string> SymNames;

    bool binds(uint64_t Id) const { return SymNames.count(Id) != 0; }
    const std::string *lookup(uint64_t Id) const {
      for (const Scope *S = this; S; S = S->Parent) {
        auto It = S->SymNames.find(Id);
        if (It != S->SymNames.end())
          return &It->second;
      }
      return nullptr;
    }
  };

  std::string fresh(const char *Prefix) {
    return std::string(Prefix) + std::to_string(VarCounter++);
  }

  const std::vector<uint64_t> &freeOf(const ExprRef &E) {
    auto It = FreeCache.find(E.get());
    if (It != FreeCache.end())
      return It->second;
    auto S = freeSyms(E);
    return FreeCache.emplace(E.get(), std::vector<uint64_t>(S.begin(), S.end()))
        .first->second;
  }

  Scope &targetScope(const ExprRef &E, Scope &Cur) {
    const auto &Free = freeOf(E);
    Scope *S = &Cur;
    while (S->Parent) {
      for (uint64_t Id : Free)
        if (S->binds(Id))
          return *S;
      S = S->Parent;
    }
    return *S;
  }

  /// Memoized name for \p E visible from \p From: its own entry or any
  /// ancestor's (a value emitted in an enclosing scope is in scope here;
  /// one emitted in a sibling block is not).
  const std::string *findMemo(const Expr *E, Scope &From) {
    for (Scope *S = &From; S; S = S->Parent) {
      auto It = S->Memo.find(E);
      if (It != S->Memo.end())
        return &It->second;
    }
    return nullptr;
  }

  /// C++ type for \p Ty, registering generated struct types on demand.
  std::string cType(const TypeRef &Ty) {
    switch (Ty->getKind()) {
    case TypeKind::Bool:
      return "bool";
    case TypeKind::Int32:
      return "int32_t";
    case TypeKind::Int64:
      return "int64_t";
    case TypeKind::Float32:
      return "float";
    case TypeKind::Float64:
      return "double";
    case TypeKind::Array:
      return "std::vector<" + cType(Ty->elem()) + ">";
    case TypeKind::Struct: {
      std::string Key = Ty->str();
      auto It = StructNames.find(Key);
      if (It != StructNames.end())
        return It->second;
      // Register fields first so nested structs are defined before use.
      for (const Type::Field &F : Ty->fields())
        (void)cType(F.Ty);
      std::string Name = "S" + std::to_string(StructCounter++);
      StructNames.emplace(Key, Name);
      StructOrder.push_back({Name, Ty});
      return Name;
    }
    }
    dmllUnreachable("bad TypeKind");
  }

  static std::string litFloat(double V) {
    if (std::isinf(V))
      return V > 0 ? "INFINITY" : "(-INFINITY)";
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    std::string S(Buf);
    if (S.find('.') == std::string::npos &&
        S.find('e') == std::string::npos && S.find("INF") == std::string::npos)
      S += ".0";
    return S;
  }

  void stmt(Scope &S, const std::string &Line) {
    S.Code += S.Indent + Line + "\n";
  }

  /// Binds an expression to a fresh const variable in its target scope.
  std::string define(const ExprRef &E, Scope &Cur, const std::string &Init) {
    Scope &T = targetScope(E, Cur);
    if (const std::string *Name = findMemo(E.get(), T))
      return *Name;
    std::string Name = fresh("x");
    stmt(T, "const " + cType(E->type()) + " " + Name + " = " + Init + ";");
    T.Memo.emplace(E.get(), Name);
    return Name;
  }

  std::string emitBinOp(const BinOpExpr *B, Scope &Cur) {
    std::string L = emit(B->lhs(), Cur), R = emit(B->rhs(), Cur);
    std::string Ty = cType(B->type());
    auto C = [&](const std::string &X) { return "(" + Ty + ")(" + X + ")"; };
    switch (B->op()) {
    case BinOpKind::Add:
      return C(L) + " + " + C(R);
    case BinOpKind::Sub:
      return C(L) + " - " + C(R);
    case BinOpKind::Mul:
      return C(L) + " * " + C(R);
    case BinOpKind::Div:
      return C(L) + " / " + C(R);
    case BinOpKind::Mod:
      return B->type()->isFloat() ? "std::fmod(" + C(L) + ", " + C(R) + ")"
                                  : C(L) + " % " + C(R);
    case BinOpKind::Min:
      return "std::min<" + Ty + ">(" + L + ", " + R + ")";
    case BinOpKind::Max:
      return "std::max<" + Ty + ">(" + L + ", " + R + ")";
    case BinOpKind::Eq:
      return "(" + L + ") == (" + R + ")";
    case BinOpKind::Ne:
      return "(" + L + ") != (" + R + ")";
    case BinOpKind::Lt:
      return "(" + L + ") < (" + R + ")";
    case BinOpKind::Le:
      return "(" + L + ") <= (" + R + ")";
    case BinOpKind::Gt:
      return "(" + L + ") > (" + R + ")";
    case BinOpKind::Ge:
      return "(" + L + ") >= (" + R + ")";
    case BinOpKind::And:
      return "(" + L + ") && (" + R + ")";
    case BinOpKind::Or:
      return "(" + L + ") || (" + R + ")";
    }
    dmllUnreachable("bad BinOpKind");
  }

  std::string emitUnOp(const UnOpExpr *U, Scope &Cur) {
    std::string A = emit(U->operand(), Cur);
    switch (U->op()) {
    case UnOpKind::Neg:
      return "-(" + A + ")";
    case UnOpKind::Not:
      return "!(" + A + ")";
    case UnOpKind::Exp:
      return "std::exp((double)(" + A + "))";
    case UnOpKind::Log:
      return "std::log((double)(" + A + "))";
    case UnOpKind::Sqrt:
      return "std::sqrt((double)(" + A + "))";
    case UnOpKind::Abs:
      return U->type()->isFloat() ? "std::fabs(" + A + ")"
                                  : "std::llabs(" + A + ")";
    }
    dmllUnreachable("bad UnOpKind");
  }

  /// Emits \p E and returns a C++ expression (a variable name for anything
  /// non-trivial).
  std::string emit(const ExprRef &E, Scope &Cur) {
    switch (E->kind()) {
    case ExprKind::ConstInt:
      return "INT64_C(" + std::to_string(cast<ConstIntExpr>(E)->value()) +
             ")";
    case ExprKind::ConstFloat:
      return litFloat(cast<ConstFloatExpr>(E)->value());
    case ExprKind::ConstBool:
      return cast<ConstBoolExpr>(E)->value() ? "true" : "false";
    case ExprKind::Sym: {
      const std::string *Name = Cur.lookup(cast<SymExpr>(E)->id());
      if (!Name)
        fatalError("codegen: unbound symbol " + cast<SymExpr>(E)->name());
      return *Name;
    }
    case ExprKind::Input:
      return "in_" + cast<InputExpr>(E)->name();
    case ExprKind::BinOp:
      return define(E, Cur, emitBinOp(cast<BinOpExpr>(E), Cur));
    case ExprKind::UnOp:
      return define(E, Cur, emitUnOp(cast<UnOpExpr>(E), Cur));
    case ExprKind::Select: {
      const auto *S = cast<SelectExpr>(E);
      // Note: operands are emitted as (possibly hoisted) values, so both
      // arms are evaluated; generated arms must be trap-free (pure pattern
      // code is).
      std::string C = emit(S->cond(), Cur);
      std::string T = emit(S->trueVal(), Cur);
      std::string F = emit(S->falseVal(), Cur);
      if (E->type()->isStruct()) {
        // A whole-struct ternary compiles to stack stores that keep the
        // value out of registers across loop iterations (the k-means
        // argmin accumulator ran ~35% slower than the hand-written
        // two-register form because of this — docs/CODEGEN.md). Selecting
        // each field yields per-field cmovs instead.
        std::string Init = cType(E->type()) + "{";
        for (size_t I = 0; I < E->type()->fields().size(); ++I) {
          const Type::Field &Fl = E->type()->fields()[I];
          if (I)
            Init += ", ";
          Init += "(" + C + ") ? (" + T + "." + Fl.Name + ") : (" + F +
                  "." + Fl.Name + ")";
        }
        return define(E, Cur, Init + "}");
      }
      return define(E, Cur, "(" + C + ") ? (" + T + ") : (" + F + ")");
    }
    case ExprKind::Cast: {
      const auto *C = cast<CastExpr>(E);
      std::string A = emit(C->operand(), Cur);
      if (E->type()->isBool())
        return define(E, Cur, "(" + A + ") != 0");
      return define(E, Cur, "(" + cType(E->type()) + ")(" + A + ")");
    }
    case ExprKind::ArrayRead: {
      const auto *R = cast<ArrayReadExpr>(E);
      std::string Arr = emit(R->array(), Cur);
      std::string Idx = emit(R->index(), Cur);
      return define(E, Cur, Arr + "[(size_t)(" + Idx + ")]");
    }
    case ExprKind::ArrayLen:
      return define(E, Cur,
                    "(int64_t)" + emit(cast<ArrayLenExpr>(E)->array(), Cur) +
                        ".size()");
    case ExprKind::MakeStruct: {
      std::string Init = cType(E->type()) + "{";
      for (size_t I = 0; I < E->ops().size(); ++I) {
        if (I)
          Init += ", ";
        Init += emit(E->ops()[I], Cur);
      }
      return define(E, Cur, Init + "}");
    }
    case ExprKind::GetField: {
      const auto *G = cast<GetFieldExpr>(E);
      return emit(G->base(), Cur) + "." + G->field();
    }
    case ExprKind::Flatten:
      return emitFlatten(cast<FlattenExpr>(E), E, Cur);
    case ExprKind::Multiloop:
      return emitLoop(cast<MultiloopExpr>(E), E, Cur);
    case ExprKind::LoopOut: {
      const auto *LO = cast<LoopOutExpr>(E);
      emit(LO->loop(), Cur); // ensure the loop is materialized
      auto It = LoopOutVars.find(LO->loop().get());
      assert(It != LoopOutVars.end() && It->second.size() > LO->index());
      return It->second[LO->index()];
    }
    }
    dmllUnreachable("bad ExprKind");
  }

  std::string emitFlatten(const FlattenExpr *F, const ExprRef &E,
                          Scope &Cur) {
    Scope &T = targetScope(E, Cur);
    if (const std::string *Name = findMemo(E.get(), T))
      return *Name;
    std::string Arr = emit(F->array(), Cur);
    std::string Out = fresh("flat");
    stmt(T, cType(E->type()) + " " + Out + ";");
    stmt(T, "for (const auto &inner_ : " + Arr + ")");
    stmt(T, "  " + Out + ".insert(" + Out + ".end(), inner_.begin(), " +
                "inner_.end());");
    T.Memo.emplace(E.get(), Out);
    return Out;
  }

  /// True when \p R is the scalar addition (a, b) => a + b: the accumulator
  /// can start at 0 with no first-element flag, letting the compiler
  /// vectorize the reduction loop. Shared with the kernel engine.
  static bool isScalarAdd(const Func &R) { return lower::isScalarAddReduce(R); }

  /// How the loop-transform plan modifies an in-place add (all defaults
  /// reproduce the untransformed emission).
  struct InPlaceOpts {
    bool SkipInit = false;   ///< accumulator pre-sized at the loop header
    std::string Flat;        ///< non-empty: accumulate into this flat buffer
    std::string FlatN2;      ///< emitted inner size (row stride of Flat)
    bool SimdInner = false;  ///< inner loop body is simd-safe
  };

  /// Emits the in-place accumulation `Target[k](+)= f(k)` for the value's
  /// Collect \p Levels that lower::matchInPlaceAdd found, with no
  /// per-iteration vector allocations (sizes first so an empty accumulator
  /// can be sized).
  void emitInPlaceAdd(const std::vector<const MultiloopExpr *> &Levels,
                      const std::string &Target, Scope &Blk,
                      const std::string &Guard, const InPlaceOpts &IP) {
    const MultiloopExpr *L1 = Levels[0];
    std::string N1 = emit(L1->size(), Blk);
    if (!IP.Flat.empty() && Levels.size() == 2) {
      // Flattened two-level accumulator: `Flat[k1 * n2 + k2] += v`. Both
      // scopes are built before any loop text so statements hoisted to the
      // k1 level land above the inner loop (the nested-vector path below
      // re-evaluates them per inner iteration).
      const MultiloopExpr *L2 = Levels[1];
      std::string K1 = fresh("k"), K2 = fresh("k");
      Scope Inner;
      Inner.Parent = &Blk;
      Inner.Indent = Guard + "  ";
      Inner.SymNames[L1->gen().Value.Params[0]->id()] = K1;
      Scope In2;
      In2.Parent = &Inner;
      In2.Indent = Inner.Indent + "  ";
      In2.SymNames[L2->gen().Value.Params[0]->id()] = K2;
      std::string V = emit(L2->gen().Value.Body, In2);
      Blk.Code += Guard + "for (int64_t " + K1 + " = 0; " + K1 + " < " + N1 +
                  "; ++" + K1 + ") {\n";
      Blk.Code += Inner.Code;
      if (IP.SimdInner)
        Blk.Code += Inner.Indent + "#pragma omp simd\n";
      Blk.Code += Inner.Indent + "for (int64_t " + K2 + " = 0; " + K2 +
                  " < " + IP.FlatN2 + "; ++" + K2 + ") {\n";
      Blk.Code += In2.Code;
      Blk.Code += In2.Indent + IP.Flat + "[(size_t)(" + K1 + " * " +
                  IP.FlatN2 + " + " + K2 + ")] += " + V + ";\n";
      Blk.Code += Inner.Indent + "}\n" + Guard + "}\n";
      return;
    }
    if (!IP.SkipInit)
      Blk.Code += Guard + "if (" + Target + ".empty()) " + Target +
                  ".resize((size_t)(" + N1 + "));\n";
    std::string K1 = fresh("k");
    Blk.Code += Guard + "for (int64_t " + K1 + " = 0; " + K1 + " < " + N1 +
                "; ++" + K1 + ") {\n";
    Scope Inner;
    Inner.Parent = &Blk;
    Inner.Indent = Guard + "  ";
    Inner.SymNames[L1->gen().Value.Params[0]->id()] = K1;
    if (Levels.size() == 1) {
      std::string V = emit(L1->gen().Value.Body, Inner);
      Inner.Code += Inner.Indent + Target + "[" + K1 + "] += " + V + ";\n";
    } else {
      const MultiloopExpr *L2 = Levels[1];
      std::string N2 = emit(L2->size(), Inner);
      Inner.Code += Inner.Indent + "if (" + Target + "[" + K1 +
                    "].empty()) " + Target + "[" + K1 + "].resize((size_t)(" +
                    N2 + "));\n";
      std::string K2 = fresh("k");
      Inner.Code += Inner.Indent + "for (int64_t " + K2 + " = 0; " + K2 +
                    " < " + N2 + "; ++" + K2 + ") {\n";
      Scope In2;
      In2.Parent = &Inner;
      In2.Indent = Inner.Indent + "  ";
      In2.SymNames[L2->gen().Value.Params[0]->id()] = K2;
      std::string V = emit(L2->gen().Value.Body, In2);
      In2.Code += In2.Indent + Target + "[" + K1 + "][" + K2 + "] += " + V +
                  ";\n";
      Inner.Code += In2.Code + Inner.Indent + "}\n";
    }
    Blk.Code += Inner.Code + Guard + "}\n";
  }

  /// Emits one multiloop; returns the use-name of output 0 and records all
  /// outputs in LoopOutVars.
  std::string emitLoop(const MultiloopExpr *ML, const ExprRef &E,
                       Scope &Cur) {
    Scope &T = targetScope(E, Cur);
    if (const std::string *Name = findMemo(E.get(), T))
      return *Name;

    std::string N = emit(ML->size(), Cur);
    std::string Idx = fresh("i");

    // Per-generator loop-transform decisions (nullptr: emit as before).
    const std::vector<GenLoopPlan> *Plans =
        Opts.EnableLoopTransforms ? Plan.plansFor(ML) : nullptr;
    auto planOf = [&](size_t G) { return Plans ? (*Plans)[G] : GenLoopPlan(); };

    // Accumulator declarations (into T, before the loop).
    struct GenState {
      std::string Result; // final use-name
      std::string Acc, Has, Keys, Vals, Map;
      std::string NumKeys;
      std::string ValTy;
      // Hoisted in-place-add accumulator state (HoistAccInit/FlattenAcc).
      bool HoistedInit = false;
      std::string Flat, FlatN1, FlatN2;
      bool SimdInner = false;
    };
    std::vector<GenState> States(ML->numGens());
    // Hash-bucket generators with alpha-equal key and condition share one
    // key lookup per iteration (one map probe feeds all Q1 aggregates).
    std::vector<int> SharedLeader(ML->numGens(), -1);
    for (size_t G = 0; G < ML->numGens(); ++G) {
      const Generator &Gen = ML->gen(G);
      if (!Gen.isBucket() || Gen.NumKeys)
        continue;
      for (size_t L = 0; L < G; ++L) {
        const Generator &Lead = ML->gen(L);
        if (Lead.isBucket() && !Lead.NumKeys && SharedLeader[L] < 0 &&
            funcEq(Gen.Key, Lead.Key) && funcEq(Gen.Cond, Lead.Cond)) {
          SharedLeader[G] = static_cast<int>(L);
          break;
        }
      }
    }
    for (size_t G = 0; G < ML->numGens(); ++G) {
      const Generator &Gen = ML->gen(G);
      GenState &St = States[G];
      St.ValTy = cType(Gen.Value.Body->type());
      switch (Gen.Kind) {
      case GenKind::Collect: {
        St.Acc = fresh("out");
        // Nested loops re-execute per outer iteration: declare the buffer
        // once at the function root and clear it here, so its capacity is
        // reused (the aggressive buffer reuse of hand-optimized code).
        Scope *Root = &T;
        while (Root->Parent)
          Root = Root->Parent;
        stmt(*Root, "std::vector<" + St.ValTy + "> " + St.Acc + ";");
        if (planOf(G).IndexedStore) {
          // Every iteration writes its slot (condition is trivially true):
          // size the buffer once and store by index, so the loop body has
          // no push_back bookkeeping and can take a simd hint.
          stmt(T, St.Acc + ".resize((size_t)(" + N + "));");
        } else {
          if (Root != &T)
            stmt(T, St.Acc + ".clear();");
          if (isTrueCond(Gen.Cond))
            stmt(T, St.Acc + ".reserve((size_t)(" + N + "));");
        }
        St.Result = St.Acc;
        break;
      }
      case GenKind::Reduce:
        St.Acc = fresh("acc");
        St.Has = fresh("has");
        stmt(T, St.ValTy + " " + St.Acc + "{};");
        stmt(T, "bool " + St.Has + " = false;");
        St.Result = St.Acc;
        if (planOf(G).HoistAccInit) {
          // Size the in-place-add accumulator once at the loop header
          // instead of checking emptiness per iteration. Only legal when
          // the level sizes are loop-invariant (resolvable at T) — and the
          // `N > 0` guard keeps an empty loop's accumulator empty, exactly
          // as the per-iteration path leaves it.
          auto Levels = lower::matchInPlaceAdd(Gen).Levels;
          auto Resolvable = [&](const ExprRef &Sz) {
            for (uint64_t Id : freeOf(Sz))
              if (!T.lookup(Id))
                return false;
            return true;
          };
          if (!Levels.empty() && Resolvable(Levels[0]->size()) &&
              (Levels.size() == 1 ||
               (planOf(G).FlattenAcc && Resolvable(Levels[1]->size())))) {
            St.FlatN1 = emit(Levels[0]->size(), Cur);
            if (Levels.size() == 2) {
              // Two-level accumulator: accumulate into one flat row-major
              // buffer for the duration of the loop (materialized back
              // into the nested vector after the loop closes).
              St.FlatN2 = emit(Levels[1]->size(), Cur);
              St.Flat = fresh("flatacc");
              std::string ETy =
                  cType(Levels[1]->gen().Value.Body->type());
              stmt(T, "std::vector<" + ETy + "> " + St.Flat + ";");
              stmt(T, "if (" + N + " > 0) " + St.Flat +
                          ".assign((size_t)(" + St.FlatN1 +
                          ") * (size_t)(" + St.FlatN2 + "), " + ETy +
                          "{});");
              St.SimdInner =
                  simdSafeLoopBody(Levels[1]->gen().Value.Body,
                                   Levels[1]->gen().Value.Params[0]);
            } else {
              stmt(T, "if (" + N + " > 0) " + St.Acc + ".resize((size_t)(" +
                          St.FlatN1 + "));");
            }
            St.HoistedInit = true;
          }
        }
        break;
      case GenKind::BucketCollect:
      case GenKind::BucketReduce: {
        bool IsReduce = Gen.Kind == GenKind::BucketReduce;
        std::string Elem =
            IsReduce ? St.ValTy : "std::vector<" + St.ValTy + ">";
        St.Vals = fresh("buckets");
        if (Gen.NumKeys) {
          St.NumKeys = emit(Gen.NumKeys, Cur);
          stmt(T, "std::vector<" + Elem + "> " + St.Vals + "((size_t)(" +
                      St.NumKeys + "));");
          if (IsReduce) {
            St.Has = fresh("bhas");
            stmt(T, "std::vector<uint8_t> " + St.Has + "((size_t)(" +
                        St.NumKeys + "), 0);");
          }
          St.Result = St.Vals;
        } else if (SharedLeader[G] >= 0) {
          St.Map = States[static_cast<size_t>(SharedLeader[G])].Map;
          St.Keys = States[static_cast<size_t>(SharedLeader[G])].Keys;
          stmt(T, "std::vector<" + Elem + "> " + St.Vals + ";");
        } else {
          St.Map = fresh("kmap");
          St.Keys = fresh("keys");
          stmt(T, "DmllMap " + St.Map + ";");
          stmt(T, "std::vector<int64_t> " + St.Keys + ";");
          stmt(T, "std::vector<" + Elem + "> " + St.Vals + ";");
          // Result assembled after the loop.
        }
        break;
      }
      }
    }

    // Strip-mined scalar-add reduction (single generator): compute W values
    // into a lane buffer under `#pragma omp simd` — each lane writes its
    // own slot, so vectorizing is legal — then fold the lanes into the
    // accumulator sequentially in index order. The accumulation order is
    // exactly the plain loop's, so results stay bit-identical (floats
    // included); a scalar loop handles the tail.
    if (ML->numGens() == 1 && planOf(0).StripMine &&
        ML->gen().Kind == GenKind::Reduce && isTrueCond(ML->gen().Cond) &&
        isScalarAdd(ML->gen().Reduce)) {
      const Generator &Gen = ML->gen();
      GenState &St = States[0];
      const char *W = "8";
      std::string Lanes = fresh("lanes");
      std::string L = fresh("l"), L2 = fresh("l"), LI = fresh("li");
      // Build both bodies before any loop text so hoisted loop-invariant
      // statements land above the loops, in scope for both.
      Scope LaneS;
      LaneS.Parent = &T;
      LaneS.Indent = T.Indent + "    ";
      LaneS.SymNames[Gen.Value.Params[0]->id()] = LI;
      std::string V = emit(Gen.Value.Body, LaneS);
      Scope Tail;
      Tail.Parent = &T;
      Tail.Indent = T.Indent + "  ";
      Tail.SymNames[Gen.Value.Params[0]->id()] = Idx;
      std::string VT = emit(Gen.Value.Body, Tail);
      std::string BI = T.Indent + "  ";
      stmt(T, "int64_t " + Idx + " = 0;");
      stmt(T, "for (; " + Idx + " + " + W + " <= " + N + "; " + Idx +
                  " += " + W + ") {");
      T.Code += BI + St.ValTy + " " + Lanes + "[" + W + "];\n";
      T.Code += BI + "#pragma omp simd\n";
      T.Code += BI + "for (int " + L + " = 0; " + L + " < " + W + "; ++" +
                L + ") {\n";
      T.Code += LaneS.Indent + "const int64_t " + LI + " = " + Idx + " + " +
                L + ";\n";
      T.Code += LaneS.Code;
      T.Code += LaneS.Indent + Lanes + "[" + L + "] = " + V + ";\n";
      T.Code += BI + "}\n";
      T.Code += BI + "for (int " + L2 + " = 0; " + L2 + " < " + W + "; ++" +
                L2 + ") " + St.Acc + " += " + Lanes + "[" + L2 + "];\n";
      stmt(T, "}");
      stmt(T, "for (; " + Idx + " < " + N + "; ++" + Idx + ") {");
      T.Code += Tail.Code;
      T.Code += Tail.Indent + St.Acc + " += " + VT + ";\n";
      stmt(T, "}");
      LoopOutVars[ML] = {St.Result};
      T.Memo.emplace(E.get(), St.Result);
      return St.Result;
    }

    // Loop body.
    Scope Body;
    Body.Parent = &T;
    Body.Indent = T.Indent + "  ";
    for (const Generator &Gen : ML->gens())
      for (const Func *F : {&Gen.Cond, &Gen.Key, &Gen.Value})
        if (F->isSet())
          Body.SymNames[F->Params[0]->id()] = Idx;

    for (size_t G = 0; G < ML->numGens(); ++G) {
      if (SharedLeader[G] >= 0)
        continue; // emitted with its leader below
      // This generator plus any hash-bucket generators sharing its key.
      std::vector<size_t> Group{G};
      for (size_t M = G + 1; M < ML->numGens(); ++M)
        if (SharedLeader[M] == static_cast<int>(G))
          Group.push_back(M);
      const Generator &Gen = ML->gen(G);
      GenState &St = States[G];
      bool Trivial = isTrueCond(Gen.Cond);
      std::string CondUse =
          Trivial ? std::string() : emit(Gen.Cond.Body, Body);
      std::string Guard = Body.Indent;
      std::string Close;
      if (!Trivial) {
        stmt(Body, "if (" + CondUse + ") {");
        Guard += "  ";
        Close = Body.Indent + "}";
      }
      // Accumulation block. When a guard exists, the block re-binds the
      // loop index so value/key statements land inside the `if`; with a
      // trivial condition they go to the shared loop body, letting fused
      // generators share work (the inlined `assigned` of Fig. 5 is
      // computed once per index across the sum and count reduces).
      Scope Blk;
      Blk.Parent = &Body;
      Blk.Indent = Guard;
      if (!Trivial)
        for (size_t M : Group)
          for (const Func *F : {&ML->gen(M).Key, &ML->gen(M).Value})
            if (F->isSet())
              Blk.SymNames[F->Params[0]->id()] = Idx;

      auto emitReduceApply = [&](const Generator &RGen,
                                 const std::string &AccExpr,
                                 const std::string &NewExpr,
                                 const std::string &Indent) {
        Scope RS;
        RS.Parent = &Blk;
        RS.Indent = Indent;
        RS.SymNames[RGen.Reduce.Params[0]->id()] = AccExpr;
        RS.SymNames[RGen.Reduce.Params[1]->id()] = NewExpr;
        std::string R = emit(RGen.Reduce.Body, RS);
        return RS.Code + Indent + AccExpr + " = " + R + ";\n";
      };

      switch (Gen.Kind) {
      case GenKind::Collect: {
        std::string V = emit(Gen.Value.Body, Blk);
        if (planOf(G).IndexedStore)
          Blk.Code += Guard + St.Acc + "[(size_t)(" + Idx + ")] = " + V +
                      ";\n";
        else
          Blk.Code += Guard + St.Acc + ".push_back(" + V + ");\n";
        break;
      }
      case GenKind::Reduce: {
        auto Levels = lower::matchInPlaceAdd(Gen).Levels;
        if (!Levels.empty()) {
          InPlaceOpts IP;
          IP.SkipInit = St.HoistedInit;
          IP.Flat = St.Flat;
          IP.FlatN2 = St.FlatN2;
          IP.SimdInner = St.SimdInner;
          emitInPlaceAdd(Levels, St.Acc, Blk, Guard, IP);
          break;
        }
        std::string V = emit(Gen.Value.Body, Blk);
        if (isScalarAdd(Gen.Reduce)) {
          Blk.Code += Guard + St.Acc + " += " + V + ";\n";
          break;
        }
        Blk.Code += Guard + "if (!" + St.Has + ") { " + St.Acc + " = " + V +
                    "; " + St.Has + " = true; } else {\n";
        Blk.Code += emitReduceApply(Gen, St.Acc, V, Guard + "  ");
        Blk.Code += Guard + "}\n";
        break;
      }
      case GenKind::BucketCollect:
      case GenKind::BucketReduce: {
        std::string Key = emit(Gen.Key.Body, Blk);
        std::string K = fresh("k");
        if (Gen.NumKeys) {
          bool IsReduce = Gen.Kind == GenKind::BucketReduce;
          auto Levels = IsReduce ? lower::matchInPlaceAdd(Gen).Levels
                                 : std::vector<const MultiloopExpr *>();
          if (!Levels.empty()) {
            Blk.Code += Guard + "const size_t " + K + " = (size_t)(" + Key +
                        ");\n";
            emitInPlaceAdd(Levels, St.Vals + "[" + K + "]", Blk, Guard,
                           InPlaceOpts());
            break;
          }
          std::string V = emit(Gen.Value.Body, Blk);
          Blk.Code += Guard + "const size_t " + K + " = (size_t)(" + Key +
                      ");\n";
          if (IsReduce && isScalarAdd(Gen.Reduce)) {
            Blk.Code += Guard + St.Vals + "[" + K + "] += " + V + ";\n";
          } else if (IsReduce) {
            Blk.Code += Guard + "if (!" + St.Has + "[" + K + "]) { " +
                        St.Vals + "[" + K + "] = " + V + "; " + St.Has +
                        "[" + K + "] = 1; } else {\n";
            Blk.Code += emitReduceApply(Gen, St.Vals + "[" + K + "]", V,
                                        Guard + "  ");
            Blk.Code += Guard + "}\n";
          } else {
            Blk.Code += Guard + St.Vals + "[" + K + "].push_back(" + V +
                        ");\n";
          }
          break;
        }
        // Hash mode: one probe for the whole group.
        std::string Ins = fresh("ins");
        std::string SlotV = fresh("slot");
        Blk.Code += Guard + "bool " + Ins + " = false;\n";
        Blk.Code += Guard + "const size_t " + SlotV + " = " + St.Map +
                    ".getOrInsert((int64_t)(" + Key + "), " + St.Keys +
                    ".size(), &" + Ins + ");\n";
        Blk.Code += Guard + "if (" + Ins + ") " + St.Keys +
                    ".push_back((int64_t)(" + Key + "));\n";
        for (size_t M : Group) {
          const Generator &MG = ML->gen(M);
          GenState &MSt = States[M];
          bool MReduce = MG.Kind == GenKind::BucketReduce;
          std::string V = emit(MG.Value.Body, Blk);
          Blk.Code += Guard + "if (" + Ins + ") {\n";
          if (MReduce)
            Blk.Code += Guard + "  " + MSt.Vals + ".push_back(" + V +
                        ");\n";
          else
            Blk.Code += Guard + "  " + MSt.Vals + ".emplace_back();\n" +
                        Guard + "  " + MSt.Vals + ".back().push_back(" + V +
                        ");\n";
          Blk.Code += Guard + "} else {\n";
          if (MReduce)
            Blk.Code += emitReduceApply(MG, MSt.Vals + "[" + SlotV + "]", V,
                                        Guard + "  ");
          else
            Blk.Code += Guard + "  " + MSt.Vals + "[" + SlotV +
                        "].push_back(" + V + ");\n";
          Blk.Code += Guard + "}\n";
        }
        break;
      }
      }
      Body.Code += Blk.Code;
      if (!Trivial)
        Body.Code += Close + "\n";
    }

    // The whole loop takes `#pragma omp simd` only when every generator is
    // a simd-safe indexed-store collect: iterations then write disjoint
    // slots with no push_back or reduction carried between them. (A reduce
    // under a plain simd pragma would license float reassociation.)
    bool LoopSimd = Plans != nullptr && ML->numGens() > 0;
    for (size_t G = 0; LoopSimd && G < ML->numGens(); ++G)
      LoopSimd = planOf(G).IndexedStore && planOf(G).SimdHint;
    if (LoopSimd)
      stmt(T, "#pragma omp simd");
    stmt(T, "for (int64_t " + Idx + " = 0; " + Idx + " < " + N + "; ++" +
                Idx + ") {");
    T.Code += Body.Code;
    stmt(T, "}");

    // Assemble results (hash buckets become {keys, values} structs).
    std::vector<std::string> Outs;
    for (size_t G = 0; G < ML->numGens(); ++G) {
      const Generator &Gen = ML->gen(G);
      GenState &St = States[G];
      if (!St.Flat.empty()) {
        // Materialize the flattened accumulator back into the nested
        // vector. When the loop ran zero iterations the flat buffer was
        // never sized, and the accumulator stays empty — same as the
        // untransformed emission.
        std::string R = fresh("r");
        stmt(T, "if (!" + St.Flat + ".empty()) {");
        stmt(T, "  " + St.Acc + ".resize((size_t)(" + St.FlatN1 + "));");
        stmt(T, "  for (int64_t " + R + " = 0; " + R + " < " + St.FlatN1 +
                    "; ++" + R + ")");
        stmt(T, "    " + St.Acc + "[(size_t)(" + R + ")].assign(" + St.Flat +
                    ".begin() + " + R + " * " + St.FlatN2 + ", " + St.Flat +
                    ".begin() + (" + R + " + 1) * " + St.FlatN2 + ");");
        stmt(T, "}");
      }
      if (Gen.isBucket() && !Gen.NumKeys) {
        std::string STy = cType(Gen.resultType());
        std::string Res = fresh("grp");
        stmt(T, STy + " " + Res + "{std::move(" + St.Keys + "), std::move(" +
                    St.Vals + ")};");
        St.Result = Res;
      }
      Outs.push_back(St.Result);
    }
    LoopOutVars[ML] = Outs;
    T.Memo.emplace(E.get(), Outs[0]);
    return Outs[0];
  }

  //===--------------------------------------------------------------------===//
  // Input loading / checksum / main().
  //===--------------------------------------------------------------------===//

  void emitLoadLeaf(std::ostringstream &OS, const std::string &Target,
                    const TypeRef &Ty) {
    if (Ty->isScalar()) {
      OS << "  rdScalar(f, " << Target << ");\n";
      return;
    }
    if (Ty->isArray() && Ty->elem()->isScalar()) {
      OS << "  rdArray(f, " << Target << ");\n";
      return;
    }
    if (Ty->isStruct()) {
      for (const Type::Field &F : Ty->fields())
        emitLoadLeaf(OS, Target + "." + F.Name, F.Ty);
      return;
    }
    if (Ty->isArray() && Ty->elem()->isStruct()) {
      // Columns per field, then assemble AoS.
      std::string Prefix = "col" + std::to_string(VarCounter++) + "_";
      const auto &Fields = Ty->elem()->fields();
      OS << "  {\n";
      for (size_t F = 0; F < Fields.size(); ++F) {
        OS << "    std::vector<" << cType(Fields[F].Ty) << "> " << Prefix
           << F << ";\n";
        OS << "    rdArray(f, " << Prefix << F << ");\n";
      }
      OS << "    " << Target << ".resize(" << Prefix << "0.size());\n";
      OS << "    for (size_t e = 0; e < " << Target << ".size(); ++e) "
         << Target << "[e] = " << cType(Ty->elem()) << "{";
      for (size_t F = 0; F < Fields.size(); ++F) {
        if (F)
          OS << ", ";
        OS << Prefix << F << "[e]";
      }
      OS << "};\n  }\n";
      return;
    }
    fatalError("codegen: unsupported input type " + Ty->str());
  }

  std::string emitStructDefs() {
    std::ostringstream OS;
    for (const auto &[Name, Ty] : StructOrder) {
      OS << "struct " << Name << " {\n";
      for (const Type::Field &F : Ty->fields())
        OS << "  " << cType(F.Ty) << " " << F.Name << ";\n";
      OS << "};\n";
    }
    // Checksum overloads for every struct.
    for (const auto &[Name, Ty] : StructOrder)
      OS << "static void chk(const " << Name << " &, Acc &);\n";
    for (const auto &[Name, Ty] : StructOrder) {
      OS << "static void chk(const " << Name << " &s, Acc &a) {";
      for (const Type::Field &F : Ty->fields())
        OS << " chk(s." << F.Name << ", a);";
      OS << " }\n";
    }
    return OS.str();
  }
};

std::string Emitter::run() {
  // Emit the computation first so all struct types are registered.
  Scope FnBody;
  FnBody.Indent = "  ";
  std::string ResultUse = emit(P.Result, FnBody);
  std::string ResultTy = cType(P.Result->type());

  std::ostringstream Decls;
  for (const auto &In : P.Inputs)
    Decls << "static " << cType(In->type()) << " in_" << In->name() << ";\n";

  std::ostringstream Load;
  for (const auto &In : P.Inputs)
    emitLoadLeaf(Load, "in_" + In->name(), In->type());

  std::ostringstream OS;
  OS << "// Generated by the DMLL C++ emitter (Brown et al., CGO 2016 "
        "reproduction).\n"
     << "#include <cstdint>\n#include <cstdio>\n#include <cstdlib>\n"
     << "#include <cmath>\n#include <cstring>\n#include <vector>\n"
     << "#include <unordered_map>\n#include <algorithm>\n"
     << "#include <chrono>\n#include <utility>\n\n"
     << "struct Acc { long long count = 0; double sum = 0, abs = 0; };\n"
     << "static void chk(double v, Acc &a) { ++a.count; a.sum += v; a.abs "
        "+= std::fabs(v); }\n"
     << "static void chk(float v, Acc &a) { chk((double)v, a); }\n"
     << "static void chk(int64_t v, Acc &a) { chk((double)v, a); }\n"
     << "static void chk(int32_t v, Acc &a) { chk((double)v, a); }\n"
     << "static void chk(bool v, Acc &a) { chk(v ? 1.0 : 0.0, a); }\n"
     << "template <class T> static void chk(const std::vector<T> &v, Acc "
        "&a) { for (const T &x : v) chk(x, a); }\n"
     << "// Open-addressing int64 -> index map (faster than the C++11\n"
        "// standard library hash map; Section 6 of the paper).\n"
        "struct DmllMap {\n"
        "  std::vector<int64_t> K; std::vector<size_t> V;\n"
        "  std::vector<uint8_t> Used; size_t Mask = 0, Count = 0;\n"
        "  DmllMap() { rehash(64); }\n"
        "  void rehash(size_t n) {\n"
        "    std::vector<int64_t> ok(std::move(K));\n"
        "    std::vector<size_t> ov(std::move(V));\n"
        "    std::vector<uint8_t> ou(std::move(Used));\n"
        "    K.assign(n, 0); V.assign(n, 0); Used.assign(n, 0);\n"
        "    Mask = n - 1; Count = 0;\n"
        "    for (size_t i = 0; i < ou.size(); ++i)\n"
        "      if (ou[i]) insert(ok[i], ov[i]);\n"
        "  }\n"
        "  // Returns the slot's value; *inserted reports first occurrence.\n"
        "  size_t getOrInsert(int64_t k, size_t v, bool *inserted) {\n"
        "    if ((Count + 1) * 4 > (Mask + 1) * 3) rehash((Mask + 1) * 2);\n"
        "    size_t h = (size_t)(k * 0x9e3779b97f4a7c15LL) & Mask;\n"
        "    while (Used[h]) {\n"
        "      if (K[h] == k) { *inserted = false; return V[h]; }\n"
        "      h = (h + 1) & Mask;\n"
        "    }\n"
        "    Used[h] = 1; K[h] = k; V[h] = v; ++Count;\n"
        "    *inserted = true; return v;\n"
        "  }\n"
        "  void insert(int64_t k, size_t v) { bool b; (void)getOrInsert(k, "
        "v, &b); }\n"
        "};\n";

  OS << emitStructDefs() << "\n";

  OS << "template <class T> static void rdScalar(FILE *f, T &out) {\n"
     << "  if (fread(&out, sizeof(T), 1, f) != 1) { fprintf(stderr, \"bad "
        "input file\\n\"); exit(2); }\n}\n"
     << "template <class T> static void rdArray(FILE *f, std::vector<T> "
        "&out) {\n"
     << "  uint64_t n = 0; rdScalar(f, n); out.resize((size_t)n);\n"
     << "  if (n && fread(out.data(), sizeof(T), (size_t)n, f) != (size_t)n) "
        "{ fprintf(stderr, \"bad input file\\n\"); exit(2); }\n}\n\n";

  OS << Decls.str() << "\n";

  OS << "static " << ResultTy << " dmllRun() {\n"
     << FnBody.Code << "  return " << ResultUse << ";\n}\n\n";

  OS << "int main(int argc, char **argv) {\n"
     << "  if (argc < 2) { fprintf(stderr, \"usage: %s <inputs.bin>\\n\", "
        "argv[0]); return 1; }\n"
     << "  FILE *f = fopen(argv[1], \"rb\");\n"
     << "  if (!f) { perror(\"open inputs\"); return 1; }\n"
     << Load.str() << "  fclose(f);\n"
     << "  " << ResultTy << " result = dmllRun();\n"
     << "  const int iters = " << Opts.TimingIters << ";\n"
     << "  auto t0 = std::chrono::steady_clock::now();\n"
     << "  for (int it = 0; it < iters; ++it) result = dmllRun();\n"
     << "  auto t1 = std::chrono::steady_clock::now();\n"
     << "  double ms = std::chrono::duration<double, std::milli>(t1 - "
        "t0).count() / iters;\n"
     << "  Acc a;\n  chk(result, a);\n"
     << "  printf(\"count=%lld\\nsum=%.17g\\nabs=%.17g\\nms_per_iter=%.6f\\"
        "n\", a.count, a.sum, a.abs, ms);\n"
     << "  return 0;\n}\n";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Host-side helpers.
//===----------------------------------------------------------------------===//

void checksumInto(const Value &V, Checksum &C) {
  if (V.isArray()) {
    for (const Value &E : *V.array())
      checksumInto(E, C);
    return;
  }
  if (V.isStruct()) {
    for (const Value &F : V.strct()->Fields)
      checksumInto(F, C);
    return;
  }
  double D = V.toDouble();
  ++C.Count;
  C.Sum += D;
  C.Abs += std::fabs(D);
}

void writeLeaf(FILE *F, const Value &V, const TypeRef &Ty) {
  auto W = [&](const void *P, size_t N) {
    if (std::fwrite(P, 1, N, F) != N)
      fatalError("short write serializing inputs");
  };
  if (Ty->isScalar()) {
    if (Ty->isFloat()) {
      if (Ty->getKind() == TypeKind::Float32) {
        float X = static_cast<float>(V.toDouble());
        W(&X, sizeof(X));
      } else {
        double X = V.toDouble();
        W(&X, sizeof(X));
      }
    } else if (Ty->isBool()) {
      bool X = V.asBool();
      W(&X, sizeof(X));
    } else if (Ty->getKind() == TypeKind::Int32) {
      int32_t X = static_cast<int32_t>(V.toInt());
      W(&X, sizeof(X));
    } else {
      int64_t X = V.toInt();
      W(&X, sizeof(X));
    }
    return;
  }
  if (Ty->isArray() && Ty->elem()->isScalar()) {
    uint64_t N = V.arraySize();
    W(&N, sizeof(N));
    for (const Value &E : *V.array())
      writeLeaf(F, E, Ty->elem());
    return;
  }
  if (Ty->isStruct()) {
    const auto &Fields = Ty->fields();
    for (size_t I = 0; I < Fields.size(); ++I)
      writeLeaf(F, V.strct()->Fields[I], Fields[I].Ty);
    return;
  }
  if (Ty->isArray() && Ty->elem()->isStruct()) {
    // Column per field.
    const auto &Fields = Ty->elem()->fields();
    for (size_t FI = 0; FI < Fields.size(); ++FI) {
      uint64_t N = V.arraySize();
      if (std::fwrite(&N, 1, sizeof(N), F) != sizeof(N))
        fatalError("short write serializing inputs");
      for (const Value &E : *V.array())
        writeLeaf(F, E.strct()->Fields[FI], Fields[FI].Ty);
    }
    return;
  }
  fatalError("unsupported input type for serialization: " + Ty->str());
}

} // namespace

std::string dmll::emitCpp(const Program &P, const CppEmitOptions &Opts) {
  TraceSpan Span("codegen.emit-cpp", "codegen");
  std::string Src = Emitter(P, Opts).run();
  if (Span.live()) {
    Span.argInt("nodes", static_cast<int64_t>(countNodes(P.Result)));
    Span.argInt("source.bytes", static_cast<int64_t>(Src.size()));
  }
  return Src;
}

Checksum dmll::checksumValue(const Value &V) {
  Checksum C;
  checksumInto(V, C);
  return C;
}

void dmll::writeInputsBinary(const Program &P, const InputMap &Inputs,
                             const std::string &Path) {
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    fatalError("cannot open " + Path + " for writing");
  for (const auto &In : P.Inputs) {
    auto It = Inputs.find(In->name());
    if (It == Inputs.end())
      fatalError("missing input '" + In->name() + "'");
    writeLeaf(F, It->second, In->type());
  }
  std::fclose(F);
}

GeneratedRunResult dmll::compileAndRun(const Program &P,
                                       const InputMap &Inputs,
                                       const std::string &WorkDir,
                                       const std::string &BaseName,
                                       const CppEmitOptions &Opts) {
  GeneratedRunResult R;
  std::string Src = WorkDir + "/" + BaseName + ".cpp";
  std::string Bin = WorkDir + "/" + BaseName;
  std::string Dat = WorkDir + "/" + BaseName + ".bin";
  {
    FILE *F = std::fopen(Src.c_str(), "w");
    if (!F)
      fatalError("cannot write " + Src);
    std::string Code = emitCpp(P, Opts);
    std::fwrite(Code.data(), 1, Code.size(), F);
    std::fclose(F);
  }
  {
    TraceSpan S("codegen.write-inputs", "codegen");
    writeInputsBinary(P, Inputs, Dat);
  }
  // -fopenmp-simd honors the emitter's `#pragma omp simd` hints without
  // pulling in the OpenMP runtime.
  std::string Compile = "c++ -O3 -march=native -std=c++20 -fopenmp-simd -o " +
                        Bin + " " + Src + " 2> " + Bin + ".log";
  {
    TraceSpan S("codegen.gcc", "codegen");
    S.arg("binary", Bin);
    if (std::system(Compile.c_str()) != 0)
      return R;
  }
  TraceSpan RunSpan("codegen.run", "codegen");
  std::string Run = Bin + " " + Dat;
  FILE *Pipe = popen(Run.c_str(), "r");
  if (!Pipe)
    return R;
  char Line[256];
  while (std::fgets(Line, sizeof(Line), Pipe)) {
    long long Count;
    double D;
    if (std::sscanf(Line, "count=%lld", &Count) == 1)
      R.Sum.Count = Count;
    else if (std::sscanf(Line, "sum=%lf", &D) == 1)
      R.Sum.Sum = D;
    else if (std::sscanf(Line, "abs=%lf", &D) == 1)
      R.Sum.Abs = D;
    else if (std::sscanf(Line, "ms_per_iter=%lf", &D) == 1)
      R.MillisPerIter = D;
  }
  R.Ok = pclose(Pipe) == 0;
  if (RunSpan.live() && R.Ok) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f", R.MillisPerIter);
    RunSpan.arg("ms_per_iter", Buf);
  }
  return R;
}
