//===- tests/FuzzTest.cpp - Fuzzing subsystem tests ------------*- C++ -*-===//
//
// Tests for src/fuzz/: generator determinism and coverage, the forked
// oracle's outcome classification, oracle value equality, reducer
// soundness, the replay emitter, and regression tests replaying the first
// crop of bugs the differential fuzzer found (speculative invariant
// hoisting in the kernel compiler, horizontal fusion of lazily evaluated
// trapping loops, thread-count-dependent engine selection in chunk
// workers) plus the earlier scalar/Json fixes they ride along with.
//
//===----------------------------------------------------------------------===//

#include "fuzz/EmitCpp.h"
#include "fuzz/Gen.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reduce.h"
#include "fuzz/RefEval.h"
#include "interp/Interp.h"
#include "ir/Builder.h"
#include "ir/Traversal.h"
#include "ir/Verifier.h"
#include "support/Error.h"
#include "support/Json.h"
#include "transform/Pipeline.h"
#include "transform/Rules.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <limits>
#include <thread>

using namespace dmll;
using namespace dmll::fuzz;

//===----------------------------------------------------------------------===//
// Generator
//===----------------------------------------------------------------------===//

TEST(FuzzGen, DeterministicPerSeed) {
  for (uint64_t S : {1ull, 17ull, 68ull, 1764ull}) {
    FuzzCase A = generateCase(S);
    FuzzCase B = generateCase(S);
    EXPECT_TRUE(structuralEq(A.P.Result, B.P.Result)) << "seed " << S;
    ASSERT_EQ(A.Inputs.size(), B.Inputs.size());
    for (const auto &[Name, V] : A.Inputs) {
      auto It = B.Inputs.find(Name);
      ASSERT_NE(It, B.Inputs.end());
      EXPECT_TRUE(oracleEquals(V, It->second, 0.0)) << "seed " << S;
    }
  }
}

TEST(FuzzGen, DifferentSeedsDiffer) {
  FuzzCase A = generateCase(1);
  int Distinct = 0;
  for (uint64_t S = 2; S <= 6; ++S)
    if (!structuralEq(A.P.Result, generateCase(S).P.Result))
      ++Distinct;
  EXPECT_GT(Distinct, 0);
}

TEST(FuzzGen, AlwaysVerifierCleanAndCoversTheGrammar) {
  bool SawKind[4] = {false, false, false, false};
  bool SawCond = false, SawDense = false, SawNested = false;
  bool SawMultiGen = false, SawEmptyInput = false, SawStructValue = false;
  bool SawVectorReduce = false, SawSharedOperand = false;
  // The nested shapes of the catalog apps: a scalar inner Reduce over a
  // loop-invariant range and over a CSR segment (two array reads size it),
  // and an argmin over a struct accumulator.
  bool SawInvariantRangeReduce = false, SawSegmentReduce = false;
  bool SawArgmin = false;
  for (uint64_t S = 1; S <= 150; ++S) {
    FuzzCase C = generateCase(S);
    EXPECT_TRUE(verify(C.P).empty()) << "seed " << S;
    for (const ExprRef &L : collectMultiloops(C.P.Result)) {
      const auto *ML = cast<MultiloopExpr>(L);
      const Generator &G0 = ML->gen(0);
      if (ML->isSingle() && G0.Kind == GenKind::Reduce) {
        if (G0.Value.Body->type()->isScalar() && !freeSyms(L).empty()) {
          int Reads = 0;
          visitAll(ML->size(), [&](const ExprRef &N) {
            Reads += isa<ArrayReadExpr>(N);
          });
          SawInvariantRangeReduce |= freeSyms(ML->size()).empty();
          SawSegmentReduce |= Reads >= 2;
        }
        const auto *Sel = dyn_cast<SelectExpr>(G0.Reduce.Body);
        const auto *Le = Sel ? dyn_cast<BinOpExpr>(Sel->cond()) : nullptr;
        SawArgmin |= G0.Value.Body->type()->isStruct() && Le &&
                     Le->op() == BinOpKind::Le &&
                     isa<GetFieldExpr>(Le->lhs());
      }
      if (ML->numGens() > 1)
        SawMultiGen = true;
      for (const Generator &G : ML->gens()) {
        SawKind[static_cast<int>(G.Kind)] = true;
        SawCond |= G.Cond.isSet();
        SawDense |= G.isDenseBucket();
        if (G.Value.isSet()) {
          SawStructValue |= G.Value.Body->type()->isStruct();
          SawNested |= !collectMultiloops(G.Value.Body).empty();
          SawVectorReduce |=
              G.isReduce() && G.Value.Body->type()->isArray();
        }
      }
    }
    visitAll(C.P.Result, [&](const ExprRef &N) {
      const auto *B = dyn_cast<BinOpExpr>(N);
      SawSharedOperand |= B && B->lhs().get() == B->rhs().get();
    });
    for (const auto &[Name, V] : C.Inputs)
      if (V.isArray() && V.arraySize() == 0)
        SawEmptyInput = true;
  }
  EXPECT_TRUE(SawKind[0] && SawKind[1] && SawKind[2] && SawKind[3]);
  EXPECT_TRUE(SawCond);
  EXPECT_TRUE(SawDense);
  EXPECT_TRUE(SawNested);
  EXPECT_TRUE(SawMultiGen);
  EXPECT_TRUE(SawEmptyInput);
  EXPECT_TRUE(SawStructValue);
  EXPECT_TRUE(SawVectorReduce);
  EXPECT_TRUE(SawSharedOperand);
  EXPECT_TRUE(SawInvariantRangeReduce);
  EXPECT_TRUE(SawSegmentReduce);
  EXPECT_TRUE(SawArgmin);
}

//===----------------------------------------------------------------------===//
// Oracle: forked-run classification and value equality
//===----------------------------------------------------------------------===//

TEST(FuzzOracle, ClassifiesCleanReturnAndRoundTripsValues) {
  RunResult R = runForked([] {
    RunResult Out;
    Out.Out = Value::makeStruct(
        {Value(int64_t(-7)),
         Value(std::numeric_limits<double>::quiet_NaN()),
         Value::makeArray({Value(1.5), Value(int64_t(2))})});
    Out.Fallbacks = {"loop A: reason one", "loop B: reason two"};
    return Out;
  });
  ASSERT_EQ(R.Status, RunStatus::Ok);
  ASSERT_EQ(R.Fallbacks.size(), 2u);
  EXPECT_EQ(R.Fallbacks[0], "loop A: reason one");
  Value Expect = Value::makeStruct(
      {Value(int64_t(-7)), Value(std::numeric_limits<double>::quiet_NaN()),
       Value::makeArray({Value(1.5), Value(int64_t(2))})});
  EXPECT_TRUE(oracleEquals(R.Out, Expect, 0.0));
}

TEST(FuzzOracle, ClassifiesTrapWithMessage) {
  RunResult R = runForked([]() -> RunResult {
    fatalError("synthetic trap 42");
  });
  ASSERT_EQ(R.Status, RunStatus::Trap);
  EXPECT_EQ(R.TrapMessage, "synthetic trap 42");
}

TEST(FuzzOracle, ClassifiesRecoverableTrapOnCleanExit) {
  // A TrapError unwinding out of the child's body is caught and reported
  // over the pipe with a clean exit — no SIGABRT involved.
  RunResult R = runForked([]() -> RunResult { trap("recoverable trap 7"); });
  ASSERT_EQ(R.Status, RunStatus::Trap);
  EXPECT_EQ(R.TrapMessage, "recoverable trap 7");
}

TEST(FuzzOracle, ClassifiesStructuredTrapResult) {
  // A recoverable configuration folds the trap into its RunResult; the
  // child forwards it as the same payload.
  RunResult R = runForked([]() -> RunResult {
    RunResult Inner;
    Inner.Status = RunStatus::Trap;
    Inner.TrapMessage = "structured trap 9";
    return Inner;
  });
  ASSERT_EQ(R.Status, RunStatus::Trap);
  EXPECT_EQ(R.TrapMessage, "structured trap 9");
}

TEST(FuzzChaos, SurvivesSeededFaultSchedules) {
  // A handful of generated cases through the in-process chaos oracle:
  // every schedule must leave the process alive and the executor state
  // bit-identical for the fault-free re-run. The full budget runs in the
  // chaos_smoke ctest (tools/run_fuzz.sh --chaos).
  for (uint64_t Seed : {3ull, 7ull}) {
    FuzzCase C = generateCase(Seed);
    ChaosReport Rep = runChaos(C, 6, Seed * 1000003);
    EXPECT_TRUE(Rep.ok()) << Rep.str();
    EXPECT_EQ(Rep.Schedules, 6);
  }
}

TEST(FuzzOracle, ClassifiesRawSignalAsCrash) {
  RunResult R = runForked([]() -> RunResult {
    std::raise(SIGSEGV);
    return RunResult();
  });
  ASSERT_EQ(R.Status, RunStatus::Crash);
  EXPECT_EQ(R.Signal, SIGSEGV);
}

TEST(FuzzOracle, ClassifiesDeadlineAsTimeout) {
  RunResult R = runForked(
      [] {
        std::this_thread::sleep_for(std::chrono::seconds(5));
        return RunResult();
      },
      /*TimeoutSec=*/1);
  EXPECT_EQ(R.Status, RunStatus::Timeout);
}

TEST(FuzzOracle, ValueEqualityPolicy) {
  EXPECT_TRUE(oracleEquals(Value(std::numeric_limits<double>::quiet_NaN()),
                           Value(std::numeric_limits<double>::quiet_NaN()),
                           1e-6));
  EXPECT_TRUE(oracleEquals(Value(1.0), Value(1.0 + 1e-9), 1e-6));
  EXPECT_FALSE(oracleEquals(Value(1.0), Value(1.1), 1e-6));
  // Large magnitudes compare under relative tolerance.
  EXPECT_TRUE(oracleEquals(Value(1e12), Value(1e12 * (1 + 1e-8)), 1e-6));
  // Index order is exact, never multiset.
  EXPECT_FALSE(oracleEquals(
      Value::makeArray({Value(int64_t(1)), Value(int64_t(2))}),
      Value::makeArray({Value(int64_t(2)), Value(int64_t(1))}), 1e-6));
  // Ints never equal floats.
  EXPECT_FALSE(oracleEquals(Value(int64_t(1)), Value(1.0), 1e-6));
}

TEST(FuzzOracle, SmokeSeedsAreClean) {
  // A slice of the fuzz_smoke budget inline, so a plain test run exercises
  // the full differential matrix too.
  for (uint64_t S = 1; S <= 20; ++S) {
    Verdict V = runDifferential(generateCase(S));
    EXPECT_TRUE(V.ok()) << V.str();
  }
}

//===----------------------------------------------------------------------===//
// Reducer
//===----------------------------------------------------------------------===//

namespace {

/// A synthetic failure: the program still contains an integer division
/// whose divisor is the literal zero.
bool hasDivByConstZero(const FuzzCase &C) {
  bool Found = false;
  visitAll(C.P.Result, [&](const ExprRef &E) {
    const auto *B = dyn_cast<BinOpExpr>(E);
    if (!B || B->op() != BinOpKind::Div)
      return;
    const auto *Z = dyn_cast<ConstIntExpr>(B->rhs());
    Found |= Z && Z->value() == 0;
  });
  return Found;
}

/// A case with one div-by-zero buried under removable structure.
FuzzCase paddedDivCase() {
  FuzzCase C;
  C.Seed = 0;
  auto In = input("in0", Type::arrayOf(Type::i64()));
  ExprRef Div = binop(BinOpKind::Div, constI64(7), constI64(0));
  Generator G;
  G.Kind = GenKind::Collect;
  G.Cond = indexFunc("c", [&](const ExprRef &I) {
    return binop(BinOpKind::Lt, I, arrayLen(In));
  });
  G.Value = indexFunc("i", [&](const ExprRef &I) {
    return select(binop(BinOpKind::Eq, I, constI64(3)),
                  binop(BinOpKind::Add, Div, constI64(1)),
                  binop(BinOpKind::Mul, I, constI64(5)));
  });
  C.P.Inputs = {In};
  C.P.Result = singleLoop(arrayLen(In), std::move(G));
  C.Inputs.emplace(
      "in0", Value::makeArray({Value(int64_t(1)), Value(int64_t(2))}));
  return C;
}

} // namespace

TEST(FuzzReduce, ShrinksWhilePreservingPredicateAndValidity) {
  FuzzCase C = paddedDivCase();
  ASSERT_TRUE(hasDivByConstZero(C));
  size_t Before = countNodes(C.P.Result);
  ReduceStats Stats;
  FuzzCase R = reduceCase(C, hasDivByConstZero, &Stats);
  EXPECT_TRUE(hasDivByConstZero(R));
  EXPECT_TRUE(verify(R.P).empty());
  EXPECT_LT(countNodes(R.P.Result), Before);
  EXPECT_EQ(Stats.NodesBefore, Before);
  EXPECT_EQ(Stats.NodesAfter, countNodes(R.P.Result));
  EXPECT_GT(Stats.Accepted, 0);
}

TEST(FuzzReduce, DeterministicResult) {
  FuzzCase C = paddedDivCase();
  FuzzCase R1 = reduceCase(C, hasDivByConstZero);
  FuzzCase R2 = reduceCase(C, hasDivByConstZero);
  EXPECT_TRUE(structuralEq(R1.P.Result, R2.P.Result));
}

namespace {

// The generator's programs for seeds 30 and 68 before it learned the nested
// shapes of the catalog apps (inner reduces over CSR segments, argmins),
// which changed what each seed draws. Pinned as emitReplayCpp wrote them,
// with the inputs' arrays folded onto fewer lines.

//   input @in0 : Array[f64] [partitioned]
//   t0 = Collect(len(@in0))(c0 => ((abs((c0 * 2)) % 2) == 0))
//          (i1 => {x: i1, y: cast[f64]((len(@in0) % 3))})
//   t1 = Reduce(len(t0))_(i2 => min(max(0.5,-1e+06),1e+06))
//          (r.a3,r.b4 => (r.a3 + r.b4))
//   result: {r0: t0, r1: t1}
FuzzCase pinnedSeed30() {
  FuzzCase C;
  C.Seed = 30ull;
  auto in0 = input("in0", Type::arrayOf(Type::f64()), LayoutHint::Partitioned);
  ExprRef e0 = arrayLen(in0);
  SymRef s2 = freshSym("c", Type::i64());
  ExprRef e3 = constI64(2);
  ExprRef e4 = binop(BinOpKind::Mul, s2, e3);
  ExprRef e5 = unop(UnOpKind::Abs, e4);
  ExprRef e6 = constI64(2);
  ExprRef e7 = binop(BinOpKind::Mod, e5, e6);
  ExprRef e8 = constI64(0);
  ExprRef e9 = binop(BinOpKind::Eq, e7, e8);
  SymRef s10 = freshSym("i", Type::i64());
  ExprRef e11 = arrayLen(in0);
  ExprRef e12 = constI64(3);
  ExprRef e13 = binop(BinOpKind::Mod, e11, e12);
  ExprRef e14 = castTo(Type::f64(), e13);
  TypeRef XY = Type::structOf({{"x", Type::i64()}, {"y", Type::f64()}});
  ExprRef e15 = makeStruct(XY->fields(), {s10, e14});
  Generator g1;
  g1.Kind = GenKind::Collect;
  g1.Cond = Func({s2}, e9);
  g1.Value = Func({s10}, e15);
  ExprRef e16 = multiloop(e0, {g1});
  ExprRef e17 = arrayLen(e16);
  SymRef s19 = freshSym("i", Type::i64());
  ExprRef e20 = constF64(0.5);
  ExprRef e21 = constF64(-1000000.0);
  ExprRef e22 = binop(BinOpKind::Max, e20, e21);
  ExprRef e23 = constF64(1000000.0);
  ExprRef e24 = binop(BinOpKind::Min, e22, e23);
  SymRef s25 = freshSym("r.a", Type::f64());
  SymRef s26 = freshSym("r.b", Type::f64());
  ExprRef e27 = binop(BinOpKind::Add, s25, s26);
  Generator g18;
  g18.Kind = GenKind::Reduce;
  g18.Value = Func({s19}, e24);
  g18.Reduce = Func({s25, s26}, e27);
  ExprRef e28 = multiloop(e17, {g18});
  ExprRef e29 = makeStruct(Type::structOf({{"r0", Type::arrayOf(XY)},
                                           {"r1", Type::f64()}})
                               ->fields(),
                           {e16, e28});
  C.P.Inputs = {in0};
  C.P.Result = e29;
  C.Inputs.emplace(
      "in0",
      Value::arrayOfDoubles(
          {-1.2652714827270513, 1.3044131469563172, 4.674938344836141,
           0.27146456040593742, -1.457099073995471, -0.37525608985802267,
           0.55605641038006437, 0.32164124596738924, 1.7025508477181748,
           1.7296418430175111, 1.1610781151668865, -1.6728426033524679,
           -0.0107582334612917, 0.76625934069593205, 1.2962116296296942,
           -1.0235134204011807, 0.53582786443418984, -2.0317373477570024}));
  return C;
}

//   input @in0 : Array[i64]
//   t0 = Collect(len(@in0))_(i0 => exp(min((1 / max(0.75,-2.375)),20)))
//   t1 = BucketReduce(18)_(k1 => k1)(i2 => min(2,@in0(i2)))
//          (r.a3,r.b4 => min(r.a3,r.b4))
//   result: {r0: t1, r1: t0}
FuzzCase pinnedSeed68() {
  FuzzCase C;
  C.Seed = 68ull;
  auto in0 = input("in0", Type::arrayOf(Type::i64()), LayoutHint::Default);
  ExprRef e0 = constI64(18);
  SymRef s2 = freshSym("k", Type::i64());
  SymRef s3 = freshSym("i", Type::i64());
  ExprRef e4 = constI64(2);
  ExprRef e5 = arrayRead(in0, s3);
  ExprRef e6 = binop(BinOpKind::Min, e4, e5);
  SymRef s7 = freshSym("r.a", Type::i64());
  SymRef s8 = freshSym("r.b", Type::i64());
  ExprRef e9 = binop(BinOpKind::Min, s7, s8);
  Generator g1;
  g1.Kind = GenKind::BucketReduce;
  g1.Key = Func({s2}, s2);
  g1.Value = Func({s3}, e6);
  g1.Reduce = Func({s7, s8}, e9);
  ExprRef e10 = multiloop(e0, {g1});
  ExprRef e11 = arrayLen(in0);
  SymRef s13 = freshSym("i", Type::i64());
  ExprRef e14 = constF64(1.0);
  ExprRef e15 = constF64(0.75);
  ExprRef e16 = constF64(-2.375);
  ExprRef e17 = binop(BinOpKind::Max, e15, e16);
  ExprRef e18 = binop(BinOpKind::Div, e14, e17);
  ExprRef e19 = constF64(20.0);
  ExprRef e20 = binop(BinOpKind::Min, e18, e19);
  ExprRef e21 = unop(UnOpKind::Exp, e20);
  Generator g12;
  g12.Kind = GenKind::Collect;
  g12.Value = Func({s13}, e21);
  ExprRef e22 = multiloop(e11, {g12});
  TypeRef KV = Type::structOf({{"keys", Type::arrayOf(Type::i64())},
                               {"values", Type::arrayOf(Type::i64())}});
  ExprRef e23 = makeStruct(
      Type::structOf({{"r0", KV}, {"r1", Type::arrayOf(Type::f64())}})
          ->fields(),
      {e10, e22});
  C.P.Inputs = {in0};
  C.P.Result = e23;
  C.Inputs.emplace("in0", Value::arrayOfInts({19, 6, -8, 0, 19, 9, -9, 12,
                                              15, -4, 19, 15, -14, 5, -6, 15,
                                              13, -8, 3, 1, -8, -2, -16}));
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Replay emitter
//===----------------------------------------------------------------------===//

TEST(FuzzEmit, ReplaySourceIsWellFormed) {
  for (const FuzzCase &C : {generateCase(1), pinnedSeed30(), pinnedSeed68()}) {
    std::string Src = emitReplayCpp(C, "buildIt");
    EXPECT_NE(Src.find("static dmll::fuzz::FuzzCase buildIt()"),
              std::string::npos);
    EXPECT_NE(Src.find("return C;"), std::string::npos);
    // Regression: generator-field assignments used to interleave with the
    // declarations their sub-expressions emit, producing lines like
    // "g1.Value =   SymRef s2 = ...".
    EXPECT_EQ(Src.find("=   SymRef"), std::string::npos) << Src;
    EXPECT_EQ(Src.find("=   ExprRef"), std::string::npos) << Src;
  }
}

//===----------------------------------------------------------------------===//
// Reference evaluator
//===----------------------------------------------------------------------===//

TEST(FuzzRef, MatchesInterpreterOnBucketReduce) {
  auto In = input("xs", Type::arrayOf(Type::i64()));
  Generator G;
  G.Kind = GenKind::BucketReduce;
  G.NumKeys = constI64(3);
  G.Key = indexFunc("k", [&](const ExprRef &I) {
    return binop(BinOpKind::Mod, I, constI64(3));
  });
  G.Value = indexFunc("i", [&](const ExprRef &I) { return arrayRead(In, I); });
  G.Reduce = binFunc("r", Type::i64(), [](const ExprRef &A, const ExprRef &B) {
    return binop(BinOpKind::Add, A, B);
  });
  Program P;
  P.Inputs = {In};
  P.Result = singleLoop(arrayLen(In), std::move(G));
  ASSERT_TRUE(verify(P).empty());
  ASSERT_TRUE(refExpressible(P));
  InputMap Ins;
  Ins.emplace("xs",
              Value::makeArray({Value(int64_t(10)), Value(int64_t(20)),
                                Value(int64_t(30)), Value(int64_t(40))}));
  EXPECT_TRUE(
      oracleEquals(refEval(P, Ins), evalProgram(P, Ins), 0.0));
}

TEST(FuzzRef, RejectsMultiOutputLoops) {
  auto In = input("xs", Type::arrayOf(Type::i64()));
  Generator A, B;
  A.Kind = GenKind::Collect;
  A.Value = indexFunc("i", [](const ExprRef &I) { return I; });
  B.Kind = GenKind::Reduce;
  B.Value = indexFunc("j", [](const ExprRef &) { return constI64(1); });
  B.Reduce = binFunc("r", Type::i64(), [](const ExprRef &X, const ExprRef &Y) {
    return binop(BinOpKind::Add, X, Y);
  });
  ExprRef Loop = multiloop(arrayLen(In), {A, B});
  Program P;
  P.Inputs = {In};
  P.Result = loopOut(Loop, 1);
  EXPECT_FALSE(refExpressible(P));
}

//===----------------------------------------------------------------------===//
// Regressions: the first crop of fuzzer-found bugs
//===----------------------------------------------------------------------===//

// Kernel compiler: a loop-invariant expression that can trap must not be
// hoisted to a launch-time uniform — the interpreter only evaluates it
// under the generator's condition. Found by the fuzzer at seed 68 (kernel
// configs trapped "array read out of range" where the interpreter
// returned a value, because the condition was never true).
TEST(FuzzRegression, KernelDoesNotSpeculateTrappingInvariants) {
  auto In = input("xs", Type::arrayOf(Type::i64()));
  Generator G;
  G.Kind = GenKind::Reduce;
  // Odd input length below, so (i*2) == len never holds.
  G.Cond = indexFunc("c", [&](const ExprRef &I) {
    return binop(BinOpKind::Eq, binop(BinOpKind::Mul, I, constI64(2)),
                 arrayLen(In));
  });
  // Loop-invariant, and trapping if evaluated: xs(-5).
  G.Value =
      indexFunc("i", [&](const ExprRef &) { return arrayRead(In, constI64(-5)); });
  G.Reduce = binFunc("r", Type::i64(), [](const ExprRef &A, const ExprRef &B) {
    return binop(BinOpKind::Min, A, B);
  });
  Program P;
  P.Inputs = {In};
  P.Result = singleLoop(arrayLen(In), std::move(G));
  ASSERT_TRUE(verify(P).empty());
  InputMap Ins;
  Ins.emplace("xs", Value::makeArray({Value(int64_t(4)), Value(int64_t(5)),
                                      Value(int64_t(6))}));
  Value Interp = evalProgram(P, Ins);
  EvalOptions EO;
  EO.Mode = engine::EngineMode::Kernel;
  // Would abort with "array read out of range: index -5" before the fix.
  ExecResult Kernel = evalProgramRecover(P, Ins, EO);
  EXPECT_TRUE(Kernel.ok() && oracleEquals(Interp, Kernel.Out, 0.0));
}

namespace {

/// Seed 1764, reduced: a trapping loop reachable only through a
/// never-true condition, next to an innocuous loop of the same size.
Program lazyTrappingLoopProgram(const std::shared_ptr<const InputExpr> &In) {
  Generator TG;
  TG.Kind = GenKind::Reduce;
  TG.Value = indexFunc("i", [](const ExprRef &) {
    return binop(BinOpKind::Div,
                 constI64(std::numeric_limits<int64_t>::max()), constI64(0));
  });
  TG.Reduce = binFunc("r", Type::i64(),
                      [](const ExprRef &, const ExprRef &) { return constI64(0); });
  ExprRef Trapping = singleLoop(arrayLen(In), std::move(TG));

  Generator SG;
  SG.Kind = GenKind::Reduce;
  SG.Value = indexFunc("i", [](const ExprRef &) { return constI64(1); });
  SG.Reduce = binFunc("r", Type::i64(), [](const ExprRef &A, const ExprRef &B) {
    return binop(BinOpKind::Add, A, B);
  });
  ExprRef Count = singleLoop(arrayLen(In), std::move(SG));

  Generator CG;
  CG.Kind = GenKind::Collect;
  CG.Cond = indexFunc("c", [](const ExprRef &) { return constBool(false); });
  CG.Value = indexFunc("i", [&](const ExprRef &) { return Trapping; });
  // Distinct size, so the dead loop itself is not a fusion candidate for
  // the other two — only the lazy trapping loop matches the count loop.
  ExprRef Dead = singleLoop(constI64(5), std::move(CG));

  Program P;
  P.Inputs = {In};
  P.Result = makeStruct(
      Type::structOf({{"r0", Dead->type()}, {"r1", Count->type()}})->fields(),
      {Dead, Count});
  return P;
}

} // namespace

// Horizontal fusion: a loop that the interpreter evaluates lazily (here:
// only under a never-true generator condition) must not fuse with an
// always-executed loop if its per-element code can trap; the fused loop
// would evaluate the trap unconditionally. Found by the fuzzer at seed
// 1764 (optimized configs trapped "integer division by zero" where the
// unoptimized interpreter returned a value).
TEST(FuzzRegression, FusionDoesNotForceLazyTrappingLoops) {
  auto In = input("xs", Type::arrayOf(Type::f64()));
  Program P = lazyTrappingLoopProgram(In);
  ASSERT_TRUE(verify(P).empty());
  InputMap Ins;
  Ins.emplace("xs", Value::makeArray({Value(1.0), Value(2.0), Value(3.0)}));
  Value Unopt = evalProgram(P, Ins);

  CompileOptions Opts;
  Opts.T = Target::Numa;
  CompileResult CR = compileProgram(P, Opts);
  // Would abort with "integer division by zero" before the fix.
  Value Opt = evalProgram(CR.P, Ins);
  EXPECT_TRUE(oracleEquals(Unopt, Opt, 0.0));
}

// ... while trap-free lazy loops and strictly evaluated loops still fuse.
TEST(FuzzRegression, FusionStillMergesStrictLoops) {
  auto In = input("xs", Type::arrayOf(Type::i64()));
  Generator A;
  A.Kind = GenKind::Reduce;
  A.Value = indexFunc("i", [&](const ExprRef &I) { return arrayRead(In, I); });
  A.Reduce = binFunc("r", Type::i64(), [](const ExprRef &X, const ExprRef &Y) {
    return binop(BinOpKind::Add, X, Y);
  });
  Generator B;
  B.Kind = GenKind::Reduce;
  B.Value = indexFunc("i", [&](const ExprRef &I) {
    return binop(BinOpKind::Mul, arrayRead(In, I), constI64(2));
  });
  B.Reduce = binFunc("r", Type::i64(), [](const ExprRef &X, const ExprRef &Y) {
    return binop(BinOpKind::Max, X, Y);
  });
  ExprRef LA = singleLoop(arrayLen(In), std::move(A));
  ExprRef LB = singleLoop(arrayLen(In), std::move(B));
  ExprRef Root = makeStruct(
      Type::structOf({{"a", LA->type()}, {"b", LB->type()}})->fields(),
      {LA, LB});
  // Both loops read arrays (may trap), but both are strictly evaluated, so
  // the trap gate must not block them.
  EXPECT_GE(horizontalFusion(Root, nullptr), 1);
}

TEST(FuzzRegression, FusionSkipsLazyMayTrapLoopDirectly) {
  Program P = lazyTrappingLoopProgram(input("xs", Type::arrayOf(Type::f64())));
  ExprRef Root = P.Result;
  // The only same-size pair is the strict count loop and the trapping loop
  // buried under the dead Collect's value function; the lazy may-trap side
  // must block the merge.
  EXPECT_EQ(horizontalFusion(Root, nullptr), 0);
}

// Chunk workers must select engines like the sequential path: before the
// fix, a nested closed loop inside a parallel outer loop silently ran on
// the interpreter (and recorded no fallback) while the single-threaded run
// used the kernel engine — fallback lists differed by thread count (found
// by the fuzzer at seed 30).
TEST(FuzzRegression, FallbackReasonsAgreeAcrossThreadCounts) {
  for (const FuzzCase &C : {pinnedSeed30(), pinnedSeed68()}) {
    Verdict V = runDifferential(C);
    EXPECT_TRUE(V.ok()) << V.str();
  }
}

// Scalar trap parity: INT64_MIN / -1 (and % -1) overflows; both executors
// must trap with the division/modulo message instead of dying on SIGFPE.
TEST(FuzzRegression, Int64MinDivMinusOneTrapsCleanly) {
  for (bool Kernel : {false, true}) {
    for (BinOpKind Op : {BinOpKind::Div, BinOpKind::Mod}) {
      auto In = input("d", Type::i64());
      Generator G;
      G.Kind = GenKind::Reduce;
      G.Value = indexFunc("i", [&](const ExprRef &) {
        return binop(Op, constI64(std::numeric_limits<int64_t>::min()), In);
      });
      G.Reduce =
          binFunc("r", Type::i64(), [](const ExprRef &A, const ExprRef &B) {
            return binop(BinOpKind::Add, A, B);
          });
      Program P;
      P.Inputs = {In};
      P.Result = singleLoop(constI64(2), std::move(G));
      FuzzCase C;
      C.P = P;
      C.Inputs.emplace("d", Value(int64_t(-1)));
      ExecConfig Cfg;
      Cfg.Name = Kernel ? "kernel" : "interp";
      Cfg.E = Kernel ? ExecConfig::Engine::Kernel : ExecConfig::Engine::Interp;
      RunResult R = runSandboxed(C, Cfg);
      ASSERT_EQ(R.Status, RunStatus::Trap) << Cfg.Name;
      EXPECT_EQ(R.TrapMessage, Op == BinOpKind::Div
                                   ? "integer division by zero"
                                   : "integer modulo by zero");
    }
  }
}

// Json \uXXXX escapes: BMP code points decode to UTF-8, surrogate pairs
// combine, lone surrogates are rejected.
TEST(FuzzRegression, JsonUnicodeEscapes) {
  auto Decode = [](const std::string &S) {
    json::JValue V;
    EXPECT_TRUE(json::parse(S, V)) << S;
    return V.Str;
  };
  EXPECT_EQ(Decode("\"caf\\u00e9\""), "caf\xc3\xa9");
  EXPECT_EQ(Decode("\"\\u2603\""), "\xe2\x98\x83");        // 3-byte UTF-8
  EXPECT_EQ(Decode("\"\\ud83d\\ude00\""), "\xf0\x9f\x98\x80"); // surrogates
  json::JValue V;
  EXPECT_FALSE(json::parse("\"\\ud800\"", V));  // lone high surrogate
  EXPECT_FALSE(json::parse("\"\\ude00\"", V));  // lone low surrogate
  EXPECT_FALSE(json::parse("\"\\ud83dx\"", V)); // pair cut short
}
