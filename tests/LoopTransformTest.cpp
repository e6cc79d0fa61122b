//===- tests/LoopTransformTest.cpp - Loop-transform layer tests -*- C++ -*-===//
//
// The loop-transform layer's contract is bit-identity: every transform —
// the IR-level gather-precompute rewrite, the emitter-level plans (indexed
// store, simd hints, strip-mining, hoisted/flattened accumulators), and the
// kernel VM's instruction-wide blocks — must produce exactly the result of
// the untransformed path, floats included. These tests check the planning
// analysis directly and diff transformed against untransformed execution
// across the interpreter, the kernel engine (sequential and chunked
// parallel), and compiled C++.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "apps/Apps.h"
#include "codegen/CppEmitter.h"
#include "data/Datasets.h"
#include "fuzz/Oracle.h"
#include "ir/Builder.h"
#include "runtime/Executor.h"
#include "transform/loop/LoopTransforms.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

using namespace dmll;

namespace {

/// Single-generator program over the length of input "xs" (f64 array).
Program collectProgram(const std::function<ExprRef(ExprRef, ExprRef)> &Body,
                       Func Cond = Func()) {
  Program P;
  auto Xs = input("xs", Type::arrayOf(Type::f64()));
  P.Inputs.push_back(Xs);
  Generator G;
  G.Kind = GenKind::Collect;
  G.Cond = std::move(Cond);
  G.Value = indexFunc("i", [&](ExprRef I) { return Body(ExprRef(Xs), I); });
  P.Result = singleLoop(arrayLen(ExprRef(Xs)), std::move(G));
  return P;
}

/// Scalar sum reduction over "xs" with the given per-element value.
Program sumProgram(const std::function<ExprRef(ExprRef, ExprRef)> &Body) {
  Program P;
  auto Xs = input("xs", Type::arrayOf(Type::f64()));
  P.Inputs.push_back(Xs);
  Generator G;
  G.Kind = GenKind::Reduce;
  G.Value = indexFunc("i", [&](ExprRef I) { return Body(ExprRef(Xs), I); });
  G.Reduce = binFunc("r", Type::f64(), [](ExprRef A, ExprRef B) {
    return binop(BinOpKind::Add, A, B);
  });
  P.Result = singleLoop(arrayLen(ExprRef(Xs)), std::move(G));
  return P;
}

const std::vector<GenLoopPlan> *planOf(const Program &P,
                                       const LoopTransformPlan &Plan) {
  return Plan.plansFor(P.Result.get());
}

InputMap rampInputs(int64_t N) {
  std::vector<double> Xs;
  Xs.reserve(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Xs.push_back(0.5 * static_cast<double>(I) - 100.0);
  return {{"xs", Value::arrayOfDoubles(Xs)}};
}

} // namespace

//===----------------------------------------------------------------------===//
// planLoopTransforms: per-generator legality decisions.
//===----------------------------------------------------------------------===//

TEST(LoopPlanTest, MapGetsIndexedStoreAndSimdHint) {
  Program P = collectProgram([](ExprRef Xs, ExprRef I) {
    return binop(BinOpKind::Add,
                 binop(BinOpKind::Mul, arrayRead(Xs, I), constF64(2.0)),
                 constF64(1.0));
  });
  LoopTransformPlan Plan = planLoopTransforms(P);
  const auto *G = planOf(P, Plan);
  ASSERT_NE(G, nullptr);
  ASSERT_EQ(G->size(), 1u);
  EXPECT_TRUE((*G)[0].IndexedStore);
  EXPECT_TRUE((*G)[0].SimdHint);
  EXPECT_FALSE((*G)[0].StripMine);
  EXPECT_FALSE((*G)[0].HoistAccInit);
}

TEST(LoopPlanTest, GatherDisablesSimdHintOnly) {
  // xs[idx[i]]: the read stencil is Unknown (data-dependent gather), so the
  // loop still pre-sizes and stores by index but must not carry a simd hint.
  Program P;
  auto Xs = input("xs", Type::arrayOf(Type::f64()));
  auto Idx = input("idx", Type::arrayOf(Type::i64()));
  P.Inputs.push_back(Xs);
  P.Inputs.push_back(Idx);
  Generator G;
  G.Kind = GenKind::Collect;
  G.Value = indexFunc("i", [&](ExprRef I) {
    return arrayRead(ExprRef(Xs), arrayRead(ExprRef(Idx), I));
  });
  P.Result = singleLoop(arrayLen(ExprRef(Idx)), std::move(G));

  LoopTransformPlan Plan = planLoopTransforms(P);
  const auto *Gens = planOf(P, Plan);
  ASSERT_NE(Gens, nullptr);
  EXPECT_TRUE((*Gens)[0].IndexedStore);
  EXPECT_FALSE((*Gens)[0].SimdHint);
}

TEST(LoopPlanTest, IntegerDivisionDisablesSimdHint) {
  // An integer division's trap must not be speculated by vectorization.
  Program P;
  auto Is = input("is", Type::arrayOf(Type::i64()));
  P.Inputs.push_back(Is);
  Generator G;
  G.Kind = GenKind::Collect;
  G.Value = indexFunc("i", [&](ExprRef I) {
    return binop(BinOpKind::Div, arrayRead(ExprRef(Is), I), constI64(3));
  });
  P.Result = singleLoop(arrayLen(ExprRef(Is)), std::move(G));

  LoopTransformPlan Plan = planLoopTransforms(P);
  const auto *Gens = planOf(P, Plan);
  ASSERT_NE(Gens, nullptr);
  EXPECT_TRUE((*Gens)[0].IndexedStore);
  EXPECT_FALSE((*Gens)[0].SimdHint);
}

TEST(LoopPlanTest, ConditionalCollectKeepsPushBack) {
  // A filtered collect's output length is data-dependent: no pre-sizing.
  Program P = collectProgram(
      [](ExprRef Xs, ExprRef I) { return arrayRead(Xs, I); },
      indexFunc("c", [&](ExprRef I) {
        return binop(BinOpKind::Gt, ExprRef(I), constI64(10));
      }));
  LoopTransformPlan Plan = planLoopTransforms(P);
  EXPECT_EQ(planOf(P, Plan), nullptr);
}

TEST(LoopPlanTest, ExpensiveReduceStripMines) {
  Program P = sumProgram([](ExprRef Xs, ExprRef I) {
    return unop(UnOpKind::Sqrt,
                unop(UnOpKind::Abs, arrayRead(Xs, I)));
  });
  LoopTransformPlan Plan = planLoopTransforms(P);
  const auto *Gens = planOf(P, Plan);
  ASSERT_NE(Gens, nullptr);
  EXPECT_TRUE((*Gens)[0].StripMine);
}

TEST(LoopPlanTest, CheapReduceStaysScalar) {
  // For cheap bodies the lane-buffer spill costs more than it saves; the
  // profitability gate keeps the plain scalar accumulation.
  Program P = sumProgram([](ExprRef Xs, ExprRef I) {
    return binop(BinOpKind::Mul, arrayRead(Xs, I), arrayRead(Xs, I));
  });
  LoopTransformPlan Plan = planLoopTransforms(P);
  EXPECT_EQ(planOf(P, Plan), nullptr);
}

TEST(LoopPlanTest, AblationSwitchesDisableEverything) {
  Program P = collectProgram([](ExprRef Xs, ExprRef I) {
    return binop(BinOpKind::Mul, arrayRead(Xs, I), constF64(3.0));
  });
  LoopTransformOptions Off;
  Off.EnableIndexedStore = false;
  Off.EnableSimdHints = false;
  Off.EnableStripMine = false;
  Off.EnableAccHoist = false;
  LoopTransformPlan Plan = planLoopTransforms(P, Off);
  EXPECT_EQ(planOf(P, Plan), nullptr);
}

TEST(LoopPlanTest, GdaPlansHoistedFlattenedAccumulator) {
  // GDA's covariance loop reduces a matrix by in-place add: the plan must
  // hoist the accumulator initialization and flatten the two levels.
  CompileOptions CO;
  CO.T = Target::Sequential;
  CompileResult CR = compileProgram(apps::gda(), CO);
  LoopTransformPlan Plan = planLoopTransforms(CR.P);
  int Hoisted = 0, Flattened = 0;
  for (const auto &[Loop, Gens] : Plan.Gens)
    for (const GenLoopPlan &G : Gens) {
      Hoisted += G.HoistAccInit;
      Flattened += G.FlattenAcc;
    }
  EXPECT_GE(Hoisted, 1);
  EXPECT_GE(Flattened, 1);
}

//===----------------------------------------------------------------------===//
// IR-level transforms are bit-identical in the interpreter.
//===----------------------------------------------------------------------===//

namespace {

/// Compiles \p P twice — loop-transform layer on and off — and checks the
/// interpreter produces exactly (Tol = 0) the same value for both.
void expectPipelineOnOffExact(const Program &P, const InputMap &Inputs) {
  CompileOptions On;
  On.T = Target::Numa;
  CompileOptions Off = On;
  Off.EnableLoopTransforms = false;
  CompileResult A = compileProgram(P, On);
  CompileResult B = compileProgram(P, Off);
  Value VA = evalProgram(A.P, adaptInputs(P, A, Inputs));
  Value VB = evalProgram(B.P, adaptInputs(P, B, Inputs));
  EXPECT_TRUE(VA.deepEquals(VB, 0.0))
      << "loop-transform layer changed interpreter bits";
}

} // namespace

TEST(GatherPrecomputeTest, PageRankFiresAndStaysBitIdentical) {
  auto G = data::makeRmat(6, 4, 41);
  auto InCsr = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV), 0.015);
  InputMap In{{"in_offsets", Value::arrayOfInts(InCsr.Offsets)},
              {"in_edges", Value::arrayOfInts(InCsr.Edges)},
              {"outdeg", Value::arrayOfInts(G.OutDeg)},
              {"ranks", Value::arrayOfDoubles(Ranks)},
              {"numv", Value(G.NumV)}};

  CompileOptions On;
  On.T = Target::Numa;
  CompileResult CR = compileProgram(apps::pageRankPull(), On);
  EXPECT_TRUE(CR.applied("gather-precompute"));
  CompileOptions Off = On;
  Off.EnableLoopTransforms = false;
  EXPECT_FALSE(compileProgram(apps::pageRankPull(), Off)
                   .applied("gather-precompute"));

  expectPipelineOnOffExact(apps::pageRankPull(), In);
}

TEST(GatherPrecomputeTest, KMeansPipelineOnOffExact) {
  auto M = data::makeGaussianMixture(50, 4, 3, 42);
  auto C = data::makeCentroids(M, 3, 43);
  expectPipelineOnOffExact(apps::kmeansSharedMemory(),
                           {{"matrix", M.toValue()},
                            {"clusters", C.toValue()}});
}

//===----------------------------------------------------------------------===//
// Emitter transforms: generated C++ with the plan applied must match the
// untransformed emitter digest exactly, and the interpreter within float
// print tolerance.
//===----------------------------------------------------------------------===//

namespace {

void expectEmitterOnOffExact(const Program &P, const InputMap &Inputs,
                             const std::string &Name) {
  CompileOptions CO;
  CO.T = Target::Sequential;
  CompileResult CR = compileProgram(P, CO);
  InputMap Adapted = adaptInputs(P, CR, Inputs);

  CppEmitOptions On;
  On.TimingIters = 1;
  CppEmitOptions Off = On;
  Off.EnableLoopTransforms = false;
  GeneratedRunResult A =
      compileAndRun(CR.P, Adapted, ::testing::TempDir(), Name + "_lt", On);
  GeneratedRunResult B =
      compileAndRun(CR.P, Adapted, ::testing::TempDir(), Name + "_nolt", Off);
  ASSERT_TRUE(A.Ok) << ::testing::TempDir() << "/" << Name << "_lt.log";
  ASSERT_TRUE(B.Ok) << ::testing::TempDir() << "/" << Name << "_nolt.log";

  // The transformed program must reproduce the untransformed digest bit for
  // bit: the plans never reassociate floats.
  EXPECT_EQ(A.Sum.Count, B.Sum.Count);
  EXPECT_EQ(A.Sum.Sum, B.Sum.Sum);
  EXPECT_EQ(A.Sum.Abs, B.Sum.Abs);

  // And both must agree with the interpreter under the usual tolerance.
  Checksum Expected = checksumValue(evalProgram(CR.P, Adapted));
  EXPECT_EQ(A.Sum.Count, Expected.Count);
  double Scale = std::max(1.0, std::fabs(Expected.Abs));
  EXPECT_NEAR(A.Sum.Sum, Expected.Sum, 1e-6 * Scale);
  EXPECT_NEAR(A.Sum.Abs, Expected.Abs, 1e-6 * Scale);
}

} // namespace

TEST(EmitterTransformTest, MapReduceOnOffExact) {
  // Covers StripMine: the sqrt-heavy reduction lane-buffers its values.
  Program P = sumProgram([](ExprRef Xs, ExprRef I) {
    return unop(UnOpKind::Sqrt,
                unop(UnOpKind::Abs, arrayRead(Xs, I)));
  });
  expectEmitterOnOffExact(P, rampInputs(1000), "lt_sqrtsum");
}

TEST(EmitterTransformTest, GdaOnOffExact) {
  auto X = data::makeGaussianMixture(30, 3, 2, 44);
  auto Y = data::makeLabels(X, 45);
  expectEmitterOnOffExact(apps::gda(),
                          {{"x", X.toValue()}, {"y", Value::arrayOfInts(Y)}},
                          "lt_gda");
}

TEST(EmitterTransformTest, KMeansOnOffExact) {
  auto M = data::makeGaussianMixture(60, 4, 3, 46);
  auto C = data::makeCentroids(M, 3, 47);
  expectEmitterOnOffExact(apps::kmeansSharedMemory(),
                          {{"matrix", M.toValue()},
                           {"clusters", C.toValue()}},
                          "lt_kmeans");
}

TEST(EmitterTransformTest, PageRankOnOffExact) {
  auto G = data::makeRmat(6, 4, 48);
  auto InCsr = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV), 0.015);
  expectEmitterOnOffExact(
      apps::pageRankPull(),
      {{"in_offsets", Value::arrayOfInts(InCsr.Offsets)},
       {"in_edges", Value::arrayOfInts(InCsr.Edges)},
       {"outdeg", Value::arrayOfInts(G.OutDeg)},
       {"ranks", Value::arrayOfDoubles(Ranks)},
       {"numv", Value(G.NumV)}},
      "lt_pagerank");
}

//===----------------------------------------------------------------------===//
// Kernel VM wide blocks: bit-identical to the interpreter and to the
// scalar VM, sequential and chunked parallel.
//===----------------------------------------------------------------------===//

namespace {

Program wideMapProgram() {
  return collectProgram([](ExprRef Xs, ExprRef I) {
    return binop(BinOpKind::Add,
                 binop(BinOpKind::Mul, arrayRead(Xs, I), constF64(2.0)),
                 constF64(1.0));
  });
}

/// Runs \p P compiled for Target::Sequential on \p Threads workers under
/// the kernel engine, then under the interpreter.
std::pair<ExecutionReport, ExecutionReport>
kernelThenInterp(const Program &P, const InputMap &In, unsigned Threads) {
  CompileOptions CO;
  CO.T = Target::Sequential;
  ExecOptions Exec;
  Exec.Threads = Threads;
  Exec.Mode = engine::EngineMode::Kernel;
  ExecutionReport K = executeProgram(P, In, CO, Exec);
  Exec.Mode = engine::EngineMode::Interp;
  return {std::move(K), executeProgram(P, In, CO, Exec)};
}

} // namespace

TEST(WideKernelTest, MapRunsWideAndMatchesInterpExactly) {
  auto [K, I] = kernelThenInterp(wideMapProgram(), rampInputs(100000), 1);
  EXPECT_GT(K.WideBlocks, 0);
  EXPECT_EQ(K.Kernels.FallbackRuns, 0);
  EXPECT_TRUE(K.Result.deepEquals(I.Result, 0.0));
}

TEST(WideKernelTest, ParallelWideMatchesParallelInterpExactly) {
  auto [K, I] = kernelThenInterp(wideMapProgram(), rampInputs(100000), 4);
  EXPECT_GT(K.WideBlocks, 0);
  EXPECT_TRUE(K.Result.deepEquals(I.Result, 0.0));
}

TEST(WideKernelTest, WideToggleIsBitIdentical) {
  Program P = wideMapProgram();
  InputMap In = rampInputs(50000);

  ExecProfile POn, POff;
  EvalOptions On;
  On.Mode = engine::EngineMode::Kernel;
  On.Profile = &POn;
  EvalOptions Off = On;
  Off.WideKernels = false;
  Off.Profile = &POff;

  Value VOn = testutil::evalOk(P, In, On);
  Value VOff = testutil::evalOk(P, In, Off);
  EXPECT_GT(POn.WideBlocks, 0);
  EXPECT_EQ(POff.WideBlocks, 0);
  EXPECT_TRUE(VOn.deepEquals(VOff, 0.0));
}

TEST(WideKernelTest, BranchingKernelStaysScalarAndCorrect) {
  // A filtered collect compiles with conditional jumps: wide-ineligible.
  // The gate must fall back to the scalar stream and still match.
  Program P = collectProgram(
      [](ExprRef Xs, ExprRef I) { return arrayRead(Xs, I); },
      indexFunc("c", [&](ExprRef I) {
        return binop(BinOpKind::Lt, binop(BinOpKind::Mod, ExprRef(I),
                                          constI64(7)),
                     constI64(3));
      }));
  auto [K, I] = kernelThenInterp(P, rampInputs(50000), 1);
  EXPECT_EQ(K.WideBlocks, 0);
  EXPECT_EQ(K.Kernels.FallbackRuns, 0);
  EXPECT_TRUE(K.Result.deepEquals(I.Result, 0.0));
}

TEST(WideKernelTest, SumReductionParallelReassociationMatchesInterp) {
  // Reductions are wide-ineligible (ReduceStore); what matters is that the
  // kernel engine reproduces the interpreter's chunked reassociation bit
  // for bit at the same thread count and chunk size.
  Program P = sumProgram([](ExprRef Xs, ExprRef I) {
    return binop(BinOpKind::Mul, arrayRead(Xs, I), constF64(1.0000001));
  });
  auto [K, I] = kernelThenInterp(P, rampInputs(100000), 4);
  EXPECT_EQ(K.WideBlocks, 0);
  EXPECT_TRUE(K.Result.deepEquals(I.Result, 0.0));
}

//===----------------------------------------------------------------------===//
// Differential oracle matrix: the loop-transform ablation rides along.
//===----------------------------------------------------------------------===//

TEST(OracleMatrixTest, IncludesLoopTransformAblation) {
  bool Found = false;
  for (const fuzz::ExecConfig &C : fuzz::defaultConfigs())
    Found |= C.Optimize && !C.LoopTransforms;
  EXPECT_TRUE(Found)
      << "defaultConfigs() lost the transforms-off optimized configuration";
}
