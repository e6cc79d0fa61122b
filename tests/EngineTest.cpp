//===- tests/EngineTest.cpp - Kernel engine vs interpreter -----*- C++ -*-===//
//
// Differential tests of the unboxed kernel engine (src/engine,
// docs/EXECUTION.md): every program is evaluated under EngineMode::Interp
// and EngineMode::Kernel and the results must be *bit-for-bit* identical
// (deepEquals with tolerance 0), sequentially and chunked-parallel — the
// engine replicates the interpreter's chunk boundaries and index-ordered
// merges, so even float reassociation agrees. Also covered: transparent
// fallback for unlowerable loops, launch-time binding rejection, empty and
// negative-size loops, Auto-mode thresholds, and the KernelStats surface.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "apps/Apps.h"
#include "data/Datasets.h"
#include "engine/Engine.h"
#include "frontend/Frontend.h"
#include "graph/Graph.h"
#include "runtime/ThreadPool.h"
#include "service/Catalog.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

using namespace dmll;
using namespace dmll::frontend;

namespace {

/// Evaluates \p P under \p Mode; MinChunk 32 so the small test datasets
/// still take the chunked-parallel path at 3 threads.
Value runMode(const Program &P, const InputMap &In, engine::EngineMode Mode,
              unsigned Threads, engine::KernelStats *KS = nullptr) {
  EvalOptions Opts;
  Opts.Threads = Threads;
  Opts.MinChunk = 32;
  Opts.Mode = Mode;
  Opts.Kernels = KS;
  return testutil::evalOk(P, In, Opts);
}

/// The differential property: Kernel == Interp bit-for-bit at 1 and 3
/// threads (equal Threads/MinChunk on both sides).
void expectEnginesAgree(const Program &P, const InputMap &In) {
  ASSERT_TRUE(verify(P).empty());
  for (unsigned Threads : {1u, 3u}) {
    Value Expected = runMode(P, In, engine::EngineMode::Interp, Threads);
    engine::KernelStats KS;
    Value Actual = runMode(P, In, engine::EngineMode::Kernel, Threads, &KS);
    EXPECT_TRUE(Expected.deepEquals(Actual, 0.0))
        << "threads=" << Threads << "\nexpected: " << Expected.str()
        << "\nactual:   " << Actual.str();
    // Every loop either launched as a kernel or is accounted as a fallback.
    EXPECT_EQ(KS.Fallbacks.size(), static_cast<size_t>(KS.FallbackLoops));
  }
}

/// Same, after full compilation for a target (fusion etc. applied).
void expectEnginesAgreeCompiled(const Program &P, const InputMap &In,
                                Target T = Target::Numa) {
  CompileOptions Opts;
  Opts.T = T;
  CompileResult CR = compileProgram(P, Opts);
  expectEnginesAgree(CR.P, adaptInputs(P, CR, In));
}

InputMap kmeansInputs(uint64_t Seed) {
  auto M = data::makeGaussianMixture(40, 4, 3, Seed);
  auto C = data::makeCentroids(M, 3, Seed + 1);
  return {{"matrix", M.toValue()}, {"clusters", C.toValue()}};
}

//===----------------------------------------------------------------------===//
// Every src/apps workload, as written and compiled.
//===----------------------------------------------------------------------===//

TEST(EngineApps, KMeansShared) {
  expectEnginesAgree(apps::kmeansSharedMemory(), kmeansInputs(7));
  expectEnginesAgreeCompiled(apps::kmeansSharedMemory(), kmeansInputs(7));
}

TEST(EngineApps, KMeansGroupBy) {
  expectEnginesAgree(apps::kmeansGroupBy(), kmeansInputs(17));
  expectEnginesAgreeCompiled(apps::kmeansGroupBy(), kmeansInputs(17));
}

TEST(EngineApps, LogReg) {
  auto X = data::makeGaussianMixture(25, 3, 2, 5);
  auto Y = data::makeLabels(X, 6);
  std::vector<double> Theta(X.Cols, 0.05), YD(Y.begin(), Y.end());
  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfDoubles(YD)},
              {"theta", Value::arrayOfDoubles(Theta)},
              {"alpha", Value(0.1)}};
  expectEnginesAgree(apps::logreg(), In);
  expectEnginesAgreeCompiled(apps::logreg(), In);
}

TEST(EngineApps, Gda) {
  auto X = data::makeGaussianMixture(20, 3, 2, 11);
  auto Y = data::makeLabels(X, 12);
  InputMap In{{"x", X.toValue()}, {"y", Value::arrayOfInts(Y)}};
  expectEnginesAgree(apps::gda(), In);
  expectEnginesAgreeCompiled(apps::gda(), In);
}

TEST(EngineApps, TpchQ1) {
  auto L = data::makeLineItems(200, 23);
  InputMap In{{"lineitems", L.toAosValue()},
              {"cutoff", Value(int64_t(9500))}};
  expectEnginesAgree(apps::tpchQ1(), In);
  expectEnginesAgreeCompiled(apps::tpchQ1(), In);
}

TEST(EngineApps, Gene) {
  auto G = data::makeGeneReads(150, 20, 31);
  InputMap In{{"genes", G.toAosValue()}, {"min_quality", Value(10.0)}};
  expectEnginesAgree(apps::geneBarcoding(), In);
  expectEnginesAgreeCompiled(apps::geneBarcoding(), In);
}

TEST(EngineApps, PageRankPull) {
  auto G = data::makeRmat(6, 4, 41);
  auto In = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV),
                            1.0 / static_cast<double>(G.NumV));
  InputMap Im{{"in_offsets", Value::arrayOfInts(In.Offsets)},
              {"in_edges", Value::arrayOfInts(In.Edges)},
              {"outdeg", Value::arrayOfInts(G.OutDeg)},
              {"ranks", Value::arrayOfDoubles(Ranks)},
              {"numv", Value(G.NumV)}};
  expectEnginesAgree(apps::pageRankPull(), Im);
  expectEnginesAgreeCompiled(apps::pageRankPull(), Im);
}

TEST(EngineApps, PageRankPush) {
  auto G = data::makeRmat(5, 4, 43);
  std::vector<double> Ranks(static_cast<size_t>(G.NumV), 0.01);
  std::vector<int64_t> Srcs, Dsts;
  for (int64_t U = 0; U < G.NumV; ++U)
    for (int64_t E = G.Offsets[U]; E < G.Offsets[U + 1]; ++E) {
      Srcs.push_back(U);
      Dsts.push_back(G.Edges[static_cast<size_t>(E)]);
    }
  InputMap Im{{"edge_src", Value::arrayOfInts(Srcs)},
              {"edge_dst", Value::arrayOfInts(Dsts)},
              {"outdeg", Value::arrayOfInts(G.OutDeg)},
              {"ranks", Value::arrayOfDoubles(Ranks)},
              {"numv", Value(G.NumV)}};
  expectEnginesAgree(apps::pageRankPush(), Im);
  expectEnginesAgreeCompiled(apps::pageRankPush(), Im);
}

TEST(EngineApps, TriangleCount) {
  auto G = graph::symmetrize(data::makeRmat(5, 3, 47));
  std::vector<int64_t> Srcs, Dsts;
  for (int64_t U = 0; U < G.NumV; ++U)
    for (int64_t E = G.Offsets[U]; E < G.Offsets[U + 1]; ++E) {
      Srcs.push_back(U);
      Dsts.push_back(G.Edges[static_cast<size_t>(E)]);
    }
  InputMap Im{{"offsets", Value::arrayOfInts(G.Offsets)},
              {"edges", Value::arrayOfInts(G.Edges)},
              {"edge_src", Value::arrayOfInts(Srcs)},
              {"edge_dst", Value::arrayOfInts(Dsts)}};
  expectEnginesAgree(apps::triangleCount(), Im);
  expectEnginesAgreeCompiled(apps::triangleCount(), Im);
}

TEST(EngineApps, Knn) {
  auto Train = data::makeGaussianMixture(30, 3, 3, 51);
  auto TrainY = data::makeLabels(Train, 52);
  auto Test = data::makeGaussianMixture(10, 3, 3, 53);
  InputMap In{{"train", Train.toValue()},
              {"train_y", Value::arrayOfInts(TrainY)},
              {"test", Test.toValue()},
              {"num_labels", Value(int64_t(2))}};
  expectEnginesAgree(apps::knn(), In);
  expectEnginesAgreeCompiled(apps::knn(), In);
}

TEST(EngineApps, NaiveBayes) {
  auto X = data::makeGaussianMixture(25, 4, 2, 61);
  auto Y = data::makeLabels(X, 62);
  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfInts(Y)},
              {"num_classes", Value(int64_t(2))}};
  expectEnginesAgree(apps::naiveBayes(), In);
  expectEnginesAgreeCompiled(apps::naiveBayes(), In);
}

//===----------------------------------------------------------------------===//
// PropertySweep-style randomized programs.
//===----------------------------------------------------------------------===//

class EngineSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineSweep, GroupByPipeline) {
  Rng R(GetParam());
  std::vector<int64_t> Data(50 + R.nextBelow(200));
  for (int64_t &D : Data)
    D = static_cast<int64_t>(R.nextBelow(41)) - 20;
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val Kept = filter(Xs, [](Val X) { return X != Val(int64_t(0)); });
  Val Groups = groupBy(Kept, [](Val X) { return X % Val(int64_t(5)); });
  Val Buckets = Groups.field("values");
  Val BucketsV = Buckets;
  Val Sums = tabulate(Buckets.len(), [&](Val K) {
    return sum(map(BucketsV(K), [](Val X) { return toF64(X); }));
  });
  Program P = B.build(
      makeStruct({{"keys", Type::arrayOf(Type::i64())},
                  {"sums", Type::arrayOf(Type::f64())}},
                 {Groups.field("keys").expr(), Sums.expr()}));
  expectEnginesAgree(P, {{"xs", Value::arrayOfInts(Data)}});
}

TEST_P(EngineSweep, ScalarOpMix) {
  // Exercises the whole instruction set: select, comparisons on both
  // banks, min/max, mod, abs/neg, exp/log/sqrt, casts, and/or.
  Rng R(GetParam());
  std::vector<double> Data(256 + R.nextBelow(1024));
  for (double &D : Data)
    D = R.nextGaussian() * 3.0;
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Val Loop = sumRange(Xs.len(), [&](Val I) {
    Val X = XsV(I);
    Val K = toI64(X * Val(10.0)) % Val(int64_t(7));
    Val C = (X > Val(0.0) && K != Val(int64_t(3))) || X < Val(-2.5);
    Val Y = vselect(C, vsqrt(vabs(X)) + vexp(-vabs(X)), vlog(vabs(X) +
                                                             Val(1.0)));
    return vmin(vmax(Y, -X), toF64(K) + Y * Val(0.25));
  });
  Program P = B.build(Loop);
  expectEnginesAgree(P, {{"xs", Value::arrayOfDoubles(Data)}});
}

TEST_P(EngineSweep, DenseBuckets) {
  Rng R(GetParam());
  std::vector<int64_t> Data(200 + R.nextBelow(800));
  for (int64_t &D : Data)
    D = static_cast<int64_t>(R.nextBelow(16));
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceDense(
      Xs.len(), [&](Val I) { return XsV(I); },
      [&](Val I) { return toF64(XsV(I)) * 0.5; },
      [](Val A, Val C) { return A + C; }, Val(int64_t(16))));
  expectEnginesAgree(P, {{"xs", Value::arrayOfInts(Data)}});
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// Bit-for-bit equality: the same kinds, shapes and float bit patterns
/// (-0.0 is not 0.0 here, unlike deepEquals).
bool sameBits(const Value &A, const Value &B) {
  if (A.isArray() || B.isArray()) {
    if (!A.isArray() || !B.isArray() || A.arraySize() != B.arraySize())
      return false;
    for (size_t I = 0; I < A.arraySize(); ++I)
      if (!sameBits(A.at(I), B.at(I)))
        return false;
    return true;
  }
  if (A.isStruct() || B.isStruct()) {
    if (!A.isStruct() || !B.isStruct())
      return false;
    const auto &FA = A.strct()->Fields, &FB = B.strct()->Fields;
    if (FA.size() != FB.size())
      return false;
    for (size_t I = 0; I < FA.size(); ++I)
      if (!sameBits(FA[I], FB[I]))
        return false;
    return true;
  }
  if (A.isFloat() && B.isFloat()) {
    double X = A.asFloat(), Y = B.asFloat();
    return std::memcmp(&X, &Y, sizeof X) == 0;
  }
  if (A.isInt() && B.isInt())
    return A.asInt() == B.asInt();
  return A.isBool() && B.isBool() && A.asBool() == B.asBool();
}

/// The six catalog apps at the daemon's settings (Auto, MinChunk 1024) and
/// the benchmark's scales: every closed loop Auto hands to the engine runs
/// as a kernel, nested patterns included, with the interpreter's bits.
TEST(EngineApps, CatalogAppsRunOnKernelsAtDaemonSettings) {
  for (const std::string &App : service::appNames()) {
    bool Nested = App == "k-means" || App == "gda" || App == "logreg";
    service::AppCase C;
    ASSERT_TRUE(service::makeApp(App, Nested ? 50 : 10, C));
    CompileResult CR = compileProgram(C.P, CompileOptions());
    InputMap In = adaptInputs(C.P, CR, C.Inputs);
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(App + " at " + std::to_string(Threads) + " threads");
      EvalOptions Opts;
      Opts.Threads = Threads;
      Opts.MinChunk = 1024;
      Opts.Mode = engine::EngineMode::Interp;
      Value Expected = testutil::evalOk(CR.P, In, Opts);
      engine::KernelStats KS;
      Opts.Mode = engine::EngineMode::Auto;
      Opts.Kernels = &KS;
      Value Actual = testutil::evalOk(CR.P, In, Opts);
      EXPECT_TRUE(sameBits(Expected, Actual));
      EXPECT_GE(KS.Compiled, 1);
      EXPECT_EQ(KS.FallbackLoops, 0)
          << (KS.Fallbacks.empty() ? "" : KS.Fallbacks[0]);
      EXPECT_EQ(KS.FallbackRuns, 0);
    }
  }
}

/// Two threads run one bound handle at once, each on its own pool: the
/// handle's tables are read-only, and its column store and kernel cache
/// fill under their locks, so both results are bit-identical to
/// evalProgramRecover's. pagerank's rank loop also reads a column its run
/// computes, which each run flattens into its own cache.
TEST(EngineApps, OneHandleRunsOnTwoThreadsAtOnce) {
  for (const auto &[App, Scale] : std::vector<std::pair<std::string, int>>{
           {"pagerank", 10}, {"tpch-q1", 50}, {"k-means", 200}}) {
    SCOPED_TRACE(App);
    service::AppCase C;
    ASSERT_TRUE(service::makeApp(App, Scale, C));
    CompileResult CR = compileProgram(C.P, CompileOptions());
    InputMap In = adaptInputs(C.P, CR, C.Inputs);
    CompiledProgram H = CompiledProgram(CR.P).bind(In);
    EvalOptions Opts;
    Opts.Threads = 2;
    Opts.MinChunk = 64;
    Opts.Mode = engine::EngineMode::Auto;
    Value Expected = testutil::evalOk(CR.P, In, Opts);
    Value Got[2];
    std::vector<std::thread> Runners;
    for (Value &Out : Got)
      Runners.emplace_back([&] {
        ThreadPool Pool(2);
        EvalOptions O = Opts;
        O.Pool = &Pool;
        for (int Rep = 0; Rep < 3; ++Rep) {
          ExecResult R = run(H, O);
          if (R.ok())
            Out = R.Out;
        }
      });
    for (std::thread &T : Runners)
      T.join();
    for (const Value &Out : Got)
      EXPECT_TRUE(sameBits(Expected, Out));
  }
}

/// Vector reductions, 1 and 2 levels and into dense buckets, whose element
/// 1 is -0.0 in every value. The first value is copied, never added to
/// zero (0.0 + -0.0 is +0.0), so the element keeps its sign in the
/// interpreter and the kernel alike, across chunk merges too.
TEST(EngineApps, VectorReduceKeepsNegativeZero) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  auto Elem = [&](Val I, Val K) {
    return vselect(K == Val(int64_t(1)), Val(-0.0), XsV(I) * toF64(K));
  };
  auto Row = [&](Val I) {
    Val IV = I;
    return tabulate(Val(int64_t(3)), [&](Val K) { return Elem(IV, K); });
  };
  auto Add = [](Val A, Val C) {
    return zipWith(A, C, [](Val X, Val Y) { return X + Y; });
  };
  Program One = B.build(sumRange(Xs.len(), Row));
  Program Two = B.build(sumRange(Xs.len(), [&](Val I) {
    Val IV = I;
    return tabulate(Val(int64_t(2)), [&](Val) { return Row(IV); });
  }));
  Program Dense = B.build(bucketReduceDense(
      Xs.len(), [](Val I) { return I % Val(int64_t(3)); }, Row, Add,
      Val(int64_t(4))));
  std::vector<double> Data(40);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = 0.25 * static_cast<double>(I);
  InputMap In{{"xs", Value::arrayOfDoubles(Data)}};
  for (const Program *P : {&One, &Two, &Dense})
    for (unsigned Threads : {1u, 3u}) {
      Value Expected = runMode(*P, In, engine::EngineMode::Interp, Threads);
      engine::KernelStats KS;
      Value Actual =
          runMode(*P, In, engine::EngineMode::Kernel, Threads, &KS);
      EXPECT_EQ(KS.FallbackLoops, 0);
      EXPECT_TRUE(sameBits(Expected, Actual))
          << Expected.str() << "\nvs " << Actual.str();
      const Value &First = P == &One ? Actual : Actual.at(0);
      EXPECT_TRUE(std::signbit(First.at(1).asFloat())) << Actual.str();
    }
}

//===----------------------------------------------------------------------===//
// Fallback, edge cases, and the stats surface.
//===----------------------------------------------------------------------===//

TEST(EngineFallback, LoopVaryingInnerLoopFallsBack) {
  // The inner sum runs over a loop-varying Flatten, which has no bytecode
  // form (an inner Reduce or Collect alone would lower). The engine must
  // record the fallback and defer to the interpreter with identical
  // results.
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(tabulate(N, [](Val I) {
    return sum(flatMap(tabulate(I + Val(int64_t(1)), [](Val J) { return J; }),
                       [](Val J) {
                         return tabulate(J, [](Val K) { return K * K; });
                       }));
  }));
  InputMap In{{"n", Value(int64_t(40))}};
  Value Expected = runMode(P, In, engine::EngineMode::Interp, 1);
  engine::KernelStats KS;
  Value Actual = runMode(P, In, engine::EngineMode::Kernel, 1, &KS);
  EXPECT_TRUE(Expected.deepEquals(Actual, 0.0));
  EXPECT_GT(KS.FallbackLoops, 0);
  EXPECT_GT(KS.FallbackRuns, 0);
  ASSERT_FALSE(KS.Fallbacks.empty());
  // The recorded reason names the loop and the cause.
  EXPECT_NE(KS.Fallbacks[0].find(": "), std::string::npos);
}

TEST(EngineFallback, DynamicKindMismatchRejectsAtLaunch) {
  // @xs is declared Array[f64] but bound to ints at runtime. Lowering
  // succeeds (static types are fine); launch-time column binding sees the
  // dynamic kind mismatch and rejects, falling back per-run.
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Program P = B.build(
      sumRange(Xs.len(), [&](Val I) { return XsV(I) * Val(2.0); }));
  InputMap In{{"xs", Value::arrayOfInts({1, 2, 3, 4, 5})}};
  Value Expected = runMode(P, In, engine::EngineMode::Interp, 1);
  engine::KernelStats KS;
  Value Actual = runMode(P, In, engine::EngineMode::Kernel, 1, &KS);
  EXPECT_TRUE(Expected.deepEquals(Actual, 0.0));
  EXPECT_EQ(KS.Compiled, 1);
  EXPECT_EQ(KS.Launches, 0);
  EXPECT_GT(KS.FallbackRuns, 0);
}

TEST(EngineEdge, EmptyLoop) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Program P = B.build(makeStruct(
      {{"sum", Type::f64()}, {"squares", Type::arrayOf(Type::f64())}},
      {sumRange(Xs.len(), [&](Val I) { return XsV(I); }).expr(),
       tabulate(Xs.len(), [&](Val I) { return XsV(I) * XsV(I); }).expr()}));
  InputMap In{{"xs", Value::arrayOfDoubles({})}};
  Value Expected = runMode(P, In, engine::EngineMode::Interp, 1);
  Value Actual = runMode(P, In, engine::EngineMode::Kernel, 1);
  EXPECT_TRUE(Expected.deepEquals(Actual, 0.0));
  // Empty reduction still produces the zero of the value type.
  EXPECT_EQ(Actual.strct()->Fields[0].asFloat(), 0.0);
  EXPECT_EQ(Actual.strct()->Fields[1].arraySize(), 0u);
}

TEST(EngineEdge, EmptyDenseBucketsStillSized) {
  // N == 0 must still evaluate NumKeys (the interpreter does) and produce
  // NumKeys zeroed buckets.
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceDense(
      Xs.len(), [&](Val I) { return XsV(I); },
      [](Val) { return Val(int64_t(1)); },
      [](Val A, Val C) { return A + C; }, Val(int64_t(6))));
  InputMap In{{"xs", Value::arrayOfInts({})}};
  Value Expected = runMode(P, In, engine::EngineMode::Interp, 1);
  Value Actual = runMode(P, In, engine::EngineMode::Kernel, 1);
  EXPECT_TRUE(Expected.deepEquals(Actual, 0.0));
  EXPECT_EQ(Actual.arraySize(), 6u);
}

TEST(EngineEdgeTrapTest, NegativeSizeTrapsLikeInterp) {
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(sumRange(N, [](Val I) { return toF64(I); }));
  EvalOptions Opts;
  Opts.Mode = engine::EngineMode::Kernel;
  ExecResult R = evalProgramRecover(P, {{"n", Value(int64_t(-3))}}, Opts);
  EXPECT_EQ(R.Status, ExecStatus::Trapped);
  EXPECT_NE(R.TrapMessage.find("negative multiloop size -3"),
            std::string::npos)
      << R.TrapMessage;
}

TEST(EngineEdgeTrapTest, DenseKeyOutOfRangeTrapsLikeInterp) {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceDense(
      Xs.len(), [&](Val I) { return XsV(I); },
      [](Val) { return Val(int64_t(1)); },
      [](Val A, Val C) { return A + C; }, Val(int64_t(4))));
  EvalOptions Opts;
  Opts.Mode = engine::EngineMode::Kernel;
  ExecResult R =
      evalProgramRecover(P, {{"xs", Value::arrayOfInts({0, 1, 99})}}, Opts);
  EXPECT_EQ(R.Status, ExecStatus::Trapped);
  EXPECT_NE(R.TrapMessage.find("dense bucket key 99 out of range"),
            std::string::npos)
      << R.TrapMessage;
}

TEST(EngineEdgeTrapTest, BucketValueTrapsBeforeItsKey) {
  // At i == 3 both the key (10 / 0) and the value (xs(3) of 3) trap. The
  // interpreter evaluates a bucket generator's value before its key, so
  // the out-of-range read is the trap both engines raise.
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceHash(
      Val(int64_t(8)),
      [](Val I) { return Val(int64_t(10)) / (I - Val(int64_t(3))); },
      [&](Val I) { return XsV(I); }, [](Val A, Val C) { return A + C; }));
  InputMap In{{"xs", Value::arrayOfInts({1, 2, 3})}};
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel}) {
    EvalOptions Opts;
    Opts.Mode = Mode;
    ExecResult R = evalProgramRecover(P, In, Opts);
    EXPECT_EQ(R.Status, ExecStatus::Trapped);
    EXPECT_EQ(R.TrapMessage, "array read out of range: index 3, size 3")
        << engine::engineModeName(Mode);
  }
}

TEST(EngineStats, CompileOnceLaunchMany) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Program P = B.build(
      sumRange(Xs.len(), [&](Val I) { return XsV(I) * XsV(I); }));
  std::vector<double> Data(4096, 1.5);
  InputMap In{{"xs", Value::arrayOfDoubles(Data)}};
  engine::KernelStats KS;
  (void)runMode(P, In, engine::EngineMode::Kernel, 1, &KS);
  EXPECT_EQ(KS.Compiled, 1);
  EXPECT_EQ(KS.FallbackLoops, 0);
  EXPECT_EQ(KS.Launches, 1);
  ASSERT_EQ(KS.Kernels.size(), 1u);
  EXPECT_EQ(KS.Kernels[0].Launches, 1);
  EXPECT_EQ(KS.Kernels[0].Iters, 4096);
  EXPECT_FALSE(KS.Kernels[0].Loop.empty());
  EXPECT_GE(KS.CompileMillis, 0.0);
}

//===----------------------------------------------------------------------===//
// The chunk rule at the daemon's knobs: a loop splits by its static work.
//===----------------------------------------------------------------------===//

/// The daemon's nested catalog apps at scale 50 loop over N = 1,001 rows,
/// below 2 x MinChunk, but a row costs 26 to 1,056 flops: at 4 threads and
/// MinChunk 1024 every row loop runs in 16 chunks, on either engine, with
/// equal results.
TEST(EngineChunking, NestedCatalogAppsSplitRowLoopsByWork) {
  for (const char *App : {"k-means", "gda", "logreg"}) {
    SCOPED_TRACE(App);
    service::AppCase C;
    ASSERT_TRUE(service::makeApp(App, 50, C));
    CompileResult CR = compileProgram(C.P, CompileOptions());
    InputMap In = adaptInputs(C.P, CR, C.Inputs);
    Value Ref = evalProgram(C.P, C.Inputs);
    std::vector<Value> Outs;
    for (engine::EngineMode Mode :
         {engine::EngineMode::Interp, engine::EngineMode::Auto}) {
      ExecProfile Prof;
      EvalOptions Opts;
      Opts.Threads = 4;
      Opts.MinChunk = 1024;
      Opts.Mode = Mode;
      Opts.Profile = &Prof;
      Outs.push_back(testutil::evalOk(CR.P, In, Opts));
      EXPECT_TRUE(Outs.back().deepEquals(Ref, 1e-6));
      EXPECT_GE(Prof.ParallelLoops, 1);
      int RowLoops = 0;
      for (const LoopProfile &L : Prof.Loops)
        if (L.Iters == C.N) {
          ++RowLoops;
          EXPECT_EQ(L.Chunks, 16) << L.Loop;
          EXPECT_GE(L.Work, 26.0) << L.Loop;
        }
      EXPECT_GE(RowLoops, 1);
    }
    EXPECT_TRUE(Outs[0].deepEquals(Outs[1], 0.0));
  }
}

/// pagerank@10's chunked interpreter loop reads a closed gather loop
/// (N = 2,048, work 3). The loop's evaluator runs it on the whole pool
/// before the chunks start — in 7 chunks at 4 threads and MinChunk 1024 —
/// instead of in the one chunk worker that reaches it first; the result is
/// unchanged.
TEST(EngineChunking, ClosedGatherLoopRunsBeforeTheChunks) {
  service::AppCase C;
  ASSERT_TRUE(service::makeApp("pagerank", 10, C));
  CompileResult CR = compileProgram(C.P, CompileOptions());
  InputMap In = adaptInputs(C.P, CR, C.Inputs);
  ExecProfile Prof;
  EvalOptions Opts;
  Opts.Threads = 4;
  Opts.MinChunk = 1024;
  Opts.Mode = engine::EngineMode::Auto;
  Opts.Profile = &Prof;
  Value Out = testutil::evalOk(CR.P, In, Opts);
  EXPECT_TRUE(Out.deepEquals(evalProgram(CR.P, In), 0.0));
  // The rank loop has the same signature and length and runs on the kernel
  // engine too; the gather (work 3 per iteration) is the one split into 7
  // chunks, and it ran with the whole pool.
  int Kernels = 0, Gathers = 0;
  for (const LoopProfile &L : Prof.Loops)
    if (L.Loop == "Multiloop[Collect]" && L.Engine == "kernel") {
      EXPECT_EQ(L.Iters, 2048);
      EXPECT_EQ(L.Threads, 4u);
      ++Kernels;
      Gathers += L.Chunks == 7;
    }
  EXPECT_EQ(Kernels, 2);
  EXPECT_EQ(Gathers, 1);
}

TEST(EngineStats, AutoModeSkipsTinyLoops) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Program P = B.build(
      sumRange(Xs.len(), [&](Val I) { return XsV(I) + Val(1.0); }));
  {
    // Below the Auto threshold: no kernel compile, no launch.
    std::vector<double> Tiny(engine::AutoMinIters - 1, 1.0);
    engine::KernelStats KS;
    (void)runMode(P, {{"xs", Value::arrayOfDoubles(Tiny)}},
                  engine::EngineMode::Auto, 1, &KS);
    EXPECT_EQ(KS.Compiled, 0);
    EXPECT_EQ(KS.Launches, 0);
  }
  {
    std::vector<double> Big(engine::AutoMinIters, 1.0);
    engine::KernelStats KS;
    (void)runMode(P, {{"xs", Value::arrayOfDoubles(Big)}},
                  engine::EngineMode::Auto, 1, &KS);
    EXPECT_EQ(KS.Compiled, 1);
    EXPECT_EQ(KS.Launches, 1);
  }
}

} // namespace
