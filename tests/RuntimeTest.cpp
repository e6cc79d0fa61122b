//===- tests/RuntimeTest.cpp - Runtime substrate tests ---------*- C++ -*-===//

#include "TestUtil.h"
#include "apps/Apps.h"
#include "apps/Gibbs.h"
#include "data/Datasets.h"
#include "frontend/Frontend.h"
#include "runtime/DistArray.h"
#include "runtime/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>

using namespace dmll;
using namespace dmll::frontend;
using testutil::evalOk;

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(1000, 16, [&](int64_t B, int64_t E, unsigned) {
    for (int64_t I = B; I < E; ++I)
      Hits[static_cast<size_t>(I)].fetch_add(1);
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, EmptyAndSmallRanges) {
  ThreadPool Pool(4);
  int Calls = 0;
  Pool.parallelFor(0, 8, [&](int64_t, int64_t, unsigned) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  std::atomic<int64_t> Sum{0};
  Pool.parallelFor(5, 100, [&](int64_t B, int64_t E, unsigned) {
    Sum.fetch_add(E - B);
  });
  EXPECT_EQ(Sum.load(), 5);
}

TEST(ThreadPoolTest, RunExecutesOncePerWorker) {
  ThreadPool Pool(3);
  std::vector<std::atomic<int>> PerWorker(3);
  Pool.run([&](unsigned W) { PerWorker[W].fetch_add(1); });
  for (auto &C : PerWorker)
    EXPECT_EQ(C.load(), 1);
}

TEST(DistArrayTest, DirectoryPartitionsEvenly) {
  RangeDirectory D = RangeDirectory::evenBlocks(100, 4);
  EXPECT_EQ(D.numLocations(), 4);
  EXPECT_EQ(D.rangeOf(0), (std::pair<int64_t, int64_t>{0, 25}));
  EXPECT_EQ(D.rangeOf(3), (std::pair<int64_t, int64_t>{75, 100}));
  EXPECT_EQ(D.locationOf(0), 0);
  EXPECT_EQ(D.locationOf(24), 0);
  EXPECT_EQ(D.locationOf(25), 1);
  EXPECT_EQ(D.locationOf(99), 3);
}

TEST(DistArrayTest, UnevenSizes) {
  RangeDirectory D = RangeDirectory::evenBlocks(10, 3);
  int64_t Covered = 0;
  for (int L = 0; L < 3; ++L) {
    auto [B, E] = D.rangeOf(L);
    Covered += E - B;
    for (int64_t I = B; I < E; ++I)
      EXPECT_EQ(D.locationOf(I), L);
  }
  EXPECT_EQ(Covered, 10);
}

TEST(DistArrayTest, TrapsRemoteReads) {
  std::vector<double> Data(100);
  std::iota(Data.begin(), Data.end(), 0.0);
  DistArray<double> A(Data, RangeDirectory::evenBlocks(100, 4), /*Home=*/1);
  auto [B, E] = A.localRange();
  EXPECT_EQ(B, 25);
  EXPECT_EQ(E, 50);
  // Iterate the local range: all local.
  for (int64_t I = B; I < E; ++I)
    EXPECT_DOUBLE_EQ(A.read(I), static_cast<double>(I));
  EXPECT_EQ(A.stats().RemoteReads, 0);
  EXPECT_EQ(A.stats().LocalReads, 25);
  // A random access outside the chunk is trapped.
  EXPECT_DOUBLE_EQ(A.read(99), 99.0);
  EXPECT_EQ(A.stats().RemoteReads, 1);
  EXPECT_NEAR(A.stats().remoteFraction(), 1.0 / 26.0, 1e-12);
}

TEST(ParallelExecTest, MatchesSequentialOnReductions) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(sum(map(Xs, [](Val X) { return X * Val(0.5); })));
  std::vector<double> Data(5000);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<double>(I % 97) * 0.25;
  InputMap In{{"xs", Value::arrayOfDoubles(Data)}};
  Value Seq = evalProgram(P, In);
  Value Par = evalOk(P, In, 4, /*MinChunk=*/256);
  EXPECT_TRUE(Seq.deepEquals(Par, 1e-9));
  EXPECT_TRUE(Seq.deepEquals(evalOk(P, In, 4, 0), 1e-9)); // 0 selects 1024
}

TEST(ParallelExecTest, PreservesCollectOrder) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(filter(Xs, [](Val X) { return X > Val(10.0); }));
  std::vector<double> Data(4000);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<double>((I * 7919) % 23);
  InputMap In{{"xs", Value::arrayOfDoubles(Data)}};
  Value Seq = evalProgram(P, In);
  Value Par = evalOk(P, In, 4, 128);
  EXPECT_TRUE(Seq.deepEquals(Par, 0.0)); // exact: order must match
}

TEST(ParallelExecTest, PreservesHashBucketKeyOrder) {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Program P = B.build(groupBy(Xs, [](Val X) { return X % Val(int64_t(17)); }));
  std::vector<int64_t> Data(3000);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<int64_t>((I * 131) % 301);
  InputMap In{{"xs", Value::arrayOfInts(Data)}};
  Value Seq = evalProgram(P, In);
  Value Par = evalOk(P, In, 4, 200);
  EXPECT_TRUE(Seq.deepEquals(Par, 0.0));
}

TEST(ParallelExecTest, DenseBucketsMerge) {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceDense(
      Xs.len(), [&](Val I) { return XsV(I); },
      [](Val) { return Val(int64_t(1)); },
      [](Val A, Val C) { return A + C; }, Val(int64_t(8))));
  std::vector<int64_t> Data(4096);
  for (size_t I = 0; I < Data.size(); ++I)
    Data[I] = static_cast<int64_t>(I % 8);
  InputMap In{{"xs", Value::arrayOfInts(Data)}};
  Value Par = evalOk(P, In, 4, 100);
  ASSERT_EQ(Par.arraySize(), 8u);
  for (size_t K = 0; K < 8; ++K)
    EXPECT_EQ(Par.at(K).asInt(), 512);
}

TEST(ParallelExecTest, ExecutorRunsCompiledKMeans) {
  auto M = data::makeGaussianMixture(3000, 4, 3, 123);
  auto C = data::makeCentroids(M, 3, 124);
  InputMap In{{"matrix", M.toValue()}, {"clusters", C.toValue()}};
  CompileOptions Opts;
  Opts.T = Target::MultiCore;
  Program P = apps::kmeansSharedMemory();
  ExecOptions Exec;
  ExecutionReport Seq = executeProgram(P, In, Opts, Exec);
  Exec.Threads = 4;
  ExecutionReport Par = executeProgram(P, In, Opts, Exec);
  EXPECT_TRUE(Seq.Result.deepEquals(Par.Result, 1e-9));
}

TEST(GibbsTest, FlatAndPointerChainsAreIdentical) {
  auto F = data::makeFactorGraph(200, 4, 777);
  auto A = gibbs::sampleFlat(F, 20, 42);
  auto B = gibbs::samplePointer(F, 20, 42);
  ASSERT_EQ(A.Marginals.size(), B.Marginals.size());
  for (size_t V = 0; V < A.Marginals.size(); ++V)
    EXPECT_DOUBLE_EQ(A.Marginals[V], B.Marginals[V]);
  EXPECT_EQ(A.Updates, B.Updates);
}

TEST(GibbsTest, HogwildConvergesToSimilarMarginals) {
  auto F = data::makeFactorGraph(300, 4, 778);
  int Sweeps = 200;
  auto Seq = gibbs::sampleFlat(F, Sweeps, 99);
  auto Hog = gibbs::sampleHogwild(F, Sweeps, 99, 4);
  // Hogwild races perturb individual samples but the average marginal
  // error stays small.
  double Err = 0;
  for (size_t V = 0; V < Seq.Marginals.size(); ++V)
    Err += std::fabs(Seq.Marginals[V] - Hog.Marginals[V]);
  Err /= static_cast<double>(Seq.Marginals.size());
  EXPECT_LT(Err, 0.3); // racy by design; loose bound
}

TEST(GibbsTest, ReplicatedAveragesModels) {
  auto F = data::makeFactorGraph(200, 3, 779);
  auto R = gibbs::sampleReplicated(F, 50, 5, 4, 2);
  EXPECT_EQ(R.Updates, int64_t(200) * 50 * 4);
  for (double M : R.Marginals) {
    EXPECT_GE(M, 0.0);
    EXPECT_LE(M, 1.0);
  }
}
