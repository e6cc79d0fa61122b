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
#include <limits>
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

/// chunkCount (runtime/ThreadPool.h): W = chunkWork(WorkPerIter),
/// E = max(1, floor(MinChunk / W)), chunked iff Threads > 1 && N >= 2E,
/// into min(ceil(N / E), 4 * Threads) chunks.
TEST(ChunkCountTest, RuleTable) {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  struct Row {
    int64_t N;
    double W;
    unsigned Threads;
    int64_t MinChunk;
    int64_t Chunks;
  };
  const Row Rows[] = {
      // Work that is absent (0), negative, NaN or infinite counts as 1.
      {2048, 0, 4, 1024, 2},
      {2048, -1, 4, 1024, 2},
      {2048, NaN, 4, 1024, 2},
      {2048, Inf, 4, 1024, 2},
      {2047, Inf, 4, 1024, 1},
      // Heavy iterations: E bottoms out at one iteration per chunk.
      {1001, 1e9, 4, 1024, 16},
      {2, 1e9, 4, 1024, 2},
      {1, 1e9, 4, 1024, 1},
      // The daemon's loops: k-means (E = 1), logreg (E = 9), gda (E = 39),
      // pagerank (E = 341) and a 20-iteration loop (E = 256).
      {1001, 1056, 4, 1024, 16},
      {1001, 107, 4, 1024, 16},
      {1001, 26, 4, 1024, 16},
      {2048, 3, 4, 1024, 7},
      {20, 4, 4, 1024, 1},
      // One thread and an empty loop never split.
      {1001, 1e9, 1, 1024, 1},
      {0, 1e9, 4, 1024, 1},
      // The threshold N = 2E - 1 against N = 2E, at E = 100.
      {199, 10, 4, 1000, 1},
      {200, 10, 4, 1000, 2},
      // The cap at 4 x Threads.
      {int64_t(1) << 20, 1, 3, 1024, 12},
      // A MinChunk beyond any loop (from --min-chunk) stays sequential.
      {int64_t(1) << 40, 1, 4, std::numeric_limits<int64_t>::max(), 1},
  };
  for (const Row &R : Rows)
    EXPECT_EQ(chunkCount(R.N, R.W, R.Threads, R.MinChunk), R.Chunks)
        << "N=" << R.N << " W=" << R.W << " Threads=" << R.Threads
        << " MinChunk=" << R.MinChunk;
  EXPECT_EQ(chunkWork(NaN), 1.0);
  EXPECT_EQ(chunkWork(0.5), 1.0);
  EXPECT_EQ(chunkWork(463), 463.0);
}

/// At W = 1 the rule is the element-count rule it replaced.
TEST(ChunkCountTest, UnitWorkIsTheElementRule) {
  for (int64_t MinChunk : {1, 4, 32, 1000, 1024})
    for (unsigned Threads : {1u, 2u, 3u, 4u, 8u})
      for (int64_t N = 0; N <= 4200; ++N) {
        int64_t Old =
            Threads <= 1 || N < 2 * MinChunk
                ? 1
                : std::min<int64_t>((N + MinChunk - 1) / MinChunk,
                                    static_cast<int64_t>(Threads) * 4);
        ASSERT_EQ(chunkCount(N, 1, Threads, MinChunk), Old)
            << "N=" << N << " Threads=" << Threads
            << " MinChunk=" << MinChunk;
      }
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
