//===- tests/PropertySweepTest.cpp - Randomized equivalence sweeps -*- C++ -*-===//
//
// Property-style sweeps (TEST_P over data seeds): for many random datasets,
// the fully optimized program must evaluate identically to the program as
// written. This is the repository's central invariant, exercised across
// dataset shapes that include edge cases (empty clusters, all-filtered
// groups, skewed keys).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "apps/Apps.h"
#include "data/Datasets.h"
#include "frontend/Frontend.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace dmll;
using namespace dmll::frontend;
using testutil::expectSameResult;

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, KMeansEquivalence) {
  uint64_t Seed = GetParam();
  Rng R(Seed);
  size_t Rows = 10 + R.nextBelow(40);
  size_t Cols = 1 + R.nextBelow(6);
  size_t K = 1 + R.nextBelow(5);
  auto M = data::makeGaussianMixture(Rows, Cols, K, Seed);
  auto C = data::makeCentroids(M, K, Seed + 1);
  expectSameResult(apps::kmeansSharedMemory(),
                   {{"matrix", M.toValue()}, {"clusters", C.toValue()}},
                   Target::Numa, 1e-9);
}

TEST_P(SeedSweep, TpchQ1Equivalence) {
  uint64_t Seed = GetParam();
  Rng R(Seed);
  size_t N = 20 + R.nextBelow(150);
  // Sweep the cutoff so some runs filter everything or nothing.
  int64_t Cutoff = static_cast<int64_t>(R.nextBelow(12000));
  auto L = data::makeLineItems(N, Seed);
  expectSameResult(apps::tpchQ1(),
                   {{"lineitems", L.toAosValue()}, {"cutoff", Value(Cutoff)}},
                   Target::Numa, 1e-9);
}

TEST_P(SeedSweep, GeneEquivalence) {
  uint64_t Seed = GetParam();
  Rng R(Seed);
  auto G = data::makeGeneReads(30 + R.nextBelow(120), 1 + R.nextBelow(30),
                               Seed);
  double MinQ = R.nextDouble() * 45.0; // sometimes filters ~everything
  expectSameResult(apps::geneBarcoding(),
                   {{"genes", G.toAosValue()}, {"min_quality", Value(MinQ)}},
                   Target::Numa, 1e-9);
}

TEST_P(SeedSweep, LogRegEquivalenceAllTargets) {
  uint64_t Seed = GetParam();
  Rng R(Seed);
  auto X = data::makeGaussianMixture(8 + R.nextBelow(30),
                                     1 + R.nextBelow(8), 2, Seed);
  auto Y = data::makeLabels(X, Seed + 3);
  std::vector<double> Theta(X.Cols), YD(Y.begin(), Y.end());
  for (double &T : Theta)
    T = R.nextGaussian() * 0.1;
  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfDoubles(YD)},
              {"theta", Value::arrayOfDoubles(Theta)},
              {"alpha", Value(R.nextDouble())}};
  expectSameResult(apps::logreg(), In, Target::Numa, 1e-9);
  expectSameResult(apps::logreg(), In, Target::Gpu, 1e-9);
}

TEST_P(SeedSweep, GroupByPipelinesEquivalence) {
  // A synthetic pipeline mixing every bucket feature: filter -> groupBy ->
  // per-group sum, count and average, with signed keys.
  uint64_t Seed = GetParam();
  Rng R(Seed);
  std::vector<int64_t> Data(50 + R.nextBelow(200));
  for (int64_t &D : Data)
    D = static_cast<int64_t>(R.nextBelow(41)) - 20;
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs", LayoutHint::Partitioned);
  Val Kept = filter(Xs, [](Val X) { return X != Val(int64_t(0)); });
  Val Groups = groupBy(Kept, [](Val X) { return X % Val(int64_t(5)); });
  Val Buckets = Groups.field("values");
  Val BucketsV = Buckets;
  Val Sums = tabulate(Buckets.len(), [&](Val K) {
    return sum(map(BucketsV(K), [](Val X) { return toF64(X); }));
  });
  Val Avgs = tabulate(Buckets.len(), [&](Val K) {
    Val Bucket = BucketsV(K);
    return sum(map(Bucket, [](Val X) { return toF64(X); })) /
           toF64(Bucket.len());
  });
  Program P = B.build(
      makeStruct({{"keys", Type::arrayOf(Type::i64())},
                  {"sums", Type::arrayOf(Type::f64())},
                  {"avgs", Type::arrayOf(Type::f64())}},
                 {Groups.field("keys").expr(), Sums.expr(), Avgs.expr()}));
  expectSameResult(P, {{"xs", Value::arrayOfInts(Data)}}, Target::Cluster,
                   1e-9);
}

TEST_P(SeedSweep, ParallelExecutorEquivalence) {
  uint64_t Seed = GetParam();
  Rng R(Seed);
  std::vector<double> Data(512 + R.nextBelow(4096));
  for (double &D : Data)
    D = R.nextGaussian();
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val Pos = filter(Xs, [](Val X) { return X > Val(0.0); });
  Program P = B.build(makeStruct(
      {{"kept", Type::arrayOf(Type::f64())}, {"sum", Type::f64()}},
      {Pos.expr(), sum(map(Xs, [](Val X) { return X * X; })).expr()}));
  InputMap In{{"xs", Value::arrayOfDoubles(Data)}};
  Value Seq = evalProgram(P, In);
  Value Par = testutil::evalOk(P, In, 3, 64 + R.nextBelow(512));
  EXPECT_TRUE(Seq.deepEquals(Par, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233));
