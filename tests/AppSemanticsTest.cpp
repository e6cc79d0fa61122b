//===- tests/AppSemanticsTest.cpp - Apps vs hand-written oracles -*- C++ -*-===//
//
// End-to-end integration: each benchmark app, interpreted both as written
// and after full compilation for several targets, must match the
// hand-optimized reference implementation on real (small) datasets.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "apps/Apps.h"
#include "data/Datasets.h"
#include "refimpl/RefImpl.h"

#include <gtest/gtest.h>

using namespace dmll;
using namespace dmll::testutil;

namespace {

constexpr double Tol = 1e-9;

InputMap kmeansInputs(const data::MatrixData &M, const data::MatrixData &C) {
  return {{"matrix", M.toValue()}, {"clusters", C.toValue()}};
}

} // namespace

TEST(AppSemantics, KMeansSharedMatchesReference) {
  auto M = data::makeGaussianMixture(40, 4, 3, 7);
  auto C = data::makeCentroids(M, 3, 8);
  auto Expected = refimpl::kmeansStep(M, C);

  Value Out = evalProgram(apps::kmeansSharedMemory(), kmeansInputs(M, C));
  ASSERT_EQ(Out.arraySize(), Expected.size());
  for (size_t K = 0; K < Expected.size(); ++K) {
    const Value &Row = Out.at(K);
    ASSERT_EQ(Row.arraySize(), Expected[K].size());
    for (size_t J = 0; J < Expected[K].size(); ++J)
      EXPECT_NEAR(Row.at(J).asFloat(), Expected[K][J], Tol);
  }
}

TEST(AppSemantics, KMeansGroupByMatchesReference) {
  auto M = data::makeGaussianMixture(30, 3, 4, 17);
  auto C = data::makeCentroids(M, 4, 18);
  auto Expected = refimpl::kmeansStep(M, C);

  Value Out = evalProgram(apps::kmeansGroupBy(), kmeansInputs(M, C));
  const Value &Keys = Out.strct()->Fields[0];
  const Value &Rows = Out.strct()->Fields[1];
  ASSERT_EQ(Keys.arraySize(), Rows.arraySize());
  for (size_t G = 0; G < Keys.arraySize(); ++G) {
    size_t K = static_cast<size_t>(Keys.at(G).asInt());
    ASSERT_LT(K, Expected.size());
    const Value &Row = Rows.at(G);
    ASSERT_EQ(Row.arraySize(), Expected[K].size());
    for (size_t J = 0; J < Expected[K].size(); ++J)
      EXPECT_NEAR(Row.at(J).asFloat(), Expected[K][J], Tol);
  }
}

TEST(AppSemantics, LogRegMatchesReference) {
  auto X = data::makeGaussianMixture(25, 3, 2, 5);
  auto Y = data::makeLabels(X, 6);
  std::vector<double> Theta(X.Cols, 0.05), YD(Y.begin(), Y.end());
  double Alpha = 0.1;
  auto Expected = refimpl::logregStep(X, YD, Theta, Alpha);

  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfDoubles(YD)},
              {"theta", Value::arrayOfDoubles(Theta)},
              {"alpha", Value(Alpha)}};
  Value Out = evalProgram(apps::logreg(), In);
  ASSERT_EQ(Out.arraySize(), Expected.size());
  for (size_t J = 0; J < Expected.size(); ++J)
    EXPECT_NEAR(Out.at(J).asFloat(), Expected[J], Tol);
}

TEST(AppSemantics, GdaMatchesReference) {
  auto X = data::makeGaussianMixture(20, 3, 2, 11);
  auto Y = data::makeLabels(X, 12);
  auto Expected = refimpl::gda(X, Y);

  InputMap In{{"x", X.toValue()}, {"y", Value::arrayOfInts(Y)}};
  Value Out = evalProgram(apps::gda(), In);
  EXPECT_NEAR(Out.strct()->Fields[0].asFloat(), Expected.Phi, Tol);
  const Value &Mu0 = Out.strct()->Fields[1];
  const Value &Sigma = Out.strct()->Fields[3];
  for (size_t J = 0; J < Expected.Mu0.size(); ++J)
    EXPECT_NEAR(Mu0.at(J).asFloat(), Expected.Mu0[J], Tol);
  size_t Cols = Expected.Mu0.size();
  ASSERT_EQ(Sigma.arraySize(), Cols);
  for (size_t A = 0; A < Cols; ++A)
    for (size_t C = 0; C < Cols; ++C)
      EXPECT_NEAR(Sigma.at(A).at(C).asFloat(), Expected.Sigma[A * Cols + C],
                  1e-6);
  EXPECT_EQ(Out.strct()->Fields[4].asInt(), Expected.Count0);
  EXPECT_EQ(Out.strct()->Fields[5].asInt(), Expected.Count1);
}

TEST(AppSemantics, TpchQ1MatchesReference) {
  auto L = data::makeLineItems(200, 23);
  int64_t Cutoff = 9500;
  auto Expected = refimpl::tpchQ1(L, Cutoff);

  InputMap In{{"lineitems", L.toAosValue()}, {"cutoff", Value(Cutoff)}};
  Value Out = evalProgram(apps::tpchQ1(), In);
  const auto &F = Out.strct()->Fields;
  ASSERT_EQ(F[0].arraySize(), Expected.Keys.size());
  for (size_t G = 0; G < Expected.Keys.size(); ++G) {
    EXPECT_EQ(F[0].at(G).asInt(), Expected.Keys[G]);
    EXPECT_NEAR(F[1].at(G).asFloat(), Expected.SumQty[G], 1e-6);
    EXPECT_NEAR(F[2].at(G).asFloat(), Expected.SumBase[G], 1e-4);
    EXPECT_NEAR(F[3].at(G).asFloat(), Expected.SumDisc[G], 1e-4);
    EXPECT_NEAR(F[4].at(G).asFloat(), Expected.SumCharge[G], 1e-4);
    EXPECT_EQ(F[5].at(G).asInt(), Expected.Count[G]);
  }
}

TEST(AppSemantics, GeneMatchesReference) {
  auto G = data::makeGeneReads(150, 20, 31);
  double MinQ = 10.0;
  auto Expected = refimpl::gene(G, MinQ);

  InputMap In{{"genes", G.toAosValue()}, {"min_quality", Value(MinQ)}};
  Value Out = evalProgram(apps::geneBarcoding(), In);
  const auto &F = Out.strct()->Fields;
  ASSERT_EQ(F[0].arraySize(), Expected.Keys.size());
  for (size_t K = 0; K < Expected.Keys.size(); ++K) {
    EXPECT_EQ(F[0].at(K).asInt(), Expected.Keys[K]);
    EXPECT_EQ(F[1].at(K).asInt(), Expected.Counts[K]);
    EXPECT_EQ(F[2].at(K).asInt(), Expected.TotalLen[K]);
  }
}

TEST(AppSemantics, PageRankPullMatchesReference) {
  auto G = data::makeRmat(6, 4, 41);
  auto In = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV),
                            1.0 / static_cast<double>(G.NumV));
  auto Expected = refimpl::pageRankStep(In, G.OutDeg, Ranks);

  InputMap Im{{"in_offsets", Value::arrayOfInts(In.Offsets)},
              {"in_edges", Value::arrayOfInts(In.Edges)},
              {"outdeg", Value::arrayOfInts(G.OutDeg)},
              {"ranks", Value::arrayOfDoubles(Ranks)},
              {"numv", Value(G.NumV)}};
  Value Out = evalProgram(apps::pageRankPull(), Im);
  ASSERT_EQ(Out.arraySize(), Expected.size());
  for (size_t V = 0; V < Expected.size(); ++V)
    EXPECT_NEAR(Out.at(V).asFloat(), Expected[V], Tol);
}

TEST(AppSemantics, PageRankPushMatchesPull) {
  auto G = data::makeRmat(5, 4, 43);
  auto In = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV), 0.01);
  auto Expected = refimpl::pageRankStep(In, G.OutDeg, Ranks);

  // Flat edge list for the push formulation.
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
  Value Out = evalProgram(apps::pageRankPush(), Im);
  ASSERT_EQ(Out.arraySize(), Expected.size());
  for (size_t V = 0; V < Expected.size(); ++V)
    EXPECT_NEAR(Out.at(V).asFloat(), Expected[V], 1e-9);
}

TEST(AppSemantics, TriangleCountMatchesReference) {
  auto Dir = data::makeRmat(5, 3, 47);
  // Undirected: symmetrize.
  data::CsrGraph G;
  {
    std::set<std::pair<int64_t, int64_t>> Und;
    for (int64_t U = 0; U < Dir.NumV; ++U)
      for (int64_t E = Dir.Offsets[U]; E < Dir.Offsets[U + 1]; ++E) {
        int64_t V = Dir.Edges[static_cast<size_t>(E)];
        Und.insert({U, V});
        Und.insert({V, U});
      }
    G.NumV = Dir.NumV;
    G.Offsets.assign(static_cast<size_t>(G.NumV) + 1, 0);
    for (const auto &[U, V] : Und)
      ++G.Offsets[static_cast<size_t>(U) + 1];
    for (size_t V = 1; V < G.Offsets.size(); ++V)
      G.Offsets[V] += G.Offsets[V - 1];
    G.Edges.resize(Und.size());
    std::vector<int64_t> Cur(G.Offsets.begin(), G.Offsets.end() - 1);
    for (const auto &[U, V] : Und)
      G.Edges[static_cast<size_t>(Cur[static_cast<size_t>(U)]++)] = V;
    for (int64_t V = 0; V < G.NumV; ++V)
      G.OutDeg.push_back(G.deg(V));
  }
  int64_t Expected = refimpl::triangleCount(G);

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
  Value Out = evalProgram(apps::triangleCount(), Im);
  EXPECT_EQ(Out.asInt(), Expected);
}

TEST(AppSemantics, KnnMatchesReference) {
  auto Train = data::makeGaussianMixture(30, 3, 3, 51);
  auto TrainY = data::makeLabels(Train, 52);
  auto Test = data::makeGaussianMixture(10, 3, 3, 53);
  auto Expected = refimpl::knnPredict(Train, TrainY, Test);

  InputMap In{{"train", Train.toValue()},
              {"train_y", Value::arrayOfInts(TrainY)},
              {"test", Test.toValue()},
              {"num_labels", Value(int64_t(2))}};
  Value Out = evalProgram(apps::knn(), In);
  const Value &Labels = Out.strct()->Fields[0];
  ASSERT_EQ(Labels.arraySize(), Expected.size());
  for (size_t T = 0; T < Expected.size(); ++T)
    EXPECT_EQ(Labels.at(T).asInt(), Expected[T]);
}

TEST(AppSemantics, NaiveBayesMatchesReference) {
  auto X = data::makeGaussianMixture(25, 4, 2, 61);
  auto Y = data::makeLabels(X, 62);
  auto Expected = refimpl::naiveBayes(X, Y, 2);

  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfInts(Y)},
              {"num_classes", Value(int64_t(2))}};
  Value Out = evalProgram(apps::naiveBayes(), In);
  const Value &Priors = Out.strct()->Fields[0];
  const Value &Means = Out.strct()->Fields[1];
  for (size_t C = 0; C < 2; ++C) {
    EXPECT_NEAR(Priors.at(C).asFloat(), Expected.Priors[C], Tol);
    for (size_t J = 0; J < X.Cols; ++J)
      EXPECT_NEAR(Means.at(C).at(J).asFloat(), Expected.Means[C][J], Tol);
  }
}

//===----------------------------------------------------------------------===//
// Full pipeline equivalence across targets (the headline property).
//===----------------------------------------------------------------------===//

struct CompiledCase {
  const char *Name;
  Target T;
};

// Printed by name, so ctest names each case after its target (.../gpu);
// without a printer GTest dumps the struct's bytes, a pointer and padding
// included, and the test names change from one build to the next.
void PrintTo(const CompiledCase &C, std::ostream *OS) { *OS << C.Name; }

class CompiledAppTest : public ::testing::TestWithParam<CompiledCase> {};

TEST_P(CompiledAppTest, KMeansShared) {
  auto M = data::makeGaussianMixture(30, 4, 3, 71);
  auto C = data::makeCentroids(M, 3, 72);
  expectSameResult(apps::kmeansSharedMemory(), kmeansInputs(M, C),
                   GetParam().T, 1e-9);
}

TEST_P(CompiledAppTest, KMeansGroupBy) {
  auto M = data::makeGaussianMixture(25, 3, 4, 73);
  auto C = data::makeCentroids(M, 4, 74);
  expectSameResult(apps::kmeansGroupBy(), kmeansInputs(M, C), GetParam().T,
                   1e-9);
}

TEST_P(CompiledAppTest, LogReg) {
  auto X = data::makeGaussianMixture(20, 3, 2, 75);
  auto Y = data::makeLabels(X, 76);
  std::vector<double> Theta(X.Cols, 0.02), YD(Y.begin(), Y.end());
  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfDoubles(YD)},
              {"theta", Value::arrayOfDoubles(Theta)},
              {"alpha", Value(0.05)}};
  expectSameResult(apps::logreg(), In, GetParam().T, 1e-9);
}

TEST_P(CompiledAppTest, Gda) {
  auto X = data::makeGaussianMixture(15, 3, 2, 77);
  auto Y = data::makeLabels(X, 78);
  InputMap In{{"x", X.toValue()}, {"y", Value::arrayOfInts(Y)}};
  expectSameResult(apps::gda(), In, GetParam().T, 1e-6);
}

TEST_P(CompiledAppTest, TpchQ1) {
  auto L = data::makeLineItems(120, 79);
  InputMap In{{"lineitems", L.toAosValue()}, {"cutoff", Value(int64_t(9000))}};
  expectSameResult(apps::tpchQ1(), In, GetParam().T, 1e-6);
}

TEST_P(CompiledAppTest, Gene) {
  auto G = data::makeGeneReads(100, 12, 81);
  InputMap In{{"genes", G.toAosValue()}, {"min_quality", Value(8.0)}};
  expectSameResult(apps::geneBarcoding(), In, GetParam().T, 1e-9);
}

TEST_P(CompiledAppTest, PageRankPull) {
  auto G = data::makeRmat(5, 3, 83);
  auto InCsr = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV), 0.02);
  InputMap In{{"in_offsets", Value::arrayOfInts(InCsr.Offsets)},
              {"in_edges", Value::arrayOfInts(InCsr.Edges)},
              {"outdeg", Value::arrayOfInts(G.OutDeg)},
              {"ranks", Value::arrayOfDoubles(Ranks)},
              {"numv", Value(G.NumV)}};
  expectSameResult(apps::pageRankPull(), In, GetParam().T, 1e-9);
}

TEST_P(CompiledAppTest, NaiveBayes) {
  auto X = data::makeGaussianMixture(18, 3, 2, 85);
  auto Y = data::makeLabels(X, 86);
  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfInts(Y)},
              {"num_classes", Value(int64_t(2))}};
  expectSameResult(apps::naiveBayes(), In, GetParam().T, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Targets, CompiledAppTest,
    ::testing::Values(CompiledCase{"sequential", Target::Sequential},
                      CompiledCase{"numa", Target::Numa},
                      CompiledCase{"cluster", Target::Cluster},
                      CompiledCase{"gpu", Target::Gpu}));
