//===- tests/CodegenTest.cpp - Generated C++ end-to-end tests --*- C++ -*-===//
//
// Emits real C++ from DMLL programs, compiles it with the system compiler,
// runs it on serialized inputs, and checks the result digest against the
// reference interpreter. This is the path Table 2's DMLL column uses.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "apps/Apps.h"
#include "codegen/CppEmitter.h"
#include "data/Datasets.h"
#include "frontend/Frontend.h"
#include "interp/Interp.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace dmll;

namespace {

/// Compiles (pipeline), emits, gcc-compiles, runs, and compares digests.
void expectGeneratedMatches(const Program &P, const InputMap &Inputs,
                            const std::string &Name, double Tol = 1e-6) {
  CompileOptions CO;
  CO.T = Target::Sequential;
  CompileResult CR = compileProgram(P, CO);
  InputMap Adapted = adaptInputs(P, CR, Inputs);
  Checksum Expected = checksumValue(evalProgram(CR.P, Adapted));

  CppEmitOptions EO;
  EO.TimingIters = 1;
  GeneratedRunResult R =
      compileAndRun(CR.P, Adapted, ::testing::TempDir(), Name, EO);
  ASSERT_TRUE(R.Ok) << "generated program failed to build or run; see "
                    << ::testing::TempDir() << "/" << Name << ".log";
  EXPECT_EQ(R.Sum.Count, Expected.Count);
  double Scale = std::max(1.0, std::fabs(Expected.Abs));
  EXPECT_NEAR(R.Sum.Sum, Expected.Sum, Tol * Scale);
  EXPECT_NEAR(R.Sum.Abs, Expected.Abs, Tol * Scale);
  EXPECT_GT(R.MillisPerIter, 0.0);
}

} // namespace

TEST(CodegenTest, EmitsCompilableSource) {
  // Pure text check (no compiler invocation): the emitted source has the
  // expected structure.
  using namespace dmll::frontend;
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(sum(map(Xs, [](Val X) { return X * X; })));
  std::string Src = emitCpp(P);
  EXPECT_NE(Src.find("static double dmllRun()"), std::string::npos) << Src;
  EXPECT_NE(Src.find("in_xs"), std::string::npos);
  EXPECT_NE(Src.find("ms_per_iter"), std::string::npos);
  EXPECT_NE(Src.find("for (int64_t"), std::string::npos);
}

TEST(CodegenTest, ChecksumMatchesInterpreter) {
  Value V = Value::makeStruct(
      {Value::arrayOfDoubles({1.5, -2.0}), Value(int64_t(3))});
  Checksum C = checksumValue(V);
  EXPECT_EQ(C.Count, 3);
  EXPECT_DOUBLE_EQ(C.Sum, 2.5);
  EXPECT_DOUBLE_EQ(C.Abs, 6.5);
}

TEST(CodegenTest, MapReduceRuns) {
  using namespace dmll::frontend;
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Program P = B.build(sum(map(Xs, [](Val X) { return X * X + Val(1.0); })));
  expectGeneratedMatches(P, {{"xs", Value::arrayOfDoubles({1, 2, 3, 4, 5})}},
                         "gen_mapreduce");
}

TEST(CodegenTest, KMeansRuns) {
  auto M = data::makeGaussianMixture(60, 4, 3, 91);
  auto C = data::makeCentroids(M, 3, 92);
  expectGeneratedMatches(apps::kmeansSharedMemory(),
                         {{"matrix", M.toValue()}, {"clusters", C.toValue()}},
                         "gen_kmeans");
}

TEST(CodegenTest, LogRegRuns) {
  auto X = data::makeGaussianMixture(40, 4, 2, 93);
  auto Y = data::makeLabels(X, 94);
  std::vector<double> Theta(X.Cols, 0.01), YD(Y.begin(), Y.end());
  InputMap In{{"x", X.toValue()},
              {"y", Value::arrayOfDoubles(YD)},
              {"theta", Value::arrayOfDoubles(Theta)},
              {"alpha", Value(0.1)}};
  expectGeneratedMatches(apps::logreg(), In, "gen_logreg");
}

TEST(CodegenTest, TpchQ1Runs) {
  auto L = data::makeLineItems(300, 95);
  InputMap In{{"lineitems", L.toAosValue()}, {"cutoff", Value(int64_t(9500))}};
  expectGeneratedMatches(apps::tpchQ1(), In, "gen_q1");
}

TEST(CodegenTest, PageRankRuns) {
  auto G = data::makeRmat(6, 4, 97);
  auto InCsr = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV), 0.015);
  InputMap In{{"in_offsets", Value::arrayOfInts(InCsr.Offsets)},
              {"in_edges", Value::arrayOfInts(InCsr.Edges)},
              {"outdeg", Value::arrayOfInts(G.OutDeg)},
              {"ranks", Value::arrayOfDoubles(Ranks)},
              {"numv", Value(G.NumV)}};
  expectGeneratedMatches(apps::pageRankPull(), In, "gen_pagerank");
}

TEST(CodegenTest, GdaRuns) {
  auto X = data::makeGaussianMixture(30, 3, 2, 99);
  auto Y = data::makeLabels(X, 100);
  InputMap In{{"x", X.toValue()}, {"y", Value::arrayOfInts(Y)}};
  expectGeneratedMatches(apps::gda(), In, "gen_gda");
}
