//===- tests/FrontendTest.cpp - Front-end + app construction ---*- C++ -*-===//

#include "apps/Apps.h"
#include "frontend/Frontend.h"
#include "ir/Traversal.h"
#include "ir/Verifier.h"
#include "support/Error.h"

#include <gtest/gtest.h>

using namespace dmll;
using namespace dmll::frontend;

TEST(FrontendTest, OperatorsBuildTypedIr) {
  ProgramBuilder B;
  Val X = B.inF64("x");
  Val E = X * Val(2.0) + Val(1.0);
  EXPECT_TRUE(E.type()->isFloat());
  Val C = X > Val(0.0);
  EXPECT_TRUE(C.type()->isBool());
}

TEST(FrontendTest, DuplicateInputTrapsRecoverably) {
  ProgramBuilder B;
  B.inF64("x");
  try {
    (void)B.inF64("x");
    FAIL() << "expected a TrapError";
  } catch (const TrapError &E) {
    // Message stability is load-bearing: the fuzz oracle's trap-class
    // matching compares this text across executors.
    EXPECT_EQ(E.message(), "duplicate input 'x'");
    EXPECT_EQ(E.kind(), TrapKind::Trap);
  }
  // The builder is still usable after the recoverable trap.
  Val Y = B.inF64("y");
  EXPECT_TRUE(Y.type()->isFloat());
}

TEST(FrontendTest, MatHelpers) {
  ProgramBuilder B;
  Mat M = B.inMat("m");
  Val R = M.row(Val(int64_t(0)));
  EXPECT_TRUE(R.type()->isArray());
  EXPECT_TRUE(verifyExpr(M.sumRowsVec().expr()).empty());
}

// Every application must construct and verify.
struct AppCase {
  const char *Name;
  Program (*Build)();
};

// Printed by name, so ctest names each case after its app (.../gda); without
// a printer GTest dumps the struct's bytes, pointers included, and the test
// names change from one build to the next.
void PrintTo(const AppCase &C, std::ostream *OS) { *OS << C.Name; }

class AppVerifyTest : public ::testing::TestWithParam<AppCase> {};

TEST_P(AppVerifyTest, BuildsAndVerifies) {
  Program P = GetParam().Build();
  auto Errs = verify(P);
  for (const std::string &E : Errs)
    ADD_FAILURE() << GetParam().Name << ": " << E;
  EXPECT_FALSE(P.Inputs.empty());
  // Every app uses at least one multiloop.
  EXPECT_FALSE(collectMultiloops(P.Result).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppVerifyTest,
    ::testing::Values(AppCase{"kmeansShared", apps::kmeansSharedMemory},
                      AppCase{"kmeansGroupBy", apps::kmeansGroupBy},
                      AppCase{"logreg", apps::logreg},
                      AppCase{"gda", apps::gda},
                      AppCase{"tpchQ1", apps::tpchQ1},
                      AppCase{"gene", apps::geneBarcoding},
                      AppCase{"pageRankPull", apps::pageRankPull},
                      AppCase{"pageRankPush", apps::pageRankPush},
                      AppCase{"triangle", apps::triangleCount},
                      AppCase{"knn", apps::knn},
                      AppCase{"naiveBayes", apps::naiveBayes}));
