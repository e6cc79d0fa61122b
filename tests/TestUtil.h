//===- tests/TestUtil.h - Shared helpers for the test suites ---*- C++ -*-===//

#ifndef DMLL_TESTS_TESTUTIL_H
#define DMLL_TESTS_TESTUTIL_H

#include "frontend/Frontend.h"
#include "ir/Verifier.h"
#include "runtime/Executor.h"

#include <gtest/gtest.h>

namespace dmll {
namespace testutil {

/// evalProgramRecover with \p Opts, failing the test if the run traps.
inline Value evalOk(const Program &P, const InputMap &Inputs,
                    const EvalOptions &Opts = {}) {
  ExecResult R = evalProgramRecover(P, Inputs, Opts);
  EXPECT_TRUE(R.ok()) << execStatusName(R.Status) << ": " << R.TrapMessage;
  return R.Out;
}

/// evalOk on \p Threads workers, chunked at \p MinChunk.
inline Value evalOk(const Program &P, const InputMap &Inputs,
                    unsigned Threads, int64_t MinChunk) {
  EvalOptions Opts;
  Opts.Threads = Threads;
  Opts.MinChunk = MinChunk;
  return evalOk(P, Inputs, Opts);
}

/// Mean of the positive xs' squares (filter + map + sum + len, one fused
/// loop), with \p Inputs bound to 8000 values: enough to run chunked.
inline Program meanOfSquares(InputMap &Inputs) {
  using namespace frontend;
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs", LayoutHint::Partitioned);
  Val Kept = filter(Xs, [](Val X) { return X > Val(0.0); });
  Val Squares = map(Kept, [](Val X) { return X * X; });
  Program P = B.build(sum(Squares) / toF64(Kept.len()));
  std::vector<double> Data;
  for (int I = -4000; I < 4000; ++I)
    Data.push_back(I * 0.01);
  Inputs = {{"xs", Value::arrayOfDoubles(Data)}};
  return P;
}

/// Compiles \p P for \p T and checks the optimized program verifies and
/// evaluates to the same value as the original (tolerance for float
/// reassociation).
inline void expectSameResult(const Program &P, const InputMap &Inputs,
                             Target T = Target::Numa, double Tol = 1e-9) {
  ASSERT_TRUE(verify(P).empty());
  Value Expected = evalProgram(P, Inputs);
  CompileOptions Opts;
  Opts.T = T;
  CompileResult CR = compileProgram(P, Opts);
  auto Errs = verify(CR.P);
  for (const std::string &E : Errs)
    ADD_FAILURE() << "verifier: " << E;
  // adaptInputs skips a converted input the caller did not bind; here that
  // would be a harness bug.
  for (const auto &[Name, Kept] : CR.SoaConverted)
    ASSERT_TRUE(P.findInput(Name) && Inputs.count(Name))
        << "unknown SoA-converted input " << Name;
  Value Actual = evalProgram(CR.P, adaptInputs(P, CR, Inputs));
  EXPECT_TRUE(Expected.deepEquals(Actual, Tol))
      << "expected: " << Expected.str() << "\nactual:   " << Actual.str();
}

} // namespace testutil
} // namespace dmll

#endif // DMLL_TESTS_TESTUTIL_H
