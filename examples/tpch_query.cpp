//===- examples/tpch_query.cpp - Data querying with DMLL -------*- C++ -*-===//
//
// TPC-H Query 1 end to end: filter + groupBy + aggregate written naively,
// compiled into one fused traversal over struct-of-array columns
// (GroupBy-Reduce, pipeline fusion, AoS-to-SoA, dead field elimination),
// then lowered to real C++, compiled with the system compiler, and raced
// against the hand-optimized implementation.
//
// Build and run:  ./build/examples/tpch_query
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "codegen/CppEmitter.h"
#include "data/Datasets.h"
#include "ir/Traversal.h"
#include "refimpl/RefImpl.h"
#include "runtime/Executor.h"
#include "transform/Pipeline.h"

#include <chrono>
#include <cstdio>

using namespace dmll;

int main() {
  auto L = data::makeLineItems(200000, 7);
  int64_t Cutoff = 9500;

  Program P = apps::tpchQ1();
  CompileOptions Opts;
  Opts.T = Target::Numa;
  CompileResult CR = compileProgram(P, Opts);

  std::printf("Query 1 compiled: %zu loops (from %zu as written)\n",
              collectMultiloops(CR.P.Result).size(),
              collectMultiloops(P.Result).size());
  for (const auto &[Name, Kept] : CR.SoaConverted) {
    std::printf("input '%s' converted to struct-of-arrays; fields kept:",
                Name.c_str());
    for (const std::string &F : Kept)
      std::printf(" %s", F.c_str());
    std::printf(" (dead fields eliminated)\n");
  }

  // Generate real C++, compile with the system compiler, run.
  InputMap In{{"lineitems", L.toAosValue()}, {"cutoff", Value(Cutoff)}};
  CppEmitOptions EO;
  EO.TimingIters = 5;
  GeneratedRunResult G = compileAndRun(CR.P, adaptInputs(P, CR, In), "/tmp",
                                       "example_q1", EO);
  if (!G.Ok) {
    std::fprintf(stderr, "generated program failed (see /tmp/example_q1.log)\n");
    return 1;
  }

  auto T0 = std::chrono::steady_clock::now();
  auto Ref = refimpl::tpchQ1(L, Cutoff);
  auto T1 = std::chrono::steady_clock::now();
  double RefMs = std::chrono::duration<double, std::milli>(T1 - T0).count();

  std::printf("\nDMLL generated C++ : %8.3f ms per query\n"
              "hand-optimized C++ : %8.3f ms per query\n",
              G.MillisPerIter, RefMs);
  std::printf("\ngroups (key -> count, sum_qty):\n");
  for (size_t K = 0; K < Ref.Keys.size(); ++K)
    std::printf("  flag=%lld status=%lld -> %lld rows, qty %.0f\n",
                static_cast<long long>(Ref.Keys[K] / 256),
                static_cast<long long>(Ref.Keys[K] % 256),
                static_cast<long long>(Ref.Count[K]), Ref.SumQty[K]);
  return 0;
}
