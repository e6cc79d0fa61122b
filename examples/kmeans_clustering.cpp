//===- examples/kmeans_clustering.cpp - The paper's running example -===//
//
// Reproduces the k-means story of the paper end to end:
//   * the shared-memory formulation of Fig. 1, as a user would write it;
//   * the Conditional Reduce + fusion rewrites producing Fig. 5's shape;
//   * the stencil/partitioning decisions (matrix partitioned, clusters
//     broadcast);
//   * several iterations run with the parallel executor until the
//     centroids stabilize.
//
// Build and run:  ./build/examples/kmeans_clustering
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "data/Datasets.h"
#include "interp/Interp.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"
#include "transform/Pipeline.h"

#include <cmath>
#include <cstdio>

using namespace dmll;

int main() {
  const size_t Rows = 4000, Cols = 8, K = 4;
  auto M = data::makeGaussianMixture(Rows, Cols, K, 42);
  auto C = data::makeCentroids(M, K, 43);

  Program P = apps::kmeansSharedMemory();
  CompileOptions Opts;
  Opts.T = Target::Numa;
  CompileResult CR = compileProgram(P, Opts);

  std::printf("=== compiler decisions ===\n");
  for (const auto &[Rule, N] : CR.Stats.Applied)
    std::printf("  %-24s x%d\n", Rule.c_str(), N);
  for (const LoopStencils &LS : CR.Partitioning.Stencils) {
    std::printf("  loop %s:\n", loopSignature([&] {
                  ExprRef Ref;
                  visitAll(CR.P.Result, [&](const ExprRef &E) {
                    if (E.get() == LS.Loop)
                      Ref = E;
                  });
                  return Ref;
                }()).c_str());
    for (const StencilEntry &E : LS.Entries)
      std::printf("    read %-12s stencil %s\n", E.RootDesc.c_str(),
                  stencilName(E.S));
  }

  // Iterate until the centroids stop moving.
  Value Clusters = C.toValue();
  Value Matrix = M.toValue();
  EvalOptions EO;
  EO.Threads = 4;
  for (int Iter = 0; Iter < 12; ++Iter) {
    ExecResult Step = evalProgramRecover(
        CR.P, {{"matrix", Matrix}, {"clusters", Clusters}}, EO);
    if (!Step.ok()) {
      std::fprintf(stderr, "step trapped: %s\n", Step.TrapMessage.c_str());
      return 1;
    }
    const Value &NewRows = Step.Out;
    // Repack the produced rows as the next {data, rows, cols} struct;
    // empty clusters keep their previous centroid.
    std::vector<double> Flat;
    double Moved = 0;
    for (size_t Ci = 0; Ci < K; ++Ci) {
      const Value &Row = NewRows.at(Ci);
      const Value &OldData = Clusters.strct()->Fields[0];
      for (size_t J = 0; J < Cols; ++J) {
        double Old = OldData.at(Ci * Cols + J).asFloat();
        double New = Row.arraySize() ? Row.at(J).asFloat() : Old;
        Moved += std::fabs(New - Old);
        Flat.push_back(New);
      }
    }
    Clusters = Value::makeStruct({Value::arrayOfDoubles(Flat),
                                  Value(int64_t(K)), Value(int64_t(Cols))});
    std::printf("iteration %2d: total centroid movement %.4f\n", Iter,
                Moved);
    if (Moved < 1e-9)
      break;
  }

  std::printf("\nfinal centroids (first 4 features):\n");
  const Value &Data = Clusters.strct()->Fields[0];
  for (size_t Ci = 0; Ci < K; ++Ci) {
    std::printf("  cluster %zu: ", Ci);
    for (size_t J = 0; J < 4; ++J)
      std::printf("%8.3f ", Data.at(Ci * Cols + J).asFloat());
    std::printf("...\n");
  }
  return 0;
}
