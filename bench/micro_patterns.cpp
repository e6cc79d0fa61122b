//===- bench/micro_patterns.cpp - google-benchmark micros ------*- C++ -*-===//
//
// Measured microbenchmarks of the runtime substrates: interpreter pattern
// throughput, parallel executor, bucket implementations, distributed-array
// directory, and the Gibbs samplers.
//
// With `--json-out FILE` the binary instead runs the engine comparison
// suite — each core pattern (collect / reduce / dense and hash
// bucket-reduce) under the boxed interpreter and under the compiled kernel
// engine (docs/EXECUTION.md) at equal thread count — and writes the
// BenchRecord rows as JSON (see bench_json.h). tools/run_benchmarks.sh
// regenerates the committed BENCH_perf.json this way. `--trace-out FILE`
// additionally records the whole suite (kernel compiles, loop and chunk
// spans with counter args) into a Chrome trace; it also selects the suite
// when given without --json-out.
//
//===----------------------------------------------------------------------===//

#include "apps/Gibbs.h"
#include "bench_json.h"
#include "data/Datasets.h"
#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "observe/Trace.h"
#include "runtime/DistArray.h"
#include "runtime/ThreadPool.h"
#include "support/Args.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

using namespace dmll;
using namespace dmll::frontend;

namespace {

Program mapReduceProgram() {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  return B.build(sum(map(Xs, [](Val X) { return X * X + Val(1.0); })));
}

InputMap doubles(size_t N) {
  std::vector<double> D(N);
  for (size_t I = 0; I < N; ++I)
    D[I] = static_cast<double>(I % 1024) * 0.5;
  return {{"xs", Value::arrayOfDoubles(D)}};
}

void BM_InterpMapReduce(benchmark::State &S) {
  Program P = mapReduceProgram();
  InputMap In = doubles(static_cast<size_t>(S.range(0)));
  for (auto _ : S)
    benchmark::DoNotOptimize(evalProgram(P, In));
  S.SetItemsProcessed(S.iterations() * S.range(0));
}
BENCHMARK(BM_InterpMapReduce)->Arg(1 << 12)->Arg(1 << 16);

void BM_ParallelExecutor(benchmark::State &S) {
  Program P = mapReduceProgram();
  InputMap In = doubles(1 << 16);
  EvalOptions Opts;
  Opts.Threads = static_cast<unsigned>(S.range(0));
  Opts.MinChunk = 4096;
  for (auto _ : S)
    benchmark::DoNotOptimize(evalProgramRecover(P, In, Opts));
}
BENCHMARK(BM_ParallelExecutor)->Arg(1)->Arg(2)->Arg(4);

void BM_DenseBuckets(benchmark::State &S) {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceDense(
      Xs.len(), [&](Val I) { return XsV(I); },
      [](Val) { return Val(int64_t(1)); },
      [](Val A, Val C) { return A + C; }, Val(int64_t(64))));
  std::vector<int64_t> D(1 << 15);
  for (size_t I = 0; I < D.size(); ++I)
    D[I] = static_cast<int64_t>(I % 64);
  InputMap In{{"xs", Value::arrayOfInts(D)}};
  for (auto _ : S)
    benchmark::DoNotOptimize(evalProgram(P, In));
}
BENCHMARK(BM_DenseBuckets);

void BM_HashBuckets(benchmark::State &S) {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(bucketReduceHash(
      Xs.len(), [&](Val I) { return XsV(I); },
      [](Val) { return Val(int64_t(1)); },
      [](Val A, Val C) { return A + C; }));
  std::vector<int64_t> D(1 << 15);
  for (size_t I = 0; I < D.size(); ++I)
    D[I] = static_cast<int64_t>(I % 64);
  InputMap In{{"xs", Value::arrayOfInts(D)}};
  for (auto _ : S)
    benchmark::DoNotOptimize(evalProgram(P, In));
}
BENCHMARK(BM_HashBuckets);

void BM_DirectoryLookup(benchmark::State &S) {
  RangeDirectory D = RangeDirectory::evenBlocks(1 << 20, 20);
  int64_t I = 0;
  for (auto _ : S) {
    benchmark::DoNotOptimize(D.locationOf(I));
    I = (I + 7919) & ((1 << 20) - 1);
  }
}
BENCHMARK(BM_DirectoryLookup);

void BM_GibbsFlat(benchmark::State &S) {
  auto F = data::makeFactorGraph(20000, 8, 7);
  for (auto _ : S)
    benchmark::DoNotOptimize(gibbs::sampleFlat(F, 1, 3));
  S.SetItemsProcessed(S.iterations() * 20000);
}
BENCHMARK(BM_GibbsFlat);

void BM_GibbsPointer(benchmark::State &S) {
  auto F = data::makeFactorGraph(20000, 8, 7);
  for (auto _ : S)
    benchmark::DoNotOptimize(gibbs::samplePointer(F, 1, 3));
  S.SetItemsProcessed(S.iterations() * 20000);
}
BENCHMARK(BM_GibbsPointer);

//===----------------------------------------------------------------------===//
// Engine comparison suite (--json-out)
//===----------------------------------------------------------------------===//

/// Milliseconds per evaluation: warm-up once (which also compiles the
/// kernel under EngineMode::Kernel), then best-of-\p Reps to shed scheduler
/// noise on shared machines.
double engineMs(const Program &P, const InputMap &In, engine::EngineMode M,
                unsigned Threads, int Reps) {
  EvalOptions Opts;
  Opts.Threads = Threads;
  Opts.Mode = M;
  evalProgramRecover(P, In, Opts); // warm-up + kernel compile
  double Best = 0;
  for (int R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    ExecResult V = evalProgramRecover(P, In, Opts);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    benchmark::DoNotOptimize(V);
    if (R == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

/// Runs one pattern under Interp then Kernel and appends both rows.
void engineCase(bench::BenchJsonWriter &W, const std::string &Pattern,
                const Program &P, const InputMap &In, int64_t N,
                unsigned Threads) {
  const int Reps = 5;
  double InterpMs =
      engineMs(P, In, engine::EngineMode::Interp, Threads, Reps);
  double KernelMs =
      engineMs(P, In, engine::EngineMode::Kernel, Threads, Reps);
  W.add({Pattern, N, Threads, "interp", InterpMs, 1.0});
  W.add({Pattern, N, Threads, "kernel", KernelMs,
         KernelMs > 0 ? InterpMs / KernelMs : 0.0});
  std::printf("%-20s N=%-8lld T=%u  interp %8.3f ms   kernel %8.3f ms   "
              "speedup %.2fx\n",
              Pattern.c_str(), static_cast<long long>(N), Threads, InterpMs,
              KernelMs, KernelMs > 0 ? InterpMs / KernelMs : 0.0);
}

/// The four core patterns, each a single closed loop over the input.
int runEngineSuite(const std::string &Path, const std::string &TracePath) {
  TraceSession Session;
  std::unique_ptr<TraceActivation> Activation;
  if (!TracePath.empty())
    Activation = std::make_unique<TraceActivation>(Session);
  bench::BenchJsonWriter W("micro_patterns");
  const int64_t N = 1 << 16;
  const unsigned Threads = 1; // the speedup measured is unboxing, not cores

  std::vector<double> DF(static_cast<size_t>(N));
  for (size_t I = 0; I < DF.size(); ++I)
    DF[I] = static_cast<double>(I % 1024) * 0.5;
  std::vector<int64_t> DI(static_cast<size_t>(N));
  for (size_t I = 0; I < DI.size(); ++I)
    DI[I] = static_cast<int64_t>(I % 64);
  InputMap FIn{{"xs", Value::arrayOfDoubles(DF)}};
  InputMap IIn{{"xs", Value::arrayOfInts(DI)}};

  {
    ProgramBuilder B;
    Val Xs = B.inVecF64("xs");
    Val XsV = Xs;
    Program P = B.build(tabulate(
        Xs.len(), [&](Val I) { return XsV(I) * XsV(I) + Val(1.0); }));
    engineCase(W, "collect", P, FIn, N, Threads);
  }
  {
    ProgramBuilder B;
    Val Xs = B.inVecF64("xs");
    Val XsV = Xs;
    Program P = B.build(sumRange(
        Xs.len(), [&](Val I) { return XsV(I) * XsV(I) + Val(1.0); }));
    engineCase(W, "reduce", P, FIn, N, Threads);
  }
  {
    ProgramBuilder B;
    Val Xs = B.inVecI64("xs");
    Val XsV = Xs;
    Program P = B.build(bucketReduceDense(
        Xs.len(), [&](Val I) { return XsV(I); },
        [](Val) { return Val(int64_t(1)); },
        [](Val A, Val C) { return A + C; }, Val(int64_t(64))));
    engineCase(W, "bucket_reduce_dense", P, IIn, N, Threads);
  }
  {
    ProgramBuilder B;
    Val Xs = B.inVecI64("xs");
    Val XsV = Xs;
    Program P = B.build(bucketReduceHash(
        Xs.len(), [&](Val I) { return XsV(I); },
        [](Val) { return Val(int64_t(1)); },
        [](Val A, Val C) { return A + C; }));
    engineCase(W, "bucket_reduce_hash", P, IIn, N, Threads);
  }

  if (!Path.empty()) {
    if (!W.write(Path)) {
      std::fprintf(stderr, "failed to write %s\n", Path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", Path.c_str());
  }
  if (!TracePath.empty()) {
    if (!Session.writeChromeJson(TracePath)) {
      std::fprintf(stderr, "failed to write %s\n", TracePath.c_str());
      return 1;
    }
    std::printf("wrote %zu trace events to %s\n", Session.size(),
                TracePath.c_str());
  }
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = flagValue(argc, argv, "json-out");
  std::string TracePath = flagValue(argc, argv, "trace-out");
  if (!JsonPath.empty() || !TracePath.empty())
    return runEngineSuite(JsonPath, TracePath);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
