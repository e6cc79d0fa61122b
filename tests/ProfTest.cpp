//===- tests/ProfTest.cpp - Profiling subsystem tests ----------*- C++ -*-===//
//
// Covers docs/TELEMETRY.md's profile contracts: CounterSample bracket
// arithmetic and Hw-validity degradation, the per-thread counter probes, the
// process-wide metrics registry (instruments, bucketing, JSON export), the
// work-stealing pool under a deliberately skewed load (steals rebalance,
// busy/wait accounting stays within wall time), the sim-vs-measured
// calibration report, and the dmll-profile-v1 JSON document tools/dmll-prof
// consumes.
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "observe/Metrics.h"
#include "observe/MetricsRegistry.h"
#include "observe/Prof.h"
#include "runtime/Executor.h"
#include "runtime/ProfileJson.h"
#include "runtime/ThreadPool.h"
#include "sim/Calibration.h"
#include "support/Args.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <vector>

using namespace dmll;
using namespace dmll::frontend;

namespace {

/// Burns CPU for \p Ms wall milliseconds (a spin, not a sleep, so the time
/// lands in BusyMs and in the rusage user-time of the executing thread).
void spinFor(double Ms) {
  auto End = std::chrono::steady_clock::now() +
             std::chrono::duration<double, std::milli>(Ms);
  volatile double Sink = 0;
  while (std::chrono::steady_clock::now() < End)
    Sink = Sink + 1.0;
}

//===----------------------------------------------------------------------===//
// CounterSample arithmetic.
//===----------------------------------------------------------------------===//

CounterSample hwSample(int64_t Cycles, int64_t Instr, double UserMs) {
  CounterSample S;
  S.Hw = true;
  S.Cycles = Cycles;
  S.Instructions = Instr;
  S.LlcMisses = Cycles / 100;
  S.BranchMisses = Cycles / 200;
  S.UserMs = UserMs;
  S.SysMs = UserMs / 10;
  S.MinorFaults = 2;
  S.CtxSwitches = 1;
  return S;
}

TEST(CounterSample, SubtractBracketsAnInterval) {
  CounterSample Later = hwSample(1000, 2500, 8.0);
  CounterSample Earlier = hwSample(400, 1000, 3.0);
  CounterSample D = Later - Earlier;
  EXPECT_TRUE(D.Hw);
  EXPECT_EQ(D.Cycles, 600);
  EXPECT_EQ(D.Instructions, 1500);
  EXPECT_DOUBLE_EQ(D.UserMs, 5.0);
  EXPECT_EQ(D.MinorFaults, 0);
}

TEST(CounterSample, SubtractDegradesWhenEitherSideLacksHardware) {
  CounterSample Hw = hwSample(1000, 2500, 8.0);
  CounterSample Fallback;
  Fallback.UserMs = 3.0;
  CounterSample D = Hw - Fallback;
  EXPECT_FALSE(D.Hw);
  // Fallback fields still subtract.
  EXPECT_DOUBLE_EQ(D.UserMs, 5.0);
  // Hardware fields are not propagated on an invalid interval.
  EXPECT_EQ(D.Cycles, 0);
}

TEST(CounterSample, AddAdoptsValidityOfFirstInterval) {
  // A fresh all-zero accumulator takes the other side's Hw flag ...
  CounterSample Acc;
  Acc.add(hwSample(100, 200, 1.0));
  EXPECT_TRUE(Acc.Hw);
  EXPECT_EQ(Acc.Cycles, 100);
  // ... but once carrying data, mixing in a fallback-only interval
  // degrades it (a partial hardware sum would silently undercount).
  CounterSample Fallback;
  Fallback.UserMs = 2.0;
  Acc.add(Fallback);
  EXPECT_FALSE(Acc.Hw);
  EXPECT_DOUBLE_EQ(Acc.UserMs, 3.0);
  // And a fallback accumulator never upgrades to Hw.
  CounterSample Acc2;
  Acc2.UserMs = 1.0;
  Acc2.add(hwSample(100, 200, 1.0));
  EXPECT_FALSE(Acc2.Hw);
}

TEST(CounterSample, IpcOnlyMeaningfulWithHardware) {
  CounterSample S = hwSample(1000, 2500, 1.0);
  EXPECT_DOUBLE_EQ(S.ipc(), 2.5);
  S.Hw = false;
  EXPECT_DOUBLE_EQ(S.ipc(), 0.0);
  CounterSample Z;
  Z.Hw = true; // zero cycles: no division
  EXPECT_DOUBLE_EQ(Z.ipc(), 0.0);
}

TEST(ThreadCountersProbe, BracketsRealWork) {
  CounterSample Before = ThreadCounters::now();
  // The probe's validity must agree with the process-wide verdict.
  EXPECT_EQ(Before.Hw, ThreadCounters::hardwareAvailable());
  spinFor(20.0);
  CounterSample D = ThreadCounters::now() - Before;
  EXPECT_EQ(D.Hw, ThreadCounters::hardwareAvailable());
  // Cumulative readings are monotonic, so the interval is non-negative,
  // and 20ms of spinning must show up as CPU time (rusage granularity is
  // well under 20ms).
  EXPECT_GT(D.UserMs + D.SysMs, 0.0);
  EXPECT_GE(D.MinorFaults, 0);
  EXPECT_GE(D.CtxSwitches, 0);
  if (D.Hw) {
    EXPECT_GT(D.Cycles, 0);
    EXPECT_GT(D.Instructions, 0);
  }
  std::string Src = counterSourceName();
  EXPECT_TRUE(Src == "perf_event(cycles,instructions,llc-misses,"
                     "branch-misses)" ||
              Src == "fallback(getrusage)")
      << Src;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry.
//===----------------------------------------------------------------------===//

TEST(Metrics, CountersAndGaugesAreStableInstruments) {
  MetricsRegistry R;
  R.counter("a.b").inc();
  R.counter("a.b").inc(41);
  EXPECT_EQ(R.counter("a.b").value(), 42);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&R.counter("a.b"), &R.counter("a.b"));
  R.gauge("g").set(2.5);
  R.gauge("g").set(1.5);
  EXPECT_DOUBLE_EQ(R.gauge("g").value(), 1.5);
}

TEST(Metrics, HistogramBucketsByUpperBound) {
  MetricsRegistry R;
  MetricHistogram &H = R.histogram("h_ms", {1.0, 2.0});
  H.observe(0.5); // <= 1.0
  H.observe(1.0); // boundary lands in its own bucket
  H.observe(1.5); // <= 2.0
  H.observe(9.0); // +inf bucket
  EXPECT_EQ(H.bucketCount(0), 2);
  EXPECT_EQ(H.bucketCount(1), 1);
  EXPECT_EQ(H.bucketCount(2), 1);
  EXPECT_EQ(H.count(), 4);
  EXPECT_DOUBLE_EQ(H.sum(), 12.0);
  EXPECT_DOUBLE_EQ(H.mean(), 3.0);
  // Later lookups ignore the bounds argument.
  EXPECT_EQ(&R.histogram("h_ms", {99.0}), &H);
  EXPECT_EQ(H.bounds().size(), 2u);
}

TEST(Metrics, LatencyBucketLadderIsSane) {
  const std::vector<double> &B = latencyBucketsMs();
  ASSERT_GE(B.size(), 8u);
  EXPECT_LE(B.front(), 0.01); // resolves microsecond-scale chunks
  EXPECT_GE(B.back(), 1000.0); // and second-scale loops
  for (size_t I = 1; I < B.size(); ++I)
    EXPECT_LT(B[I - 1], B[I]) << "bounds must be strictly increasing";
}

TEST(Metrics, RenderJsonRoundTripsAndResets) {
  MetricsRegistry R;
  R.counter("exec.x").inc(3);
  R.gauge("run.threads").set(4);
  MetricHistogram &H = R.histogram("lat_ms", {1.0, 2.0});
  H.observe(0.5);
  H.observe(9.0);

  json::JValue Root;
  ASSERT_TRUE(json::parse(R.renderJson(), Root)) << R.renderJson();
  const json::JValue *Counters = Root.field("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_DOUBLE_EQ(Counters->numField("exec.x"), 3.0);
  const json::JValue *Gauges = Root.field("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_DOUBLE_EQ(Gauges->numField("run.threads"), 4.0);
  const json::JValue *Hists = Root.field("histograms");
  ASSERT_NE(Hists, nullptr);
  const json::JValue *Lat = Hists->field("lat_ms");
  ASSERT_NE(Lat, nullptr);
  EXPECT_DOUBLE_EQ(Lat->numField("count"), 2.0);
  EXPECT_DOUBLE_EQ(Lat->numField("sum"), 9.5);
  const json::JValue *Buckets = Lat->field("buckets");
  ASSERT_NE(Buckets, nullptr);
  ASSERT_EQ(Buckets->Arr.size(), 3u); // two bounds + inf
  // Bucket rows are cumulative (Prometheus-style); the inf row carries the
  // total observation count. docs/TELEMETRY.md.
  EXPECT_DOUBLE_EQ(Buckets->Arr[0].numField("le"), 1.0);
  EXPECT_DOUBLE_EQ(Buckets->Arr[0].numField("count"), 1.0);
  EXPECT_DOUBLE_EQ(Buckets->Arr[1].numField("count"), 1.0);
  EXPECT_EQ(Buckets->Arr[2].strField("le"), "inf");
  EXPECT_DOUBLE_EQ(Buckets->Arr[2].numField("count"), 2.0);

  MetricCounter &Held = R.counter("exec.x");
  uint64_t Gen = R.generation();
  R.reset();
  EXPECT_EQ(R.generation(), Gen + 1);
  json::JValue Empty;
  ASSERT_TRUE(json::parse(R.renderJson(), Empty));
  EXPECT_TRUE(Empty.field("counters")->Obj.empty());
  EXPECT_TRUE(Empty.field("histograms")->Obj.empty());
  // A reference resolved before the reset stays safe to update; the name
  // repopulates with a fresh instrument on next use.
  Held.inc();
  EXPECT_EQ(Held.value(), 4);
  EXPECT_EQ(R.counter("exec.x").value(), 0);
}

//===----------------------------------------------------------------------===//
// Work stealing under a deliberately skewed load.
//===----------------------------------------------------------------------===//

TEST(SkewedLoad, StealsRebalanceSingleHotChunk) {
  const int64_t N = 64;
  const double HotMs = 30.0;
  MetricsRegistry &Reg = MetricsRegistry::global();
  int64_t ChunksBefore = Reg.histogram("exec.chunk_ms").count();
  int64_t StealObsBefore = Reg.histogram("exec.steal_ms").count();
  int64_t ChunkCtrBefore = Reg.counter("exec.chunks").value();

  ThreadPool Pool(4);
  ParallelForStats Stats;
  std::atomic<unsigned> HotWorker{~0u};
  // Chunk size 1 puts index 0 — the only expensive item — alone in the
  // first chunk of worker 0's run; everything else is trivial. Without
  // stealing, worker 0 would serialize its whole 16-chunk run behind it.
  Pool.parallelFor(
      N, 1,
      [&](int64_t Begin, int64_t End, unsigned W) {
        for (int64_t I = Begin; I < End; ++I)
          if (I == 0) {
            HotWorker.store(W);
            spinFor(HotMs);
          }
      },
      &Stats, "exec.chunk");

  // Every chunk and item accounted for, exactly once.
  EXPECT_EQ(Stats.totalChunks(), N);
  EXPECT_EQ(Stats.totalItems(), N);
  ASSERT_EQ(Stats.Workers.size(), 4u);

  // The hot chunk pinned one worker for ~HotMs while 15 chunks sat behind
  // it in the same deque: somebody must have rebalanced. (Even if the
  // other workers were never scheduled during the spin, the hot worker
  // itself then steals their untouched chunks — either way steals > 0.)
  int64_t Steals = 0;
  for (const WorkerStats &W : Stats.Workers)
    Steals += W.Steals;
  EXPECT_GT(Steals, 0);

  // Busy/wait accounting: the spin is inside one chunk body, so it is busy
  // time of the worker that claimed index 0; wall time covers it; and no
  // worker's participation (busy + wait) exceeds the call's wall time.
  ASSERT_NE(HotWorker.load(), ~0u);
  EXPECT_GE(Stats.Workers[HotWorker.load()].BusyMs, HotMs * 0.95);
  EXPECT_GE(Stats.ElapsedMs, HotMs * 0.95);
  for (const WorkerStats &W : Stats.Workers) {
    EXPECT_GE(W.BusyMs, 0.0);
    EXPECT_GE(W.WaitMs, 0.0);
    EXPECT_LE(W.BusyMs + W.WaitMs, Stats.ElapsedMs + 1.0)
        << "worker " << W.Worker << " accounted more than wall time";
  }

  // The registry histograms saw this call: one chunk-latency observation
  // per chunk, one steal-latency observation per landed steal.
  EXPECT_EQ(Reg.histogram("exec.chunk_ms").count() - ChunksBefore, N);
  EXPECT_EQ(Reg.histogram("exec.steal_ms").count() - StealObsBefore, Steals);
  EXPECT_EQ(Reg.counter("exec.chunks").value() - ChunkCtrBefore, N);
}

//===----------------------------------------------------------------------===//
// Calibration.
//===----------------------------------------------------------------------===//

TEST(Calibration, SizeEnvFromInputsWalksScalarsArraysAndStructs) {
  ProgramBuilder B;
  B.in("m", Type::structOf({{"rows", Type::i64()},
                            {"data", Type::arrayOf(Type::f64())}}));
  B.inVecF64("xs");
  Val K = B.inI64("k");
  Program P = B.build(K);
  InputMap In{
      {"m", Value::makeStruct(
                {Value(int64_t(7)),
                 Value::arrayOfDoubles(std::vector<double>(5, 1.0))})},
      {"xs", Value::arrayOfDoubles(std::vector<double>(11, 0.0))},
      {"k", Value(int64_t(3))}};
  SizeEnv Env = sizeEnvFromInputs(P, In);
  EXPECT_DOUBLE_EQ(Env.Scalars.at("m.rows"), 7.0);
  EXPECT_DOUBLE_EQ(Env.ArrayLens.at("m.data"), 5.0);
  EXPECT_DOUBLE_EQ(Env.ArrayLens.at("xs"), 11.0);
  EXPECT_DOUBLE_EQ(Env.Scalars.at("k"), 3.0);
  // Inputs absent from the map are simply skipped, not defaulted.
  InputMap Partial{{"k", Value(int64_t(3))}};
  SizeEnv Env2 = sizeEnvFromInputs(P, Partial);
  EXPECT_EQ(Env2.ArrayLens.count("xs"), 0u);
}

/// Sum-of-squares over a partitioned input: one closed parallelizable loop.
Program sumOfSquares(InputMap &Inputs, int64_t N) {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs", LayoutHint::Partitioned);
  Program P = B.build(sum(map(Xs, [](Val X) { return X * X; })));
  std::vector<double> Data(static_cast<size_t>(N));
  for (int64_t I = 0; I < N; ++I)
    Data[static_cast<size_t>(I)] = static_cast<double>(I % 100) * 0.25;
  Inputs = {{"xs", Value::arrayOfDoubles(Data)}};
  return P;
}

/// executeProgram on sumOfSquares(8000): 4 threads, Auto, MinChunk 128.
ExecutionReport runSumOfSquares() {
  InputMap Inputs;
  Program P = sumOfSquares(Inputs, 8000);
  ExecOptions Exec;
  Exec.Threads = 4;
  Exec.Mode = engine::EngineMode::Auto;
  Exec.MinChunk = 128;
  return executeProgram(P, Inputs, CompileOptions(), Exec);
}

TEST(Calibration, ReportPairsEveryMeasuredLoop) {
  ExecutionReport R = runSumOfSquares();
  ASSERT_FALSE(R.Loops.empty());
  for (const LoopProfile &LP : R.Loops) {
    EXPECT_FALSE(LP.Loop.empty());
    EXPECT_TRUE(LP.Engine == "interp" || LP.Engine == "kernel") << LP.Engine;
    EXPECT_GT(LP.Iters, 0);
    EXPECT_GE(LP.Millis, 0.0);
    EXPECT_EQ(LP.Counters.Hw, ThreadCounters::hardwareAvailable());
  }

  // One calibration row per measured loop, in the same order.
  const CalibrationReport &C = R.Calibration;
  EXPECT_EQ(C.Machine, "host");
  EXPECT_EQ(C.Cores, 4);
  ASSERT_EQ(C.Loops.size(), R.Loops.size());
  double MatchedMeasured = 0, MatchedPredicted = 0;
  bool AnyMatched = false;
  for (size_t I = 0; I < C.Loops.size(); ++I) {
    const LoopCalibration &L = C.Loops[I];
    EXPECT_EQ(L.Loop, R.Loops[I].Loop);
    EXPECT_EQ(L.Engine, R.Loops[I].Engine);
    EXPECT_DOUBLE_EQ(L.MeasuredMs, R.Loops[I].Millis);
    if (L.Matched) {
      AnyMatched = true;
      EXPECT_GT(L.PredictedMs, 0.0) << L.Loop;
      EXPECT_GT(L.Ratio, 0.0) << L.Loop;
      EXPECT_NEAR(L.Ratio, L.MeasuredMs / L.PredictedMs, 1e-9);
      MatchedMeasured += L.MeasuredMs;
      MatchedPredicted += L.PredictedMs;
    } else {
      EXPECT_DOUBLE_EQ(L.PredictedMs, 0.0);
    }
  }
  // The single fused top-level loop must be in the cost analysis.
  EXPECT_TRUE(AnyMatched);
  EXPECT_NEAR(C.MeasuredMs, MatchedMeasured, 1e-9);
  EXPECT_NEAR(C.PredictedMs, MatchedPredicted, 1e-9);
  EXPECT_NEAR(C.overallRatio(), MatchedMeasured / MatchedPredicted, 1e-9);
}

TEST(Calibration, UnknownSignatureStaysUnmatched) {
  InputMap Inputs;
  Program P = sumOfSquares(Inputs, 100);
  CompileOptions Opts;
  CompileResult CR = compileProgram(P, Opts);
  LoopProfile Fake;
  Fake.Loop = "Multiloop[NoSuchPattern]";
  Fake.Engine = "interp";
  Fake.Iters = 100;
  Fake.Millis = 1.0;
  SizeEnv Env = sizeEnvFromInputs(CR.P, Inputs);
  CalibrationReport C =
      calibrate(CR.P, CR.Partitioning, Env, {Fake}, MachineModel::host(), 2);
  ASSERT_EQ(C.Loops.size(), 1u);
  EXPECT_FALSE(C.Loops[0].Matched);
  EXPECT_DOUBLE_EQ(C.Loops[0].Ratio, 0.0);
  EXPECT_DOUBLE_EQ(C.MeasuredMs, 0.0); // unmatched loops stay out of totals
}

//===----------------------------------------------------------------------===//
// Profile JSON export.
//===----------------------------------------------------------------------===//

TEST(ProfileJson, DocumentRoundTripsWithAllSections) {
  ExecutionReport R = runSumOfSquares();
  std::string Doc = renderProfileJson(R);
  json::JValue Root;
  ASSERT_TRUE(json::parse(Doc, Root)) << Doc.substr(0, 400);

  EXPECT_EQ(Root.strField("schema"), "dmll-profile-v1");
  EXPECT_DOUBLE_EQ(Root.numField("threads"), 4.0);

  const json::JValue *HwC = Root.field("hw_counters");
  ASSERT_NE(HwC, nullptr);
  const json::JValue *Avail = HwC->field("available");
  ASSERT_NE(Avail, nullptr);
  EXPECT_EQ(Avail->K, json::JValue::Bool);
  EXPECT_EQ(Avail->B, ThreadCounters::hardwareAvailable());
  EXPECT_FALSE(HwC->strField("source").empty());

  const json::JValue *Loops = Root.field("loops");
  ASSERT_NE(Loops, nullptr);
  ASSERT_EQ(Loops->Arr.size(), R.Loops.size());
  for (const json::JValue &L : Loops->Arr) {
    // Keys follow loop:<signature>#<occurrence>/<engine> — what dmll-prof
    // diffs across runs.
    EXPECT_EQ(L.strField("key").rfind("loop:", 0), 0u) << L.strField("key");
    EXPECT_GE(L.numField("millis"), 0.0);
    ASSERT_NE(L.field("counters"), nullptr);
  }

  const json::JValue *Workers = Root.field("workers");
  ASSERT_NE(Workers, nullptr);
  EXPECT_EQ(Workers->Arr.size(), R.Workers.size());

  const json::JValue *Metrics = Root.field("metrics");
  ASSERT_NE(Metrics, nullptr);
  EXPECT_NE(Metrics->field("counters"), nullptr);
  EXPECT_NE(Metrics->field("histograms"), nullptr);

  const json::JValue *Cal = Root.field("calibration");
  ASSERT_NE(Cal, nullptr);
  EXPECT_EQ(Cal->strField("machine"), "host");
  const json::JValue *CalLoops = Cal->field("loops");
  ASSERT_NE(CalLoops, nullptr);
  EXPECT_EQ(CalLoops->Arr.size(), R.Calibration.Loops.size());
}

TEST(ProfileJson, ProfileArgPath) {
  const char *Argv1[] = {"quickstart", "--profile-out=/tmp/p.json"};
  EXPECT_EQ(flagValue(2, const_cast<char **>(Argv1), "profile-out"),
            "/tmp/p.json");
  const char *Argv2[] = {"quickstart", "--profile-out", "p.json"};
  EXPECT_EQ(flagValue(3, const_cast<char **>(Argv2), "profile-out"),
            "p.json");
  const char *Argv3[] = {"quickstart", "--trace-out=t.json"};
  EXPECT_EQ(flagValue(2, const_cast<char **>(Argv3), "profile-out"), "");
}

} // namespace
