//===- tests/TelemetryTest.cpp - Live telemetry plane tests ----*- C++ -*-===//
//
// Covers docs/TELEMETRY.md's contracts: the Prometheus exposition renders
// legal, TYPE-declared series with cumulative histogram buckets ending at
// +Inf (and _count equal to the +Inf row, mid-update included); the
// registry's JSON export shares the cumulative-bucket convention; the
// dmll-events-v1 log validates — header, monotonic timestamps, per-thread
// loop nesting, mid-stream trap recovery; the sampling profiler attributes
// real
// multiloop runs to (phase, loop) and exports flamegraph-ready collapsed
// stacks; and the whole plane stays consistent while four threads execute
// programs concurrently under the snapshotter (the sanitize label runs this
// suite under TSan).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "frontend/Frontend.h"
#include "interp/Interp.h"
#include "observe/Events.h"
#include "observe/LiveTelemetry.h"
#include "observe/MetricsRegistry.h"
#include "observe/Sampler.h"
#include "runtime/Executor.h"
#include "runtime/ProfileJson.h"
#include "support/Json.h"
#include "support/Net.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dmll;
using namespace dmll::frontend;

namespace {

/// Unique temp path per test; removed by the caller.
std::string tmpPath(const std::string &Stem) {
  return testing::TempDir() + "telemetry_" + Stem + "_" +
         std::to_string(::getpid());
}

ExecutionReport runOnce(unsigned Threads = 4) {
  InputMap Inputs;
  Program P = testutil::meanOfSquares(Inputs);
  CompileOptions CO;
  CO.T = Target::Numa;
  ExecOptions EO;
  EO.Threads = Threads;
  EO.Mode = engine::EngineMode::Auto;
  EO.MinChunk = 128;
  return executeProgram(P, Inputs, CO, EO);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The parsed events of type \p Type in the dmll-events-v1 log at \p Path.
std::vector<json::JValue> eventsOfType(const std::string &Path,
                                       const std::string &Type) {
  std::vector<json::JValue> Out;
  std::istringstream In(slurp(Path));
  std::string Line;
  while (std::getline(In, Line)) {
    json::JValue V;
    if (json::parse(Line, V) && V.strField("type") == Type)
      Out.push_back(std::move(V));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Metric name labels and Prometheus rendering.
//===----------------------------------------------------------------------===//

TEST(MetricLabels, SplitNameParsesLabelSuffixes) {
  std::string Base;
  std::vector<std::pair<std::string, std::string>> Labels;
  splitMetricName("exec.loop_ms|loop=Multiloop[Reduce]|engine=kernel", Base,
                  Labels);
  EXPECT_EQ(Base, "exec.loop_ms");
  ASSERT_EQ(Labels.size(), 2u);
  EXPECT_EQ(Labels[0].first, "loop");
  EXPECT_EQ(Labels[0].second, "Multiloop[Reduce]");
  EXPECT_EQ(Labels[1].first, "engine");
  EXPECT_EQ(Labels[1].second, "kernel");

  splitMetricName("plain.name", Base, Labels);
  EXPECT_EQ(Base, "plain.name");
  EXPECT_TRUE(Labels.empty());
}

TEST(Prometheus, RenderedRegistryPassesFormatCheck) {
  MetricsRegistry R;
  R.counter("exec.loops").inc(7);
  R.gauge("exec.threads").set(4);
  MetricHistogram &H = R.histogram("exec.loop_ms|loop=Multiloop[Reduce]",
                                   {1.0, 10.0});
  H.observe(0.5);
  H.observe(5.0);
  H.observe(50.0);

  std::string Text = renderPrometheus(R);
  std::vector<std::string> Problems = checkPrometheus(Text);
  for (const std::string &P : Problems)
    ADD_FAILURE() << P;

  PromSnapshot Snap;
  ASSERT_TRUE(parsePrometheus(Text, Snap));
  // Counter family mangled + suffixed, value preserved.
  const PromSample *C = Snap.find("dmll_exec_loops_total", {});
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Value, 7);
  EXPECT_EQ(Snap.Types["dmll_exec_loops_total"], "counter");
  // Labeled histogram: cumulative buckets ending at +Inf, _count == +Inf.
  const PromSample *B1 = Snap.find(
      "dmll_exec_loop_ms_bucket",
      {{"loop", "Multiloop[Reduce]"}, {"le", "1"}});
  ASSERT_NE(B1, nullptr);
  EXPECT_EQ(B1->Value, 1);
  const PromSample *BInf = Snap.find(
      "dmll_exec_loop_ms_bucket",
      {{"loop", "Multiloop[Reduce]"}, {"le", "+Inf"}});
  ASSERT_NE(BInf, nullptr);
  EXPECT_EQ(BInf->Value, 3);
  const PromSample *Count =
      Snap.find("dmll_exec_loop_ms_count", {{"loop", "Multiloop[Reduce]"}});
  ASSERT_NE(Count, nullptr);
  EXPECT_EQ(Count->Value, 3);
}

TEST(Prometheus, CheckerRejectsBrokenHistograms) {
  // No +Inf bucket.
  std::string NoInf = "# TYPE h histogram\n"
                      "h_bucket{le=\"1\"} 2\n"
                      "h_sum 1\nh_count 2\n";
  EXPECT_FALSE(checkPrometheus(NoInf).empty());
  // Non-cumulative buckets.
  std::string NonCum = "# TYPE h histogram\n"
                       "h_bucket{le=\"1\"} 5\n"
                       "h_bucket{le=\"+Inf\"} 3\n"
                       "h_sum 1\nh_count 3\n";
  EXPECT_FALSE(checkPrometheus(NonCum).empty());
  // _count disagreeing with +Inf.
  std::string BadCount = "# TYPE h histogram\n"
                         "h_bucket{le=\"1\"} 1\n"
                         "h_bucket{le=\"+Inf\"} 3\n"
                         "h_sum 1\nh_count 4\n";
  EXPECT_FALSE(checkPrometheus(BadCount).empty());
  // Undeclared series.
  EXPECT_FALSE(checkPrometheus("lonely 1\n").empty());
}

TEST(Prometheus, RegistryJsonBucketsAreCumulative) {
  MetricsRegistry R;
  MetricHistogram &H = R.histogram("t.h", {1.0, 10.0});
  H.observe(0.5);
  H.observe(0.6);
  H.observe(5.0);
  H.observe(50.0);

  json::JValue Doc;
  ASSERT_TRUE(json::parse(R.renderJson(), Doc));
  const json::JValue *Hist = Doc.field("histograms");
  ASSERT_NE(Hist, nullptr);
  const json::JValue *HJ = Hist->field("t.h");
  ASSERT_NE(HJ, nullptr);
  const json::JValue *Buckets = HJ->field("buckets");
  ASSERT_NE(Buckets, nullptr);
  ASSERT_EQ(Buckets->Arr.size(), 3u);
  // Cumulative: 2 (<=1), 3 (<=10), 4 (inf row == total count).
  EXPECT_EQ(Buckets->Arr[0].numField("count"), 2);
  EXPECT_EQ(Buckets->Arr[1].numField("count"), 3);
  EXPECT_EQ(Buckets->Arr[2].numField("count"), 4);
  EXPECT_EQ(Buckets->Arr[2].strField("le"), "inf");
  EXPECT_EQ(HJ->numField("count"), 4);
}

//===----------------------------------------------------------------------===//
// Event log: emission and dmll-events-v1 validation.
//===----------------------------------------------------------------------===//

TEST(EventLogTest, EmitsValidatableLog) {
  std::string Path = tmpPath("events");
  {
    EventLog Log(Path);
    ASSERT_TRUE(Log.ok());
    EventLogActivation Act(Log);
    ASSERT_EQ(EventLog::active(), &Log);
    Log.emit(EventKind::RunStart, EventLog::num("threads", 4));
    Log.emit(EventKind::LoopBegin, EventLog::str("loop", "Multiloop[Reduce]") +
                                       EventLog::num("iters", 100));
    Log.emit(EventKind::LoopEnd, EventLog::str("loop", "Multiloop[Reduce]") +
                                     EventLog::str("engine", "interp") +
                                     EventLog::num("millis", 1.5));
    Log.emit(EventKind::RunStop, EventLog::num("millis", 2.0));
  }
  EXPECT_EQ(EventLog::active(), nullptr);

  EventLogCheck C = validateEventLog(Path);
  for (const std::string &E : C.Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(C.Ok);
  EXPECT_EQ(C.Lines, 5);
  EXPECT_EQ(C.CountsByType["log.open"], 1);
  EXPECT_EQ(C.CountsByType["loop.begin"], 1);
  EXPECT_EQ(C.CountsByType["loop.end"], 1);
  std::remove(Path.c_str());
}

TEST(EventLogTest, ValidatorCatchesBrokenStreams) {
  std::string Path = tmpPath("badevents");
  auto WriteLines = [&](const std::string &Body) {
    std::ofstream Out(Path, std::ios::binary);
    Out << Body;
  };
  // Missing log.open header.
  WriteLines("{\"ts_ms\":0,\"tid\":0,\"type\":\"run.start\"}\n");
  EXPECT_FALSE(validateEventLog(Path).Ok);
  // Decreasing timestamps.
  WriteLines("{\"ts_ms\":5,\"tid\":0,\"type\":\"log.open\","
             "\"schema\":\"dmll-events-v1\"}\n"
             "{\"ts_ms\":1,\"tid\":0,\"type\":\"run.start\"}\n");
  EXPECT_FALSE(validateEventLog(Path).Ok);
  // loop.end without begin.
  WriteLines("{\"ts_ms\":0,\"tid\":0,\"type\":\"log.open\","
             "\"schema\":\"dmll-events-v1\"}\n"
             "{\"ts_ms\":1,\"tid\":0,\"type\":\"loop.end\","
             "\"loop\":\"Multiloop[Reduce]\"}\n");
  EXPECT_FALSE(validateEventLog(Path).Ok);
  // Unbalanced loop.begin — invalid without a trap, waived with one.
  std::string Unbalanced =
      "{\"ts_ms\":0,\"tid\":0,\"type\":\"log.open\","
      "\"schema\":\"dmll-events-v1\"}\n"
      "{\"ts_ms\":1,\"tid\":0,\"type\":\"run.start\"}\n"
      "{\"ts_ms\":2,\"tid\":0,\"type\":\"loop.begin\","
      "\"loop\":\"Multiloop[Reduce]\"}\n";
  WriteLines(Unbalanced);
  EXPECT_FALSE(validateEventLog(Path).Ok);
  WriteLines(Unbalanced +
             "{\"ts_ms\":3,\"tid\":0,\"type\":\"trap\","
             "\"message\":\"array read out of range\"}\n");
  EXPECT_TRUE(validateEventLog(Path).Ok) << "trap must waive balance checks";
  std::remove(Path.c_str());
}

TEST(EventLogTest, ValidatorAcceptsTrapMidStream) {
  std::string Path = tmpPath("midtrap");
  auto WriteLines = [&](const std::string &Body) {
    std::ofstream Out(Path, std::ios::binary);
    Out << Body;
  };
  // A recovered trap mid-stream: the loops open at the trap are cleared, a
  // straggling sibling loop.end is absorbed, the run closes its bracket
  // with status=trapped, and the stream continues with a clean run.
  WriteLines(
      "{\"ts_ms\":0,\"tid\":0,\"type\":\"log.open\","
      "\"schema\":\"dmll-events-v1\"}\n"
      "{\"ts_ms\":1,\"tid\":0,\"type\":\"run.start\"}\n"
      "{\"ts_ms\":2,\"tid\":0,\"type\":\"loop.begin\","
      "\"loop\":\"Multiloop[Reduce]\"}\n"
      "{\"ts_ms\":3,\"tid\":1,\"type\":\"loop.begin\","
      "\"loop\":\"Multiloop[Collect]\"}\n"
      "{\"ts_ms\":4,\"tid\":2,\"type\":\"trap\","
      "\"message\":\"injected trap\"}\n"
      "{\"ts_ms\":5,\"tid\":1,\"type\":\"loop.end\","
      "\"loop\":\"Multiloop[Collect]\"}\n"
      "{\"ts_ms\":6,\"tid\":0,\"type\":\"run.stop\","
      "\"status\":\"trapped\"}\n"
      "{\"ts_ms\":7,\"tid\":0,\"type\":\"run.start\"}\n"
      "{\"ts_ms\":8,\"tid\":0,\"type\":\"loop.begin\","
      "\"loop\":\"Multiloop[Reduce]\"}\n"
      "{\"ts_ms\":9,\"tid\":0,\"type\":\"loop.end\","
      "\"loop\":\"Multiloop[Reduce]\"}\n"
      "{\"ts_ms\":10,\"tid\":0,\"type\":\"run.stop\",\"status\":\"ok\"}\n");
  EventLogCheck C = validateEventLog(Path);
  for (const std::string &E : C.Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(C.Ok);
  EXPECT_EQ(C.CountsByType["run.stop"], 2);

  // run.stop with no open run.start is structural corruption, trap or not.
  WriteLines("{\"ts_ms\":0,\"tid\":0,\"type\":\"log.open\","
             "\"schema\":\"dmll-events-v1\"}\n"
             "{\"ts_ms\":1,\"tid\":0,\"type\":\"trap\","
             "\"message\":\"m\"}\n"
             "{\"ts_ms\":2,\"tid\":0,\"type\":\"run.stop\","
             "\"status\":\"trapped\"}\n");
  EXPECT_FALSE(validateEventLog(Path).Ok);
  // Unknown run.stop status name.
  WriteLines("{\"ts_ms\":0,\"tid\":0,\"type\":\"log.open\","
             "\"schema\":\"dmll-events-v1\"}\n"
             "{\"ts_ms\":1,\"tid\":0,\"type\":\"run.start\"}\n"
             "{\"ts_ms\":2,\"tid\":0,\"type\":\"run.stop\","
             "\"status\":\"exploded\"}\n");
  EXPECT_FALSE(validateEventLog(Path).Ok);
  // A loop opened *after* the last trap must still close.
  WriteLines("{\"ts_ms\":0,\"tid\":0,\"type\":\"log.open\","
             "\"schema\":\"dmll-events-v1\"}\n"
             "{\"ts_ms\":1,\"tid\":0,\"type\":\"trap\","
             "\"message\":\"m\"}\n"
             "{\"ts_ms\":2,\"tid\":0,\"type\":\"loop.begin\","
             "\"loop\":\"Multiloop[Reduce]\"}\n");
  EXPECT_FALSE(validateEventLog(Path).Ok);
  std::remove(Path.c_str());
}

TEST(EventLogTest, RecoveredTrapKeepsStreamValid) {
  std::string Path = tmpPath("trapevents");
  {
    EventLog Log(Path);
    ASSERT_TRUE(Log.ok());
    EventLogActivation Act(Log);
    // A trapping run: integer modulo by zero inside the loop. The trap
    // event fires at the trap site and the executor closes the bracket
    // with a non-ok run.stop instead of killing the process.
    ProgramBuilder B;
    Val Xs = B.inVecI64("xs");
    Val XsV = Xs;
    Program P = B.build(sumRange(
        Xs.len(), [&](Val I) { return XsV(I) % Val(int64_t(0)); }));
    InputMap In{{"xs", Value::arrayOfInts({1, 2, 3})}};
    CompileOptions CO;
    CO.T = Target::Numa;
    ExecOptions EO;
    EO.Threads = 2;
    ExecutionReport R = executeProgram(P, In, CO, EO);
    EXPECT_EQ(R.Status, ExecStatus::Trapped);
    EXPECT_EQ(R.TrapMessage, "integer modulo by zero");
    // The recovered process keeps appending to the same log.
    ExecutionReport R2 = runOnce();
    EXPECT_TRUE(R2.ok());
  }
  EventLogCheck C = validateEventLog(Path);
  for (const std::string &E : C.Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(C.Ok);
  EXPECT_GE(C.CountsByType["trap"], 1);
  EXPECT_EQ(C.CountsByType["run.stop"], 2);
  std::remove(Path.c_str());
}

TEST(EventLogTest, RealRunEmitsBalancedStream) {
  std::string Path = tmpPath("runevents");
  {
    EventLog Log(Path);
    ASSERT_TRUE(Log.ok());
    EventLogActivation Act(Log);
    ExecutionReport R = runOnce();
    EXPECT_GT(R.Result.asFloat(), 0.0);
  }
  EventLogCheck C = validateEventLog(Path);
  for (const std::string &E : C.Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(C.Ok);
  EXPECT_EQ(C.CountsByType["run.start"], 1);
  EXPECT_EQ(C.CountsByType["run.stop"], 1);
  EXPECT_GE(C.CountsByType["loop.begin"], 1);
  EXPECT_EQ(C.CountsByType["loop.begin"], C.CountsByType["loop.end"]);
  std::remove(Path.c_str());
}

TEST(EventLogTest, LoopEndMirrorsTheReportsLoopRecords) {
  // loop.end and ExecutionReport::Loops render one record per closed-loop
  // execution, so they agree line for line.
  std::string Path = tmpPath("loopend");
  ExecutionReport R;
  {
    EventLog Log(Path);
    ASSERT_TRUE(Log.ok());
    EventLogActivation Act(Log);
    R = runOnce();
  }
  std::vector<json::JValue> Ends = eventsOfType(Path, "loop.end");
  ASSERT_FALSE(R.Loops.empty());
  ASSERT_EQ(Ends.size(), R.Loops.size());
  for (size_t I = 0; I < Ends.size(); ++I) {
    const LoopProfile &LP = R.Loops[I];
    EXPECT_EQ(Ends[I].strField("loop"), LP.Loop);
    EXPECT_EQ(Ends[I].strField("engine"), LP.Engine);
    EXPECT_EQ(Ends[I].numField("iters", -1), static_cast<double>(LP.Iters));
    EXPECT_EQ(Ends[I].numField("threads", -1), LP.Threads);
    const json::JValue *Tuned = Ends[I].field("tuned");
    ASSERT_NE(Tuned, nullptr);
    EXPECT_EQ(Tuned->K, json::JValue::Bool);
    EXPECT_EQ(Tuned->B, LP.Tuned);
    EXPECT_NE(Ends[I].field("counters"), nullptr)
        << "a run with a Profile sink measures counters";
  }
  std::remove(Path.c_str());
}

TEST(EventLogTest, ClosedLoopInsideAChunkedLoopRunsAndReportsOnce) {
  // sum(xs) is closed, so every chunk of the outer loop reads one result:
  // it runs once per run, and loop.end and the profile each record it
  // once, at any thread count.
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val XsV = Xs;
  Program P = B.build(tabulate(
      Val(int64_t(4096)), [&](Val I) { return sum(XsV) * toF64(I); }));
  InputMap In{{"xs", Value::arrayOfDoubles(std::vector<double>(100, 1.0))}};
  for (unsigned Threads : {1u, 4u}) {
    std::string Path = tmpPath("closedonce");
    ExecProfile Profile;
    {
      EventLog Log(Path);
      ASSERT_TRUE(Log.ok());
      EventLogActivation Act(Log);
      EvalOptions EO;
      EO.Threads = Threads;
      EO.MinChunk = 64;
      EO.Profile = &Profile;
      testutil::evalOk(P, In, EO);
    }
    EXPECT_EQ(eventsOfType(Path, "loop.end").size(), 2u) << Threads;
    EXPECT_EQ(Profile.Loops.size(), 2u) << Threads;
    std::remove(Path.c_str());
  }
}

TEST(EventLogTest, WarmFallbackLoopEndCarriesTheReason) {
  // The outer loop's value sums a loop-varying Flatten, which the kernel
  // compiler rejects. The second run adopts that outcome from the cross-run
  // cache without compiling, and its loop.end still says why.
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(tabulate(N, [](Val I) {
    return sum(flatMap(tabulate(I + Val(int64_t(1)), [](Val J) { return J; }),
                       [](Val J) {
                         return tabulate(J, [](Val K) { return K * K; });
                       }));
  }));
  InputMap In{{"n", Value(int64_t(40))}};
  std::string Path = tmpPath("warmfallback");
  {
    EventLog Log(Path);
    ASSERT_TRUE(Log.ok());
    EventLogActivation Act(Log);
    KernelReuseCache Reuse;
    EvalOptions EO;
    EO.Mode = engine::EngineMode::Kernel;
    EO.KernelReuse = &Reuse;
    testutil::evalOk(P, In, EO);
    testutil::evalOk(P, In, EO);
  }
  std::vector<json::JValue> Fallbacks = eventsOfType(Path, "engine.fallback");
  ASSERT_EQ(Fallbacks.size(), 1u) << "only the cold run compiles";
  std::string Reason = Fallbacks[0].strField("reason");
  ASSERT_FALSE(Reason.empty());
  std::vector<json::JValue> Ends = eventsOfType(Path, "loop.end");
  ASSERT_EQ(Ends.size(), 2u);
  for (const json::JValue &End : Ends) {
    EXPECT_EQ(End.strField("engine"), "interp");
    EXPECT_EQ(End.strField("fallback"), Reason);
  }
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Sampling profiler.
//===----------------------------------------------------------------------===//

TEST(SamplerTest, AttributesScopesToPhaseAndLoop) {
  SamplingProfiler P(0.1);
  SamplerActivation Act(P);
  ASSERT_EQ(SamplingProfiler::active(), &P);
  const char *Loop = internSampleName("Multiloop[Collect]");
  {
    SampleScope S("test.phase", Loop);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  SamplingSummary Sum = P.summary();
  EXPECT_TRUE(Sum.Enabled);
  EXPECT_GT(Sum.Ticks, 0);
  EXPECT_GT(Sum.Samples, 0);
  bool Found = false;
  for (const auto &[Key, N] : Sum.Stacks)
    if (Key == "test.phase;Multiloop[Collect]" && N > 0)
      Found = true;
  EXPECT_TRUE(Found) << "no samples attributed to the published scope";

  std::string Collapsed = P.collapsed();
  EXPECT_NE(Collapsed.find("dmll;test.phase;Multiloop[Collect] "),
            std::string::npos)
      << Collapsed;
}

TEST(SamplerTest, ScopesNestAndRestore) {
  SamplingProfiler P(0.1);
  SamplerActivation Act(P);
  const char *Outer = internSampleName("outer-loop");
  {
    SampleScope A("phase.a", Outer);
    {
      // Null loop inherits the enclosing loop.
      SampleScope B("phase.b", nullptr);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  SamplingSummary Sum = P.summary();
  for (const auto &[Key, N] : Sum.Stacks) {
    (void)N;
    if (Key.rfind("phase.b", 0) == 0) {
      EXPECT_EQ(Key, "phase.b;outer-loop");
    }
  }
}

TEST(SamplerTest, RealRunProducesLoopAttribution) {
  SamplingProfiler P(0.2);
  SamplerActivation Act(P);
  // The run takes milliseconds, and on a loaded host the 0.2ms sampler may
  // neither tick nor land inside a loop during one, so run until one run's
  // delta holds both. The bound is wall time, generous enough that only a
  // sampler that never samples reaches it.
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  ExecutionReport R;
  do
    R = runOnce();
  while ((R.Sampling.Ticks == 0 || R.Sampling.Samples == 0) &&
         std::chrono::steady_clock::now() < Deadline);
  EXPECT_TRUE(R.Sampling.Enabled);
  EXPECT_GT(R.Sampling.Ticks, 0);
  EXPECT_GT(R.Sampling.Samples, 0);
  // Whatever was sampled must attribute to telemetry phases.
  for (const auto &[Key, N] : R.Sampling.Stacks) {
    EXPECT_GT(N, 0);
    EXPECT_TRUE(Key.rfind("exec.", 0) == 0 || Key.rfind("engine.", 0) == 0)
        << "unexpected phase in stack key: " << Key;
  }
  // The report's delta never exceeds the profiler's own totals.
  SamplingSummary Total = P.summary();
  EXPECT_LE(R.Sampling.Samples, Total.Samples);
  EXPECT_LE(R.Sampling.Ticks, Total.Ticks);
}

TEST(SamplerTest, DeltaSubtracts) {
  SamplingSummary A, B;
  A.Ticks = 10;
  A.Samples = 5;
  A.Stacks = {{"p;l", 3}, {"q", 2}};
  B.Enabled = true;
  B.Ticks = 25;
  B.Samples = 9;
  B.Stacks = {{"p;l", 7}, {"q", 2}, {"r", 1}};
  SamplingSummary D = samplingDelta(A, B);
  EXPECT_EQ(D.Ticks, 15);
  EXPECT_EQ(D.Samples, 4);
  ASSERT_EQ(D.Stacks.size(), 2u); // "q" unchanged drops out
  EXPECT_EQ(D.Stacks[0].first, "p;l");
  EXPECT_EQ(D.Stacks[0].second, 4);
  EXPECT_EQ(D.Stacks[1].first, "r");
  EXPECT_EQ(D.Stacks[1].second, 1);
}

//===----------------------------------------------------------------------===//
// Execution report integration.
//===----------------------------------------------------------------------===//

TEST(TelemetryReport, ProfileJsonCarriesSamplingSection) {
  SamplingProfiler P(0.2);
  SamplerActivation Act(P);
  ExecutionReport R = runOnce();
  json::JValue Doc;
  ASSERT_TRUE(json::parse(renderProfileJson(R), Doc));
  const json::JValue *S = Doc.field("sampling");
  ASSERT_NE(S, nullptr);
  const json::JValue *Enabled = S->field("enabled");
  ASSERT_NE(Enabled, nullptr);
  EXPECT_EQ(Enabled->K, json::JValue::Bool);
  EXPECT_NEAR(S->numField("period_ms"), 0.2, 1e-9);
  ASSERT_NE(S->field("stacks"), nullptr);
  for (const json::JValue &Row : S->field("stacks")->Arr) {
    EXPECT_FALSE(Row.strField("stack").empty());
    EXPECT_GT(Row.numField("samples"), 0);
  }
}

TEST(TelemetryReport, PerLoopSeriesLandInGlobalRegistry) {
  MetricsRegistry &Reg = MetricsRegistry::global();
  auto HasLoopSeries = [&] {
    for (const auto &[Name, H] : Reg.snapshot().Histograms)
      if (Name.rfind("exec.loop_ms|loop=", 0) == 0 && H.Count > 0)
        return true;
    return false;
  };
  (void)runOnce();
  EXPECT_TRUE(HasLoopSeries()) << "no exec.loop_ms|loop=... series after a run";
  std::string Text = renderPrometheus();
  EXPECT_NE(Text.find("dmll_exec_loop_ms_bucket{"), std::string::npos);
  EXPECT_TRUE(checkPrometheus(Text).empty());
  // The loop telemetry caches its metric handles per signature; after a
  // registry reset they re-resolve, so the series come back.
  Reg.reset();
  (void)runOnce();
  EXPECT_TRUE(HasLoopSeries()) << "per-loop series lost after a reset";

  // exec.loops counts every closed-loop execution, with or without a
  // Profile sink (a daemon request passes none): the same program counts
  // as many loops either way, and as many as the profile records.
  InputMap Inputs;
  Program P = testutil::meanOfSquares(Inputs);
  EvalOptions EO;
  EO.Threads = 1;
  int64_t Before = Reg.counter("exec.loops").value();
  testutil::evalOk(P, Inputs, EO);
  int64_t Unprofiled = Reg.counter("exec.loops").value() - Before;
  ExecProfile Prof;
  EO.Profile = &Prof;
  Before = Reg.counter("exec.loops").value();
  testutil::evalOk(P, Inputs, EO);
  EXPECT_GT(Unprofiled, 0);
  EXPECT_EQ(Unprofiled, Reg.counter("exec.loops").value() - Before);
  EXPECT_EQ(Unprofiled, static_cast<int64_t>(Prof.Loops.size()));
}

//===----------------------------------------------------------------------===//
// Snapshotter and CLI wiring.
//===----------------------------------------------------------------------===//

TEST(Snapshotter, WritesAtomicSnapshotsAndDeltaEvents) {
  std::string Prom = tmpPath("live.prom");
  std::string Events = tmpPath("live.events");
  {
    EventLog Log(Events);
    ASSERT_TRUE(Log.ok());
    EventLogActivation Act(Log);
    LiveSnapshotter::Options O;
    O.PeriodMs = 20;
    O.Path = Prom;
    LiveSnapshotter Snap(O);
    Snap.start();
    (void)runOnce();
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    Snap.stop();
    EXPECT_GT(Snap.snapshots(), 0);
    EXPECT_FALSE(Snap.lastText().empty());
  }
  std::string Text = slurp(Prom);
  ASSERT_FALSE(Text.empty());
  EXPECT_TRUE(checkPrometheus(Text).empty());
  EventLogCheck C = validateEventLog(Events);
  EXPECT_TRUE(C.Ok);
  EXPECT_GT(C.CountsByType["metrics.snapshot"], 0);
  std::remove(Prom.c_str());
  std::remove(Events.c_str());
}

//===----------------------------------------------------------------------===//
// The live HTTP endpoint: ephemeral ports and hostile clients.
//===----------------------------------------------------------------------===//

/// One HTTP/1.0 scrape: sends a GET, reads to EOF, returns the body (after
/// the blank line); empty on any failure.
std::string scrapeOnce(int Port) {
  int Fd = net::connectLoopback(Port);
  if (Fd < 0)
    return {};
  if (!net::sendAll(Fd, std::string("GET /metrics HTTP/1.0\r\n\r\n"))) {
    ::close(Fd);
    return {};
  }
  std::string All;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N <= 0)
      break;
    All.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  size_t Split = All.find("\r\n\r\n");
  if (Split == std::string::npos || All.rfind("HTTP/1.0 200", 0) != 0)
    return {};
  return All.substr(Split + 4);
}

TEST(SnapshotterEndpoint, EphemeralPortAnswersValidExposition) {
  (void)runOnce(); // make sure the registry has series to render
  LiveSnapshotter::Options O;
  O.PeriodMs = 10;
  O.Port = 0; // kernel-assigned: parallel test runs never collide
  LiveSnapshotter Snap(O);
  ASSERT_GT(Snap.boundPort(), 0) << "ephemeral bind failed";
  EXPECT_EQ(Snap.port(), 0) << "port() reports the configured value";
  Snap.start();

  std::string Body = scrapeOnce(Snap.boundPort());
  ASSERT_FALSE(Body.empty()) << "endpoint returned no 200 body";
  for (const std::string &P : checkPrometheus(Body))
    ADD_FAILURE() << P;
  EXPECT_NE(Body.find("dmll_"), std::string::npos);
  // The Content-Length the client saw matched the body (read-to-EOF worked
  // and the response wasn't truncated by an RST from unread request bytes).
  PromSnapshot S;
  EXPECT_TRUE(parsePrometheus(Body, S));
  Snap.stop();
}

TEST(SnapshotterEndpoint, SurvivesDisconnectMidResponse) {
  (void)runOnce();
  LiveSnapshotter::Options O;
  O.PeriodMs = 5;
  O.Port = 0;
  LiveSnapshotter Snap(O);
  ASSERT_GT(Snap.boundPort(), 0);
  Snap.start();

  // Hostile clients: connect, send a request (or nothing), vanish without
  // reading. The serving thread's send hits a closing socket — before the
  // MSG_NOSIGNAL fix this was a process-fatal SIGPIPE.
  for (int I = 0; I < 8; ++I) {
    int Fd = net::connectLoopback(Snap.boundPort());
    ASSERT_GE(Fd, 0);
    if (I % 2 == 0)
      net::sendAll(Fd, std::string("GET / HTTP/1.0\r\n\r\n"));
    ::close(Fd);
    Snap.snapshotNow(); // drive the serve loop from this thread too
  }

  // The process survived and the endpoint still answers a polite client
  // with a format-clean exposition.
  std::string Body = scrapeOnce(Snap.boundPort());
  ASSERT_FALSE(Body.empty()) << "endpoint dead after hostile clients";
  EXPECT_TRUE(checkPrometheus(Body).empty());
  Snap.stop();
}

TEST(SnapshotterEndpoint, ConcurrentScrapesAndSnapshotsStayConsistent) {
  (void)runOnce();
  LiveSnapshotter::Options O;
  O.PeriodMs = 5;
  O.Port = 0;
  LiveSnapshotter Snap(O);
  ASSERT_GT(Snap.boundPort(), 0);
  Snap.start();

  // Four scraper threads against the endpoint while the main thread forces
  // snapshot cycles and a worker keeps the registry moving: every body a
  // scraper receives must be a complete, format-valid exposition.
  std::atomic<int> GoodScrapes{0};
  std::vector<std::thread> Scrapers;
  for (int W = 0; W < 4; ++W)
    Scrapers.emplace_back([&] {
      for (int I = 0; I < 5; ++I) {
        std::string Body = scrapeOnce(Snap.boundPort());
        if (!Body.empty() && checkPrometheus(Body).empty())
          GoodScrapes.fetch_add(1);
        else if (!Body.empty())
          ADD_FAILURE() << "scrape returned a malformed exposition";
      }
    });
  std::thread Worker([] { (void)runOnce(2); });
  for (int I = 0; I < 20; ++I) {
    Snap.snapshotNow();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread &T : Scrapers)
    T.join();
  Worker.join();
  Snap.stop();
  // Transient accept races may drop the odd scrape; the overwhelming
  // majority must land.
  EXPECT_GE(GoodScrapes.load(), 15) << "endpoint dropped most scrapes";
}

TEST(TelemetryCliTest, ParsesSharedFlags) {
  const char *Argv[] = {"prog",           "--metrics-out", "m.prom",
                        "--events-out",   "e.jsonl",       "--sample-out",
                        "s.collapsed",    "--metrics-live", "l.prom",
                        "--metrics-port", "9109",          "--other-flag"};
  TelemetryCli C = telemetryCliArgs(12, const_cast<char **>(Argv));
  EXPECT_EQ(C.MetricsOut, "m.prom");
  EXPECT_EQ(C.EventsOut, "e.jsonl");
  EXPECT_EQ(C.SampleOut, "s.collapsed");
  EXPECT_EQ(C.MetricsLive, "l.prom");
  EXPECT_EQ(C.Port, 9109);
  EXPECT_TRUE(C.Sample) << "--sample-out implies --sample";
  EXPECT_TRUE(C.any());
  TelemetryCli None = telemetryCliArgs(1, const_cast<char **>(Argv));
  EXPECT_FALSE(None.any());
}

//===----------------------------------------------------------------------===//
// Concurrent telemetry: the TSan target.
//===----------------------------------------------------------------------===//

TEST(ConcurrentTelemetry, SnapshotterAndSamplerSurviveParallelRuns) {
  std::string Prom = tmpPath("hammer.prom");
  std::string Events = tmpPath("hammer.events");
  std::vector<MetricsSnapshot> Observed;
  {
    EventLog Log(Events);
    ASSERT_TRUE(Log.ok());
    EventLogActivation LogAct(Log);
    SamplingProfiler Prof(0.2);
    SamplerActivation ProfAct(Prof);
    LiveSnapshotter::Options O;
    O.PeriodMs = 5;
    O.Path = Prom;
    LiveSnapshotter Snap(O);
    Snap.start();

    // Four threads each running full executions (each execution spins up
    // its own worker pool, so the process is well past four threads) while
    // the sampler and snapshotter read everything they publish.
    std::vector<std::thread> Workers;
    for (int W = 0; W < 4; ++W)
      Workers.emplace_back([] {
        for (int I = 0; I < 3; ++I) {
          ExecutionReport R = runOnce(2);
          EXPECT_GT(R.Result.asFloat(), 0.0);
        }
      });
    // Main thread: hammer snapshots and record registry observations for
    // the monotonicity check below.
    for (int I = 0; I < 20; ++I) {
      Snap.snapshotNow();
      Observed.push_back(MetricsRegistry::global().snapshot());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread &T : Workers)
      T.join();
    Snap.stop();
  }

  // Counters are monotonic across every observation.
  for (size_t I = 1; I < Observed.size(); ++I)
    for (const auto &[Name, V] : Observed[I - 1].Counters) {
      auto It = Observed[I].Counters.find(Name);
      ASSERT_NE(It, Observed[I].Counters.end()) << Name << " disappeared";
      EXPECT_GE(It->second, V) << "counter " << Name << " went backwards";
    }
  // Histogram counts monotonic too (cumulative totals never shrink).
  for (size_t I = 1; I < Observed.size(); ++I)
    for (const auto &[Name, H] : Observed[I - 1].Histograms) {
      auto It = Observed[I].Histograms.find(Name);
      if (It != Observed[I].Histograms.end()) {
        EXPECT_GE(It->second.Count, H.Count)
            << "histogram " << Name << " went backwards";
      }
    }

  // The event log stayed well-formed JSONL through all of it.
  EventLogCheck C = validateEventLog(Events);
  for (const std::string &E : C.Errors)
    ADD_FAILURE() << E;
  EXPECT_TRUE(C.Ok);
  EXPECT_EQ(C.CountsByType["run.start"], 12);
  EXPECT_EQ(C.CountsByType["run.stop"], 12);
  // And the final exposition passes the format check.
  EXPECT_TRUE(checkPrometheus(slurp(Prom)).empty());
  std::remove(Prom.c_str());
  std::remove(Events.c_str());
}

} // namespace
