//===- tests/ObserveTest.cpp - Observability layer tests -------*- C++ -*-===//
//
// Covers docs/TELEMETRY.md's trace contracts: trace events carry explicit
// parent-span ids whose intervals nest, rewrite provenance agrees with
// RewriteStats.Applied, executor metrics account for every chunk, and the
// Chrome-trace JSON export round-trips through support/Json.h (the same
// parser tools/dmll-prof consumes profiles with).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "apps/Apps.h"
#include "data/Datasets.h"
#include "interp/Interp.h"
#include "observe/Metrics.h"
#include "observe/Trace.h"
#include "runtime/Executor.h"
#include "runtime/ThreadPool.h"
#include "support/Args.h"
#include "support/Json.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

using namespace dmll;
using testutil::meanOfSquares;

namespace {

using JsonValue = dmll::json::JValue;

bool parseJson(const std::string &S, JsonValue &Out) {
  return dmll::json::parse(S, Out);
}

/// Checks the explicit-parentage invariant: every span recorded through
/// TraceSpan has a session-unique id; every event with a parent link points
/// at an existing span on the same trace thread whose interval contains it
/// (small tolerance for clock granularity). This is a true invariant check
/// — nesting is recorded at open time, never reconstructed from timestamps.
void expectWellNested(const std::vector<TraceEvent> &Events) {
  std::map<uint64_t, const TraceEvent *> ById;
  for (const TraceEvent &E : Events)
    if (E.Id) {
      EXPECT_EQ(ById.count(E.Id), 0u) << "duplicate span id " << E.Id;
      ById[E.Id] = &E;
    }
  const double Eps = 1e-6;
  for (const TraceEvent &E : Events) {
    if (!E.Instant) {
      EXPECT_NE(E.Id, 0u) << "span without id: " << E.Name;
    }
    if (!E.Parent)
      continue;
    auto It = ById.find(E.Parent);
    ASSERT_NE(It, ById.end())
        << E.Name << " links to unknown parent id " << E.Parent;
    const TraceEvent *P = It->second;
    EXPECT_FALSE(P->Instant) << E.Name << " has instant parent " << P->Name;
    EXPECT_EQ(P->Tid, E.Tid)
        << E.Name << " parent " << P->Name << " is on another thread";
    // Parent interval contains the child's.
    EXPECT_GE(E.StartMs, P->StartMs - Eps)
        << E.Name << " starts before parent " << P->Name;
    EXPECT_LE(E.StartMs + E.DurMs, P->StartMs + P->DurMs + Eps)
        << E.Name << " ends after parent " << P->Name;
  }
}

bool hasEvent(const std::vector<TraceEvent> &Events, const std::string &Name) {
  return std::any_of(Events.begin(), Events.end(),
                     [&](const TraceEvent &E) { return E.Name == Name; });
}

//===----------------------------------------------------------------------===//
// TraceSession basics.
//===----------------------------------------------------------------------===//

TEST(TraceSession, SpansRecordAndNest) {
  TraceSession S;
  TraceActivation Act(S);
  {
    TraceSpan Outer("outer", "phase");
    {
      TraceSpan Inner("inner", "pass");
      Inner.argInt("n", 42);
    }
    S.instant("marker", "rewrite", {{"rule", "test"}});
  }
  auto Events = S.events();
  ASSERT_EQ(Events.size(), 3u);
  expectWellNested(Events);
  // Inner closes before outer, so it is recorded first; both on tid 0.
  EXPECT_EQ(Events[0].Name, "inner");
  EXPECT_EQ(Events[2].Name, "outer");
  EXPECT_TRUE(Events[1].Instant);
  ASSERT_EQ(Events[0].Args.size(), 1u);
  EXPECT_EQ(Events[0].Args[0].second, "42");
  // Explicit parentage: ids are assigned at open time, and the links record
  // who actually enclosed whom — not a reconstruction from timestamps.
  EXPECT_NE(Events[0].Id, 0u);
  EXPECT_NE(Events[2].Id, 0u);
  EXPECT_NE(Events[0].Id, Events[2].Id);
  EXPECT_EQ(Events[0].Parent, Events[2].Id); // inner opened under outer
  EXPECT_EQ(Events[1].Parent, Events[2].Id); // instant fired under outer
  EXPECT_EQ(Events[2].Parent, 0u);           // outer is a root span
  // The inner span's interval lies within the outer's.
  EXPECT_GE(Events[0].StartMs, Events[2].StartMs);
  EXPECT_LE(Events[0].StartMs + Events[0].DurMs,
            Events[2].StartMs + Events[2].DurMs + 1e-6);
}

TEST(TraceSession, InactiveSessionIsNoOp) {
  ASSERT_EQ(TraceSession::active(), nullptr);
  TraceSpan S("orphan", "phase"); // must not crash or record anywhere
  EXPECT_FALSE(S.live());
}

TEST(TraceSession, ActivationNestsAndRestores) {
  TraceSession A, B;
  {
    TraceActivation ActA(A);
    EXPECT_EQ(TraceSession::active(), &A);
    {
      TraceActivation ActB(B);
      EXPECT_EQ(TraceSession::active(), &B);
    }
    EXPECT_EQ(TraceSession::active(), &A);
  }
  EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(TraceSession, TraceArgPath) {
  const char *Argv1[] = {"bench", "--trace-out=/tmp/t.json"};
  EXPECT_EQ(flagValue(2, const_cast<char **>(Argv1), "trace-out"),
            "/tmp/t.json");
  const char *Argv2[] = {"bench", "--trace-out", "x.json"};
  EXPECT_EQ(flagValue(3, const_cast<char **>(Argv2), "trace-out"), "x.json");
  const char *Argv3[] = {"bench", "--other"};
  EXPECT_EQ(flagValue(2, const_cast<char **>(Argv3), "trace-out"), "");
  // A longer flag sharing the prefix is a different flag; a dangling flag
  // has no value.
  const char *Argv4[] = {"bench", "--trace-outer=a", "--trace-out"};
  EXPECT_EQ(flagValue(3, const_cast<char **>(Argv4), "trace-out"), "");
}

//===----------------------------------------------------------------------===//
// Compiler tracing + rewrite provenance.
//===----------------------------------------------------------------------===//

TEST(Provenance, MatchesAppliedTotalsQuickstart) {
  InputMap Inputs;
  Program P = meanOfSquares(Inputs);
  CompileOptions Opts;
  CompileResult CR = compileProgram(P, Opts);
  EXPECT_GT(CR.Stats.total(), 0);
  EXPECT_EQ(static_cast<int>(CR.Stats.Provenance.size()), CR.Stats.total());
  EXPECT_TRUE(CR.Stats.provenanceConsistent());
  // Per-rule query agrees with the counter.
  for (const auto &[Rule, Count] : CR.Stats.Applied)
    EXPECT_EQ(static_cast<int>(CR.Stats.applicationsOf(Rule).size()), Count)
        << Rule;
  // Every record carries a phase label and summaries.
  for (const RewriteApplication &A : CR.Stats.Provenance) {
    EXPECT_FALSE(A.Phase.empty());
    EXPECT_FALSE(A.Before.empty());
    EXPECT_FALSE(A.After.empty());
    EXPECT_GE(A.Pass, 1);
  }
}

TEST(Provenance, MatchesAppliedTotalsAcrossAppsAndTargets) {
  struct Case {
    const char *Name;
    Program P;
  } Cases[] = {
      {"kmeans", apps::kmeansSharedMemory()},
      {"tpch", apps::tpchQ1()},
      {"logreg", apps::logreg()},
  };
  for (auto &C : Cases)
    for (Target T : {Target::Sequential, Target::Numa, Target::Gpu}) {
      CompileOptions Opts;
      Opts.T = T;
      CompileResult CR = compileProgram(C.P, Opts);
      EXPECT_TRUE(CR.Stats.provenanceConsistent())
          << C.Name << " on " << targetName(T);
      EXPECT_EQ(static_cast<int>(CR.Stats.Provenance.size()),
                CR.Stats.total())
          << C.Name << " on " << targetName(T);
    }
}

TEST(Provenance, PerLoopQueryFindsBucketRewrites) {
  CompileOptions Opts;
  CompileResult CR = compileProgram(apps::kmeansSharedMemory(), Opts);
  ASSERT_TRUE(CR.applied("conditional-reduce"));
  // The Fig. 5 story: conditional-reduce produced BucketReduce loops, and
  // the per-loop query can locate those applications by signature.
  auto Touching = CR.Stats.applicationsTouching("BucketReduce");
  EXPECT_FALSE(Touching.empty());
  bool FoundCR = false;
  for (const RewriteApplication *A : Touching)
    FoundCR |= A->Rule == "conditional-reduce";
  EXPECT_TRUE(FoundCR);
}

TEST(CompileTrace, PhasesRewritesAndAnalysesRecorded) {
  TraceSession S;
  TraceActivation Act(S);
  CompileOptions Opts;
  CompileResult CR = compileProgram(apps::kmeansSharedMemory(), Opts);
  auto Events = S.events();
  expectWellNested(Events);
  EXPECT_TRUE(hasEvent(Events, "compile"));
  EXPECT_TRUE(hasEvent(Events, "compile.fusion"));
  EXPECT_TRUE(hasEvent(Events, "compile.stencil-rewrites"));
  EXPECT_TRUE(hasEvent(Events, "compile.cleanup"));
  EXPECT_TRUE(hasEvent(Events, "analysis.partitioning"));
  EXPECT_TRUE(hasEvent(Events, "analysis.stencils"));
  // One "rewrite.<rule>" instant per application.
  int RewriteEvents = 0;
  for (const TraceEvent &E : Events)
    if (E.Cat == "rewrite")
      ++RewriteEvents;
  EXPECT_EQ(RewriteEvents, CR.Stats.total());
  // The phase spans carry IR node counts.
  for (const TraceEvent &E : Events)
    if (E.Name == "compile") {
      bool HasNodes = false;
      for (const auto &[K, V] : E.Args)
        HasNodes |= K == "nodes.before";
      EXPECT_TRUE(HasNodes);
    }
}

//===----------------------------------------------------------------------===//
// Executor metrics.
//===----------------------------------------------------------------------===//

TEST(ExecutorMetrics, ParallelForAccountsEveryChunk) {
  ThreadPool Pool(4);
  ParallelForStats Stats;
  std::atomic<int64_t> Sum{0};
  const int64_t N = 1000, Chunk = 64;
  Pool.parallelFor(
      N, Chunk,
      [&](int64_t B, int64_t E, unsigned) { Sum += E - B; }, &Stats);
  EXPECT_EQ(Sum.load(), N);
  EXPECT_EQ(Stats.totalItems(), N);
  EXPECT_EQ(Stats.totalChunks(), (N + Chunk - 1) / Chunk);
  EXPECT_EQ(Stats.Workers.size(), 4u);
  EXPECT_GT(Stats.ElapsedMs, 0.0);
  for (const WorkerStats &W : Stats.Workers) {
    EXPECT_GE(W.BusyMs, 0.0);
    EXPECT_GE(W.WaitMs, 0.0);
  }
}

TEST(ExecutorMetrics, SingleThreadShortcutStillAccounted) {
  ThreadPool Pool(1);
  ParallelForStats Stats;
  Pool.parallelFor(10, 64, [](int64_t, int64_t, unsigned) {}, &Stats);
  EXPECT_EQ(Stats.totalChunks(), 1);
  EXPECT_EQ(Stats.totalItems(), 10);
}

TEST(ExecutorMetrics, ChunkSpansLandOnWorkerThreads) {
  TraceSession S;
  TraceActivation Act(S);
  ThreadPool Pool(4);
  ParallelForStats Stats;
  Pool.parallelFor(
      512, 32, [](int64_t, int64_t, unsigned) {}, &Stats, "exec.chunk");
  auto Events = S.events();
  expectWellNested(Events);
  int Chunks = 0;
  for (const TraceEvent &E : Events)
    if (E.Name == "exec.chunk") {
      ++Chunks;
      EXPECT_GE(E.Tid, 1u); // tid 0 is the driver; workers are 1..N
      EXPECT_LE(E.Tid, 4u);
    }
  EXPECT_EQ(Chunks, 16);
  EXPECT_EQ(static_cast<int>(Stats.totalChunks()), Chunks);
}

TEST(ExecutorMetrics, ProfileAccumulatesAcrossLoops) {
  InputMap Inputs;
  Program P = meanOfSquares(Inputs);
  CompileOptions Opts;
  CompileResult CR = compileProgram(P, Opts);
  ExecProfile Profile;
  EvalOptions EO;
  EO.Threads = 4;
  EO.MinChunk = 128;
  EO.Profile = &Profile;
  Value Par = testutil::evalOk(CR.P, Inputs, EO);
  EXPECT_TRUE(evalProgram(CR.P, Inputs).deepEquals(Par, 1e-9));
  EXPECT_GE(Profile.ParallelLoops, 1);
  ASSERT_FALSE(Profile.Workers.empty());
  int64_t Chunks = 0;
  for (const WorkerStats &W : Profile.Workers)
    Chunks += W.Chunks;
  EXPECT_GT(Chunks, 1);
}

TEST(ExecutorMetrics, ExecutionReportCarriesEverything) {
  InputMap Inputs;
  Program P = meanOfSquares(Inputs);
  ExecOptions Exec;
  Exec.Threads = 4;
  ExecutionReport R = executeProgram(P, Inputs, CompileOptions(), Exec);
  EXPECT_EQ(R.Threads, 4u);
  EXPECT_GT(R.CompileMillis, 0.0);
  EXPECT_TRUE(R.Rewrites.provenanceConsistent());
  EXPECT_GT(R.Rewrites.total(), 0);
  // 8000 elements >= 2 * MinChunk(1024): the fused loop parallelizes.
  EXPECT_GE(R.ParallelLoops, 1);
  // Totals across workers: stealing may leave any single worker idle.
  int64_t Chunks = 0;
  for (const WorkerStats &W : R.Workers)
    Chunks += W.Chunks;
  EXPECT_GE(Chunks, R.ParallelLoops);
  EXPECT_FALSE(renderWorkerStats(R.Workers).empty());
}

//===----------------------------------------------------------------------===//
// Exporters.
//===----------------------------------------------------------------------===//

TEST(Export, ChromeJsonRoundTripsThroughParser) {
  TraceSession S;
  TraceActivation Act(S);
  InputMap Inputs;
  Program P = meanOfSquares(Inputs);
  ExecOptions Exec;
  Exec.Threads = 4;
  ExecutionReport R = executeProgram(P, Inputs, CompileOptions(), Exec);
  ASSERT_GT(S.size(), 0u);

  std::string Json = S.renderChromeJson();
  JsonValue Root;
  ASSERT_TRUE(parseJson(Json, Root)) << Json.substr(0, 400);
  ASSERT_EQ(Root.K, JsonValue::Object);
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Array);

  // Every recorded event appears, plus >= 1 thread-name metadata record.
  auto Recorded = S.events();
  size_t Meta = 0, Complete = 0, Instant = 0;
  std::map<std::string, int> RewriteByName;
  for (const JsonValue &E : Events->Arr) {
    ASSERT_EQ(E.K, JsonValue::Object);
    const JsonValue *Ph = E.field("ph");
    ASSERT_NE(Ph, nullptr);
    const JsonValue *Name = E.field("name");
    ASSERT_NE(Name, nullptr);
    if (Ph->Str == "M") {
      ++Meta;
      continue;
    }
    // Data events must carry numeric ts and a tid.
    EXPECT_EQ(E.field("ts")->K, JsonValue::Number);
    EXPECT_EQ(E.field("tid")->K, JsonValue::Number);
    if (Ph->Str == "X") {
      ++Complete;
      EXPECT_EQ(E.field("dur")->K, JsonValue::Number);
    } else {
      ++Instant;
    }
    // Rule-application instants have cat "rewrite" and name "rewrite.<rule>"
    // (the "rewrite.pass" spans use cat "pass", so filter by category).
    const JsonValue *Cat = E.field("cat");
    if (Cat && Cat->Str == "rewrite" && Name->Str.rfind("rewrite.", 0) == 0)
      ++RewriteByName[Name->Str.substr(8)];
  }
  EXPECT_GE(Meta, 2u); // driver + at least one worker row
  EXPECT_EQ(Complete + Instant, Recorded.size());

  // One JSON event per rewrite application, by rule name (the acceptance
  // criterion: the export is auditable against RewriteStats).
  std::map<std::string, int> Expected(R.Rewrites.Applied.begin(),
                                      R.Rewrites.Applied.end());
  EXPECT_EQ(RewriteByName, Expected);

  // Per-worker executor chunk spans are present.
  bool WorkerSpan = false;
  for (const JsonValue &E : Events->Arr)
    if (const JsonValue *Name = E.field("name"))
      if (Name->Str == "exec.chunk" && E.field("tid") &&
          E.field("tid")->Num >= 1)
        WorkerSpan = true;
  EXPECT_TRUE(WorkerSpan);
}

TEST(Export, JsonEscapesSpecialCharacters) {
  // Every exporter quotes through json::quote; each input must survive the
  // trace export and the quoter alone byte for byte: a quote, a backslash,
  // newline / carriage return / tab, other control characters, and UTF-8.
  const std::string Inputs[] = {"we\"ird\\name\n", "a\"b", "back\\slash",
                                "cr\rlf\r\n", "tab\tx", "ctl\x01\x1f",
                                "h\xc3\xa9llo \xe2\x9c\x93"};
  TraceSession S;
  for (const std::string &In : Inputs)
    S.instant(In, "cat\t");
  JsonValue Root;
  ASSERT_TRUE(parseJson(S.renderChromeJson(), Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  for (const std::string &In : Inputs) {
    bool Found = false;
    for (const JsonValue &E : Events->Arr)
      if (const JsonValue *Name = E.field("name"))
        Found |= Name->Str == In;
    EXPECT_TRUE(Found) << In;
    std::string Quoted = dmll::json::quote(In);
    EXPECT_EQ(Quoted.find('\r'), std::string::npos) << In;
    EXPECT_EQ(Quoted.find('\x01'), std::string::npos) << In;
    JsonValue Back;
    ASSERT_TRUE(parseJson(Quoted, Back)) << Quoted;
    EXPECT_EQ(Back.Str, In);
  }
}

TEST(Export, WriteChromeJsonToFile) {
  TraceSession S;
  {
    TraceActivation Act(S);
    TraceSpan Span("compile", "phase");
  }
  std::string Path = ::testing::TempDir() + "/dmll_trace_test.json";
  ASSERT_TRUE(S.writeChromeJson(Path));
  FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Content;
  char Buf[4096];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Content.append(Buf, Got);
  std::fclose(F);
  JsonValue Root;
  EXPECT_TRUE(parseJson(Content, Root));
  std::remove(Path.c_str());
}

TEST(Export, TextRenderShowsTreeAndArgs) {
  TraceSession S;
  {
    TraceActivation Act(S);
    TraceSpan Outer("compile", "phase");
    TraceSpan Inner("compile.fusion", "phase");
    Inner.argInt("nodes.before", 7);
  }
  std::string Text = S.renderText();
  EXPECT_NE(Text.find("compile"), std::string::npos);
  EXPECT_NE(Text.find("compile.fusion"), std::string::npos);
  EXPECT_NE(Text.find("nodes.before=7"), std::string::npos);
  EXPECT_NE(Text.find("[compiler/driver]"), std::string::npos);
}

TEST(Export, CountersEmitNumericArgs) {
  TraceSession S;
  S.counter("ir.nodes", 128);
  std::string Json = S.renderChromeJson();
  JsonValue Root;
  ASSERT_TRUE(parseJson(Json, Root));
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  bool Found = false;
  for (const JsonValue &E : Events->Arr)
    if (const JsonValue *Ph = E.field("ph"))
      if (Ph->Str == "C") {
        const JsonValue *Args = E.field("args");
        ASSERT_NE(Args, nullptr);
        const JsonValue *V = Args->field("value");
        ASSERT_NE(V, nullptr);
        EXPECT_EQ(V->K, JsonValue::Number);
        EXPECT_DOUBLE_EQ(V->Num, 128.0);
        Found = true;
      }
  EXPECT_TRUE(Found);
}

} // namespace
