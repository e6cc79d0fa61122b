//===- tests/TuneTest.cpp - Autotuner unit tests ---------------*- C++ -*-===//
//
// Decision-table semantics, dmll-tune-v1 artifact round-tripping (the
// byte-identity the tune_smoke gate also asserts), dataset fingerprints,
// the calibrated cost model's observe/predict contract, synthetic decision
// determinism, and the end-to-end tuneProgram/executeProgram integration
// (docs/TUNING.md).
//
//===----------------------------------------------------------------------===//

#include "frontend/Frontend.h"
#include "runtime/Executor.h"
#include "runtime/ThreadPool.h"
#include "sim/Calibration.h"
#include "tune/CostModel.h"
#include "tune/Tuner.h"

#include <gtest/gtest.h>

using namespace dmll;
using namespace dmll::frontend;
using namespace dmll::tune;

namespace {

Program meanOfSquares() {
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs", LayoutHint::Partitioned);
  Val Kept = filter(Xs, [](Val X) { return X > Val(0.0); });
  Val Squares = map(Kept, [](Val X) { return X * X; });
  return B.build(sum(Squares) / toF64(Kept.len()));
}

InputMap smallInputs(int N = 1000) {
  std::vector<double> Data;
  for (int I = -N / 2; I < N / 2; ++I)
    Data.push_back(I * 0.1);
  return {{"xs", Value::arrayOfDoubles(Data)}};
}

} // namespace

TEST(DecisionTest, DefaultDecisionIsDefault) {
  LoopDecision D;
  EXPECT_TRUE(D.isDefault());
  D.Engine = LoopEngine::Kernel;
  EXPECT_FALSE(D.isDefault());
  D = LoopDecision();
  D.Wide = 0;
  EXPECT_FALSE(D.isDefault());
  D = LoopDecision();
  D.Threads = 2;
  EXPECT_FALSE(D.isDefault());
}

TEST(DecisionTest, TableLookupAndEquality) {
  DecisionTable T;
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.lookup("Multiloop[Reduce]"), nullptr);
  LoopDecision D;
  D.Engine = LoopEngine::Interp;
  D.MinChunk = 256;
  T.set("Multiloop[Reduce]", D);
  ASSERT_NE(T.lookup("Multiloop[Reduce]"), nullptr);
  EXPECT_TRUE(*T.lookup("Multiloop[Reduce]") == D);
  EXPECT_EQ(T.lookup("Multiloop[Collect]"), nullptr);
  DecisionTable U;
  U.set("Multiloop[Reduce]", D);
  EXPECT_TRUE(T == U);
  U.set("Multiloop[Collect]", LoopDecision());
  EXPECT_FALSE(T == U);
}

TEST(DecisionTest, EngineNamesRoundTrip) {
  EXPECT_EQ(parseLoopEngine(loopEngineName(LoopEngine::Interp)),
            LoopEngine::Interp);
  EXPECT_EQ(parseLoopEngine(loopEngineName(LoopEngine::Kernel)),
            LoopEngine::Kernel);
  EXPECT_EQ(parseLoopEngine("no-such-engine"), LoopEngine::Default);
}

TEST(TuneProfileTest, RenderParseRoundTripIsByteIdentical) {
  TuningProfile TP;
  TP.App = "unit \"quoted\" app"; // string escaping must survive
  TP.Threads = 8;
  TP.MinChunk = 1024;
  TP.Mode = "auto";
  TP.Fingerprint = "deadbeef01234567";
  TP.BaselineMs = 1.0 / 3.0; // not exactly representable in decimal
  TP.TunedMs = 0.1;
  TP.Candidates = 17;
  TP.MeasureRuns = 5;
  LoopTuneEntry E;
  E.Loop = "Multiloop[Collect,Reduce]";
  E.D.Engine = LoopEngine::Kernel;
  E.D.MinChunk = 4096;
  E.D.Wide = 1;
  E.BaselineMs = 2.718281828459045;
  E.PredictedMs = 3.141592653589793;
  E.MeasuredMs = 1e-9;
  TP.Loops.push_back(E);

  std::string R1 = renderTuningProfile(TP);
  TuningProfile Back;
  ASSERT_TRUE(parseTuningProfile(R1, Back));
  // %.17g doubles re-parse to the exact same bits, so a second render is
  // byte-identical — the property the tune_smoke ctest gates on.
  EXPECT_EQ(renderTuningProfile(Back), R1);
  EXPECT_EQ(Back.App, TP.App);
  EXPECT_DOUBLE_EQ(Back.BaselineMs, TP.BaselineMs);
  ASSERT_EQ(Back.Loops.size(), 1u);
  EXPECT_TRUE(Back.Loops[0].D == E.D);
  EXPECT_TRUE(Back.decisions() == TP.decisions());
}

TEST(TuneProfileTest, ParseRejectsWrongSchema) {
  TuningProfile Out;
  EXPECT_FALSE(parseTuningProfile("{\"schema\":\"dmll-profile-v1\"}", Out));
  EXPECT_FALSE(parseTuningProfile("not json at all", Out));
}

TEST(TuneProfileTest, DefaultEntriesStayOutOfDecisionTable) {
  TuningProfile TP;
  LoopTuneEntry E;
  E.Loop = "Multiloop[Collect]"; // all-default decision: nothing to apply
  TP.Loops.push_back(E);
  EXPECT_TRUE(TP.decisions().empty());
}

TEST(TuneProfileTest, FingerprintIsStableAndSizeSensitive) {
  SizeEnv A;
  A.Scalars["m.rows"] = 50000;
  A.ArrayLens["m.data"] = 1e6;
  SizeEnv B = A;
  EXPECT_EQ(sizeEnvFingerprint(A), sizeEnvFingerprint(B));
  B.ArrayLens["m.data"] = 2e6;
  EXPECT_NE(sizeEnvFingerprint(A), sizeEnvFingerprint(B));
  SizeEnv C = A;
  C.HashKeys = 6;
  EXPECT_NE(sizeEnvFingerprint(A), sizeEnvFingerprint(C));
}

TEST(CostModelTest, ObserveCalibratesPredictExactly) {
  LoopCost LC;
  LC.Signature = "Multiloop[Reduce]";
  LC.Iters = 100000;
  LC.FlopsPerIter = 4;
  LC.StreamBytesPerIter = 8;
  TuneCostModel M({LC}, MachineModel::host(), 4, 1024);
  LoopDecision D;
  // After observing a measurement for (sig, engine, decision), predicting
  // the same point must reproduce the measurement (ratio calibration).
  M.observe("Multiloop[Reduce]", /*Kernel=*/true, D, 2.5);
  EXPECT_NEAR(M.predict("Multiloop[Reduce]", D, true), 2.5, 1e-9);
  // The uncalibrated other engine borrows the ratio through the interp
  // penalty: interp predictions come out slower than kernel ones.
  EXPECT_GT(M.predict("Multiloop[Reduce]", D, false),
            M.predict("Multiloop[Reduce]", D, true));
}

TEST(CostModelTest, UnknownSignaturePredictsZero) {
  TuneCostModel M({}, MachineModel::host(), 4, 1024);
  EXPECT_EQ(M.predict("Multiloop[Collect]", LoopDecision(), true), 0.0);
  EXPECT_EQ(M.costFor("Multiloop[Collect]"), nullptr);
}

TEST(SyntheticDecisionsTest, DeterministicAndPinnedToGlobals) {
  Program P = meanOfSquares();
  DecisionTable A = syntheticDecisions(P, 4, 4);
  DecisionTable B = syntheticDecisions(P, 4, 4);
  EXPECT_TRUE(A == B);
  ASSERT_FALSE(A.empty());
  for (const auto &[Sig, D] : A.entries()) {
    (void)Sig;
    // Chunking knobs pinned to the globals: the oracle's bit-identity
    // check depends on identical chunk boundaries.
    EXPECT_EQ(D.Threads, 4u);
    EXPECT_EQ(D.MinChunk, 4);
    EXPECT_NE(D.Engine, LoopEngine::Default);
  }
}

TEST(TuneIntegrationTest, TunedExecutionMatchesUntuned) {
  Program P = meanOfSquares();
  InputMap In = smallInputs();
  CompileOptions CO;
  ExecOptions Untuned;
  Untuned.Threads = 2;
  Untuned.MinChunk = 8;
  ExecutionReport R0 = executeProgram(P, In, CO, Untuned);
  // Decisions key on the signatures of the loops that actually run — the
  // compiled program's, after fusion.
  DecisionTable T = syntheticDecisions(compileProgram(P, CO).P, 2, 8);
  ExecOptions Tuned = Untuned;
  Tuned.Tuning = &T;
  ExecutionReport R1 = executeProgram(P, In, CO, Tuned);
  // Same chunk boundaries + engine bit-identity guarantee: exact match.
  EXPECT_EQ(R0.Result.asFloat(), R1.Result.asFloat());
  EXPECT_GT(R1.TunedLoops, 0);
  EXPECT_EQ(R0.TunedLoops, 0);
}

TEST(TuneIntegrationTest, DecisionsNarrowButNeverWidenThreads) {
  Program P = meanOfSquares();
  InputMap In = smallInputs();
  CompileOptions CO;
  // A decision asking for 8 threads under a 1-thread run must stay
  // sequential (min with the run's global), not spawn workers.
  DecisionTable T;
  LoopDecision D;
  D.Threads = 8;
  DecisionTable Synth =
      syntheticDecisions(compileProgram(P, CompileOptions()).P, 1, 8);
  for (const auto &[Sig, SD] : Synth.entries()) {
    (void)SD;
    T.set(Sig, D);
  }
  ExecOptions E;
  E.Threads = 1;
  E.MinChunk = 8;
  E.Tuning = &T;
  ExecutionReport R = executeProgram(P, In, CO, E);
  EXPECT_EQ(R.ParallelLoops, 0);
}

/// The chunk count behind the tuner's candidate dedup and cost model
/// (TuneCostModel::chunksFor) is the one the run records for a tuned loop:
/// both resolve the decision the same way and feed chunkCount the same
/// static work.
TEST(TuneIntegrationTest, ShapeKeyChunksMatchTheRunsChunks) {
  Program P = meanOfSquares();
  InputMap In = smallInputs(4000);
  CompileOptions CO;
  CompileResult CR = compileProgram(P, CO);
  TuneCostModel Model(
      analyzeCosts(CR.P, CR.Partitioning,
                   sizeEnvFromInputs(CR.P, adaptInputs(P, CR, In))),
      MachineModel::host(), 4, 1024);
  // A capped decision whose chunk size the loop's work brings into range:
  // at one unit per iteration 4,000 iterations would stay sequential.
  LoopDecision D;
  D.Threads = 2;
  D.MinChunk = 4096;
  DecisionTable T = syntheticDecisions(CR.P, 4, 1024);
  for (const auto &[Sig, SD] : T.entries()) {
    (void)SD;
    T.set(Sig, D);
  }
  ExecOptions E;
  E.Threads = 4;
  E.Tuning = &T;
  ExecutionReport R = executeProgram(P, In, CO, E);
  ASSERT_GT(R.TunedLoops, 0);
  for (const LoopProfile &L : R.Loops) {
    const LoopCost *LC = Model.costFor(L.Loop);
    ASSERT_NE(LC, nullptr) << L.Loop;
    EXPECT_TRUE(L.Tuned);
    EXPECT_EQ(L.Work, chunkWork(LC->FlopsPerIter)) << L.Loop;
    EXPECT_GT(L.Chunks, 1) << L.Loop;
    EXPECT_EQ(Model.chunksFor(*LC, D, L.Iters), L.Chunks) << L.Loop;
  }
}

TEST(TuneIntegrationTest, TuneProgramProducesConsistentArtifact) {
  Program P = meanOfSquares();
  InputMap In = smallInputs(4000);
  TuneOptions Opts;
  Opts.Exec.Threads = 2;
  Opts.Exec.MinChunk = 64;
  Opts.Rounds = 1;
  TuningProfile TP = tuneProgram("unit", P, In, Opts);
  EXPECT_EQ(TP.App, "unit");
  EXPECT_EQ(TP.Threads, 2u);
  EXPECT_FALSE(TP.Fingerprint.empty());
  EXPECT_GT(TP.BaselineMs, 0.0);
  EXPECT_GT(TP.TunedMs, 0.0);
  EXPECT_GE(TP.MeasureRuns, 2);
  // The artifact must round-trip bit-identically straight out of the
  // search.
  std::string R = renderTuningProfile(TP);
  TuningProfile Back;
  ASSERT_TRUE(parseTuningProfile(R, Back));
  EXPECT_EQ(renderTuningProfile(Back), R);
  // Replaying the decisions reproduces the untuned result exactly.
  ExecOptions E = Opts.Exec;
  CompileOptions CO;
  ExecutionReport R0 = executeProgram(P, In, CO, E);
  DecisionTable T = TP.decisions();
  E.Tuning = &T;
  ExecutionReport R1 = executeProgram(P, In, CO, E);
  EXPECT_EQ(R0.Result.asFloat(), R1.Result.asFloat());
}
