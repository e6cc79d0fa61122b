//===- tests/RecoverTest.cpp - Recoverable execution contract --*- C++ -*-===//
//
// Tests for docs/ROBUSTNESS.md: user-program traps unwind out of the
// interpreter, the kernel VM, and parallel chunk workers as structured
// TrapError/ExecResult values instead of aborting; first-trap-wins is
// deterministic at any thread count; deadlines and resource budgets come
// back as DeadlineExceeded/BudgetExceeded with a partial report; a
// persistent ThreadPool drains cleanly after a trap and is immediately
// reusable; and the seeded fault injector replays identical schedules.
//
//===----------------------------------------------------------------------===//

#include "apps/Apps.h"
#include "data/Datasets.h"
#include "faultinject/FaultInject.h"
#include "frontend/Frontend.h"
#include "fuzz/RefEval.h"
#include "interp/Interp.h"
#include "runtime/Executor.h"
#include "runtime/ThreadPool.h"
#include "support/Error.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace dmll;
using namespace dmll::frontend;

namespace {

/// sum over xs of 1000 / xs(i): traps "integer division by zero" wherever
/// xs holds a zero.
Program divTrapProgram() {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  return B.build(sumRange(
      Xs.len(), [&](Val I) { return Val(int64_t(1000)) / XsV(I); }));
}

InputMap divTrapInputs(bool WithZero) {
  std::vector<int64_t> Data(64, 7);
  if (WithZero) {
    Data[17] = 0;
    Data[40] = 0;
  }
  return InputMap{{"xs", Value::arrayOfInts(Data)}};
}

/// Reads xs((i * 13) % 97) over a 50-element array: in range for small i,
/// out of range first at i == 4 (index 52) — the trap message carries the
/// offending index, so it doubles as a first-trap-wins determinism probe.
Program oorTrapProgram() {
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  return B.build(sumRange(Xs.len(), [&](Val I) {
    return XsV((I * Val(int64_t(13))) % Val(int64_t(97)));
  }));
}

ExecResult recoverRun(const Program &P, const InputMap &In,
                      engine::EngineMode Mode, unsigned Threads,
                      ExecLimits Limits = {}, ThreadPool *Pool = nullptr,
                      ExecProfile *Profile = nullptr) {
  EvalOptions EO;
  EO.Threads = Threads;
  EO.MinChunk = 4; // the 64-element test programs still chunk at 4 threads
  EO.Mode = Mode;
  EO.Limits = Limits;
  EO.Pool = Pool;
  EO.Profile = Profile;
  return evalProgramRecover(P, In, EO);
}

InputMap pageRankInputs() {
  auto G = data::makeRmat(14, 8, 41);
  auto In = G.transposed();
  std::vector<double> Ranks(static_cast<size_t>(G.NumV),
                            1.0 / static_cast<double>(G.NumV));
  return InputMap{{"in_offsets", Value::arrayOfInts(In.Offsets)},
                  {"in_edges", Value::arrayOfInts(In.Edges)},
                  {"outdeg", Value::arrayOfInts(G.OutDeg)},
                  {"ranks", Value::arrayOfDoubles(Ranks)},
                  {"numv", Value(G.NumV)}};
}

} // namespace

//===----------------------------------------------------------------------===//
// Structured trap recovery across engines and thread counts.
//===----------------------------------------------------------------------===//

TEST(RecoverTest, TrapReturnsStructuredResultEverywhere) {
  Program P = divTrapProgram();
  InputMap Bad = divTrapInputs(true);
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel}) {
    for (unsigned Threads : {1u, 4u}) {
      ExecResult R = recoverRun(P, Bad, Mode, Threads);
      EXPECT_EQ(R.Status, ExecStatus::Trapped)
          << engine::engineModeName(Mode) << " t=" << Threads;
      EXPECT_EQ(R.TrapMessage, "integer division by zero");
      EXPECT_NE(R.TrapLoop.find("Multiloop"), std::string::npos)
          << "trap not attributed to a loop: \"" << R.TrapLoop << "\"";
    }
  }
}

TEST(RecoverTest, OkPathBitIdenticalToPlainEval) {
  Program P = divTrapProgram();
  InputMap Good = divTrapInputs(false);
  Value Expected = evalProgram(P, Good);
  for (unsigned Threads : {1u, 4u}) {
    ExecResult R =
        recoverRun(P, Good, engine::EngineMode::Interp, Threads);
    ASSERT_TRUE(R.ok());
    EXPECT_TRUE(R.Out.deepEquals(Expected, 0.0)) << "threads " << Threads;
  }
}

TEST(RecoverTest, FirstTrapWinsDeterministically) {
  // The out-of-range index in the message identifies *which* iteration
  // won: every parallel run must report the same iteration the sequential
  // run traps on, on both engines.
  Program P = oorTrapProgram();
  std::vector<int64_t> Data(50, 1);
  InputMap In{{"xs", Value::arrayOfInts(Data)}};
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel}) {
    ExecResult Seq = recoverRun(P, In, Mode, 1);
    ASSERT_EQ(Seq.Status, ExecStatus::Trapped);
    for (int Rep = 0; Rep < 5; ++Rep) {
      ExecResult Par = recoverRun(P, In, Mode, 4);
      ASSERT_EQ(Par.Status, ExecStatus::Trapped);
      EXPECT_EQ(Par.TrapMessage, Seq.TrapMessage)
          << engine::engineModeName(Mode) << " rep " << Rep;
    }
  }
}

//===----------------------------------------------------------------------===//
// Deadlines and budgets.
//===----------------------------------------------------------------------===//

TEST(RecoverTest, DeadlineExceededWithPartialReport) {
  InputMap In = pageRankInputs();
  CompileOptions CO;
  CO.T = Target::Numa;
  ExecOptions Exec;
  Exec.Threads = 4;
  Exec.MinChunk = 32;
  Exec.Limits.DeadlineMs = 1; // a 16k-vertex boxed PageRank needs far more
  ExecutionReport R = executeProgram(apps::pageRankPull(), In, CO, Exec);
  EXPECT_EQ(R.Status, ExecStatus::DeadlineExceeded);
  EXPECT_NE(R.TrapMessage.find("deadline exceeded"), std::string::npos)
      << R.TrapMessage;
  // The report is partial, not garbage: timings were still measured.
  EXPECT_GT(R.Millis, 0.0);
  EXPECT_EQ(R.Threads, 4u);

  // The executor survives: the same program finishes without the limit.
  Exec.Limits = ExecLimits{};
  ExecutionReport R2 = executeProgram(apps::pageRankPull(), In, CO, Exec);
  ASSERT_TRUE(R2.ok());
  EXPECT_GT(R2.Result.arraySize(), 0u);
}

TEST(RecoverTest, MemoryBudgetExceededOnAllocationHeavyCollect) {
  // A collect materializing 1M boxed values wants ~16 MB of Value cells;
  // a 1 MB budget must trap gracefully *before* the allocations happen.
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(tabulate(N, [](Val I) { return toF64(I); }));
  InputMap In{{"n", Value(int64_t(1000000))}};
  ExecLimits Limits;
  Limits.MaxMemoryBytes = 1 << 20;
  for (unsigned Threads : {1u, 4u}) {
    ExecResult R =
        recoverRun(P, In, engine::EngineMode::Interp, Threads, Limits);
    EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded) << "t=" << Threads;
    EXPECT_NE(R.TrapMessage.find("memory budget exceeded"),
              std::string::npos)
        << R.TrapMessage;
  }
  // Unlimited, the same evaluation completes.
  ExecResult Ok = recoverRun(P, In, engine::EngineMode::Interp, 4);
  ASSERT_TRUE(Ok.ok());
  EXPECT_EQ(Ok.Out.arraySize(), 1000000u);
}

TEST(RecoverTest, KernelChargesCollectedElementsLikeTheInterpreter) {
  // Both engines charge one Value per collected element, so a 1 MB budget
  // stops the kernel as it stops the interpreter, and a budget of exactly
  // what the elements take lets both finish.
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(tabulate(N, [](Val I) { return toF64(I); }));
  const int64_t Elems = 1000000;
  InputMap In{{"n", Value(Elems)}};
  const int64_t Total = Elems * static_cast<int64_t>(sizeof(Value));
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel})
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine::engineModeName(Mode)) + " at " +
                   std::to_string(Threads) + " threads");
      ExecLimits Limits;
      Limits.MaxMemoryBytes = 1 << 20;
      ExecResult R = recoverRun(P, In, Mode, Threads, Limits);
      EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded) << R.TrapMessage;
      Limits.MaxMemoryBytes = Total;
      R = recoverRun(P, In, Mode, Threads, Limits);
      ASSERT_TRUE(R.ok()) << R.TrapMessage;
      EXPECT_EQ(R.Out.arraySize(), static_cast<size_t>(Elems));
      Limits.MaxMemoryBytes = Total - 1;
      R = recoverRun(P, In, Mode, Threads, Limits);
      EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded);
      EXPECT_NE(R.TrapMessage.find(std::to_string(Total) + " bytes used"),
                std::string::npos)
          << R.TrapMessage;
    }
}

TEST(RecoverTest, KernelChargesBucketsAndDenseTablesLikeTheInterpreter) {
  // 4,096 elements into 1,000 dense buckets: one Value per bucketed element
  // and one per slot of each state's table. Sequentially that is one
  // table; in 16 chunks, the loop's own table and each chunk's. Both
  // engines pass at exactly that budget and fail one byte below it.
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(bucketReduceDense(
      N, [](Val I) { return I % Val(int64_t(1000)); },
      [](Val I) { return toF64(I); }, [](Val A, Val C) { return A + C; },
      Val(int64_t(1000))));
  InputMap In{{"n", Value(int64_t(4096))}};
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel})
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine::engineModeName(Mode)) + " at " +
                   std::to_string(Threads) + " threads");
      const int64_t Tables = Threads == 1 ? 1 : 1 + 16;
      const int64_t Total =
          (4096 + Tables * 1000) * static_cast<int64_t>(sizeof(Value));
      ExecLimits Limits;
      Limits.MaxMemoryBytes = Total;
      ExecResult R = recoverRun(P, In, Mode, Threads, Limits);
      EXPECT_TRUE(R.ok()) << R.TrapMessage;
      Limits.MaxMemoryBytes = Total - 1;
      R = recoverRun(P, In, Mode, Threads, Limits);
      EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded) << R.TrapMessage;
    }
}

TEST(RecoverTest, WarmHandleChargesAsTheColdRun) {
  // A kernel reading two input columns and collecting its output: a cold
  // run flattens the columns into the handle's store, and a warm run finds
  // them there, yet charges them and gives the allocation hook its
  // opportunities exactly as the cold run did. So at the smallest budget
  // the cold run passes, and at one byte less, the warm run's status and
  // message equal the cold run's, and so do a fault plan's outcomes.
  ProgramBuilder B;
  Val Xs = B.inVecF64("xs");
  Val Ys = B.inVecI64("ys");
  Val XsV = Xs, YsV = Ys;
  Program P = B.build(
      tabulate(Xs.len(), [&](Val I) { return XsV(I) * toF64(YsV(I)); }));
  std::vector<double> X;
  std::vector<int64_t> Y;
  for (int I = 0; I < 5000; ++I) {
    X.push_back(I * 0.5);
    Y.push_back(I % 7);
  }
  InputMap In{{"xs", Value::arrayOfDoubles(X)},
              {"ys", Value::arrayOfInts(Y)}};
  CompiledProgram Prog(P);
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(Threads) + " threads");
    ThreadPool Pool(Threads);
    auto Run = [&](const CompiledProgram &H, ExecLimits Limits) {
      EvalOptions EO;
      EO.Threads = Threads;
      EO.MinChunk = 4;
      EO.Mode = engine::EngineMode::Kernel;
      EO.Limits = Limits;
      EO.Pool = &Pool;
      return run(H, EO);
    };
    auto WithBudget = [](int64_t Bytes) {
      ExecLimits L;
      L.MaxMemoryBytes = Bytes;
      return L;
    };
    // The smallest budget a cold run passes, each probe on a fresh binding.
    int64_t Lo = 1, Hi = int64_t(1) << 24;
    ASSERT_TRUE(Run(Prog.bind(In), WithBudget(Hi)).ok());
    while (Lo < Hi) {
      int64_t Mid = Lo + (Hi - Lo) / 2;
      if (Run(Prog.bind(In), WithBudget(Mid)).ok())
        Hi = Mid;
      else
        Lo = Mid + 1;
    }
    for (int64_t Bytes : {Lo, Lo - 1}) {
      CompiledProgram H = Prog.bind(In);
      ExecResult Cold = Run(H, WithBudget(Bytes));
      ExecResult Warm = Run(H, WithBudget(Bytes));
      EXPECT_EQ(Cold.ok(), Bytes == Lo) << Cold.TrapMessage;
      EXPECT_EQ(Warm.Status, Cold.Status) << "budget " << Bytes;
      EXPECT_EQ(Warm.TrapMessage, Cold.TrapMessage) << "budget " << Bytes;
      if (Cold.ok() && Warm.ok()) {
        EXPECT_TRUE(Warm.Out.deepEquals(Cold.Out, 0.0));
      }
    }
    faults::FaultPlan Plan;
    Plan.Seed = 7;
    Plan.AllocProb = 0.5;
    for (int Rep = 0; Rep < 4; ++Rep) {
      CompiledProgram H = Prog.bind(In);
      std::string Outcomes[2];
      for (std::string &O : Outcomes) {
        faults::ScopedFaultInjection Arm(Plan);
        ExecResult R = Run(H, ExecLimits{});
        O = std::string(execStatusName(R.Status)) + " " + R.TrapMessage +
            " fired " + std::to_string(faults::firedCount(faults::Hook::Alloc));
      }
      EXPECT_EQ(Outcomes[1], Outcomes[0]);
      Plan.Seed += 100;
    }
  }
}

TEST(RecoverTest, IterationBudgetExceeded) {
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(sumRange(N, [](Val I) { return toF64(I); }));
  InputMap In{{"n", Value(int64_t(100000))}};
  ExecLimits Limits;
  Limits.MaxIterations = 10000;
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel}) {
    ExecResult R = recoverRun(P, In, Mode, 4, Limits);
    EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded)
        << engine::engineModeName(Mode);
    EXPECT_NE(R.TrapMessage.find("iteration budget exceeded"),
              std::string::npos)
        << R.TrapMessage;
  }
}

TEST(RecoverTest, SharedIterationScopeChargesAnInnerLoopOnce) {
  // Two Reduce generators over one index i: gen 0's cond and value and gen
  // 1's value all read the open inner loop sum_j xs(j) * i. One scope per
  // iteration evaluates it once per i, so the run charges 8 + 8 * 100 = 808
  // iterations; evaluating it once per part would charge 2,408.
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  SymRef I = freshSym("i", Type::i64());
  Val XsV = Xs, IV = I;
  Val Inner = sumRange(Val(int64_t(100)), [&](Val J) { return XsV(J) * IV; });
  auto Gen = [&](Val Cond, Val V) {
    Generator G;
    G.Kind = GenKind::Reduce;
    G.Cond = Func({I}, Cond.expr());
    G.Value = Func({I}, V.expr());
    G.Reduce = binFunc("r", Type::i64(), [](ExprRef A, ExprRef C) {
      return binop(BinOpKind::Add, A, C);
    });
    return G;
  };
  Program P = B.build(
      multiloop(constI64(8), {Gen(Inner >= Val(int64_t(0)), Inner),
                              Gen(constBool(true), Inner * Val(int64_t(2)))}));
  InputMap In{{"xs", Value::arrayOfInts(std::vector<int64_t>(100, 1))}};
  ExecLimits Limits;
  Limits.MaxIterations = 1000;
  ExecResult R = recoverRun(P, In, engine::EngineMode::Interp, 1, Limits);
  ASSERT_TRUE(R.ok()) << R.TrapMessage;
  EXPECT_EQ(R.Out.strct()->Fields[0].asInt(), 2800);
  EXPECT_EQ(R.Out.strct()->Fields[1].asInt(), 5600);
  // One iteration less is over budget at the final flush.
  Limits.MaxIterations = 807;
  R = recoverRun(P, In, engine::EngineMode::Interp, 1, Limits);
  EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded);
  EXPECT_NE(R.TrapMessage.find("808 iterations"), std::string::npos)
      << R.TrapMessage;
}

TEST(RecoverTest, NestedKernelChargesInnerIterations) {
  // 64 rows, each summing a 100-element inner loop: 64 + 64 * 100 = 6,464
  // iterations, the inner ones included, charged alike by the interpreter
  // and by the kernel, whose inner bytecode loop charges its trip count.
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(tabulate(N, [](Val I) {
    Val IV = I;
    return sumRange(Val(int64_t(100)), [&](Val J) { return toF64(IV * J); });
  }));
  InputMap In{{"n", Value(int64_t(64))}};
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel})
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine::engineModeName(Mode)) + ", " +
                   std::to_string(Threads) + " threads");
      ExecLimits Limits;
      Limits.MaxIterations = 6464;
      ExecProfile Prof;
      ExecResult R = recoverRun(P, In, Mode, Threads, Limits, nullptr, &Prof);
      ASSERT_TRUE(R.ok()) << R.TrapMessage;
      ASSERT_EQ(Prof.Loops.size(), 1u);
      EXPECT_EQ(Prof.Loops[0].Engine,
                Mode == engine::EngineMode::Kernel ? "kernel" : "interp");
      Limits.MaxIterations = 6463;
      R = recoverRun(P, In, Mode, Threads, Limits);
      EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded);
      EXPECT_NE(R.TrapMessage.find("6464 iterations"), std::string::npos)
          << R.TrapMessage;
    }
}

TEST(RecoverTest, NestedKernelPollsItsDeadlineInsideOneInnerLoop) {
  // One row whose inner loop would run 2^40 iterations: the deadline is
  // polled while that loop runs, so the run stops instead of finishing it.
  ProgramBuilder B;
  Val M = B.inI64("m");
  Program P = B.build(tabulate(Val(int64_t(1)), [&](Val I) {
    Val IV = I;
    return sumRange(M, [&](Val J) { return toF64(IV * J); });
  }));
  ExecProfile Prof;
  ExecResult Small = recoverRun(P, {{"m", Value(int64_t(100))}},
                                engine::EngineMode::Kernel, 1, {}, nullptr,
                                &Prof);
  ASSERT_TRUE(Small.ok()) << Small.TrapMessage;
  ASSERT_EQ(Prof.Loops.size(), 1u);
  EXPECT_EQ(Prof.Loops[0].Engine, "kernel");
  InputMap In{{"m", Value(int64_t(1) << 40)}};
  ExecLimits Limits;
  Limits.DeadlineMs = 1;
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel})
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine::engineModeName(Mode)) + ", " +
                   std::to_string(Threads) + " threads");
      ExecResult R = recoverRun(P, In, Mode, Threads, Limits);
      EXPECT_EQ(R.Status, ExecStatus::DeadlineExceeded) << R.TrapMessage;
    }
}

TEST(RecoverTest, NestedKernelTrapsBeforeTheBudgetOfIterationsItNeverRan) {
  // Each of 8 rows would sum 100,000 elements of a 3-element xs, but the
  // inner loop traps at its fourth iteration, long before 50,000 have run:
  // both engines trap there. Charging the trip count on loop entry would
  // report the budget instead.
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(tabulate(Val(int64_t(8)), [&](Val I) {
    Val IV = I;
    return sumRange(Val(int64_t(100000)),
                    [&](Val J) { return XsV(J) + IV; });
  }));
  InputMap In{{"xs", Value::arrayOfInts({1, 2, 3})}};
  ExecLimits Limits;
  Limits.MaxIterations = 50000;
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel})
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine::engineModeName(Mode)) + ", " +
                   std::to_string(Threads) + " threads");
      ExecResult R = recoverRun(P, In, Mode, Threads, Limits);
      EXPECT_EQ(R.Status, ExecStatus::Trapped);
      EXPECT_EQ(R.TrapMessage, "array read out of range: index 3, size 3");
    }
  // With enough elements the loop runs on the kernel.
  ExecProfile Prof;
  ExecResult Ok = recoverRun(
      P, {{"xs", Value::arrayOfInts(std::vector<int64_t>(100000, 1))}},
      engine::EngineMode::Kernel, 1, {}, nullptr, &Prof);
  ASSERT_TRUE(Ok.ok()) << Ok.TrapMessage;
  ASSERT_EQ(Prof.Loops.size(), 1u);
  EXPECT_EQ(Prof.Loops[0].Engine, "kernel");
}

TEST(RecoverTest, SharedRowOfAVectorReduceIsChargedOnce) {
  // Each value is a 2 x 3 matrix whose rows are one inner Collect that does
  // not read the row index, so both engines compute it once per i and
  // share it: 8 outer iterations, 8 * (2 + 3) for the values and 7
  // element-wise folds of 2 + 2 * 3 (chunk merges at 4 threads) come to
  // 104 iterations, charged alike.
  ProgramBuilder B;
  Program P = B.build(sumRange(Val(int64_t(8)), [](Val I) {
    Val IV = I;
    Val Row = tabulate(Val(int64_t(3)), [&](Val J) { return toF64(IV + J); });
    return tabulate(Val(int64_t(2)), [&](Val) { return Row; });
  }));
  for (engine::EngineMode Mode :
       {engine::EngineMode::Interp, engine::EngineMode::Kernel})
    for (unsigned Threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(engine::engineModeName(Mode)) + ", " +
                   std::to_string(Threads) + " threads");
      ExecLimits Limits;
      Limits.MaxIterations = 104;
      ExecProfile Prof;
      ExecResult R = recoverRun(P, {}, Mode, Threads, Limits, nullptr, &Prof);
      ASSERT_TRUE(R.ok()) << R.TrapMessage;
      ASSERT_EQ(Prof.Loops.size(), 1u);
      EXPECT_EQ(Prof.Loops[0].Engine,
                Mode == engine::EngineMode::Kernel ? "kernel" : "interp");
      EXPECT_EQ(R.Out.at(1).at(2).asFloat(), 28.0 + 8 * 2.0);
      Limits.MaxIterations = 103;
      R = recoverRun(P, {}, Mode, Threads, Limits);
      EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded);
      EXPECT_NE(R.TrapMessage.find("104 iterations"), std::string::npos)
          << R.TrapMessage;
    }
}

//===----------------------------------------------------------------------===//
// The interpreter's fast paths trap and charge like the general paths.
//===----------------------------------------------------------------------===//

namespace {

/// The independent reference evaluator's trap message on \p P.
std::string refTrap(const Program &P, const InputMap &In) {
  try {
    fuzz::refEval(P, In);
  } catch (const TrapError &E) {
    return E.message();
  }
  return "";
}

} // namespace

TEST(RecoverTest, InPlaceReduceTrapsOnAShorterValue) {
  // Row i holds 8 - i elements: folding row 1 into the 8-element
  // accumulator reads its element 7, one past its end (at 4 threads the
  // rows run in separate chunks and the merge does the same fold).
  ProgramBuilder B;
  Val N = B.inI64("n");
  Program P = B.build(sumRange(N, [](Val I) {
    return tabulate(Val(int64_t(8)) - I, [](Val K) { return toF64(K); });
  }));
  InputMap In{{"n", Value(int64_t(3))}};
  const std::string Msg = "array read out of range: index 7, size 7";
  EXPECT_EQ(refTrap(P, In), Msg);
  for (unsigned Threads : {1u, 4u}) {
    ExecResult R = recoverRun(P, In, engine::EngineMode::Interp, Threads);
    EXPECT_EQ(R.Status, ExecStatus::Trapped) << Threads << " threads";
    EXPECT_EQ(R.TrapMessage, Msg) << Threads << " threads";
  }
}

TEST(RecoverTest, InPlaceReduceChargesTheLoopsItSkips) {
  // 50 rows of a 3 x 4 value: the row loop's 50 iterations, 3 + 12 per
  // value and 3 + 12 per fold (the reduce's two Collect levels) for the 49
  // folds come to 50 + 50 * 15 + 49 * 15 = 1,535 iterations, and the
  // Collects' 99 * 15 = 1,485 elements to 1,485 Values of memory, folded in
  // place or not.
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(sumRange(Xs.len(), [&](Val I) {
    return tabulate(Val(int64_t(3)), [&](Val J) {
      return tabulate(Val(int64_t(4)), [&](Val K) { return XsV(I) * J + K; });
    });
  }));
  InputMap In{{"xs", Value::arrayOfInts(std::vector<int64_t>(50, 3))}};
  for (unsigned Threads : {1u, 4u}) {
    ExecLimits Limits;
    Limits.MaxIterations = 1535;
    ExecResult R =
        recoverRun(P, In, engine::EngineMode::Interp, Threads, Limits);
    ASSERT_TRUE(R.ok()) << Threads << " threads: " << R.TrapMessage;
    EXPECT_EQ(R.Out.at(2).at(3).asInt(), 50 * (3 * 2 + 3));
    Limits.MaxIterations = 1534;
    R = recoverRun(P, In, engine::EngineMode::Interp, Threads, Limits);
    EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded) << Threads << " threads";
    EXPECT_NE(R.TrapMessage.find("1535 iterations"), std::string::npos)
        << R.TrapMessage;
    const int64_t Bytes = 1485 * static_cast<int64_t>(sizeof(Value));
    Limits = {};
    Limits.MaxMemoryBytes = Bytes;
    R = recoverRun(P, In, engine::EngineMode::Interp, Threads, Limits);
    EXPECT_TRUE(R.ok()) << Threads << " threads: " << R.TrapMessage;
    Limits.MaxMemoryBytes = Bytes - 1;
    R = recoverRun(P, In, engine::EngineMode::Interp, Threads, Limits);
    EXPECT_EQ(R.Status, ExecStatus::BudgetExceeded) << Threads << " threads";
    EXPECT_NE(R.TrapMessage.find(std::to_string(Bytes) + " bytes used"),
              std::string::npos)
        << R.TrapMessage;
  }
}

TEST(RecoverTest, SharedOperandTrapFiresOnce) {
  // x * x reads one node twice, and x traps at i == 37 only: evaluated
  // once, it raises one trap with the reference's message.
  static std::atomic<int> Fired{0};
  ProgramBuilder B;
  Val Xs = B.inVecI64("xs");
  Val XsV = Xs;
  Program P = B.build(sumRange(Xs.len(), [&](Val I) {
    Val X = XsV(vselect(I == Val(int64_t(37)), Val(int64_t(1000)), I));
    return X * X;
  }));
  InputMap In = divTrapInputs(false);
  const std::string Msg = "array read out of range: index 1000, size 64";
  EXPECT_EQ(refTrap(P, In), Msg);
  setFatalErrorHook([](const std::string &) { ++Fired; });
  for (unsigned Threads : {1u, 4u}) {
    Fired = 0;
    ExecResult R = recoverRun(P, In, engine::EngineMode::Interp, Threads);
    EXPECT_EQ(R.Status, ExecStatus::Trapped) << Threads << " threads";
    EXPECT_EQ(R.TrapMessage, Msg) << Threads << " threads";
    EXPECT_EQ(Fired.load(), 1) << Threads << " threads";
  }
  setFatalErrorHook(nullptr);
}

//===----------------------------------------------------------------------===//
// ThreadPool drain and reuse.
//===----------------------------------------------------------------------===//

TEST(RecoverTest, PoolDrainsAndStaysReusableAfterTraps) {
  ThreadPool Pool(4);
  Program Trap = divTrapProgram();
  Program Ok = divTrapProgram();
  InputMap Bad = divTrapInputs(true);
  InputMap Good = divTrapInputs(false);
  Value Expected = evalProgram(Ok, Good);

  // Alternate trapping and clean runs on the same pool: every trap must
  // drain fully (no leaked tasks, no stuck workers) and every clean run
  // must still use all workers and reproduce the reference exactly.
  for (int Round = 0; Round < 3; ++Round) {
    ExecResult Trapped =
        recoverRun(Trap, Bad, engine::EngineMode::Interp, 4, {}, &Pool);
    EXPECT_EQ(Trapped.Status, ExecStatus::Trapped) << "round " << Round;

    ExecProfile Profile;
    ExecResult Clean = recoverRun(Ok, Good, engine::EngineMode::Interp, 4,
                                  {}, &Pool, &Profile);
    ASSERT_TRUE(Clean.ok()) << "round " << Round;
    EXPECT_TRUE(Clean.Out.deepEquals(Expected, 0.0));
    // Metrics of the clean run are consistent: work happened, and nothing
    // was skipped (no stale cancellation leaked from the trapped run).
    int64_t Items = 0, Skipped = 0;
    for (const WorkerStats &W : Profile.Workers) {
      Items += W.Items;
      Skipped += W.Skipped;
    }
    EXPECT_EQ(Skipped, 0) << "round " << Round;
    EXPECT_GT(Items, 0) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// Deterministic fault injection.
//===----------------------------------------------------------------------===//

TEST(RecoverTest, InjectorReplaysIdenticalSchedules) {
  // Same seed, same (single-threaded) run: the injected fault sequence —
  // and therefore the outcome and the per-hook firing counts — replays
  // exactly.
  Program P = divTrapProgram();
  InputMap Good = divTrapInputs(false);
  faults::FaultPlan Plan;
  Plan.Seed = 42;
  Plan.TrapProb = 0.05;
  Plan.AllocProb = 0.05;

  auto RunArmed = [&] {
    faults::ScopedFaultInjection Arm(Plan);
    ExecResult R = recoverRun(P, Good, engine::EngineMode::Interp, 1);
    return std::make_tuple(R.Status, R.TrapMessage,
                           faults::firedCount(faults::Hook::Trap),
                           faults::firedCount(faults::Hook::Alloc));
  };
  auto A = RunArmed();
  auto B = RunArmed();
  EXPECT_EQ(A, B);
  // The dormant injector never fires.
  ExecResult Clean = recoverRun(P, Good, engine::EngineMode::Interp, 1);
  EXPECT_TRUE(Clean.ok());
}

TEST(RecoverTest, InjectedTrapsAreRecoverable) {
  // Aggressive plans over several seeds: whenever a schedule actually
  // fires, the run must come back Trapped with the injector's message —
  // never crash — and a fault-free rerun matches the plain evaluation
  // bit-for-bit.
  Program P = divTrapProgram();
  InputMap Good = divTrapInputs(false);
  Value Expected = evalProgram(P, Good);
  int Fired = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    faults::FaultPlan Plan;
    Plan.Seed = Seed;
    Plan.TrapProb = 0.5;
    Plan.AllocProb = 0.5;
    faults::ScopedFaultInjection Arm(Plan);
    ExecResult R = recoverRun(P, Good, engine::EngineMode::Interp, 4);
    if (faults::firedCount(faults::Hook::Trap) +
            faults::firedCount(faults::Hook::Alloc) >
        0) {
      ++Fired;
      EXPECT_EQ(R.Status, ExecStatus::Trapped) << "seed " << Seed;
      EXPECT_NE(R.TrapMessage.find("injected"), std::string::npos)
          << R.TrapMessage;
    } else {
      EXPECT_TRUE(R.ok()) << "seed " << Seed;
    }
  }
  EXPECT_GT(Fired, 0) << "no schedule fired; plans too weak for the probe";
  ExecResult After = recoverRun(P, Good, engine::EngineMode::Interp, 4);
  ASSERT_TRUE(After.ok());
  EXPECT_TRUE(After.Out.deepEquals(Expected, 0.0));
}
