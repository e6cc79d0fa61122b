//===- runtime/Executor.cpp ------------------------------------*- C++ -*-===//

#include "runtime/Executor.h"

#include "observe/Events.h"
#include "observe/Trace.h"
#include "transform/Soa.h"

#include <chrono>

using namespace dmll;

InputMap dmll::adaptInputs(const Program &Source, const CompileResult &CR,
                           const InputMap &Inputs) {
  InputMap Adapted = Inputs;
  for (const auto &[Name, Kept] : CR.SoaConverted) {
    const InputExpr *In = Source.findInput(Name);
    auto It = Adapted.find(Name);
    if (In && It != Adapted.end())
      It->second = aosToSoa(It->second, *In->type()->elem(), Kept);
  }
  return Adapted;
}

ExecutionReport dmll::executeProgram(const Program &P, const InputMap &Inputs,
                                     const CompileOptions &Opts,
                                     const ExecOptions &Exec) {
  ExecutionReport R;
  R.Mode = Exec.Mode;
  auto C0 = std::chrono::steady_clock::now();
  CompileResult CR;
  {
    SampleScope CompileSample("exec.compile", nullptr);
    CR = compileProgram(P, Opts);
  }
  R.CompileMillis = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - C0)
                        .count();
  R.Rewrites = CR.Stats;
  InputMap Adapted;
  {
    TraceSpan S("exec.adapt-inputs", "exec");
    Adapted = adaptInputs(P, CR, Inputs);
  }
  R.Threads = Exec.Threads ? Exec.Threads : 1;
  ExecProfile Profile;
  // Bracket the evaluation with run events and a sampling snapshot, so the
  // report carries exactly this run's sample delta even when one profiler
  // spans several runs.
  SamplingProfiler *Sampler = SamplingProfiler::active();
  SamplingSummary SampleStart;
  if (Sampler)
    SampleStart = Sampler->summary();
  if (EventLog *EL = EventLog::active())
    EL->emit(EventKind::RunStart,
             EventLog::num("threads", R.Threads) +
                 EventLog::str("engine", engine::engineModeName(Exec.Mode)));
  auto T0 = std::chrono::steady_clock::now();
  {
    TraceSpan S("exec.run", "exec");
    S.argInt("threads", R.Threads);
    S.arg("engine", engine::engineModeName(Exec.Mode));
    EvalOptions EOpts{Exec};
    EOpts.Profile = &Profile;
    EOpts.Kernels = &R.Kernels;
    ExecResult ER = evalProgramRecover(CR.P, Adapted, EOpts);
    R.Status = ER.Status;
    if (ER.ok()) {
      R.Result = std::move(ER.Out);
    } else {
      R.TrapMessage = std::move(ER.TrapMessage);
      R.TrapLoop = std::move(ER.TrapLoop);
    }
  }
  auto T1 = std::chrono::steady_clock::now();
  R.Millis = std::chrono::duration<double, std::milli>(T1 - T0).count();
  // run.stop fires whatever the outcome — a trapped run still closes its
  // bracket in the event stream (the validator pairs it with the trap
  // event, observe/Events.cpp).
  if (EventLog *EL = EventLog::active())
    EL->emit(EventKind::RunStop,
             EventLog::num("millis", R.Millis) +
                 EventLog::str("status", execStatusName(R.Status)));
  if (Sampler)
    R.Sampling = samplingDelta(SampleStart, Sampler->summary());
  R.Workers = std::move(Profile.Workers);
  R.ParallelLoops = Profile.ParallelLoops;
  R.SequentialLoops = Profile.SequentialLoops;
  R.WideBlocks = Profile.WideBlocks;
  R.Loops = std::move(Profile.Loops);
  for (const LoopProfile &LP : R.Loops)
    if (LP.Tuned)
      ++R.TunedLoops;
  {
    // Replay the simulator's prediction for every measured loop; the
    // calibration compares against the compiled program the run executed,
    // with sizes taken from the adapted inputs it actually saw.
    TraceSpan S("exec.calibrate", "exec");
    SizeEnv Env = sizeEnvFromInputs(CR.P, Adapted);
    R.Calibration = calibrate(CR.P, CR.Partitioning, Env, R.Loops,
                              MachineModel::host(),
                              static_cast<int>(R.Threads));
  }
  return R;
}
