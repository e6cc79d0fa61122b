//===- fuzz/Oracle.cpp -----------------------------------------*- C++ -*-===//

#include "fuzz/Oracle.h"

#include "faultinject/FaultInject.h"
#include "fuzz/RefEval.h"
#include "interp/Interp.h"
#include "observe/Events.h"
#include "observe/MetricsRegistry.h"
#include "observe/Sampler.h"
#include "runtime/Executor.h"
#include "runtime/ThreadPool.h"
#include "support/Error.h"
#include "transform/Pipeline.h"
#include "tune/Tuner.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <signal.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace dmll;
using namespace dmll::fuzz;

const char *dmll::fuzz::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Ok:
    return "ok";
  case RunStatus::Trap:
    return "trap";
  case RunStatus::Crash:
    return "crash";
  case RunStatus::Timeout:
    return "timeout";
  case RunStatus::Skipped:
    return "skipped";
  }
  return "?";
}

const char *dmll::fuzz::divergenceKindName(DivergenceKind K) {
  switch (K) {
  case DivergenceKind::Crash:
    return "crash";
  case DivergenceKind::WrongValue:
    return "wrong-value";
  case DivergenceKind::TrapMismatch:
    return "trap-mismatch";
  case DivergenceKind::FallbackAsymmetry:
    return "fallback-asymmetry";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Value serialization over the result pipe. Text-based; doubles use
// hexfloat ("%a") so every bit pattern round-trips, including inf (NaN
// payloads collapse, which is fine: the oracle treats all NaNs as equal).
//===----------------------------------------------------------------------===//

namespace {

void serializeValue(const Value &V, std::string &Out) {
  char Buf[64];
  if (V.isBool()) {
    Out += V.asBool() ? "B 1\n" : "B 0\n";
  } else if (V.isInt()) {
    std::snprintf(Buf, sizeof(Buf), "I %" PRId64 "\n", V.asInt());
    Out += Buf;
  } else if (V.isFloat()) {
    std::snprintf(Buf, sizeof(Buf), "D %a\n", V.asFloat());
    Out += Buf;
  } else if (V.isArray()) {
    std::snprintf(Buf, sizeof(Buf), "A %zu\n", V.arraySize());
    Out += Buf;
    for (const Value &E : *V.array())
      serializeValue(E, Out);
  } else {
    std::snprintf(Buf, sizeof(Buf), "S %zu\n",
                  V.strct()->Fields.size());
    Out += Buf;
    for (const Value &F : V.strct()->Fields)
      serializeValue(F, Out);
  }
}

bool parseValue(std::istringstream &In, Value &Out) {
  std::string Tag;
  if (!(In >> Tag))
    return false;
  if (Tag == "B") {
    int B;
    if (!(In >> B))
      return false;
    Out = Value(B != 0);
    return true;
  }
  if (Tag == "I") {
    int64_t I;
    if (!(In >> I))
      return false;
    Out = Value(I);
    return true;
  }
  if (Tag == "D") {
    std::string Tok;
    if (!(In >> Tok))
      return false;
    Out = Value(std::strtod(Tok.c_str(), nullptr));
    return true;
  }
  if (Tag == "A" || Tag == "S") {
    size_t N;
    if (!(In >> N))
      return false;
    std::vector<Value> Elems(N);
    for (size_t I = 0; I < N; ++I)
      if (!parseValue(In, Elems[I]))
        return false;
    Out = Tag == "A" ? Value::makeArray(std::move(Elems))
                     : Value::makeStruct(std::move(Elems));
    return true;
  }
  return false;
}

void writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = write(Fd, S.data() + Off, S.size() - Off);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return;
    }
    Off += static_cast<size_t>(N);
  }
}

/// Drains \p Fds until both hit EOF or \p DeadlineMs elapses. Returns false
/// on deadline.
bool drainPipes(int Fds[2], std::string Bufs[2], int DeadlineMs) {
  bool Open[2] = {true, true};
  char Tmp[4096];
  while (Open[0] || Open[1]) {
    struct pollfd P[2];
    nfds_t N = 0;
    int Map[2];
    for (int I = 0; I < 2; ++I)
      if (Open[I]) {
        P[N].fd = Fds[I];
        P[N].events = POLLIN;
        Map[N] = I;
        ++N;
      }
    int R = poll(P, N, DeadlineMs);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (R == 0)
      return false; // deadline
    for (nfds_t I = 0; I < N; ++I) {
      if (!(P[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      ssize_t Got = read(P[I].fd, Tmp, sizeof(Tmp));
      if (Got > 0)
        Bufs[Map[I]].append(Tmp, static_cast<size_t>(Got));
      else if (Got == 0 || errno != EINTR)
        Open[Map[I]] = false;
    }
  }
  return true;
}

RunResult execConfig(const FuzzCase &C, const ExecConfig &Cfg) {
  RunResult R;
  // Telemetry configuration: whole plane live inside this forked child —
  // sampling thread reading every worker's slot, event log swallowing the
  // stream. Declaration order gives sampler-then-log teardown; both outlive
  // the evaluation below.
  std::unique_ptr<EventLog> TelLog;
  std::unique_ptr<EventLogActivation> TelLogAct;
  std::unique_ptr<SamplingProfiler> TelProf;
  std::unique_ptr<SamplerActivation> TelProfAct;
  if (Cfg.Telemetry) {
    TelLog = std::make_unique<EventLog>("/dev/null");
    if (TelLog->ok())
      TelLogAct = std::make_unique<EventLogActivation>(*TelLog);
    TelProf = std::make_unique<SamplingProfiler>(0.2);
    TelProfAct = std::make_unique<SamplerActivation>(*TelProf);
  }
  if (Cfg.E == ExecConfig::Engine::Ref) {
    R.Out = refEval(C.P, C.Inputs);
    return R;
  }
  const Program *P = &C.P;
  InputMap Adapted;
  CompileResult CR;
  if (Cfg.Optimize) {
    CompileOptions Opts;
    Opts.T = Target::Numa;
    Opts.EnableLoopTransforms = Cfg.LoopTransforms;
    CR = compileProgram(C.P, Opts);
    Adapted = adaptInputs(C.P, CR, C.Inputs);
    P = &CR.P;
  }
  EvalOptions EO;
  EO.Threads = Cfg.Threads;
  EO.MinChunk = Cfg.MinChunk;
  EO.Mode = Cfg.E == ExecConfig::Engine::Kernel ? engine::EngineMode::Kernel
                                                : engine::EngineMode::Interp;
  engine::KernelStats Stats;
  if (EO.Mode == engine::EngineMode::Kernel)
    EO.Kernels = &Stats;
  // The tuned configuration installs a deterministic mixed-engine decision
  // table: some loops pinned to the kernel VM (wide and scalar), the rest
  // to the interpreter, with Threads/MinChunk matching the globals so
  // chunk boundaries — and float reassociation — are unchanged.
  tune::DecisionTable Tuned;
  if (Cfg.Tuned) {
    Tuned = tune::syntheticDecisions(*P, Cfg.Threads, Cfg.MinChunk);
    EO.Tuning = &Tuned;
  }
  // Traps come back as a structured ExecResult instead of unwinding, so no
  // engine configuration relies on the fork sandbox for trap containment:
  // the child forwards the status as the ordinary trap payload.
  ExecResult ER =
      evalProgramRecover(*P, Cfg.Optimize ? Adapted : C.Inputs, EO);
  if (!ER.ok()) {
    R.Status = RunStatus::Trap;
    R.TrapMessage = std::move(ER.TrapMessage);
    return R;
  }
  R.Out = std::move(ER.Out);
  R.Fallbacks = std::move(Stats.Fallbacks);
  // Workers race to compile nested loops first, so the recording order is
  // nondeterministic; the parity check wants the set, not the sequence.
  std::sort(R.Fallbacks.begin(), R.Fallbacks.end());
  return R;
}

} // namespace

std::vector<ExecConfig> dmll::fuzz::defaultConfigs() {
  using E = ExecConfig::Engine;
  // MinChunk 4 forces real chunking on the tiny generated loops, so the
  // 4-thread configurations exercise split/merge paths, not just the
  // sequential fast path.
  return {
      {"interp-unopt-1t", E::Interp, false, true, 1, 1024},
      {"interp-unopt-4t", E::Interp, false, true, 4, 4},
      {"interp-opt-1t", E::Interp, true, true, 1, 1024},
      {"interp-opt-nolt-1t", E::Interp, true, false, 1, 1024},
      {"kernel-unopt-1t", E::Kernel, false, true, 1, 1024},
      {"kernel-unopt-4t", E::Kernel, false, true, 4, 4},
      {"kernel-opt-4t", E::Kernel, true, true, 4, 4},
      {"tuned-mixed-4t", E::Interp, false, true, 4, 4, true},
      {"telemetry-4t", E::Interp, false, true, 4, 4, false, true},
      {"ref", E::Ref, false, true, 1, 1024},
  };
}

RunResult dmll::fuzz::runForked(const std::function<RunResult()> &Body,
                                int TimeoutSec) {
  int OutPipe[2], ErrPipe[2];
  if (pipe(OutPipe) != 0 || pipe(ErrPipe) != 0) {
    RunResult R;
    R.Status = RunStatus::Crash;
    return R;
  }
  pid_t Pid = fork();
  if (Pid == 0) {
    // Child: route stderr into the parent's capture pipe, run, serialize.
    // A sanitizer build inherits the sanitizer's handlers for the fatal
    // signals, which report and exit; restore the defaults so a crash dies
    // by its signal, which is what the parent classifies.
    for (int Sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL})
      signal(Sig, SIG_DFL);
    close(OutPipe[0]);
    close(ErrPipe[0]);
    dup2(ErrPipe[1], 2);
    close(ErrPipe[1]);
    auto trapPayload = [](std::string Msg) {
      for (char &Ch : Msg)
        if (Ch == '\n')
          Ch = ' ';
      return "trap\n" + Msg + "\n";
    };
    std::string Payload;
    try {
      // fatalError (compiler invariants) still aborts here: nothing gets
      // written and the parent classifies by the SIGABRT + stderr banner.
      RunResult R = Body();
      if (R.Status == RunStatus::Trap) {
        // A recoverable configuration already folded the trap into its
        // RunResult; forward it as the same first-class payload.
        Payload = trapPayload(R.TrapMessage);
      } else {
        Payload += "fallbacks " + std::to_string(R.Fallbacks.size()) + "\n";
        for (std::string F : R.Fallbacks) {
          for (char &Ch : F)
            if (Ch == '\n')
              Ch = ' ';
          Payload += F + "\n";
        }
        Payload += "value\n";
        serializeValue(R.Out, Payload);
      }
    } catch (const TrapError &E) {
      // A user-program trap unwinding out of the evaluation is a
      // first-class outcome, not a child death: report it over the pipe
      // and exit cleanly.
      Payload = trapPayload(E.message());
    }
    writeAll(OutPipe[1], Payload);
    close(OutPipe[1]);
    _exit(0);
  }
  close(OutPipe[1]);
  close(ErrPipe[1]);

  RunResult R;
  if (Pid < 0) {
    close(OutPipe[0]);
    close(ErrPipe[0]);
    R.Status = RunStatus::Crash;
    return R;
  }

  int Fds[2] = {OutPipe[0], ErrPipe[0]};
  std::string Bufs[2];
  bool Drained = drainPipes(Fds, Bufs, TimeoutSec * 1000);
  close(OutPipe[0]);
  close(ErrPipe[0]);
  if (!Drained) {
    kill(Pid, SIGKILL);
    waitpid(Pid, nullptr, 0);
    R.Status = RunStatus::Timeout;
    return R;
  }
  int Wstatus = 0;
  waitpid(Pid, &Wstatus, 0);

  const std::string &Stderr = Bufs[1];
  static const char Banner[] = "dmll fatal error: ";
  if (WIFSIGNALED(Wstatus)) {
    int Sig = WTERMSIG(Wstatus);
    size_t At = Stderr.find(Banner);
    if (Sig == SIGABRT && At != std::string::npos) {
      R.Status = RunStatus::Trap;
      size_t Begin = At + sizeof(Banner) - 1;
      size_t End = Stderr.find('\n', Begin);
      R.TrapMessage = Stderr.substr(
          Begin, End == std::string::npos ? std::string::npos : End - Begin);
    } else {
      R.Status = RunStatus::Crash;
      R.Signal = Sig;
    }
    return R;
  }
  if (!WIFEXITED(Wstatus) || WEXITSTATUS(Wstatus) != 0) {
    R.Status = RunStatus::Crash;
    return R;
  }

  // Clean exit: parse the payload.
  std::istringstream In(Bufs[0]);
  std::string Tag;
  size_t NumFallbacks = 0;
  if (!(In >> Tag)) {
    R.Status = RunStatus::Crash;
    return R;
  }
  if (Tag == "trap") {
    // Recoverable trap reported by the child with a clean exit.
    In.ignore(); // newline after the tag
    std::getline(In, R.TrapMessage);
    R.Status = RunStatus::Trap;
    return R;
  }
  if (Tag != "fallbacks" || !(In >> NumFallbacks)) {
    R.Status = RunStatus::Crash;
    return R;
  }
  In.ignore(); // newline after the count
  for (size_t I = 0; I < NumFallbacks; ++I) {
    std::string Line;
    if (!std::getline(In, Line)) {
      R.Status = RunStatus::Crash;
      return R;
    }
    R.Fallbacks.push_back(std::move(Line));
  }
  if (!(In >> Tag) || Tag != "value" || !parseValue(In, R.Out))
    R.Status = RunStatus::Crash;
  return R;
}

RunResult dmll::fuzz::runSandboxed(const FuzzCase &C, const ExecConfig &Cfg,
                                   int TimeoutSec) {
  if (Cfg.E == ExecConfig::Engine::Ref && !refExpressible(C.P)) {
    RunResult R;
    R.Status = RunStatus::Skipped;
    return R;
  }
  return runForked([&C, &Cfg] { return execConfig(C, Cfg); }, TimeoutSec);
}

bool dmll::fuzz::oracleEquals(const Value &A, const Value &B, double Tol) {
  if (A.isBool() || B.isBool())
    return A.isBool() && B.isBool() && A.asBool() == B.asBool();
  if (A.isInt() && B.isInt())
    return A.asInt() == B.asInt();
  if (A.isFloat() && B.isFloat()) {
    double X = A.asFloat(), Y = B.asFloat();
    if (std::isnan(X) || std::isnan(Y))
      return std::isnan(X) && std::isnan(Y);
    if (std::isinf(X) || std::isinf(Y))
      return X == Y;
    double Scale = std::max({1.0, std::fabs(X), std::fabs(Y)});
    return std::fabs(X - Y) <= Tol * Scale;
  }
  if (A.isArray() && B.isArray()) {
    if (A.arraySize() != B.arraySize())
      return false;
    for (size_t I = 0; I < A.arraySize(); ++I)
      if (!oracleEquals(A.at(I), B.at(I), Tol))
        return false;
    return true;
  }
  if (A.isStruct() && B.isStruct()) {
    const auto &FA = A.strct()->Fields;
    const auto &FB = B.strct()->Fields;
    if (FA.size() != FB.size())
      return false;
    for (size_t I = 0; I < FA.size(); ++I)
      if (!oracleEquals(FA[I], FB[I], Tol))
        return false;
    return true;
  }
  return false;
}

/// The trap message with every digit (and sign) blanked: the trap *kind*,
/// independent of which iteration's index or bound appears in the text.
static std::string trapClass(const std::string &Msg) {
  std::string C;
  for (char Ch : Msg)
    if (!(Ch >= '0' && Ch <= '9') && Ch != '-')
      C += Ch;
  return C;
}

std::string Verdict::str() const {
  std::ostringstream SS;
  SS << "seed " << Seed;
  if (ok()) {
    SS << ": clean";
    return SS.str();
  }
  SS << ": " << Divergences.size() << " divergence(s)";
  for (const Divergence &D : Divergences)
    SS << "\n  [" << divergenceKindName(D.Kind) << "] " << D.Config << ": "
       << D.Detail;
  return SS.str();
}

Verdict dmll::fuzz::runDifferential(const FuzzCase &C, double Tol,
                                    int TimeoutSec) {
  Verdict V;
  V.Seed = C.Seed;
  std::vector<ExecConfig> Configs = defaultConfigs();
  std::vector<RunResult> Results;
  Results.reserve(Configs.size());
  for (const ExecConfig &Cfg : Configs)
    Results.push_back(runSandboxed(C, Cfg, TimeoutSec));

  for (size_t I = 0; I < Configs.size(); ++I)
    if (Configs[I].E == ExecConfig::Engine::Kernel && !Configs[I].Optimize &&
        Configs[I].Threads == 1) {
      V.KernelFallbacks = Results[I].Fallbacks;
      break;
    }

  const RunResult &Base = Results[0];
  const std::string &BaseName = Configs[0].Name;
  if (Base.Status == RunStatus::Crash || Base.Status == RunStatus::Timeout) {
    V.Divergences.push_back(
        {DivergenceKind::Crash, BaseName,
         Base.Status == RunStatus::Timeout
             ? "baseline timed out"
             : "baseline died with signal " + std::to_string(Base.Signal)});
    return V;
  }

  for (size_t I = 1; I < Configs.size(); ++I) {
    const ExecConfig &Cfg = Configs[I];
    const RunResult &R = Results[I];
    // A configuration running the unrewritten program must reproduce the
    // baseline's trap behavior exactly; an optimized one may drop a trap
    // (DCE) but may never introduce one.
    bool SameProgram = !Cfg.Optimize;
    switch (R.Status) {
    case RunStatus::Skipped:
      break;
    case RunStatus::Crash:
      V.Divergences.push_back(
          {DivergenceKind::Crash, Cfg.Name,
           "died with signal " + std::to_string(R.Signal)});
      break;
    case RunStatus::Timeout:
      V.Divergences.push_back({DivergenceKind::Crash, Cfg.Name, "timed out"});
      break;
    case RunStatus::Trap:
      if (Base.Status != RunStatus::Trap) {
        V.Divergences.push_back(
            {DivergenceKind::TrapMismatch, Cfg.Name,
             "trapped (\"" + R.TrapMessage + "\") but " + BaseName +
                 " returned a value"});
      } else if (SameProgram &&
                 (Cfg.Threads > 1
                      ? trapClass(R.TrapMessage) != trapClass(Base.TrapMessage)
                      : R.TrapMessage != Base.TrapMessage)) {
        // Multi-threaded runs race chunk workers to the first fatalError,
        // so which trapping iteration reports (and hence the indices in
        // the message) is legitimately nondeterministic; only the trap
        // *kind* must agree. Single-threaded runs are deterministic and
        // must reproduce the message exactly.
        V.Divergences.push_back(
            {DivergenceKind::TrapMismatch, Cfg.Name,
             "trap message \"" + R.TrapMessage + "\" vs baseline \"" +
                 Base.TrapMessage + "\""});
      }
      break;
    case RunStatus::Ok:
      if (Base.Status == RunStatus::Trap) {
        if (SameProgram)
          V.Divergences.push_back(
              {DivergenceKind::TrapMismatch, Cfg.Name,
               "returned a value but " + BaseName + " trapped (\"" +
                   Base.TrapMessage + "\")"});
      } else if (!oracleEquals(Base.Out, R.Out, Tol)) {
        V.Divergences.push_back(
            {DivergenceKind::WrongValue, Cfg.Name,
             "got " + R.Out.str() + ", baseline " + Base.Out.str()});
      }
      break;
    }
  }

  // Fallback parity between the unoptimized kernel configurations: the same
  // program must fail (or pass) kernel compilation identically at any
  // thread count.
  int First = -1;
  for (size_t I = 0; I < Configs.size(); ++I) {
    if (Configs[I].E != ExecConfig::Engine::Kernel || Configs[I].Optimize ||
        Results[I].Status != RunStatus::Ok)
      continue;
    if (First < 0) {
      First = static_cast<int>(I);
      continue;
    }
    if (Results[I].Fallbacks != Results[First].Fallbacks) {
      std::string Detail = "fallback reasons differ from " +
                           Configs[First].Name + ": {";
      for (const std::string &F : Results[I].Fallbacks)
        Detail += F + "; ";
      Detail += "} vs {";
      for (const std::string &F : Results[First].Fallbacks)
        Detail += F + "; ";
      Detail += "}";
      V.Divergences.push_back(
          {DivergenceKind::FallbackAsymmetry, Configs[I].Name, Detail});
    }
  }

  // Tuned decisions must be bit-identical to the untuned interpreter at
  // the same globals: the decision table only moves loops between engines
  // (bit-identical by the engine guarantee) and restates the global
  // Threads/MinChunk, so the comparison tolerance is exactly zero.
  int TunedIdx = -1, UntunedIdx = -1, TelemetryIdx = -1;
  for (size_t I = 0; I < Configs.size(); ++I) {
    if (Configs[I].Optimize || Results[I].Status != RunStatus::Ok)
      continue;
    if (Configs[I].Tuned)
      TunedIdx = static_cast<int>(I);
    else if (Configs[I].Telemetry)
      TelemetryIdx = static_cast<int>(I);
    else if (Configs[I].E == ExecConfig::Engine::Interp &&
             Configs[I].Threads > 1)
      UntunedIdx = static_cast<int>(I);
  }
  if (TunedIdx >= 0 && UntunedIdx >= 0 &&
      !oracleEquals(Results[static_cast<size_t>(UntunedIdx)].Out,
                    Results[static_cast<size_t>(TunedIdx)].Out, 0.0)) {
    V.Divergences.push_back(
        {DivergenceKind::WrongValue, Configs[static_cast<size_t>(TunedIdx)].Name,
         "tuned decisions not bit-identical to " +
             Configs[static_cast<size_t>(UntunedIdx)].Name});
  }
  // Telemetry is a pure observer: a live sampler and event log may not
  // perturb a single bit of the result.
  if (TelemetryIdx >= 0 && UntunedIdx >= 0 &&
      !oracleEquals(Results[static_cast<size_t>(UntunedIdx)].Out,
                    Results[static_cast<size_t>(TelemetryIdx)].Out, 0.0)) {
    V.Divergences.push_back(
        {DivergenceKind::WrongValue,
         Configs[static_cast<size_t>(TelemetryIdx)].Name,
         "telemetry run not bit-identical to " +
             Configs[static_cast<size_t>(UntunedIdx)].Name});
  }
  return V;
}

//===----------------------------------------------------------------------===//
// Chaos oracle: in-process survival under deterministic fault schedules.
//===----------------------------------------------------------------------===//

std::string ChaosReport::str() const {
  std::ostringstream SS;
  SS << "seed " << Seed << ": " << Schedules << " schedule(s), " << Faulted
     << " faulted, " << Disturbed << " disturbed";
  if (ok()) {
    SS << ": clean";
    return SS.str();
  }
  SS << ", " << Problems.size() << " problem(s)";
  for (const std::string &P : Problems)
    SS << "\n  " << P;
  return SS.str();
}

ChaosReport dmll::fuzz::runChaos(const FuzzCase &C, int Schedules,
                                 uint64_t SeedBase) {
  ChaosReport Rep;
  Rep.Seed = C.Seed;
  // One persistent pool and one handle for the whole chaos run: reusing
  // them across faulted executions is exactly the state-cleanliness claim
  // under test.
  ThreadPool Pool(4);
  CompiledProgram H = CompiledProgram(C.P).bind(C.Inputs);
  auto runOnce = [&](const ExecLimits &Limits) {
    EvalOptions EO;
    EO.Threads = 4;
    EO.MinChunk = 4;
    // Auto splits loops between the interpreter and the kernel VM, so a
    // fault unwinding mid-run — in a column build or a kernel compile
    // included — also has to leave the handle's kernel cache and column
    // store coherent for the next run to bit-match.
    EO.Mode = engine::EngineMode::Auto;
    EO.Pool = &Pool;
    EO.Limits = Limits;
    return run(H, EO);
  };
  auto describe = [](const ExecResult &R) {
    std::string S = execStatusName(R.Status);
    if (!R.TrapMessage.empty())
      S += " (\"" + R.TrapMessage + "\")";
    return S;
  };
  auto sameOutcome = [](const ExecResult &A, const ExecResult &B) {
    if (A.Status != B.Status)
      return false;
    if (A.Status == ExecStatus::Ok)
      return oracleEquals(A.Out, B.Out, 0.0);
    // Fault-free runs are fully deterministic — first-trap-wins pins the
    // winning chunk — so even the message indices must reproduce.
    return A.TrapMessage == B.TrapMessage;
  };

  // Fault-free reference on the same pool (the program may legitimately
  // trap on its own; the reference then pins that trap).
  ExecResult Ref = runOnce(ExecLimits{});
  std::map<std::string, int64_t> PrevCounters =
      MetricsRegistry::global().snapshot().Counters;

  for (int S = 0; S < Schedules; ++S) {
    // Deterministic schedule mix: rotate which hooks are armed so single
    // fault classes and combinations both get coverage, with occasional
    // tight resource limits stacked on top.
    faults::FaultPlan Plan;
    Plan.Seed = SeedBase + static_cast<uint64_t>(S) * 0x9e3779b97f4a7c15ULL;
    Plan.AllocProb = (S % 3 == 0) ? 0.05 : 0.0;
    Plan.TrapProb = (S % 2 == 0) ? 0.02 : 0.0;
    Plan.DelayProb = (S % 4 == 1) ? 0.05 : 0.0;
    Plan.StallProb = (S % 5 == 2) ? 0.02 : 0.0;
    Plan.DelayMicros = 20;
    Plan.StallMicros = 100;
    ExecLimits Limits;
    if (S % 7 == 3)
      Limits.MaxIterations = 192; // budget trap mid-run
    if (S % 11 == 4)
      Limits.DeadlineMs = 1; // near-immediate deadline
    ++Rep.Schedules;

    bool Fired = false, Escaped = false;
    ExecResult Faulted;
    {
      faults::ScopedFaultInjection Arm(Plan);
      try {
        Faulted = runOnce(Limits);
      } catch (const TrapError &E) {
        Escaped = true;
        Rep.Problems.push_back("schedule " + std::to_string(S) +
                               ": TrapError escaped run(): " +
                               E.message());
      } catch (const std::exception &E) {
        Escaped = true;
        Rep.Problems.push_back("schedule " + std::to_string(S) +
                               ": exception escaped run(): " +
                               E.what());
      }
      Fired = faults::firedCount(faults::Hook::Alloc) +
                  faults::firedCount(faults::Hook::Trap) >
              0;
    }
    if (Fired)
      ++Rep.Faulted;
    if (!Escaped && !Faulted.ok())
      ++Rep.Disturbed;

    // State-clean probe: a fault-free run on the same pool right after the
    // unwind must reproduce the reference bit-for-bit.
    ExecResult Again = runOnce(ExecLimits{});
    if (!sameOutcome(Ref, Again))
      Rep.Problems.push_back(
          "schedule " + std::to_string(S) + ": fault-free re-run diverged: " +
          describe(Again) + " vs reference " + describe(Ref));

    // Counter monotonicity: a counter that went backwards means the unwind
    // corrupted (or someone reset) a live instrument.
    std::map<std::string, int64_t> Now =
        MetricsRegistry::global().snapshot().Counters;
    for (const auto &[Name, V] : PrevCounters) {
      auto It = Now.find(Name);
      if (It == Now.end() || It->second < V) {
        Rep.Problems.push_back("schedule " + std::to_string(S) +
                               ": counter " + Name + " went backwards");
        break;
      }
    }
    PrevCounters = std::move(Now);
  }
  return Rep;
}
