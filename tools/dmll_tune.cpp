//===- tools/dmll_tune.cpp - Feedback-directed autotuner CLI ----*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
// dmll-tune searches per-loop execution knobs (engine, worker cap, chunk
// size, wide kernel blocks — tune/Tuner.h) for one of the Table 2
// applications and persists the winning decisions as a dmll-tune-v1
// artifact (tune/TuneProfile.h, docs/TUNING.md).
//
//   dmll-tune --app NAME [options]              search + report
//   dmll-tune --app NAME --tune-in FILE         replay a saved artifact
//   dmll-tune --suite [--bench-out FILE]        tune every app, emit a
//                                               tuned_multithread record set
//   dmll-tune --list                            list known apps
//
//   --threads N     global worker count (default 4); decisions narrow it
//   --min-chunk C   global minimum work units per chunk (default 1024)
//   --engine E      auto|interp|kernel global engine mode (default auto)
//   --rounds R      measured candidate rounds (default 3)
//   --scale S       divide dataset sizes by S (default 1)
//   --tune-out F    write the dmll-tune-v1 artifact to F
//   --tune-in F     skip the search: load F, verify the dataset
//                   fingerprint, run untuned vs tuned, report both
//   --smoke         after the search, round-trip the artifact through
//                   parse/render and require byte identity, and require
//                   the tuned run to be no slower than baseline beyond
//                   noise (1.35x); nonzero exit on violation
//   --bench-out F   with --suite, write the benchmark JSON document
//
// Exit codes: 0 ok, 1 smoke-assertion failure, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "runtime/Executor.h"
#include "service/Catalog.h"
#include "support/Args.h"
#include "support/Table.h"
#include "tune/Tuner.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace dmll;

namespace {

/// One tunable application (service/Catalog.h): the Table 2 registry minus
/// triangle counting (a domain-specific graph kernel, not IR the tuner can
/// steer). The registry itself lives in the service catalog so dmll-serve
/// executes byte-for-byte the same programs and datasets the tuner tunes.
using AppCase = service::AppCase;
using service::makeApp;

/// The dataset fingerprint the tuner would store for this app under these
/// compile options (compiled program + SoA-adapted inputs, matching
/// tune/Tuner.cpp).
std::string fingerprintFor(const AppCase &A, const CompileOptions &Copts) {
  CompileResult CR = compileProgram(A.P, Copts);
  return tune::sizeEnvFingerprint(
      sizeEnvFromInputs(CR.P, adaptInputs(A.P, CR, A.Inputs)));
}

void printDecisionTable(const tune::TuningProfile &TP) {
  std::printf("app %s: baseline %.3fms, tuned %.3fms (%.2fx), %d candidates"
              ", %d measure runs, fingerprint %s\n",
              TP.App.c_str(), TP.BaselineMs, TP.TunedMs,
              TP.TunedMs > 0 ? TP.BaselineMs / TP.TunedMs : 0.0,
              TP.Candidates, TP.MeasureRuns, TP.Fingerprint.c_str());
  if (TP.Loops.empty()) {
    std::printf("  no per-loop decision beat the baseline; the untuned "
                "configuration stands.\n");
    return;
  }
  Table T({"Loop", "Engine", "Threads", "Chunk", "Wide", "Baseline",
           "Predicted", "Measured"});
  for (const tune::LoopTuneEntry &E : TP.Loops) {
    std::string Loop = E.Loop.size() > 48 ? E.Loop.substr(0, 45) + "..."
                                          : E.Loop;
    T.addRow({Loop, tune::loopEngineName(E.D.Engine),
              E.D.Threads ? std::to_string(E.D.Threads) : "-",
              E.D.MinChunk > 0 ? std::to_string(E.D.MinChunk) : "-",
              E.D.Wide < 0 ? "-" : (E.D.Wide ? "on" : "off"),
              Table::fmt(E.BaselineMs, 3) + "ms",
              Table::fmt(E.PredictedMs, 3) + "ms",
              Table::fmt(E.MeasuredMs, 3) + "ms"});
  }
  std::printf("%s\n", T.render().c_str());
}

/// Runs \p A untuned then under \p Decisions; returns {untuned, tuned} ms.
std::pair<double, double> replay(const AppCase &A, const CompileOptions &C,
                                 const ExecOptions &Base,
                                 const tune::DecisionTable &Decisions) {
  ExecutionReport Untuned = executeProgram(A.P, A.Inputs, C, Base);
  ExecOptions Tuned = Base;
  Tuned.Tuning = &Decisions;
  ExecutionReport R = executeProgram(A.P, A.Inputs, C, Tuned);
  std::printf("app %s: untuned %.3fms, tuned %.3fms (%.2fx), %lld loop "
              "executions matched a decision\n",
              A.Name.c_str(), Untuned.Millis, R.Millis,
              R.Millis > 0 ? Untuned.Millis / R.Millis : 0.0,
              static_cast<long long>(R.TunedLoops));
  return {Untuned.Millis, R.Millis};
}

int usage() {
  std::fprintf(stderr,
               "usage: dmll-tune --app NAME [--threads N] [--min-chunk C]\n"
               "                 [--engine auto|interp|kernel] [--rounds R]\n"
               "                 [--scale S] [--tune-out F] [--tune-in F]\n"
               "                 [--smoke]\n"
               "       dmll-tune --suite [--bench-out F] [options]\n"
               "       dmll-tune --list\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string App, EngineName = "auto";
  unsigned Threads = 4;
  int64_t MinChunk = 1024, Scale = 1;
  int Rounds = 3;
  bool Smoke = false, Suite = false, List = false;
  std::string TuneOut = flagValue(Argc, Argv, "tune-out");
  std::string TuneIn = flagValue(Argc, Argv, "tune-in");
  std::string BenchOut = flagValue(Argc, Argv, "bench-out");
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&](int64_t &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = std::atoll(Argv[++I]);
      return true;
    };
    int64_t V = 0;
    if (A == "--app" && I + 1 < Argc)
      App = Argv[++I];
    else if (A == "--engine" && I + 1 < Argc)
      EngineName = Argv[++I];
    else if (A == "--threads" && Next(V))
      Threads = static_cast<unsigned>(V);
    else if (A == "--min-chunk" && Next(V))
      MinChunk = V;
    else if (A == "--rounds" && Next(V))
      Rounds = static_cast<int>(V);
    else if (A == "--scale" && Next(V))
      Scale = V;
    else if (A == "--smoke")
      Smoke = true;
    else if (A == "--suite")
      Suite = true;
    else if (A == "--list")
      List = true;
    else if (A == "--tune-out" || A == "--tune-in" || A == "--bench-out")
      ++I; // consumed by flagValue
    else if (A.rfind("--tune-out=", 0) == 0 || A.rfind("--tune-in=", 0) == 0 ||
             A.rfind("--bench-out=", 0) == 0)
      ; // consumed by flagValue
    else
      return usage();
  }

  if (List) {
    for (const std::string &N : service::appNames())
      std::printf("%s\n", N.c_str());
    return 0;
  }
  if (!Suite && App.empty())
    return usage();

  ExecOptions Exec;
  Exec.Threads = Threads;
  Exec.Mode = engine::parseEngineMode(EngineName);
  Exec.MinChunk = MinChunk;

  tune::TuneOptions Opts;
  Opts.Exec = Exec;
  Opts.Rounds = Rounds;

  if (Suite) {
    // Tune every app; emit a tuned_multithread record set (untuned vs
    // tuned ms per app, plus the full per-loop artifacts) consumable by
    // dmll-prof's benchmark-document reader.
    std::string Json = "{\"benchmark\":\"tuned_multithread\",\"records\":[";
    std::string AppsJson;
    bool First = true;
    for (const std::string &N : service::appNames()) {
      AppCase A;
      if (!makeApp(N, Scale, A))
        continue;
      tune::TuningProfile TP = tune::tuneProgram(N, A.P, A.Inputs, Opts);
      printDecisionTable(TP);
      char Buf[512];
      std::snprintf(Buf, sizeof(Buf),
                    "%s{\"pattern\":\"%s\",\"n\":%lld,\"threads\":%u,"
                    "\"engine\":\"untuned\",\"ms\":%.6f,\"speedup\":1.0},"
                    "{\"pattern\":\"%s\",\"n\":%lld,\"threads\":%u,"
                    "\"engine\":\"tuned\",\"ms\":%.6f,\"speedup\":%.6f}",
                    First ? "" : ",", N.c_str(),
                    static_cast<long long>(A.N), Threads, TP.BaselineMs,
                    N.c_str(), static_cast<long long>(A.N), Threads,
                    TP.TunedMs,
                    TP.TunedMs > 0 ? TP.BaselineMs / TP.TunedMs : 1.0);
      Json += Buf;
      AppsJson += std::string(First ? "" : ",") + renderTuningProfile(TP);
      First = false;
    }
    Json += "],\"apps\":[" + AppsJson + "]}\n";
    if (!BenchOut.empty()) {
      if (FILE *F = std::fopen(BenchOut.c_str(), "w")) {
        std::fwrite(Json.data(), 1, Json.size(), F);
        std::fclose(F);
        std::printf("wrote %s\n", BenchOut.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", BenchOut.c_str());
        return 2;
      }
    }
    return 0;
  }

  AppCase A;
  if (!makeApp(App, Scale, A)) {
    std::fprintf(stderr, "unknown app '%s' (try --list)\n", App.c_str());
    return 2;
  }

  if (!TuneIn.empty()) {
    tune::TuningProfile TP;
    if (!tune::readTuningProfile(TuneIn, TP)) {
      std::fprintf(stderr, "failed to read %s\n", TuneIn.c_str());
      return 2;
    }
    std::string Fp = fingerprintFor(A, Opts.Compile);
    if (TP.Fingerprint != Fp)
      std::fprintf(stderr,
                   "warning: artifact fingerprint %s does not match this "
                   "dataset (%s); decisions were tuned at a different "
                   "scale\n",
                   TP.Fingerprint.c_str(), Fp.c_str());
    tune::DecisionTable Decisions = TP.decisions();
    replay(A, Opts.Compile, Exec, Decisions);
    return 0;
  }

  tune::TuningProfile TP = tune::tuneProgram(App, A.P, A.Inputs, Opts);
  printDecisionTable(TP);

  if (!TuneOut.empty()) {
    if (!tune::writeTuningProfile(TuneOut, TP)) {
      std::fprintf(stderr, "failed to write %s\n", TuneOut.c_str());
      return 2;
    }
    std::printf("wrote %s\n", TuneOut.c_str());
  }

  if (Smoke) {
    // Artifact round trip must be byte-identical: render -> parse ->
    // render reproduces the exact bytes (%.17g doubles, ordered maps).
    std::string Rendered = renderTuningProfile(TP);
    tune::TuningProfile Back;
    if (!tune::parseTuningProfile(Rendered, Back)) {
      std::fprintf(stderr, "smoke: artifact failed to parse back\n");
      return 1;
    }
    if (renderTuningProfile(Back) != Rendered) {
      std::fprintf(stderr, "smoke: artifact round trip not byte-identical\n");
      return 1;
    }
    if (!(Back.decisions() == TP.decisions())) {
      std::fprintf(stderr, "smoke: decision table changed across round "
                           "trip\n");
      return 1;
    }
    if (TP.TunedMs > TP.BaselineMs * 1.35) {
      std::fprintf(stderr,
                   "smoke: tuned run %.3fms slower than baseline %.3fms "
                   "beyond noise\n",
                   TP.TunedMs, TP.BaselineMs);
      return 1;
    }
    std::printf("smoke: artifact round trip byte-identical; tuned %.3fms "
                "vs baseline %.3fms\n",
                TP.TunedMs, TP.BaselineMs);
  }
  return 0;
}
