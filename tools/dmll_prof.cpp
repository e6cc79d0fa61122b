//===- tools/dmll_prof.cpp - Profile diff / perf-regression gate -- C++ -===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
// dmll-prof compares two timing documents this repo produces — execution
// profiles (runtime/ProfileJson.h, schema dmll-profile-v1) or benchmark
// records (bench/bench_json.h) — and exits nonzero when any shared entry
// got slower than an allowed ratio. tools/run_benchmarks.sh --check and the
// perf_smoke ctest use it to gate fresh runs against the committed
// BENCH_perf.json; docs/TELEMETRY.md documents the workflow.
//
//   dmll-prof [options] BASELINE.json CURRENT.json
//   dmll-prof --check [options] CURRENT.json      (baseline: BENCH_perf.json)
//
//   --threshold R   fail when current/baseline > R for any entry (default
//                   1.5)
//   --min-ms M      ignore entries whose baseline is under M ms — they are
//                   timer noise (default 0.05)
//   --baseline P    baseline path for --check (default ./BENCH_perf.json)
//   --check         single-file gate mode against the committed baseline
//   --history F     take the baseline from F, a BENCH_history.jsonl file
//                   (one {"ts": ..., "doc": ...} line per past run,
//                   appended by tools/run_benchmarks.sh): the latest entry
//                   whose document describes the same benchmark as
//                   CURRENT.json is the baseline.
//   --events F      validate F against the dmll-events-v1 JSONL schema
//                   (observe/Events.h) instead of comparing timings: every
//                   line must parse, the header/timestamps/loop nesting
//                   must check out, and a per-type event tally is printed.
//                   The telemetry_smoke gate runs this on live logs.
//   --speedup       compare the records' speedup field instead of raw ms
//                   (benchmark documents only). Speedups are normalized
//                   against a reference measured in the same run, so the
//                   gate is insensitive to machine load; a regression is a
//                   speedup that *shrank* by more than the threshold factor.
//                   This is how BENCH_table2.json (generated C++ vs
//                   hand-written, per app) is gated.
//
// Exit codes: 0 no regressions, 1 regressions found, 2 usage/parse error.
//
//===----------------------------------------------------------------------===//

#include "observe/Events.h"
#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using dmll::json::JValue;

namespace {

/// Entry key -> milliseconds, extracted from either document format.
using TimingMap = std::map<std::string, double>;

/// Profile docs key loops by "loop:<sig>#<occurrence>/<engine>" (already
/// precomputed in the document); bench docs get
/// "bench:<pattern>/<engine>/t<threads>". \p Speedups (may be null)
/// additionally collects each bench record's speedup field when present.
bool extractTimings(const JValue &Doc, TimingMap &Out, std::string &Kind,
                    TimingMap *Speedups) {
  if (Doc.strField("schema") == "dmll-profile-v1") {
    Kind = "profile";
    if (const JValue *Loops = Doc.field("loops"))
      for (const JValue &L : Loops->Arr) {
        std::string Key = L.strField("key");
        if (!Key.empty())
          Out[Key] = L.numField("millis");
      }
    return true;
  }
  if (Doc.field("benchmark") && Doc.field("records")) {
    Kind = "bench";
    for (const JValue &R : Doc.field("records")->Arr) {
      std::string Key = "bench:" + R.strField("pattern") + "/" +
                        R.strField("engine") + "/t" +
                        std::to_string(
                            static_cast<long long>(R.numField("threads", 1)));
      Out[Key] = R.numField("ms");
      if (Speedups && R.field("speedup"))
        (*Speedups)[Key] = R.numField("speedup");
    }
    return true;
  }
  return false;
}

bool loadTimings(const std::string &Path, TimingMap &Out, std::string &Kind,
                 TimingMap *Speedups = nullptr) {
  JValue Doc;
  if (!dmll::json::parseFile(Path, Doc)) {
    std::fprintf(stderr, "dmll-prof: cannot read or parse %s\n", Path.c_str());
    return false;
  }
  if (!extractTimings(Doc, Out, Kind, Speedups)) {
    std::fprintf(stderr,
                 "dmll-prof: %s is neither a dmll-profile-v1 document nor a "
                 "benchmark record document\n",
                 Path.c_str());
    return false;
  }
  return true;
}

/// What a document describes: the benchmark name for record documents, the
/// schema for execution profiles. History matching compares identities.
std::string docIdentity(const JValue &Doc) {
  std::string B = Doc.strField("benchmark");
  return B.empty() ? Doc.strField("schema") : B;
}

/// Scans a BENCH_history.jsonl file (one {"ts", "doc"} object per line,
/// appended by tools/run_benchmarks.sh) for the latest entry whose document
/// has \p Identity; extracts its timings as the baseline.
bool loadHistoryBaseline(const std::string &Path, const std::string &Identity,
                         TimingMap &Out, std::string &Kind,
                         TimingMap *Speedups, std::string &Ts) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "dmll-prof: cannot read history %s\n", Path.c_str());
    return false;
  }
  JValue Best;
  bool Found = false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    JValue Entry;
    if (!dmll::json::parse(Line, Entry)) {
      std::fprintf(stderr, "dmll-prof: skipping malformed history line\n");
      continue;
    }
    const JValue *Doc = Entry.field("doc");
    if (Doc && docIdentity(*Doc) == Identity) {
      Best = *Doc; // later lines win: the file is append-only
      Ts = Entry.strField("ts");
      Found = true;
    }
  }
  if (!Found) {
    std::fprintf(stderr,
                 "dmll-prof: history %s has no entry for benchmark '%s'\n",
                 Path.c_str(), Identity.c_str());
    return false;
  }
  return extractTimings(Best, Out, Kind, Speedups);
}

void usage() {
  std::fprintf(
      stderr,
      "usage: dmll-prof [--speedup] [--threshold R] [--min-ms M] "
      "BASELINE.json CURRENT.json\n"
      "       dmll-prof --check [--threshold R] [--min-ms M] [--baseline P] "
      "CURRENT.json\n"
      "       dmll-prof --history BENCH_history.jsonl [--speedup] "
      "[--threshold R] [--min-ms M] CURRENT.json\n"
      "       dmll-prof --events EVENTS.jsonl\n");
}

} // namespace

int main(int Argc, char **Argv) {
  double Threshold = 1.5;
  double MinMs = 0.05;
  bool Check = false;
  bool SpeedupMode = false;
  std::string BaselinePath = "BENCH_perf.json";
  std::string HistoryPath;
  std::string EventsPath;
  std::vector<std::string> Files;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto TakeValue = [&](const char *Flag) -> const char * {
      size_t L = std::strlen(Flag);
      if (A.compare(0, L, Flag) == 0 && A.size() > L && A[L] == '=')
        return A.c_str() + L + 1;
      if (A == Flag && I + 1 < Argc)
        return Argv[++I];
      return nullptr;
    };
    if (A == "--check") {
      Check = true;
    } else if (A == "--speedup") {
      SpeedupMode = true;
    } else if (const char *V = TakeValue("--threshold")) {
      Threshold = std::atof(V);
    } else if (const char *V = TakeValue("--min-ms")) {
      MinMs = std::atof(V);
    } else if (const char *V = TakeValue("--baseline")) {
      BaselinePath = V;
    } else if (const char *V = TakeValue("--history")) {
      HistoryPath = V;
    } else if (const char *V = TakeValue("--events")) {
      EventsPath = V;
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "dmll-prof: unknown option %s\n", A.c_str());
      usage();
      return 2;
    } else {
      Files.push_back(A);
    }
  }
  if (Threshold <= 0) {
    std::fprintf(stderr, "dmll-prof: --threshold must be positive\n");
    return 2;
  }

  if (!EventsPath.empty()) {
    // Event-log validation mode: schema-check the JSONL stream and report
    // what it contains.
    if (!Files.empty() || Check || SpeedupMode || !HistoryPath.empty()) {
      std::fprintf(stderr,
                   "dmll-prof: --events takes no other files or modes\n");
      usage();
      return 2;
    }
    dmll::EventLogCheck C = dmll::validateEventLog(EventsPath);
    std::printf("%s: %lld line%s\n", EventsPath.c_str(),
                static_cast<long long>(C.Lines), C.Lines == 1 ? "" : "s");
    for (const auto &[Type, N] : C.CountsByType)
      std::printf("  %-18s %lld\n", Type.c_str(), static_cast<long long>(N));
    for (const std::string &E : C.Errors)
      std::fprintf(stderr, "dmll-prof: %s\n", E.c_str());
    std::printf("%s\n", C.Ok ? "valid dmll-events-v1 log" : "INVALID log");
    return C.Ok ? 0 : 1;
  }

  std::string Base, Cur;
  if (!HistoryPath.empty() && Files.size() == 1) {
    Cur = Files[0];
  } else if (Check && Files.size() == 1) {
    Base = BaselinePath;
    Cur = Files[0];
  } else if (HistoryPath.empty() && Files.size() == 2) {
    Base = Files[0];
    Cur = Files[1];
  } else {
    usage();
    return 2;
  }

  TimingMap BaseT, CurT, BaseS, CurS;
  std::string BaseKind, CurKind;
  if (!HistoryPath.empty()) {
    // Baseline from the history log: the latest past run of the same
    // benchmark as the current document.
    JValue CurDoc;
    if (!dmll::json::parseFile(Cur, CurDoc)) {
      std::fprintf(stderr, "dmll-prof: cannot read or parse %s\n",
                   Cur.c_str());
      return 2;
    }
    if (!extractTimings(CurDoc, CurT, CurKind, &CurS)) {
      std::fprintf(stderr,
                   "dmll-prof: %s is neither a dmll-profile-v1 document nor "
                   "a benchmark record document\n",
                   Cur.c_str());
      return 2;
    }
    std::string Ts;
    if (!loadHistoryBaseline(HistoryPath, docIdentity(CurDoc), BaseT,
                             BaseKind, &BaseS, Ts))
      return 2;
    std::printf("baseline: %s entry from %s\n", HistoryPath.c_str(),
                Ts.empty() ? "(unknown time)" : Ts.c_str());
  } else if (!loadTimings(Base, BaseT, BaseKind, &BaseS) ||
             !loadTimings(Cur, CurT, CurKind, &CurS))
    return 2;

  if (SpeedupMode) {
    // Speedup gate: both documents must be benchmark records carrying
    // speedup fields. A regression is an entry whose speedup shrank by
    // more than the threshold factor; raw ms differences are ignored
    // (both sides of a speedup come from the same run, so machine load
    // cancels). Entries whose baseline reference time is under --min-ms
    // are skipped as timer noise.
    if (BaseS.empty() || CurS.empty()) {
      std::fprintf(stderr,
                   "dmll-prof: --speedup needs benchmark documents with "
                   "speedup fields (%zu baseline, %zu current entries)\n",
                   BaseS.size(), CurS.size());
      return 2;
    }
    std::printf("%-54s %10s %10s %8s  %s\n", "entry", "base(x)", "cur(x)",
                "ratio", "status");
    int Regressions = 0, Compared = 0, Skipped = 0;
    for (const auto &[Key, BaseX] : BaseS) {
      auto It = CurS.find(Key);
      if (It == CurS.end()) {
        std::printf("%-54s %10.3f %10s %8s  removed\n", Key.c_str(), BaseX,
                    "-", "-");
        continue;
      }
      auto MsIt = BaseT.find(Key);
      if (BaseX <= 0 ||
          (MsIt != BaseT.end() && MsIt->second < MinMs)) {
        ++Skipped;
        continue;
      }
      ++Compared;
      double CurX = It->second;
      double Ratio = CurX / BaseX;
      const char *Status = "ok";
      if (Ratio < 1.0 / Threshold) {
        Status = "REGRESSION";
        ++Regressions;
      } else if (Ratio > Threshold) {
        Status = "improved";
      }
      std::printf("%-54s %10.3f %10.3f %8.2f  %s\n", Key.c_str(), BaseX,
                  CurX, Ratio, Status);
    }
    if (Compared == 0) {
      std::fprintf(stderr,
                   "dmll-prof: no comparable speedup entries — the two "
                   "documents do not describe the same benchmark\n");
      return 2;
    }
    std::printf("\n%d compared, %d skipped, %d regression%s (speedup may "
                "shrink at most %.2fx)\n",
                Compared, Skipped, Regressions,
                Regressions == 1 ? "" : "s", Threshold);
    return Regressions ? 1 : 0;
  }

  if (BaseT.empty() || CurT.empty()) {
    std::printf("dmll-prof: nothing to compare (%zu baseline, %zu current "
                "entries); treating as pass\n",
                BaseT.size(), CurT.size());
    return 0;
  }

  std::printf("%-54s %10s %10s %8s  %s\n", "entry", "base(ms)", "cur(ms)",
              "ratio", "status");
  int Regressions = 0, Compared = 0, Skipped = 0;
  for (const auto &[Key, BaseMs] : BaseT) {
    auto It = CurT.find(Key);
    if (It == CurT.end()) {
      std::printf("%-54s %10.3f %10s %8s  removed\n", Key.c_str(), BaseMs,
                  "-", "-");
      continue;
    }
    double CurMs = It->second;
    if (BaseMs < MinMs) {
      ++Skipped;
      continue;
    }
    ++Compared;
    double Ratio = BaseMs > 0 ? CurMs / BaseMs : 0;
    const char *Status = "ok";
    if (Ratio > Threshold) {
      Status = "REGRESSION";
      ++Regressions;
    } else if (Ratio < 1.0 / Threshold) {
      Status = "improved";
    }
    std::printf("%-54s %10.3f %10.3f %8.2f  %s\n", Key.c_str(), BaseMs, CurMs,
                Ratio, Status);
  }
  for (const auto &[Key, CurMs] : CurT)
    if (!BaseT.count(Key))
      std::printf("%-54s %10s %10.3f %8s  added\n", Key.c_str(), "-", CurMs,
                  "-");

  if (Compared == 0) {
    std::fprintf(stderr,
                 "dmll-prof: no comparable entries above %.3fms — the two "
                 "documents do not describe the same run (%s vs %s)\n",
                 MinMs, BaseKind.c_str(), CurKind.c_str());
    return 2;
  }
  std::printf("\n%d compared, %d skipped (< %.3fms), %d regression%s "
              "(threshold %.2fx)\n",
              Compared, Skipped, MinMs, Regressions,
              Regressions == 1 ? "" : "s", Threshold);
  return Regressions ? 1 : 0;
}
