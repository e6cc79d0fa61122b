//===- tools/dmll_fuzz.cpp - Differential fuzzing CLI ----------*- C++ -*-===//
//
// Generates random well-typed DMLL programs and cross-checks every executor
// configuration (see src/fuzz/Oracle.h). Usage:
//
//   dmll-fuzz [--seed S] [--count N] [--reduce] [--out DIR]
//             [--chaos] [--schedules K]
//
//   --seed S       first seed (default 1)
//   --count N      number of consecutive seeds to run (default 1)
//   --reduce       greedily shrink each failing case before reporting
//   --out DIR      write each failing case as a replayable Builder C++ file
//                  (DIR/fuzz_seed_<S>.cpp) instead of dumping it to stdout
//   --chaos        chaos-oracle mode: instead of the differential matrix,
//                  drive each case in-process through K deterministic fault
//                  schedules (src/fuzz/Oracle.h runChaos) and assert
//                  survival, post-fault bit-identity, and monotonic metrics
//   --schedules K  fault schedules per seed in --chaos mode (default 4)
//
// A differential run ends with a census of the kernel compile fallbacks of
// the unoptimized one-thread kernel configuration, counted by reason.
//
// Exit status: 0 = every seed clean, 1 = at least one divergence or chaos
// problem, 2 = usage error.
//
//===----------------------------------------------------------------------===//

#include "fuzz/EmitCpp.h"
#include "fuzz/Gen.h"
#include "fuzz/Oracle.h"
#include "fuzz/Reduce.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

using namespace dmll;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed S] [--count N] [--reduce] [--out DIR] "
               "[--chaos] [--schedules K]\n",
               Argv0);
  return 2;
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End && *End == '\0' && End != S;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 1, Count = 1, Schedules = 4;
  bool Reduce = false, Chaos = false;
  std::string OutDir;

  for (int I = 1; I < argc; ++I) {
    const char *A = argv[I];
    if (std::strcmp(A, "--seed") == 0 && I + 1 < argc) {
      if (!parseU64(argv[++I], Seed))
        return usage(argv[0]);
    } else if (std::strcmp(A, "--count") == 0 && I + 1 < argc) {
      if (!parseU64(argv[++I], Count))
        return usage(argv[0]);
    } else if (std::strcmp(A, "--reduce") == 0) {
      Reduce = true;
    } else if (std::strcmp(A, "--chaos") == 0) {
      Chaos = true;
    } else if (std::strcmp(A, "--schedules") == 0 && I + 1 < argc) {
      if (!parseU64(argv[++I], Schedules) || Schedules == 0)
        return usage(argv[0]);
    } else if (std::strcmp(A, "--out") == 0 && I + 1 < argc) {
      OutDir = argv[++I];
    } else {
      return usage(argv[0]);
    }
  }

  if (Chaos) {
    // Chaos mode: each case runs in-process — surviving every fault
    // schedule without a crash *is* the assertion, so no fork sandbox.
    uint64_t ChaosFailures = 0, TotalSchedules = 0, TotalFaulted = 0;
    for (uint64_t S = Seed; S < Seed + Count; ++S) {
      fuzz::FuzzCase C = fuzz::generateCase(S);
      // Offset the fault seed from the generator seed so case shape and
      // fault schedule vary independently.
      fuzz::ChaosReport Rep =
          fuzz::runChaos(C, static_cast<int>(Schedules), S * 1000003);
      TotalSchedules += static_cast<uint64_t>(Rep.Schedules);
      TotalFaulted += static_cast<uint64_t>(Rep.Faulted);
      if (Rep.ok())
        continue;
      ++ChaosFailures;
      std::printf("%s\n", Rep.str().c_str());
    }
    std::printf("dmll-fuzz --chaos: %llu/%llu seed(s) clean, %llu "
                "schedule(s) run, %llu faulted\n",
                static_cast<unsigned long long>(Count - ChaosFailures),
                static_cast<unsigned long long>(Count),
                static_cast<unsigned long long>(TotalSchedules),
                static_cast<unsigned long long>(TotalFaulted));
    return ChaosFailures ? 1 : 0;
  }

  uint64_t Failures = 0, WithFallback = 0;
  std::map<std::string, uint64_t> Census; // reason -> loops
  for (uint64_t S = Seed; S < Seed + Count; ++S) {
    fuzz::FuzzCase C = fuzz::generateCase(S);
    fuzz::Verdict V = fuzz::runDifferential(C);
    WithFallback += !V.KernelFallbacks.empty();
    for (const std::string &F : V.KernelFallbacks) {
      size_t Sep = F.find(": ");
      ++Census[Sep == std::string::npos ? F : F.substr(Sep + 2)];
    }
    if (V.ok())
      continue;
    ++Failures;
    std::printf("%s\n", V.str().c_str());
    if (Reduce) {
      fuzz::ReduceStats RS;
      C = fuzz::reduceCase(C, fuzz::oracleFails(), &RS);
      std::printf("reduced seed %llu: %zu -> %zu nodes (%d candidates "
                  "tried, %d accepted)\n",
                  static_cast<unsigned long long>(S), RS.NodesBefore,
                  RS.NodesAfter, RS.Tried, RS.Accepted);
      std::printf("%s\n", fuzz::runDifferential(C).str().c_str());
    }
    std::string Replay = fuzz::emitReplayCpp(
        C, "buildSeed" + std::to_string(S));
    if (!OutDir.empty()) {
      std::string Path =
          OutDir + "/fuzz_seed_" + std::to_string(S) + ".cpp";
      std::ofstream Out(Path);
      if (!Out) {
        std::fprintf(stderr, "cannot write %s\n", Path.c_str());
        return 2;
      }
      Out << Replay;
      std::printf("replay written to %s\n", Path.c_str());
    } else {
      std::printf("---- replay ----\n%s", Replay.c_str());
    }
  }

  std::vector<std::pair<uint64_t, std::string>> ByCount;
  for (const auto &[Reason, N] : Census)
    ByCount.emplace_back(N, Reason);
  std::stable_sort(ByCount.begin(), ByCount.end(),
                   [](const auto &A, const auto &B) { return A.first > B.first; });
  std::printf("kernel fallback census (unoptimized, 1 thread): %llu/%llu "
              "program(s) with a fallback loop\n",
              static_cast<unsigned long long>(WithFallback),
              static_cast<unsigned long long>(Count));
  for (const auto &[N, Reason] : ByCount)
    std::printf("  %6llu  %s\n", static_cast<unsigned long long>(N),
                Reason.c_str());
  std::printf("dmll-fuzz: %llu/%llu seed(s) clean\n",
              static_cast<unsigned long long>(Count - Failures),
              static_cast<unsigned long long>(Count));
  return Failures ? 1 : 0;
}
