//===- tools/dmll_serve.cpp - Long-lived DMLL query daemon ------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
// dmll-serve keeps a compiled-program cache, a persistent worker pool, and
// the whole telemetry plane alive across requests (service/Serve.h,
// docs/SERVICE.md). Clients speak the dmll-serve-v1 length-prefixed JSON
// protocol (service/Protocol.h) over localhost TCP or a stdin/stdout pipe;
// tools/dmll_loadgen.cpp is the reference client.
//
//   dmll-serve [--port N]          listen on 127.0.0.1:N (default 0: bind
//                                  an ephemeral port and print it)
//   dmll-serve --stdio             serve frames on stdin/stdout instead
//   --port-file F                  write "<serve-port>\n<metrics-port>\n"
//                                  to F once bound (how scripts discover
//                                  ephemeral ports without racing)
//   --threads N                    persistent pool size (default 4)
//   --engine auto|interp|kernel    default engine mode (default auto)
//   --min-chunk C                  minimum work units per parallel chunk,
//                                  one unit = one flop per iteration
//                                  (default 1024)
//   --max-queue N                  admission ceiling; overflow requests are
//                                  shed with a structured response
//                                  (default 16)
//   --tune-dir D                   load dmll-tune artifacts D/<app>.tune
//   --deadline-ms MS               default per-request deadline
//   plus the shared telemetry flags (--metrics-live/--metrics-port/
//   --metrics-out/--events-out/--sample/--sample-out, docs/TELEMETRY.md)
//
// SIGINT/SIGTERM and the client "shutdown" command both shut down cleanly:
// queued requests are answered, the pool drains, telemetry writes its
// final snapshot. Exit codes: 0 clean shutdown, 1 framing error in --stdio
// mode, 2 usage/bind error.
//
//===----------------------------------------------------------------------===//

#include "observe/LiveTelemetry.h"
#include "service/Serve.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace dmll;

namespace {

std::atomic<bool> GSignalled{false};

void onSignal(int) { GSignalled.store(true); }

int usage() {
  std::fprintf(stderr,
               "usage: dmll-serve [--port N] [--port-file F] [--threads N]\n"
               "                  [--engine auto|interp|kernel]\n"
               "                  [--min-chunk C (work units per chunk)]\n"
               "                  [--max-queue N]\n"
               "                  [--tune-dir D] [--deadline-ms MS]\n"
               "                  [--stdio] [telemetry flags]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  service::ServerOptions Opts;
  std::string PortFile;
  bool Stdio = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (A == "--port") {
      if (const char *V = Next())
        Opts.Port = std::atoi(V);
    } else if (A == "--port-file") {
      if (const char *V = Next())
        PortFile = V;
    } else if (A == "--threads") {
      if (const char *V = Next())
        Opts.Threads = static_cast<unsigned>(std::atoi(V));
    } else if (A == "--engine") {
      if (const char *V = Next())
        Opts.Mode = engine::parseEngineMode(V);
    } else if (A == "--min-chunk") {
      if (const char *V = Next())
        Opts.MinChunk = std::atoll(V);
    } else if (A == "--max-queue") {
      if (const char *V = Next())
        Opts.MaxQueue = static_cast<size_t>(std::atoll(V));
    } else if (A == "--tune-dir") {
      if (const char *V = Next())
        Opts.TuneDir = V;
    } else if (A == "--deadline-ms") {
      if (const char *V = Next())
        Opts.DefaultLimits.DeadlineMs = std::atoll(V);
    } else if (A == "--stdio") {
      Stdio = true;
    } else if (A == "--metrics-out" || A == "--metrics-live" ||
               A == "--metrics-port" || A == "--events-out" ||
               A == "--sample-out") {
      ++I; // telemetry flag with a value; telemetryCliArgs consumes it
    } else if (A == "--sample") {
      ; // telemetry flag, no value
    } else if (A == "--help" || A == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "dmll-serve: unknown option %s\n", A.c_str());
      return usage();
    }
  }

  // The daemon writes to sockets and pipes whose peers can vanish at any
  // moment; every write path handles the error return, so a SIGPIPE would
  // only turn a handled condition into a crash.
  std::signal(SIGPIPE, SIG_IGN);

  TelemetryCli Cli = telemetryCliArgs(Argc, Argv);
  TelemetryScope Telemetry(Cli);
  int MetricsPort = Telemetry.snapshotter()
                        ? Telemetry.snapshotter()->boundPort()
                        : 0;

  if (Stdio)
    Opts.Port = -1; // pipe mode binds nothing
  service::Server Srv(Opts);
  // The snapshotter began rendering before the Server existed; re-render so
  // the very first scrape already sees serve.started (an empty exposition
  // fails dmll-top --check). Must precede the port-file write: clients take
  // that file as "ready to scrape".
  if (Telemetry.snapshotter())
    Telemetry.snapshotter()->snapshotNow();

  if (Stdio) {
    if (!PortFile.empty()) {
      if (FILE *F = std::fopen(PortFile.c_str(), "w")) {
        std::fprintf(F, "0\n%d\n", MetricsPort);
        std::fclose(F);
      }
    }
    return Srv.runStdio();
  }

  std::string Err;
  if (!Srv.start(&Err)) {
    std::fprintf(stderr, "dmll-serve: %s\n", Err.c_str());
    return 2;
  }
  std::fprintf(stderr,
               "dmll-serve: listening on 127.0.0.1:%d (threads=%u, "
               "engine=%s, max-queue=%zu)\n",
               Srv.boundPort(), Opts.Threads, engine::engineModeName(Opts.Mode),
               Opts.MaxQueue);
  if (!PortFile.empty()) {
    if (FILE *F = std::fopen(PortFile.c_str(), "w")) {
      std::fprintf(F, "%d\n%d\n", Srv.boundPort(), MetricsPort);
      std::fclose(F);
    } else {
      std::fprintf(stderr, "dmll-serve: cannot write %s\n", PortFile.c_str());
      return 2;
    }
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  // Signal handlers cannot touch condition variables, so the main thread
  // polls the flag instead of blocking in Srv.wait().
  while (!GSignalled.load() && !Srv.stopping())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Srv.stop();
  std::fprintf(stderr, "dmll-serve: shut down cleanly\n");
  return 0;
}
