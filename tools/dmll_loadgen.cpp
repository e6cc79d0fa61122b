//===- tools/dmll_loadgen.cpp - Concurrent dmll-serve client ----*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
// dmll-loadgen drives a running dmll-serve with N concurrent clients and
// reports what the daemon's own `stats` command measured: request p50/p99
// from the serve.request_ms histogram, cache hit rate, and requests/sec.
// It doubles as the serve_smoke gate's assertion harness (--check) and the
// BENCH_serve.json producer for tools/run_benchmarks.sh.
//
//   dmll-loadgen --port N | --port-file F   where the daemon listens
//   --clients C        concurrent client threads (default 4)
//   --requests M       requests per client (default 8)
//   --apps a,b,c       catalog apps cycled per request (default
//                      logreg,k-means,gda)
//   --scale S          dataset divisor passed through (default 25)
//   --threads T        per-request worker override (0 = daemon default)
//   --engine E         per-request engine override
//   --deadline-ms MS   per-request deadline
//   --trap-every K     every Kth request runs the trapping tenant
//                      "trapdiv" instead (proves fault isolation)
//   --abort-every K    every Kth request disconnects right after sending,
//                      never reading the response (proves the daemon
//                      survives a vanishing client mid-response)
//   --check            assert: daemon alive afterwards, cache hits > 0,
//                      equal (app, scale) requests returned bit-identical
//                      digests, every trapdiv run came back "trapped"
//   --shutdown         send the shutdown command when done
//   --bench-out F      write the BENCH_serve.json document
//
// Exit codes: 0 ok, 1 --check assertion failed, 2 usage/connect error.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"
#include "support/Json.h"
#include "support/Net.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace dmll;
using namespace dmll::service;

namespace {

struct Outcome {
  std::string App;
  int64_t Scale = 1;
  std::string Status;
  std::string Digest;
  std::string Cache;
  bool Aborted = false;
};

/// One request/response exchange on a fresh connection. With \p Abort the
/// client hangs up right after sending — the daemon's problem to survive.
bool exchange(int Port, const Request &R, bool Abort, Response &Out,
              std::string &Err) {
  int Fd = net::connectLoopback(Port);
  if (Fd < 0) {
    Err = "connect failed";
    return false;
  }
  if (!sendFrame(Fd, renderRequest(R))) {
    ::close(Fd);
    Err = "send failed";
    return false;
  }
  if (Abort) {
    ::close(Fd); // vanish mid-exchange, response unread
    return true;
  }
  std::string Body;
  if (!recvFrame(Fd, Body, &Err)) {
    ::close(Fd);
    return false;
  }
  ::close(Fd);
  return parseResponse(Body, Out, Err);
}

/// Raw body of one exchange (for stats, whose payload carries fields the
/// Response struct does not model).
bool exchangeRaw(int Port, const Request &R, std::string &Body,
                 std::string &Err) {
  int Fd = net::connectLoopback(Port);
  if (Fd < 0) {
    Err = "connect failed";
    return false;
  }
  if (!sendFrame(Fd, renderRequest(R))) {
    ::close(Fd);
    Err = "send failed";
    return false;
  }
  bool Ok = recvFrame(Fd, Body, &Err);
  ::close(Fd);
  return Ok;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dmll-loadgen (--port N | --port-file F) [--clients C]\n"
      "                    [--requests M] [--apps a,b,c] [--scale S]\n"
      "                    [--threads T] [--engine E] [--deadline-ms MS]\n"
      "                    [--trap-every K] [--abort-every K] [--check]\n"
      "                    [--shutdown] [--bench-out F]\n");
  return 2;
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t Comma = S.find(',', Start);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Start)
      Out.push_back(S.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  int Port = 0;
  std::string PortFile, AppList = "logreg,k-means,gda", Engine, BenchOut;
  int Clients = 4, Requests = 8;
  int64_t Scale = 25, DeadlineMs = 0;
  unsigned ReqThreads = 0;
  int TrapEvery = 0, AbortEvery = 0;
  bool Check = false, Shutdown = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--port" && (V = Next()))
      Port = std::atoi(V);
    else if (A == "--port-file" && (V = Next()))
      PortFile = V;
    else if (A == "--clients" && (V = Next()))
      Clients = std::atoi(V);
    else if (A == "--requests" && (V = Next()))
      Requests = std::atoi(V);
    else if (A == "--apps" && (V = Next()))
      AppList = V;
    else if (A == "--scale" && (V = Next()))
      Scale = std::atoll(V);
    else if (A == "--threads" && (V = Next()))
      ReqThreads = static_cast<unsigned>(std::atoi(V));
    else if (A == "--engine" && (V = Next()))
      Engine = V;
    else if (A == "--deadline-ms" && (V = Next()))
      DeadlineMs = std::atoll(V);
    else if (A == "--trap-every" && (V = Next()))
      TrapEvery = std::atoi(V);
    else if (A == "--abort-every" && (V = Next()))
      AbortEvery = std::atoi(V);
    else if (A == "--bench-out" && (V = Next()))
      BenchOut = V;
    else if (A == "--check")
      Check = true;
    else if (A == "--shutdown")
      Shutdown = true;
    else
      return usage();
  }
  if (!PortFile.empty()) {
    std::ifstream In(PortFile);
    if (!In || !(In >> Port)) {
      std::fprintf(stderr, "dmll-loadgen: cannot read port from %s\n",
                   PortFile.c_str());
      return 2;
    }
  }
  if (Port <= 0 || Clients < 1 || Requests < 1)
    return usage();
  std::vector<std::string> Apps = splitList(AppList);
  if (Apps.empty())
    return usage();

  // The daemon may still be binding when we start (scripts launch it in
  // the background); retry the first contact briefly.
  {
    Request Ping;
    Ping.Cmd = "ping";
    Response R;
    std::string Err;
    bool Up = false;
    for (int Tries = 0; Tries < 50 && !Up; ++Tries) {
      Up = exchange(Port, Ping, false, R, Err) && R.Status == "ok";
      if (!Up)
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!Up) {
      std::fprintf(stderr, "dmll-loadgen: no daemon on port %d (%s)\n", Port,
                   Err.c_str());
      return 2;
    }
  }

  std::mutex OutMu;
  std::vector<Outcome> Outcomes;
  std::atomic<int> Errors{0};
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Workers;
  for (int C = 0; C < Clients; ++C) {
    Workers.emplace_back([&, C] {
      for (int J = 0; J < Requests; ++J) {
        int Idx = C * Requests + J;
        Outcome O;
        O.Scale = Scale;
        O.App = Apps[static_cast<size_t>(Idx) % Apps.size()];
        bool Abort = AbortEvery > 0 && (Idx + 1) % AbortEvery == 0;
        if (TrapEvery > 0 && (Idx + 1) % TrapEvery == 0)
          O.App = "trapdiv";
        Request R;
        R.App = O.App;
        R.Scale = Scale;
        R.Threads = ReqThreads;
        R.Engine = Engine;
        R.DeadlineMs = DeadlineMs;
        R.Id = "c" + std::to_string(C) + "-r" + std::to_string(J);
        Response Resp;
        std::string Err;
        if (!exchange(Port, R, Abort, Resp, Err)) {
          Errors.fetch_add(1);
          std::fprintf(stderr, "dmll-loadgen: %s: %s\n", R.Id.c_str(),
                       Err.c_str());
          continue;
        }
        O.Aborted = Abort;
        if (!Abort) {
          O.Status = Resp.Status;
          O.Digest = Resp.Digest;
          O.Cache = Resp.Cache;
        }
        std::lock_guard<std::mutex> L(OutMu);
        Outcomes.push_back(std::move(O));
      }
    });
  }
  for (std::thread &W : Workers)
    W.join();
  double WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();

  // Tally what the clients saw.
  int64_t Ok = 0, Trapped = 0, Shed = 0, Aborted = 0, Other = 0, Hits = 0;
  std::map<std::pair<std::string, int64_t>, std::set<std::string>> Digests;
  for (const Outcome &O : Outcomes) {
    if (O.Aborted) {
      ++Aborted;
      continue;
    }
    if (O.Cache == "hit")
      ++Hits;
    if (O.Status == "ok") {
      ++Ok;
      Digests[{O.App, O.Scale}].insert(O.Digest);
    } else if (O.Status == "trapped") {
      ++Trapped;
    } else if (O.Status == "shed") {
      ++Shed;
    } else {
      ++Other;
    }
  }

  // What the daemon measured (authoritative p50/p99: the serve.request_ms
  // histogram includes queue wait).
  Request StatsReq;
  StatsReq.Cmd = "stats";
  std::string StatsBody, Err;
  double P50 = 0, P99 = 0;
  int64_t SrvHits = 0, SrvMisses = 0, SrvRequests = 0;
  bool Alive = exchangeRaw(Port, StatsReq, StatsBody, Err);
  if (Alive) {
    json::JValue V;
    if (json::parse(StatsBody, V) && V.K == json::JValue::Object) {
      P50 = V.numField("p50_ms", 0);
      P99 = V.numField("p99_ms", 0);
      SrvHits = static_cast<int64_t>(V.numField("cache_hits", 0));
      SrvMisses = static_cast<int64_t>(V.numField("cache_misses", 0));
      SrvRequests = static_cast<int64_t>(V.numField("requests", 0));
    }
  }

  int64_t Total = static_cast<int64_t>(Clients) * Requests;
  double Rps = WallMs > 0 ? static_cast<double>(Total) / (WallMs / 1000.0)
                          : 0;
  double HitRate = SrvHits + SrvMisses > 0
                       ? static_cast<double>(SrvHits) /
                             static_cast<double>(SrvHits + SrvMisses)
                       : 0;
  std::printf("loadgen: %d clients x %d requests in %.1fms (%.1f req/s)\n",
              Clients, Requests, WallMs, Rps);
  std::printf("  client view: ok %lld, trapped %lld, shed %lld, aborted "
              "%lld, other %lld, errors %d\n",
              static_cast<long long>(Ok), static_cast<long long>(Trapped),
              static_cast<long long>(Shed), static_cast<long long>(Aborted),
              static_cast<long long>(Other), Errors.load());
  std::printf("  daemon view: %lld requests, cache %lld hits / %lld misses "
              "(%.0f%%), p50 %.3fms, p99 %.3fms\n",
              static_cast<long long>(SrvRequests),
              static_cast<long long>(SrvHits),
              static_cast<long long>(SrvMisses), HitRate * 100, P50, P99);

  if (!BenchOut.empty()) {
    char Buf[1024];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"benchmark\":\"serve\",\"records\":["
        "{\"pattern\":\"request_p50\",\"n\":%lld,\"threads\":%d,"
        "\"engine\":\"serve\",\"ms\":%.6f,\"speedup\":1.0},"
        "{\"pattern\":\"request_p99\",\"n\":%lld,\"threads\":%d,"
        "\"engine\":\"serve\",\"ms\":%.6f,\"speedup\":1.0}],"
        "\"serve\":{\"requests\":%lld,\"ok\":%lld,\"trapped\":%lld,"
        "\"shed\":%lld,\"aborted\":%lld,\"cache_hits\":%lld,"
        "\"cache_misses\":%lld,\"hit_rate\":%.6f,\"rps\":%.3f,"
        "\"p50_ms\":%.6f,\"p99_ms\":%.6f,\"wall_ms\":%.3f}}\n",
        static_cast<long long>(Total), Clients, P50,
        static_cast<long long>(Total), Clients, P99,
        static_cast<long long>(SrvRequests), static_cast<long long>(Ok),
        static_cast<long long>(Trapped), static_cast<long long>(Shed),
        static_cast<long long>(Aborted), static_cast<long long>(SrvHits),
        static_cast<long long>(SrvMisses), HitRate, Rps, P50, P99, WallMs);
    if (FILE *F = std::fopen(BenchOut.c_str(), "w")) {
      std::fwrite(Buf, 1, std::strlen(Buf), F);
      std::fclose(F);
      std::printf("wrote %s\n", BenchOut.c_str());
    } else {
      std::fprintf(stderr, "dmll-loadgen: failed to write %s\n",
                   BenchOut.c_str());
      return 2;
    }
  }

  int Failures = 0;
  if (Check) {
    auto Fail = [&](const std::string &Msg) {
      std::fprintf(stderr, "check: FAIL: %s\n", Msg.c_str());
      ++Failures;
    };
    if (!Alive)
      Fail("daemon did not answer stats after the run (" + Err + ")");
    if (SrvHits <= 0)
      Fail("compiled-program cache recorded no hits");
    if (Errors.load() > 0)
      Fail("client-side exchange errors");
    for (const auto &[Key, Set] : Digests)
      if (Set.size() > 1)
        Fail("app " + Key.first + " scale " + std::to_string(Key.second) +
             " returned " + std::to_string(Set.size()) +
             " distinct digests (cache hits must be bit-identical)");
    for (const Outcome &O : Outcomes)
      if (!O.Aborted && O.App == "trapdiv" && O.Status != "trapped")
        Fail("trapdiv came back \"" + O.Status + "\", expected \"trapped\"");
    if (TrapEvery > 0 && Trapped == 0)
      Fail("no trapped responses despite --trap-every");
    if (Failures == 0)
      std::printf("check: all assertions passed\n");
  }

  if (Shutdown) {
    Request Down;
    Down.Cmd = "shutdown";
    Response R;
    std::string SdErr;
    if (!exchange(Port, Down, false, R, SdErr))
      std::fprintf(stderr, "dmll-loadgen: shutdown send failed: %s\n",
                   SdErr.c_str());
  }
  return Failures > 0 ? 1 : 0;
}
