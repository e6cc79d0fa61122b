//===- service/Serve.cpp - Long-lived DMLL query daemon ---------*- C++ -*-===//

#include "service/Serve.h"

#include "codegen/CppEmitter.h"
#include "interp/Interp.h"
#include "observe/MetricsRegistry.h"
#include "runtime/ThreadPool.h"
#include "service/Catalog.h"
#include "support/Net.h"
#include "transform/Pipeline.h"
#include "tune/TuneProfile.h"

#include <algorithm>
#include <cstdio>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace dmll;
using namespace dmll::service;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

std::string digestOf(const Value &V) {
  Checksum CS = checksumValue(V);
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%lld:%.17g:%.17g",
                static_cast<long long>(CS.Count), CS.Sum, CS.Abs);
  return Buf;
}

} // namespace

Server::Server(ServerOptions O) : Opts(std::move(O)) {
  if (Opts.Threads == 0)
    Opts.Threads = 1;
  Pool = std::make_unique<ThreadPool>(Opts.Threads);
  // An idle daemon must still expose a non-empty metrics page:
  // checkPrometheus() treats an exposition with no samples as invalid, and
  // scrapers (dmll-top --check --port) may arrive before the first request.
  MetricsRegistry::global().counter("serve.started").inc();
}

Server::~Server() { stop(); }

bool Server::start(std::string *Err) {
  if (Running.load())
    return true;
  if (Opts.Port >= 0) {
    ListenFd = net::listenLoopback(Opts.Port, 16, &BoundPort);
    if (ListenFd < 0) {
      if (Err)
        *Err = "failed to bind 127.0.0.1:" + std::to_string(Opts.Port);
      return false;
    }
  }
  Running.store(true);
  Stopping.store(false);
  Executor = std::thread([this] { executorMain(); });
  if (ListenFd >= 0)
    Acceptor = std::thread([this] { acceptorMain(); });
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> L(StopMu);
  StopCv.wait(L, [this] { return Stopping.load() || !Running.load(); });
}

void Server::stop() {
  if (!Running.exchange(false)) {
    // Never started (or already stopped): nothing to join.
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return;
  }
  Stopping.store(true);
  StopCv.notify_all();
  QCv.notify_all();
  if (Acceptor.joinable())
    Acceptor.join();
  if (Executor.joinable())
    Executor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  // Answer anything still queued so no client hangs on a dead daemon.
  std::deque<Job> Left;
  {
    std::lock_guard<std::mutex> L(QMu);
    Left.swap(Queue);
  }
  for (Job &J : Left) {
    Response R;
    R.Status = "shutting_down";
    R.Id = J.R.Id;
    sendFrame(J.Fd, renderResponse(R));
    ::close(J.Fd);
  }
}

void Server::acceptorMain() {
  while (Running.load()) {
    // Poll-then-accept so shutdown never needs to interrupt a blocking
    // accept(2); 200ms bounds the shutdown latency.
    if (!net::pollIn(ListenFd, 200))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    // A peer that connects and then sends nothing must not wedge the
    // acceptor: bound every read.
    timeval Tv{5, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    serveConnection(Fd);
  }
}

void Server::serveConnection(int Fd) {
  std::string Body, Err;
  if (!recvFrame(Fd, Body, &Err)) {
    ::close(Fd);
    return;
  }
  Request R;
  Response Resp;
  auto T0 = std::chrono::steady_clock::now();
  if (!parseRequest(Body, R, Err)) {
    Resp.Status = "bad_request";
    Resp.Error = Err;
    MetricsRegistry::global().counter("serve.bad_request").inc();
    sendFrame(Fd, renderResponse(Resp));
    ::close(Fd);
    return;
  }
  if (R.Cmd == "shutdown") {
    Resp.Status = "ok";
    Resp.Id = R.Id;
    sendFrame(Fd, renderResponse(Resp));
    ::close(Fd);
    Stopping.store(true);
    StopCv.notify_all();
    return;
  }
  if (!R.Cmd.empty() && R.Cmd != "run") {
    // stats / ping answer inline — they must work while the executor is
    // busy with a long run.
    Resp = handleFrom(R, T0);
    if (!sendFrame(Fd, renderResponse(Resp)))
      MetricsRegistry::global().counter("serve.client_abort").inc();
    ::close(Fd);
    return;
  }
  if (Stopping.load()) {
    Resp.Status = "shutting_down";
    Resp.Id = R.Id;
    sendFrame(Fd, renderResponse(Resp));
    ::close(Fd);
    return;
  }
  {
    std::lock_guard<std::mutex> L(QMu);
    if (Queue.size() >= Opts.MaxQueue) {
      // Admission control: a full queue answers now instead of growing
      // tail latency without bound.
      Resp.Status = "shed";
      Resp.Id = R.Id;
      Resp.Error = "queue full (" + std::to_string(Opts.MaxQueue) +
                   " requests in flight)";
      NShed.fetch_add(1);
      MetricsRegistry::global().counter("serve.shed").inc();
      sendFrame(Fd, renderResponse(Resp));
      ::close(Fd);
      return;
    }
    Queue.push_back(Job{Fd, std::move(R), T0});
  }
  QCv.notify_one();
}

void Server::executorMain() {
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> L(QMu);
      QCv.wait(L, [this] { return !Queue.empty() || !Running.load(); });
      if (Queue.empty()) {
        if (!Running.load())
          return;
        continue;
      }
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    Response Resp = handleFrom(J.R, J.T0);
    if (!sendFrame(J.Fd, renderResponse(Resp)))
      MetricsRegistry::global().counter("serve.client_abort").inc();
    ::close(J.Fd);
  }
}

Response Server::handle(const Request &R) {
  return handleFrom(R, std::chrono::steady_clock::now());
}

Response Server::handleFrom(const Request &R,
                            std::chrono::steady_clock::time_point T0) {
  Response Resp;
  Resp.Id = R.Id;
  if (R.Cmd == "ping") {
    Resp.Status = "ok";
    return Resp;
  }
  if (R.Cmd == "stats") {
    Resp = statsResponse();
    Resp.Id = R.Id;
    return Resp;
  }
  if (R.Cmd == "shutdown") {
    Resp.Status = "ok";
    Stopping.store(true);
    StopCv.notify_all();
    return Resp;
  }
  if (!R.Cmd.empty() && R.Cmd != "run") {
    Resp.Status = "bad_request";
    Resp.Error = "unknown cmd \"" + R.Cmd + "\"";
    return Resp;
  }
  Resp = runRequest(R);
  // Latency is accept-to-response: queue wait is part of what the client
  // experiences, so it belongs in the histogram the p50/p99 come from.
  Resp.Ms = msSince(T0);
  MetricsRegistry &M = MetricsRegistry::global();
  M.histogram("serve.request_ms").observe(Resp.Ms);
  M.counter("serve.requests|status=" + Resp.Status).inc();
  NRequests.fetch_add(1);
  if (Resp.Status == "ok")
    NOk.fetch_add(1);
  else
    NFailed.fetch_add(1);
  return Resp;
}

Response Server::runRequest(const Request &R) {
  Response Resp;
  Resp.Id = R.Id;
  int64_t Scale = R.Scale < 1 ? 1 : R.Scale;

  if (std::ranges::find(catalogNames(), R.App) == catalogNames().end()) {
    Resp.Status = "bad_request";
    Resp.Error = "unknown app \"" + R.App + "\"";
    return Resp;
  }
  Once<CompiledProgram> *Latch;
  {
    std::lock_guard<std::mutex> L(CacheMu);
    auto &Slot = Cache[R.App];
    if (!Slot)
      Slot = std::make_unique<Once<CompiledProgram>>();
    Latch = Slot.get();
  }
  // Cold builds run under their latch only: the cache lock is free for
  // other apps and for stats meanwhile.
  bool Miss = false;
  const CompiledProgram &App = Latch->get(
      [&] {
        Program P;
        makeProgram(R.App, P);
        tune::TuningProfile TP;
        bool HasTune = !Opts.TuneDir.empty() &&
                       tune::readTuningProfile(
                           Opts.TuneDir + "/" + R.App + ".tune", TP);
        tune::DecisionTable Decisions = TP.decisions();
        return CompiledProgram(P, CompileOptions(),
                               HasTune ? &Decisions : nullptr);
      },
      &Miss);
  CompiledProgram Bound = App.bind(Scale, [&] {
    InputMap Raw;
    int64_t N = 0;
    makeInputs(R.App, Scale, Raw, N);
    return Raw;
  });

  MetricsRegistry &M = MetricsRegistry::global();
  if (!Miss) {
    NHits.fetch_add(1);
    M.counter("serve.cache_hits").inc();
  } else {
    NMisses.fetch_add(1);
    M.counter("serve.cache_misses").inc();
  }
  Resp.Cache = Miss ? "miss" : "hit";
  Resp.Key = App.key();

  EvalOptions EO;
  unsigned T = R.Threads ? R.Threads : Opts.Threads;
  EO.Threads = T < Pool->numThreads() ? T : Pool->numThreads();
  if (EO.Threads == 0)
    EO.Threads = 1;
  EO.MinChunk = Opts.MinChunk;
  EO.Mode = R.Engine.empty() ? Opts.Mode
                             : engine::parseEngineMode(R.Engine, Opts.Mode);
  EO.Limits = Opts.DefaultLimits;
  if (R.DeadlineMs > 0)
    EO.Limits.DeadlineMs = R.DeadlineMs;
  if (R.MaxMemoryMb > 0)
    EO.Limits.MaxMemoryBytes = R.MaxMemoryMb * (1ll << 20);
  if (R.MaxIterations > 0)
    EO.Limits.MaxIterations = R.MaxIterations;
  EO.Pool = Pool.get();

  ExecResult Res;
  {
    // One pool, one run at a time (parallelFor is not reentrant); the
    // socket path is already serialized by the single executor thread,
    // this guards direct handle() callers.
    std::lock_guard<std::mutex> L(ExecMu);
    Res = run(Bound, EO);
  }
  Resp.Status = execStatusName(Res.Status);
  if (Res.ok()) {
    Resp.Digest = digestOf(Res.Out);
  } else {
    Resp.Error = Res.TrapMessage;
    if (!Res.TrapLoop.empty())
      Resp.Error += " [loop " + Res.TrapLoop + "]";
  }
  return Resp;
}

Response Server::statsResponse() {
  Response Resp;
  Resp.Status = "ok";
  ServerStats S = stats();
  MetricsSnapshot MS = MetricsRegistry::global().snapshot();
  double P50 = 0, P99 = 0;
  auto H = MS.Histograms.find("serve.request_ms");
  if (H != MS.Histograms.end()) {
    P50 = histogramQuantile(H->second, 0.50);
    P99 = histogramQuantile(H->second, 0.99);
  }
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      ",\"requests\":%lld,\"ok\":%lld,\"failed\":%lld,\"shed\":%lld,"
      "\"cache_hits\":%lld,\"cache_misses\":%lld,\"programs\":%zu,"
      "\"threads\":%u,\"p50_ms\":%.6f,\"p99_ms\":%.6f",
      static_cast<long long>(S.Requests), static_cast<long long>(S.Ok),
      static_cast<long long>(S.Failed), static_cast<long long>(S.Shed),
      static_cast<long long>(S.CacheHits),
      static_cast<long long>(S.CacheMisses), S.Programs,
      Pool->numThreads(), P50, P99);
  Resp.Extra = Buf;
  return Resp;
}

ServerStats Server::stats() const {
  ServerStats S;
  S.Requests = NRequests.load();
  S.Ok = NOk.load();
  S.Failed = NFailed.load();
  S.Shed = NShed.load();
  S.CacheHits = NHits.load();
  S.CacheMisses = NMisses.load();
  {
    std::lock_guard<std::mutex> L(CacheMu);
    for (const auto &[App, Latch] : Cache)
      S.Programs += Latch->ready();
  }
  return S;
}

int Server::runStdio(int InFd, int OutFd) {
  for (;;) {
    std::string Body, Err;
    if (!recvFrame(InFd, Body, &Err))
      return Err == "eof" ? 0 : 1;
    Request R;
    Response Resp;
    if (!parseRequest(Body, R, Err)) {
      Resp.Status = "bad_request";
      Resp.Error = Err;
    } else {
      Resp = handle(R);
    }
    if (!sendFrame(OutFd, renderResponse(Resp)))
      return 1;
    if (R.Cmd == "shutdown")
      return 0;
  }
}
