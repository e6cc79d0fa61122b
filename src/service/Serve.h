//===- service/Serve.h - Long-lived DMLL query daemon ----------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dmll-serve's core: a persistent daemon that executes catalog programs
/// (service/Catalog.h) on request over the dmll-serve-v1 protocol
/// (service/Protocol.h, docs/SERVICE.md), amortizing everything a one-shot
/// CLI pays per run — thread spawn, pattern-rewrite compilation, kernel
/// bytecode compilation, dataset materialization, tuning-artifact loads —
/// across the process lifetime:
///
///  * One ThreadPool, created at startup, serves every request (the
///    runtime/ThreadPool.h trap-containment contract is what makes that
///    safe: a trapped tenant drains cleanly and the pool stays reusable).
///  * A cache keyed by app name holds one CompiledProgram handle per app
///    (interp/Interp.h): the CompileResult, a cross-request
///    KernelReuseCache, the app's tuning DecisionTable when a dmll-tune
///    artifact is present, and the FNV-1a hash of the program's serialized
///    IR, reported as the response's key. Per scale the handle binds one
///    input set: the SoA-adapted inputs, the run tables (input reads,
///    fast-path facts, each closed loop's static work) and the flat columns
///    of the arrays those inputs own. The first request for an app is a
///    miss (compiles); every later one is a hit and runs bit-identically,
///    charging its budgets exactly as the first did.
///  * A cold build holds no lock but its key's own once-latch: concurrent
///    misses for one app (or one scale) share one build, and stats never
///    waits for one.
///  * Every request executes under run() with per-request ExecLimits, so a
///    trapping / over-deadline / over-budget tenant gets a structured error
///    response and the daemon keeps serving.
///  * Admission control: at most MaxQueue requests queued; overflow is
///    answered immediately with status "shed" instead of growing latency
///    unboundedly.
///
/// Request latency (accept to response, queue wait included) feeds the
/// `serve.request_ms` histogram and cache traffic the `serve.cache_hits` /
/// `serve.cache_misses` counters in the global MetricsRegistry, so the
/// whole telemetry plane (docs/TELEMETRY.md) observes the daemon for free.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_SERVICE_SERVE_H
#define DMLL_SERVICE_SERVE_H

#include "engine/Engine.h"
#include "interp/Interp.h"
#include "runtime/Cancel.h"
#include "service/Protocol.h"
#include "support/Once.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

namespace dmll {

class ThreadPool;

namespace service {

/// Daemon configuration.
struct ServerOptions {
  /// Listening port: 0 binds a kernel-assigned ephemeral port (read it
  /// back via boundPort()), > 0 a fixed one. Negative binds nothing — for
  /// stdio pipe mode and in-process tests that call handle() directly.
  int Port = 0;
  unsigned Threads = 4;    ///< persistent worker-pool size
  engine::EngineMode Mode = engine::EngineMode::Auto;
  int64_t MinChunk = 1024;
  /// Admission ceiling: requests queued beyond this are shed immediately.
  size_t MaxQueue = 16;
  /// Directory holding dmll-tune artifacts named <app>.tune; when an app
  /// has one, its DecisionTable steers every execution of that app.
  std::string TuneDir;
  /// Daemon-wide default resource ceilings; per-request limits override
  /// field-wise.
  ExecLimits DefaultLimits;
};

/// Point-in-time daemon counters (the `stats` command's payload).
struct ServerStats {
  int64_t Requests = 0;    ///< run requests executed (sheds excluded)
  int64_t Ok = 0;
  int64_t Failed = 0;      ///< trapped / deadline / budget / bad_request
  int64_t Shed = 0;
  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;
  size_t Programs = 0;     ///< compiled programs resident in the cache
};

/// The daemon. Lifecycle: construct, start() (binds + spawns the acceptor
/// and executor threads), wait() or client "shutdown", stop(), destroy.
/// handle() is the synchronous in-process entry the socket path, the stdio
/// path, and the tests all share.
class Server {
public:
  explicit Server(ServerOptions O);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the port (when Opts.Port >= 0) and spawns the acceptor +
  /// executor threads. False with \p Err on bind failure.
  bool start(std::string *Err = nullptr);

  /// The actually-bound listening port (the ephemeral answer when
  /// Opts.Port == 0); 0 when nothing is bound.
  int boundPort() const { return BoundPort; }

  /// Blocks until a shutdown request (client command or stop()) lands.
  void wait();

  /// Initiates shutdown and joins the threads. Idempotent; the destructor
  /// calls it too.
  void stop();

  /// True once a shutdown command landed (the signal loop in dmll-serve
  /// polls this between sleeps).
  bool stopping() const { return Stopping.load(); }

  /// Executes one request synchronously: control commands inline, run
  /// requests through the compiled-program cache + recoverable evaluator.
  /// Thread-safe (executions serialize on the daemon's single pool).
  Response handle(const Request &R);

  /// Pipe mode: serves length-prefixed frames from \p InFd / \p OutFd
  /// (stdin/stdout in dmll-serve --stdio) until EOF or a shutdown command.
  /// Returns 0 on clean EOF/shutdown, 1 on a framing error.
  int runStdio(int InFd = 0, int OutFd = 1);

  ServerStats stats() const;

private:
  struct Job {
    int Fd = -1;
    Request R;
    std::chrono::steady_clock::time_point T0;
  };

  Response handleFrom(const Request &R,
                      std::chrono::steady_clock::time_point T0);
  Response runRequest(const Request &R);
  Response statsResponse();
  void acceptorMain();
  void executorMain();
  void serveConnection(int Fd);

  ServerOptions Opts;
  int ListenFd = -1;
  int BoundPort = 0;
  std::unique_ptr<ThreadPool> Pool;

  std::atomic<bool> Running{false};
  std::atomic<bool> Stopping{false};
  std::thread Acceptor, Executor;

  std::mutex QMu;
  std::condition_variable QCv;
  std::deque<Job> Queue;

  std::mutex StopMu;
  std::condition_variable StopCv;

  mutable std::mutex CacheMu; ///< guards Cache (latch lookup/insert)
  std::mutex ExecMu;          ///< serializes executions on the one pool
  /// One handle per app, built by the first request that names it. Never
  /// evicted: the catalog is finite.
  std::map<std::string, std::unique_ptr<Once<CompiledProgram>>> Cache;

  std::atomic<int64_t> NRequests{0}, NOk{0}, NFailed{0}, NShed{0},
      NHits{0}, NMisses{0};
};

} // namespace service
} // namespace dmll

#endif // DMLL_SERVICE_SERVE_H
