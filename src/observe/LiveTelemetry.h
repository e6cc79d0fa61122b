//===- observe/LiveTelemetry.h - Snapshotter + Prometheus ------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The live half of the telemetry plane (docs/TELEMETRY.md): the Prometheus
/// text rendering of the MetricsRegistry (registry `|key=value` suffixes
/// become label sets) plus the active sampler's buckets, a parser and format
/// checker for it (dmll-top, the tests, telemetry_smoke), the LiveSnapshotter
/// thread that writes it to a file (atomic tmp+rename), serves it on an
/// optional localhost endpoint and appends counter deltas to the event log,
/// and TelemetryCli/TelemetryScope, the shared command-line flags
/// (--metrics-out/--metrics-live/--metrics-port/--events-out/--sample/
/// --sample-out) of quickstart, the benches and dmll-serve.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_OBSERVE_LIVETELEMETRY_H
#define DMLL_OBSERVE_LIVETELEMETRY_H

#include "observe/Events.h"
#include "observe/MetricsRegistry.h"
#include "observe/Sampler.h"

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace dmll {

/// Splits a registry instrument name into its base and `|key=value` labels.
void splitMetricName(const std::string &Name, std::string &Base,
                     std::vector<std::pair<std::string, std::string>> &Labels);

/// Renders \p R (and the active SamplingProfiler's buckets, if any) in
/// Prometheus text exposition format. `_count` repeats the `+Inf` bucket,
/// so a snapshot taken mid-update still satisfies the histogram invariant.
std::string renderPrometheus(const MetricsRegistry &R);
/// The process-global registry's exposition.
std::string renderPrometheus();

/// One parsed exposition sample.
struct PromSample {
  std::string Name; ///< full series name (e.g. dmll_exec_loop_ms_bucket)
  std::map<std::string, std::string> Labels;
  double Value = 0;
};

/// A parsed exposition document.
struct PromSnapshot {
  std::vector<PromSample> Samples;
  std::map<std::string, std::string> Types; ///< # TYPE name -> type

  /// First sample with \p Name and exactly \p Labels, or nullptr.
  const PromSample *
  find(const std::string &Name,
       const std::map<std::string, std::string> &Labels) const;
};

/// Parses exposition text; false (with \p Err set) on malformed lines.
bool parsePrometheus(const std::string &Text, PromSnapshot &Out,
                     std::string *Err = nullptr);

/// Format sanity check: parses \p Text and verifies every series name is
/// legal, every sample's family is TYPE-declared, and every histogram's
/// buckets are cumulative, end in a `+Inf` row, and agree with `_count`.
/// Returns human-readable problems (empty = pass).
std::vector<std::string> checkPrometheus(const std::string &Text);

/// Background metrics snapshotter: a thread that renders the exposition
/// every period, atomically replaces \p Path (if set), answers HTTP GETs on
/// 127.0.0.1:\p Port (if requested; MSG_NOSIGNAL writes and a drained
/// request keep misbehaving clients harmless, support/Net.h), and appends a
/// metrics.snapshot delta event per cycle to the active EventLog.
class LiveSnapshotter {
public:
  struct Options {
    double PeriodMs = 200;
    std::string Path; ///< exposition file; empty writes no file
    /// Localhost TCP endpoint: a fixed port, or 0 to bind a kernel-assigned
    /// ephemeral port (read it back via boundPort() — this is what keeps
    /// parallel test runs from racing on port collisions). Negative serves
    /// nothing.
    int Port = -1;
  };

  explicit LiveSnapshotter(Options O);
  ~LiveSnapshotter();

  void start();
  void stop(); ///< takes one final snapshot before joining

  /// Forces one snapshot cycle from the calling thread.
  void snapshotNow();

  int64_t snapshots() const { return Count.load(std::memory_order_relaxed); }
  /// The most recently rendered exposition text.
  std::string lastText() const;
  /// The configured port (Options::Port, -1 when no endpoint was asked).
  int port() const { return Opts.Port; }
  /// The actually-bound endpoint port: equals port() for a fixed bind, the
  /// kernel-assigned port for Options::Port == 0, and 0 when there is no
  /// live endpoint (none requested, or the bind failed).
  int boundPort() const { return BoundPort; }

private:
  void cycle();
  void threadMain();
  void serve(const std::string &Text);

  Options Opts;
  std::atomic<bool> Running{false};
  std::thread Thread;
  std::atomic<int64_t> Count{0};
  mutable std::mutex Mu; ///< serializes cycles; guards Last/PrevCounters
  std::string Last;
  std::map<std::string, int64_t> PrevCounters;
  int ListenFd = -1;
  int BoundPort = 0; ///< set once in the constructor, then read-only
};

/// The shared telemetry flags: --metrics-out F (final exposition at exit),
/// --metrics-live F (snapshotter file), --metrics-port N (endpoint; 0 binds
/// an ephemeral port and prints it), --events-out F, --sample, and
/// --sample-out F (collapsed stacks at exit; implies --sample).
struct TelemetryCli {
  std::string MetricsOut, MetricsLive, EventsOut, SampleOut;
  bool Sample = false;
  /// -1: no endpoint requested; 0: ephemeral; >0: fixed port.
  int Port = -1;
  /// 50 Hz: each tick costs a saturated host ~100-200us (the wakeup preempts
  /// a worker), so this keeps overhead near half the 2% telemetry budget.
  double SamplePeriodMs = 20;
  double LivePeriodMs = 100;

  bool any() const {
    return !MetricsOut.empty() || !MetricsLive.empty() ||
           !EventsOut.empty() || !SampleOut.empty() || Sample || Port >= 0;
  }
};

/// Parses the flags above out of argv (leaving unrelated flags alone).
TelemetryCli telemetryCliArgs(int Argc, char **Argv);

/// RAII wiring for TelemetryCli: activates the event log, the sampling
/// profiler, and the snapshotter on construction; on destruction writes the
/// final --metrics-out snapshot and --sample-out collapsed stacks, then
/// tears everything down (the snapshotter takes a last snapshot while the
/// sampler is still live).
class TelemetryScope {
public:
  explicit TelemetryScope(const TelemetryCli &C);
  ~TelemetryScope();

  SamplingProfiler *profiler() { return Prof.get(); }
  LiveSnapshotter *snapshotter() { return Snap.get(); }
  EventLog *events() { return Log.get(); }

private:
  TelemetryCli Cli;
  std::unique_ptr<EventLog> Log;
  std::unique_ptr<EventLogActivation> LogAct;
  std::unique_ptr<SamplingProfiler> Prof;
  std::unique_ptr<SamplerActivation> ProfAct;
  std::unique_ptr<LiveSnapshotter> Snap;
};

} // namespace dmll

#endif // DMLL_OBSERVE_LIVETELEMETRY_H
