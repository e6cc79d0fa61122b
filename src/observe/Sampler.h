//===- observe/Sampler.h - Low-overhead sampling profiler ------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A timer-driven sampling profiler (docs/TELEMETRY.md, "The sampling
/// profiler") that attributes wall time to the (phase, loop signature) each
/// thread is executing without unwinding native stacks: instrumented code
/// publishes its position into a per-thread SampleSlot (two relaxed pointer
/// stores per scope, into strings interned for the process lifetime), and a
/// background thread reads every live slot each period and bumps a bucket.
/// Buckets export as flamegraph-ready collapsed stacks, as
/// `dmll_samples_total` series, and as the per-run delta executeProgram puts
/// on the ExecutionReport.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_OBSERVE_SAMPLER_H
#define DMLL_OBSERVE_SAMPLER_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dmll {

/// Per-thread publication slot the sampler thread reads. Slots live in a
/// process-wide registry and are never deallocated; a thread that exits
/// releases its slot for reuse.
struct SampleSlot {
  std::atomic<const char *> Phase{nullptr}; ///< static phase literal
  std::atomic<const char *> Loop{nullptr};  ///< interned loop signature
  std::atomic<bool> InUse{false};
};

/// Interns \p S into the process-lifetime loop-name table and returns a
/// stable pointer (the sampler reads these from another thread, so the
/// storage must never move or free).
const char *internSampleName(const std::string &S);

/// RAII publication of (phase, loop) into the calling thread's slot.
/// \p Phase must be a string with static storage duration; \p Loop must be
/// null or an internSampleName pointer. Null \p Loop keeps the enclosing
/// scope's loop (chunk bodies nest inside their loop's scope on the driver
/// but start fresh on pool workers, where they publish the loop
/// themselves). Restores the previous values on destruction.
class SampleScope {
public:
  SampleScope(const char *Phase, const char *Loop);
  ~SampleScope();
  SampleScope(const SampleScope &) = delete;
  SampleScope &operator=(const SampleScope &) = delete;

private:
  SampleSlot *S;
  const char *PrevPhase = nullptr;
  const char *PrevLoop = nullptr;
};

/// Aggregated sampling results; Stacks pairs are ("<phase>;<loop>", count)
/// with ";<loop>" omitted when no loop was published, sorted by key.
struct SamplingSummary {
  bool Enabled = false;
  double PeriodMs = 0;
  int64_t Ticks = 0;       ///< sampler wakeups
  int64_t Samples = 0;     ///< busy samples (a thread inside a phase)
  int64_t IdleSamples = 0; ///< registered threads outside any phase
  std::vector<std::pair<std::string, int64_t>> Stacks;
};

/// Busy-stack delta \p After - \p Before (counts clamp at zero; Ticks /
/// Samples / IdleSamples subtract).
SamplingSummary samplingDelta(const SamplingSummary &Before,
                              const SamplingSummary &After);

/// The sampling profiler. Construct with a period, activate with
/// SamplerActivation (which starts the thread), read summaries at any time.
class SamplingProfiler {
public:
  explicit SamplingProfiler(double PeriodMs = 1.0);
  ~SamplingProfiler();

  void start();
  void stop();

  /// Snapshot of the aggregate so far; safe while running.
  SamplingSummary summary() const;

  /// Collapsed-stack rendering of summary() — one "dmll;<phase>;<loop> N"
  /// line per bucket plus a "dmll;(idle) N" line, flamegraph.pl input.
  std::string collapsed() const;
  bool writeCollapsed(const std::string &Path) const;

  /// The process-wide active profiler, or null. Set by SamplerActivation.
  static SamplingProfiler *active();

private:
  friend class SamplerActivation;
  void threadMain();

  double Period;
  std::atomic<bool> Running{false};
  std::thread Thread;
  mutable std::mutex Mu; ///< guards Buckets/Ticks/Samples/Idle
  std::map<std::pair<const char *, const char *>, int64_t> Buckets;
  int64_t Ticks = 0;
  int64_t Samples = 0;
  int64_t Idle = 0;
};

/// RAII: installs \p P as the process-wide profiler and starts its sampling
/// thread; stops it and restores the previous profiler on destruction.
class SamplerActivation {
public:
  explicit SamplerActivation(SamplingProfiler &P);
  ~SamplerActivation();

private:
  SamplingProfiler *Prev;
  SamplingProfiler &Mine;
};

} // namespace dmll

#endif // DMLL_OBSERVE_SAMPLER_H
