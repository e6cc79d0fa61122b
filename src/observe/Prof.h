//===- observe/Prof.h - Per-thread hardware counter probes -----*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread hardware counter probes (docs/TELEMETRY.md, "Hardware
/// counters"): each executor thread owns a lazily opened `perf_event_open`
/// group (cycles, instructions, LLC misses, branch misses) read with one
/// syscall per probe. Without hardware events — no PMU in the VM, a
/// restrictive perf_event_paranoid, non-Linux hosts — probes keep only the
/// portable getrusage half (CPU time, page faults, context switches), and
/// CounterSample::Hw tells consumers which half to trust.
///
/// Usage is snapshot-subtract: the delta of two `ThreadCounters::now()`
/// readings brackets a region. The loop observation (observe/Metrics.h)
/// brackets each closed loop on the driver thread and ThreadPool each chunk
/// body on its worker, so a parallel loop's counters sum real per-chunk
/// work.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_OBSERVE_PROF_H
#define DMLL_OBSERVE_PROF_H

#include <cstdint>
#include <string>

namespace dmll {

/// One cumulative (or, after subtraction, interval) counter reading for a
/// single thread. The rusage-derived fields are always populated on Linux;
/// the four hardware fields are meaningful only when Hw is true.
struct CounterSample {
  bool Hw = false; ///< hardware counter fields are valid
  int64_t Cycles = 0;
  int64_t Instructions = 0;
  int64_t LlcMisses = 0;
  int64_t BranchMisses = 0;
  // Portable fallback (also populated alongside hardware counters).
  double UserMs = 0; ///< per-thread user CPU time
  double SysMs = 0;  ///< per-thread system CPU time
  int64_t MinorFaults = 0;
  int64_t MajorFaults = 0;
  int64_t CtxSwitches = 0; ///< voluntary + involuntary

  /// Interval between two cumulative snapshots (this - Earlier). Hw only if
  /// both sides carried hardware values.
  CounterSample operator-(const CounterSample &Earlier) const;

  /// Accumulates another interval into this one. Hw degrades to false if
  /// either side lacks hardware values while the other has any (mixed
  /// sums would silently undercount).
  void add(const CounterSample &O);

  /// Instructions per cycle; 0 when not meaningful.
  double ipc() const {
    return Hw && Cycles > 0
               ? static_cast<double>(Instructions) / static_cast<double>(Cycles)
               : 0.0;
  }
};

/// Per-thread counter access. The first now() on a thread opens that
/// thread's perf event group (or records that none is available); the group
/// is closed when the thread exits.
class ThreadCounters {
public:
  /// Cumulative readings for the calling thread since its first probe.
  static CounterSample now();

  /// True if this process can open the hardware event group (checked once,
  /// on the first thread to ask). False means every sample is
  /// fallback-only.
  static bool hardwareAvailable();
};

/// One-line description of the active counter source for reports:
/// "perf_event(cycles,instructions,llc-misses,branch-misses)" or
/// "fallback(getrusage)".
std::string counterSourceName();

} // namespace dmll

#endif // DMLL_OBSERVE_PROF_H
