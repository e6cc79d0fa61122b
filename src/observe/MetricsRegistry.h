//===- observe/MetricsRegistry.h - Process-wide metrics --------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named instruments — monotonic counters,
/// last-write gauges, fixed-bucket histograms — that the runtime feeds as it
/// executes (docs/TELEMETRY.md, "The metrics registry"). Instruments are
/// created on first use and updated lock-free; creation and lookup take the
/// registry mutex, so hot paths resolve their instrument once (the loop
/// telemetry caches its handles per loop signature, observe/Metrics.h).
/// Names are dotted lowercase `<area>.<what>`, `_ms` on time-valued
/// histograms, and may carry `|key=value` label suffixes
/// (`exec.loop_ms|loop=Multiloop[Reduce]|engine=kernel`): the profile's
/// "metrics" section keeps them verbatim, the Prometheus renderer
/// (observe/LiveTelemetry.h) turns them into label sets.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_OBSERVE_METRICSREGISTRY_H
#define DMLL_OBSERVE_METRICSREGISTRY_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dmll {

/// Monotonic event count.
class MetricCounter {
public:
  void inc(int64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  int64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// Last-written value (e.g. "threads in the current run").
class MetricGauge {
public:
  void set(double X) { V.store(X, std::memory_order_relaxed); }
  double value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<double> V{0};
};

/// Fixed-bucket histogram: bucket I counts observations <= Bounds[I], the
/// last implicit bucket counts the rest (+inf). Bounds are set at creation
/// and never change, so concurrent observers touch only atomics.
class MetricHistogram {
public:
  explicit MetricHistogram(std::vector<double> UpperBounds);

  void observe(double X);

  const std::vector<double> &bounds() const { return Bounds; }
  /// Count in bucket \p I (I == bounds().size() is the +inf bucket).
  int64_t bucketCount(size_t I) const;
  int64_t count() const { return N.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  double mean() const;

private:
  std::vector<double> Bounds;
  std::unique_ptr<std::atomic<int64_t>[]> Counts; ///< Bounds.size() + 1
  std::atomic<int64_t> N{0};
  std::atomic<double> Sum{0};
};

/// Default bucket bounds for millisecond-valued latency histograms:
/// 0.005ms .. 5000ms in a 1-2.5-5 ladder.
const std::vector<double> &latencyBucketsMs();

/// Point-in-time copy of one histogram: per-bucket counts (last entry is
/// the +inf bucket), observation count, and sum.
struct HistogramSnapshot {
  std::vector<double> Bounds;
  std::vector<int64_t> Counts; ///< Bounds.size() + 1 entries
  int64_t Count = 0;
  double Sum = 0;
};

/// Quantile estimate from a histogram snapshot, Prometheus
/// histogram_quantile style: linear interpolation inside the first bucket
/// whose cumulative count reaches \p Q * total. \p Q in [0, 1]; returns 0
/// for an empty histogram. Observations in the +inf bucket clamp to the
/// last finite bound (there is nothing to interpolate against). This is
/// what `serve.request_ms` p50/p99 are computed from (docs/SERVICE.md).
double histogramQuantile(const HistogramSnapshot &H, double Q);

/// Point-in-time copy of every instrument, for exporters that iterate the
/// registry off the hot path (Prometheus rendering, snapshot deltas).
struct MetricsSnapshot {
  std::map<std::string, int64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, HistogramSnapshot> Histograms;
};

/// The registry. One process-wide instance (global()); tests may construct
/// private instances. Instrument references remain valid for the
/// registry's lifetime, reset() included.
class MetricsRegistry {
public:
  static MetricsRegistry &global();

  MetricCounter &counter(const std::string &Name);
  MetricGauge &gauge(const std::string &Name);
  /// Returns the named histogram, creating it with \p UpperBounds (or the
  /// latency default) on first use. Later calls ignore the bounds argument.
  MetricHistogram &histogram(const std::string &Name,
                             const std::vector<double> &UpperBounds = {});

  /// Copies every instrument's current value (takes the registry mutex;
  /// concurrent observers proceed lock-free).
  MetricsSnapshot snapshot() const;

  /// The "metrics" JSON object: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count":..,"sum":..,"buckets":[{"le":..,"count":..}
  /// ...]}}}. Bucket rows are cumulative (Prometheus-style: each row counts
  /// observations <= its bound); the last row's "le" is "inf" and its count
  /// is the total observation count.
  std::string renderJson() const;

  /// Test isolation: drops every instrument (names repopulate on next use)
  /// and bumps generation(). Dropped instruments stay allocated, so cached
  /// references stay safe; caches compare generation() to re-resolve.
  void reset();

  /// Number of reset() calls so far.
  uint64_t generation() const { return Gen.load(std::memory_order_acquire); }

private:
  mutable std::mutex Mu;
  std::atomic<uint64_t> Gen{0};
  std::vector<std::shared_ptr<void>> Retired; ///< instruments reset() dropped
  std::map<std::string, std::unique_ptr<MetricCounter>> Counters;
  std::map<std::string, std::unique_ptr<MetricGauge>> Gauges;
  std::map<std::string, std::unique_ptr<MetricHistogram>> Histograms;
};

} // namespace dmll

#endif // DMLL_OBSERVE_METRICSREGISTRY_H
