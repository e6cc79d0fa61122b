//===- observe/MetricsRegistry.cpp -----------------------------*- C++ -*-===//

#include "observe/MetricsRegistry.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

using namespace dmll;

MetricHistogram::MetricHistogram(std::vector<double> UpperBounds)
    : Bounds(std::move(UpperBounds)),
      Counts(new std::atomic<int64_t>[Bounds.size() + 1]) {
  for (size_t I = 0; I <= Bounds.size(); ++I)
    Counts[I].store(0, std::memory_order_relaxed);
}

void MetricHistogram::observe(double X) {
  size_t I = std::lower_bound(Bounds.begin(), Bounds.end(), X) -
             Bounds.begin();
  Counts[I].fetch_add(1, std::memory_order_relaxed);
  N.fetch_add(1, std::memory_order_relaxed);
  // C++20 atomic<double>::fetch_add.
  Sum.fetch_add(X, std::memory_order_relaxed);
}

int64_t MetricHistogram::bucketCount(size_t I) const {
  return I <= Bounds.size() ? Counts[I].load(std::memory_order_relaxed) : 0;
}

double MetricHistogram::mean() const {
  int64_t C = count();
  return C > 0 ? sum() / static_cast<double>(C) : 0.0;
}

const std::vector<double> &dmll::latencyBucketsMs() {
  static const std::vector<double> B = {
      0.005, 0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,
      2.5,   5.0,  10.0,  25.0, 50.0, 100,  250,  500,
      1000,  2500, 5000};
  return B;
}

MetricsRegistry &MetricsRegistry::global() {
  static MetricsRegistry R;
  return R;
}

MetricCounter &MetricsRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<MetricCounter>();
  return *Slot;
}

MetricGauge &MetricsRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> L(Mu);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<MetricGauge>();
  return *Slot;
}

MetricHistogram &
MetricsRegistry::histogram(const std::string &Name,
                           const std::vector<double> &UpperBounds) {
  std::lock_guard<std::mutex> L(Mu);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<MetricHistogram>(
        UpperBounds.empty() ? latencyBucketsMs() : UpperBounds);
  return *Slot;
}

namespace {

void jsonNum(std::ostringstream &OS, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%g", V);
  OS << Buf;
}

} // namespace

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> L(Mu);
  MetricsSnapshot S;
  for (const auto &[Name, C] : Counters)
    S.Counters[Name] = C->value();
  for (const auto &[Name, G] : Gauges)
    S.Gauges[Name] = G->value();
  for (const auto &[Name, H] : Histograms) {
    HistogramSnapshot &HS = S.Histograms[Name];
    HS.Bounds = H->bounds();
    HS.Counts.resize(HS.Bounds.size() + 1);
    for (size_t I = 0; I <= HS.Bounds.size(); ++I)
      HS.Counts[I] = H->bucketCount(I);
    HS.Count = H->count();
    HS.Sum = H->sum();
  }
  return S;
}

std::string MetricsRegistry::renderJson() const {
  std::lock_guard<std::mutex> L(Mu);
  std::ostringstream OS;
  OS << "{\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    OS << (First ? "" : ",") << json::quote(Name) << ":" << C->value();
    First = false;
  }
  OS << "},\"gauges\":{";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    OS << (First ? "" : ",") << json::quote(Name) << ":";
    jsonNum(OS, G->value());
    First = false;
  }
  OS << "},\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    OS << (First ? "" : ",") << json::quote(Name)
       << ":{\"count\":" << H->count() << ",\"sum\":";
    jsonNum(OS, H->sum());
    OS << ",\"buckets\":[";
    // Cumulative rows, Prometheus-style: each row counts observations <=
    // its bound, and the final "inf" row is the total — what exposition
    // consumers (and dmll-prof) expect from a histogram.
    const std::vector<double> &B = H->bounds();
    int64_t Cum = 0;
    for (size_t I = 0; I <= B.size(); ++I) {
      Cum += H->bucketCount(I);
      OS << (I ? "," : "") << "{\"le\":";
      if (I < B.size())
        jsonNum(OS, B[I]);
      else
        OS << "\"inf\"";
      OS << ",\"count\":" << Cum << "}";
    }
    OS << "]}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> L(Mu);
  auto Retire = [&](auto &Map) {
    for (auto &[Name, I] : Map)
      Retired.emplace_back(std::move(I));
    Map.clear();
  };
  Retire(Counters);
  Retire(Gauges);
  Retire(Histograms);
  Gen.fetch_add(1, std::memory_order_release);
}

double dmll::histogramQuantile(const HistogramSnapshot &H, double Q) {
  if (H.Counts.empty())
    return 0;
  int64_t Total = 0;
  for (int64_t C : H.Counts)
    Total += C;
  if (Total <= 0)
    return 0;
  double Rank = Q * static_cast<double>(Total);
  double PrevBound = 0;
  int64_t Cum = 0;
  for (size_t I = 0; I < H.Counts.size(); ++I) {
    int64_t Prev = Cum;
    Cum += H.Counts[I];
    if (static_cast<double>(Cum) < Rank) {
      if (I < H.Bounds.size())
        PrevBound = H.Bounds[I];
      continue;
    }
    if (I >= H.Bounds.size())
      return PrevBound; // +inf bucket: clamp to the last finite bound
    double Bound = H.Bounds[I];
    int64_t InBucket = Cum - Prev;
    if (InBucket <= 0)
      return Bound;
    double Frac = (Rank - static_cast<double>(Prev)) /
                  static_cast<double>(InBucket);
    return PrevBound + (Bound - PrevBound) * Frac;
  }
  return PrevBound;
}
