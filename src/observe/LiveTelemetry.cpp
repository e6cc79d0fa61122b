//===- observe/LiveTelemetry.cpp -------------------------------*- C++ -*-===//

#include "observe/LiveTelemetry.h"

#include "support/Args.h"
#include "support/Net.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace dmll;

void dmll::splitMetricName(
    const std::string &Name, std::string &Base,
    std::vector<std::pair<std::string, std::string>> &Labels) {
  Labels.clear();
  size_t Bar = Name.find('|');
  Base = Name.substr(0, Bar);
  while (Bar != std::string::npos) {
    size_t Next = Name.find('|', Bar + 1);
    std::string Part = Name.substr(Bar + 1, Next == std::string::npos
                                                ? std::string::npos
                                                : Next - Bar - 1);
    size_t Eq = Part.find('=');
    if (Eq != std::string::npos)
      Labels.emplace_back(Part.substr(0, Eq), Part.substr(Eq + 1));
    Bar = Next;
  }
}

namespace {

/// `exec.loop_ms` -> `dmll_exec_loop_ms`; every character outside
/// [a-zA-Z0-9_] becomes '_'.
std::string promName(const std::string &Base) {
  std::string Out = "dmll_";
  for (char C : Base)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_')
               ? C
               : '_';
  return Out;
}

void promLabelValue(std::string &Out, const std::string &V) {
  for (char C : V) {
    if (C == '\\')
      Out += "\\\\";
    else if (C == '"')
      Out += "\\\"";
    else if (C == '\n')
      Out += "\\n";
    else
      Out += C;
  }
}

/// Renders `{k="v",...}` (plus \p Extra as a pre-rendered `k="v"` pair).
std::string
promLabels(const std::vector<std::pair<std::string, std::string>> &Labels,
           const std::string &Extra = {}) {
  if (Labels.empty() && Extra.empty())
    return "";
  std::string Out = "{";
  bool First = true;
  for (const auto &[K, V] : Labels) {
    if (!First)
      Out += ',';
    First = false;
    Out += K;
    Out += "=\"";
    promLabelValue(Out, V);
    Out += '"';
  }
  if (!Extra.empty()) {
    if (!First)
      Out += ',';
    Out += Extra;
  }
  Out += '}';
  return Out;
}

void promNum(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}

} // namespace

std::string dmll::renderPrometheus(const MetricsRegistry &R) {
  MetricsSnapshot S = R.snapshot();
  std::string Out;
  Out.reserve(4096);

  // Group label variants under their base family so the # TYPE line is
  // emitted once per family.
  auto ForFamilies = [](auto &Map, auto Fn) {
    std::map<std::string,
             std::vector<std::pair<
                 std::vector<std::pair<std::string, std::string>>,
                 const typename std::decay_t<decltype(Map)>::mapped_type *>>>
        Fam;
    for (const auto &[Name, V] : Map) {
      std::string Base;
      std::vector<std::pair<std::string, std::string>> Labels;
      splitMetricName(Name, Base, Labels);
      Fam[Base].emplace_back(std::move(Labels), &V);
    }
    for (const auto &[Base, Variants] : Fam)
      Fn(Base, Variants);
  };

  ForFamilies(S.Counters, [&](const std::string &Base, const auto &Vars) {
    std::string N = promName(Base) + "_total";
    Out += "# TYPE " + N + " counter\n";
    for (const auto &[Labels, V] : Vars) {
      Out += N + promLabels(Labels) + " ";
      Out += std::to_string(*V);
      Out += '\n';
    }
  });
  ForFamilies(S.Gauges, [&](const std::string &Base, const auto &Vars) {
    std::string N = promName(Base);
    Out += "# TYPE " + N + " gauge\n";
    for (const auto &[Labels, V] : Vars) {
      Out += N + promLabels(Labels) + " ";
      promNum(Out, *V);
      Out += '\n';
    }
  });
  ForFamilies(S.Histograms, [&](const std::string &Base, const auto &Vars) {
    std::string N = promName(Base);
    Out += "# TYPE " + N + " histogram\n";
    for (const auto &[Labels, HPtr] : Vars) {
      const HistogramSnapshot &H = *HPtr;
      int64_t Cum = 0;
      for (size_t I = 0; I <= H.Bounds.size(); ++I) {
        Cum += H.Counts[I];
        std::string Le = "le=\"";
        if (I < H.Bounds.size()) {
          promNum(Le, H.Bounds[I]);
        } else {
          Le += "+Inf";
        }
        Le += '"';
        Out += N + "_bucket" + promLabels(Labels, Le) + " ";
        Out += std::to_string(Cum);
        Out += '\n';
      }
      Out += N + "_sum" + promLabels(Labels) + " ";
      promNum(Out, H.Sum);
      Out += '\n';
      // _count repeats the +Inf cumulative rather than re-reading the
      // atomic count: mid-update snapshots then still satisfy the
      // histogram invariant _count == bucket{le="+Inf"}.
      Out += N + "_count" + promLabels(Labels) + " ";
      Out += std::to_string(Cum);
      Out += '\n';
    }
  });

  if (SamplingProfiler *P = SamplingProfiler::active()) {
    SamplingSummary Sum = P->summary();
    Out += "# TYPE dmll_sampler_period_ms gauge\n";
    Out += "dmll_sampler_period_ms ";
    promNum(Out, Sum.PeriodMs);
    Out += '\n';
    Out += "# TYPE dmll_sampler_ticks_total counter\ndmll_sampler_ticks_"
           "total " +
           std::to_string(Sum.Ticks) + "\n";
    Out += "# TYPE dmll_samples_idle_total counter\ndmll_samples_idle_"
           "total " +
           std::to_string(Sum.IdleSamples) + "\n";
    Out += "# TYPE dmll_samples_total counter\n";
    for (const auto &[Key, NSamples] : Sum.Stacks) {
      // Key is "<phase>" or "<phase>;<loop>".
      size_t Semi = Key.find(';');
      std::vector<std::pair<std::string, std::string>> Labels;
      Labels.emplace_back("phase", Key.substr(0, Semi));
      if (Semi != std::string::npos)
        Labels.emplace_back("loop", Key.substr(Semi + 1));
      Out += "dmll_samples_total" + promLabels(Labels) + " " +
             std::to_string(NSamples) + "\n";
    }
  }
  return Out;
}

std::string dmll::renderPrometheus() {
  return renderPrometheus(MetricsRegistry::global());
}

const PromSample *
PromSnapshot::find(const std::string &Name,
                   const std::map<std::string, std::string> &Labels) const {
  for (const PromSample &S : Samples)
    if (S.Name == Name && S.Labels == Labels)
      return &S;
  return nullptr;
}

bool dmll::parsePrometheus(const std::string &Text, PromSnapshot &Out,
                           std::string *Err) {
  Out.Samples.clear();
  Out.Types.clear();
  std::istringstream In(Text);
  std::string Line;
  int LineNo = 0;
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = "line " + std::to_string(LineNo) + ": " + Msg;
    return false;
  };
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    if (Line[0] == '#') {
      std::istringstream LS(Line);
      std::string Hash, What, Name, Type;
      LS >> Hash >> What >> Name >> Type;
      if (What == "TYPE") {
        if (Name.empty() || Type.empty())
          return Fail("malformed TYPE line");
        Out.Types[Name] = Type;
      }
      continue; // comments / HELP lines
    }
    PromSample S;
    size_t I = 0;
    while (I < Line.size() && Line[I] != '{' && Line[I] != ' ')
      ++I;
    S.Name = Line.substr(0, I);
    if (S.Name.empty())
      return Fail("missing metric name");
    if (I < Line.size() && Line[I] == '{') {
      ++I;
      while (I < Line.size() && Line[I] != '}') {
        size_t Eq = Line.find('=', I);
        if (Eq == std::string::npos || Eq + 1 >= Line.size() ||
            Line[Eq + 1] != '"')
          return Fail("malformed label in " + S.Name);
        std::string Key = Line.substr(I, Eq - I);
        std::string Val;
        size_t J = Eq + 2;
        while (J < Line.size() && Line[J] != '"') {
          if (Line[J] == '\\' && J + 1 < Line.size()) {
            char C = Line[J + 1];
            Val += C == 'n' ? '\n' : C;
            J += 2;
          } else {
            Val += Line[J++];
          }
        }
        if (J >= Line.size())
          return Fail("unterminated label value in " + S.Name);
        S.Labels[Key] = Val;
        I = J + 1;
        if (I < Line.size() && Line[I] == ',')
          ++I;
      }
      if (I >= Line.size())
        return Fail("unterminated label set in " + S.Name);
      ++I; // '}'
    }
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    if (I >= Line.size())
      return Fail("missing value for " + S.Name);
    std::string ValStr = Line.substr(I);
    if (ValStr == "+Inf") {
      S.Value = std::numeric_limits<double>::infinity();
    } else {
      try {
        S.Value = std::stod(ValStr);
      } catch (...) {
        return Fail("bad value \"" + ValStr + "\" for " + S.Name);
      }
    }
    Out.Samples.push_back(std::move(S));
  }
  return true;
}

std::vector<std::string> dmll::checkPrometheus(const std::string &Text) {
  std::vector<std::string> Problems;
  PromSnapshot Snap;
  std::string Err;
  if (!parsePrometheus(Text, Snap, &Err)) {
    Problems.push_back("parse error: " + Err);
    return Problems;
  }
  if (Snap.Samples.empty())
    Problems.push_back("no samples");
  auto Declared = [&](const std::string &Name) {
    if (Snap.Types.count(Name))
      return true;
    // histogram series share the family's TYPE declaration
    for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
      size_t L = std::strlen(Suffix);
      if (Name.size() > L &&
          Name.compare(Name.size() - L, L, Suffix) == 0 &&
          Snap.Types.count(Name.substr(0, Name.size() - L)))
        return true;
    }
    return false;
  };
  for (const PromSample &S : Snap.Samples) {
    // Legal metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
    bool LegalName = !S.Name.empty() &&
                     (std::isalpha(static_cast<unsigned char>(S.Name[0])) ||
                      S.Name[0] == '_' || S.Name[0] == ':');
    for (char C : S.Name)
      LegalName &= std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                   C == ':';
    if (!LegalName)
      Problems.push_back("illegal metric name \"" + S.Name + "\"");
    if (!Declared(S.Name))
      Problems.push_back("series " + S.Name + " has no # TYPE declaration");
  }
  // Histogram invariants per family and label set (minus `le`).
  for (const auto &[Family, Type] : Snap.Types) {
    if (Type != "histogram")
      continue;
    // Bucket rows keyed by their non-le labels.
    std::map<std::string, std::vector<std::pair<double, double>>> Buckets;
    std::map<std::string, double> Counts;
    auto LabelKey = [](const PromSample &S) {
      std::string K;
      for (const auto &[L, V] : S.Labels)
        if (L != "le")
          K += L + "=" + V + ",";
      return K;
    };
    for (const PromSample &S : Snap.Samples) {
      if (S.Name == Family + "_bucket") {
        auto It = S.Labels.find("le");
        if (It == S.Labels.end()) {
          Problems.push_back(Family + "_bucket row without le label");
          continue;
        }
        double Le = It->second == "+Inf"
                        ? std::numeric_limits<double>::infinity()
                        : std::stod(It->second);
        Buckets[LabelKey(S)].emplace_back(Le, S.Value);
      } else if (S.Name == Family + "_count") {
        Counts[LabelKey(S)] = S.Value;
      }
    }
    for (auto &[Key, Rows] : Buckets) {
      std::sort(Rows.begin(), Rows.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      double Prev = 0;
      for (const auto &[Le, N] : Rows) {
        if (N + 1e-9 < Prev)
          Problems.push_back(Family + "{" + Key +
                             "} buckets are not cumulative");
        Prev = N;
      }
      if (Rows.empty() || !std::isinf(Rows.back().first)) {
        Problems.push_back(Family + "{" + Key + "} lacks a +Inf bucket");
        continue;
      }
      auto CIt = Counts.find(Key);
      if (CIt == Counts.end())
        Problems.push_back(Family + "{" + Key + "} lacks a _count series");
      else if (CIt->second != Rows.back().second)
        Problems.push_back(Family + "{" + Key +
                           "} _count != +Inf bucket count");
    }
  }
  return Problems;
}

//===----------------------------------------------------------------------===//
// LiveSnapshotter
//===----------------------------------------------------------------------===//

LiveSnapshotter::LiveSnapshotter(Options O) : Opts(std::move(O)) {
  if (Opts.PeriodMs <= 0)
    Opts.PeriodMs = 200;
  // Port 0 binds a kernel-assigned ephemeral port (boundPort() reads it
  // back), so concurrent test processes never collide on a fixed number.
  if (Opts.Port >= 0)
    ListenFd = net::listenLoopback(Opts.Port, 8, &BoundPort);
}

LiveSnapshotter::~LiveSnapshotter() {
  stop();
  if (ListenFd >= 0)
    ::close(ListenFd);
}

void LiveSnapshotter::start() {
  if (Running.exchange(true, std::memory_order_acq_rel))
    return;
  Thread = std::thread([this] { threadMain(); });
}

void LiveSnapshotter::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  if (Thread.joinable())
    Thread.join();
  snapshotNow(); // the final state always lands on disk
}

std::string LiveSnapshotter::lastText() const {
  std::lock_guard<std::mutex> L(Mu);
  return Last;
}

void LiveSnapshotter::serve(const std::string &Text) {
  if (ListenFd < 0)
    return;
  // Drain every connection already queued; never block on accept.
  for (;;) {
    pollfd P{ListenFd, POLLIN, 0};
    if (::poll(&P, 1, 0) <= 0 || !(P.revents & POLLIN))
      return;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return;
    // Read the client's request before answering: closing with unread
    // bytes in the receive buffer can send RST, which makes scrapers drop
    // the body we already wrote.
    net::drainRequest(Fd);
    std::string Resp =
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n"
        "Content-Length: " +
        std::to_string(Text.size()) + "\r\n\r\n" + Text;
    // MSG_NOSIGNAL + EINTR retry inside sendAll: a client that vanished
    // mid-response is this connection's problem, never the process's
    // (no SIGPIPE), and never aborts serving the remaining queue.
    if (!net::sendAll(Fd, Resp))
      MetricsRegistry::global().counter("telemetry.client_abort").inc();
    ::close(Fd);
  }
}

void LiveSnapshotter::cycle() {
  std::string Text = renderPrometheus(MetricsRegistry::global());
  std::map<std::string, int64_t> Now =
      MetricsRegistry::global().snapshot().Counters;
  {
    std::lock_guard<std::mutex> L(Mu);
    Last = Text;
    // Delta record for the event log: every counter that moved since the
    // previous cycle.
    if (EventLog *EL = EventLog::active()) {
      std::string Fields = EventLog::num("snapshot", Count.load() + 1);
      int Moved = 0;
      for (const auto &[Name, V] : Now) {
        int64_t D = V - PrevCounters[Name];
        if (D != 0 && Moved < 23) {
          Fields += EventLog::num(Name, static_cast<double>(D));
          ++Moved;
        }
      }
      if (Moved > 0 || PrevCounters.empty())
        EL->emit(EventKind::MetricsSnapshot, Fields);
    }
    PrevCounters = std::move(Now);
  }
  if (!Opts.Path.empty()) {
    // Atomic replace: tailers and dmll-top never observe a torn file.
    std::string Tmp = Opts.Path + ".tmp";
    std::ofstream Out(Tmp, std::ios::binary);
    if (Out) {
      Out << Text;
      Out.close();
      if (Out)
        std::rename(Tmp.c_str(), Opts.Path.c_str());
    }
  }
  serve(Text);
  Count.fetch_add(1, std::memory_order_relaxed);
}

void LiveSnapshotter::snapshotNow() { cycle(); }

void LiveSnapshotter::threadMain() {
  using Clock = std::chrono::steady_clock;
  auto Period = std::chrono::duration<double, std::milli>(Opts.PeriodMs);
  while (Running.load(std::memory_order_acquire)) {
    auto Deadline = Clock::now() + Period;
    cycle();
    // Sleep in short slices so the endpoint answers promptly and stop()
    // does not wait a full period.
    while (Running.load(std::memory_order_acquire) &&
           Clock::now() < Deadline) {
      if (ListenFd >= 0) {
        pollfd P{ListenFd, POLLIN, 0};
        auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        Deadline - Clock::now())
                        .count();
        if (::poll(&P, 1, static_cast<int>(std::clamp<long long>(
                              Left, 1, 50))) > 0 &&
            (P.revents & POLLIN))
          serve(lastText());
      } else {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(
                std::min(50.0, Opts.PeriodMs)));
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// CLI wiring
//===----------------------------------------------------------------------===//

TelemetryCli dmll::telemetryCliArgs(int Argc, char **Argv) {
  TelemetryCli C;
  C.MetricsOut = flagValue(Argc, Argv, "metrics-out");
  C.MetricsLive = flagValue(Argc, Argv, "metrics-live");
  C.EventsOut = flagValue(Argc, Argv, "events-out");
  C.SampleOut = flagValue(Argc, Argv, "sample-out");
  std::string Port = flagValue(Argc, Argv, "metrics-port");
  if (!Port.empty())
    C.Port = std::atoi(Port.c_str());
  for (int I = 1; I < Argc; ++I)
    C.Sample |= std::strcmp(Argv[I], "--sample") == 0;
  C.Sample |= !C.SampleOut.empty();
  return C;
}

TelemetryScope::TelemetryScope(const TelemetryCli &C) : Cli(C) {
  if (!Cli.EventsOut.empty()) {
    Log = std::make_unique<EventLog>(Cli.EventsOut);
    if (Log->ok())
      LogAct = std::make_unique<EventLogActivation>(*Log);
    else
      std::fprintf(stderr, "telemetry: cannot open event log %s\n",
                   Cli.EventsOut.c_str());
  }
  if (Cli.Sample) {
    Prof = std::make_unique<SamplingProfiler>(Cli.SamplePeriodMs);
    ProfAct = std::make_unique<SamplerActivation>(*Prof);
  }
  if (!Cli.MetricsLive.empty() || Cli.Port >= 0) {
    LiveSnapshotter::Options O;
    O.PeriodMs = Cli.LivePeriodMs;
    O.Path = Cli.MetricsLive;
    O.Port = Cli.Port;
    Snap = std::make_unique<LiveSnapshotter>(O);
    Snap->start();
    // An ephemeral bind is useless unless someone can learn the port.
    if (Cli.Port == 0 && Snap->boundPort() > 0)
      std::fprintf(stderr, "telemetry: serving metrics on 127.0.0.1:%d\n",
                   Snap->boundPort());
  }
}

TelemetryScope::~TelemetryScope() {
  // Final outputs first, while the sampler is still active (so --metrics-out
  // includes the dmll_samples_total series) and the event log still open.
  if (Snap)
    Snap->stop();
  if (!Cli.MetricsOut.empty()) {
    std::ofstream Out(Cli.MetricsOut, std::ios::binary);
    if (Out)
      Out << renderPrometheus(MetricsRegistry::global());
    else
      std::fprintf(stderr, "telemetry: cannot write %s\n",
                   Cli.MetricsOut.c_str());
  }
  if (Prof && !Cli.SampleOut.empty() &&
      !Prof->writeCollapsed(Cli.SampleOut))
    std::fprintf(stderr, "telemetry: cannot write %s\n",
                 Cli.SampleOut.c_str());
  // Members tear down in reverse declaration order: snapshotter, sampler
  // activation, sampler, log activation, log.
}
