//===- tune/TuneProfile.cpp ------------------------------------*- C++ -*-===//

#include "tune/TuneProfile.h"

#include "support/Json.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace dmll;
using namespace dmll::tune;

namespace {

/// %.17g: enough digits that std::stod reproduces the exact double, so a
/// parse/render round trip of the artifact is byte-identical.
void jsonDouble(std::ostringstream &OS, double X) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", X);
  OS << Buf;
}

uint64_t fnv1a(uint64_t H, const char *S) {
  for (; *S; ++S) {
    H ^= static_cast<unsigned char>(*S);
    H *= 1099511628211ull;
  }
  return H;
}

} // namespace

DecisionTable TuningProfile::decisions() const {
  DecisionTable T;
  for (const LoopTuneEntry &E : Loops)
    if (!E.D.isDefault())
      T.set(E.Loop, E.D);
  return T;
}

std::string dmll::tune::sizeEnvFingerprint(const SizeEnv &Env) {
  uint64_t H = 1469598103934665603ull;
  char Buf[64];
  for (const auto &[K, V] : Env.Scalars) {
    H = fnv1a(H, K.c_str());
    std::snprintf(Buf, sizeof(Buf), "=%.6g;", V);
    H = fnv1a(H, Buf);
  }
  for (const auto &[K, V] : Env.ArrayLens) {
    H = fnv1a(H, K.c_str());
    std::snprintf(Buf, sizeof(Buf), "#%.6g;", V);
    H = fnv1a(H, Buf);
  }
  std::snprintf(Buf, sizeof(Buf), "h%.6g/s%.6g", Env.HashKeys,
                Env.Selectivity);
  H = fnv1a(H, Buf);
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

std::string dmll::tune::renderTuningProfile(const TuningProfile &TP) {
  std::ostringstream OS;
  OS << "{\n\"schema\":\"dmll-tune-v1\",\n\"app\":" << json::quote(TP.App)
     << ",\n\"threads\":" << TP.Threads << ",\n\"min_chunk\":" << TP.MinChunk
     << ",\n\"mode\":" << json::quote(TP.Mode)
     << ",\n\"fingerprint\":" << json::quote(TP.Fingerprint)
     << ",\n\"baseline_ms\":";
  jsonDouble(OS, TP.BaselineMs);
  OS << ",\n\"tuned_ms\":";
  jsonDouble(OS, TP.TunedMs);
  OS << ",\n\"candidates\":" << TP.Candidates
     << ",\n\"measure_runs\":" << TP.MeasureRuns;
  OS << ",\n\"loops\":[";
  bool First = true;
  for (const LoopTuneEntry &E : TP.Loops) {
    if (!First)
      OS << ",";
    First = false;
    OS << "\n{\"loop\":" << json::quote(E.Loop)
       << ",\"engine\":" << json::quote(loopEngineName(E.D.Engine))
       << ",\"threads\":" << E.D.Threads << ",\"min_chunk\":" << E.D.MinChunk
       << ",\"wide\":" << E.D.Wide
       << ",\"no_horizontal_fuse\":" << (E.D.NoHorizontalFuse ? "true" : "false")
       << ",\"no_loop_transforms\":" << (E.D.NoLoopTransforms ? "true" : "false")
       << ",\"baseline_ms\":";
    jsonDouble(OS, E.BaselineMs);
    OS << ",\"predicted_ms\":";
    jsonDouble(OS, E.PredictedMs);
    OS << ",\"measured_ms\":";
    jsonDouble(OS, E.MeasuredMs);
    OS << "}";
  }
  OS << "\n]\n}\n";
  return OS.str();
}

bool dmll::tune::parseTuningProfile(const std::string &Text,
                                    TuningProfile &Out) {
  json::JValue Doc;
  if (!json::parse(Text, Doc) || Doc.K != json::JValue::Object)
    return false;
  if (Doc.strField("schema") != "dmll-tune-v1")
    return false;
  Out = TuningProfile();
  Out.App = Doc.strField("app");
  Out.Threads = static_cast<unsigned>(Doc.numField("threads"));
  Out.MinChunk = static_cast<int64_t>(Doc.numField("min_chunk"));
  Out.Mode = Doc.strField("mode");
  Out.Fingerprint = Doc.strField("fingerprint");
  Out.BaselineMs = Doc.numField("baseline_ms");
  Out.TunedMs = Doc.numField("tuned_ms");
  Out.Candidates = static_cast<int>(Doc.numField("candidates"));
  Out.MeasureRuns = static_cast<int>(Doc.numField("measure_runs"));
  const json::JValue *Loops = Doc.field("loops");
  if (!Loops || Loops->K != json::JValue::Array)
    return false;
  for (const json::JValue &L : Loops->Arr) {
    if (L.K != json::JValue::Object)
      return false;
    LoopTuneEntry E;
    E.Loop = L.strField("loop");
    if (E.Loop.empty())
      return false;
    E.D.Engine = parseLoopEngine(L.strField("engine"));
    E.D.Threads = static_cast<unsigned>(L.numField("threads"));
    E.D.MinChunk = static_cast<int64_t>(L.numField("min_chunk"));
    E.D.Wide = static_cast<int>(L.numField("wide", -1));
    const json::JValue *NH = L.field("no_horizontal_fuse");
    E.D.NoHorizontalFuse = NH && NH->K == json::JValue::Bool && NH->B;
    const json::JValue *NT = L.field("no_loop_transforms");
    E.D.NoLoopTransforms = NT && NT->K == json::JValue::Bool && NT->B;
    E.BaselineMs = L.numField("baseline_ms");
    E.PredictedMs = L.numField("predicted_ms");
    E.MeasuredMs = L.numField("measured_ms");
    Out.Loops.push_back(std::move(E));
  }
  return true;
}

bool dmll::tune::writeTuningProfile(const std::string &Path,
                                    const TuningProfile &TP) {
  std::ofstream F(Path, std::ios::binary);
  if (!F)
    return false;
  F << renderTuningProfile(TP);
  return static_cast<bool>(F);
}

bool dmll::tune::readTuningProfile(const std::string &Path,
                                   TuningProfile &Out) {
  std::ifstream F(Path, std::ios::binary);
  if (!F)
    return false;
  std::ostringstream SS;
  SS << F.rdbuf();
  return parseTuningProfile(SS.str(), Out);
}
