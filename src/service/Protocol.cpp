//===- service/Protocol.cpp - dmll-serve wire protocol ---------*- C++ -*-===//

#include "service/Protocol.h"

#include "support/Json.h"
#include "support/Net.h"

#include <cstdio>

using namespace dmll;
using namespace dmll::service;

bool service::sendFrame(int Fd, const std::string &Body) {
  if (Body.size() > MaxFrameBytes)
    return false;
  uint32_t Len = static_cast<uint32_t>(Body.size());
  unsigned char Hdr[4] = {static_cast<unsigned char>(Len >> 24),
                          static_cast<unsigned char>(Len >> 16),
                          static_cast<unsigned char>(Len >> 8),
                          static_cast<unsigned char>(Len)};
  return net::sendAll(Fd, Hdr, sizeof(Hdr)) && net::sendAll(Fd, Body);
}

bool service::recvFrame(int Fd, std::string &Body, std::string *Err) {
  unsigned char Hdr[4];
  if (!net::recvAll(Fd, Hdr, sizeof(Hdr))) {
    if (Err)
      *Err = "eof";
    return false;
  }
  uint32_t Len = (static_cast<uint32_t>(Hdr[0]) << 24) |
                 (static_cast<uint32_t>(Hdr[1]) << 16) |
                 (static_cast<uint32_t>(Hdr[2]) << 8) |
                 static_cast<uint32_t>(Hdr[3]);
  if (Len > MaxFrameBytes) {
    if (Err)
      *Err = "frame length " + std::to_string(Len) + " exceeds the " +
             std::to_string(MaxFrameBytes) + " byte ceiling";
    return false;
  }
  Body.resize(Len);
  if (Len && !net::recvAll(Fd, Body.data(), Len)) {
    if (Err)
      *Err = "eof mid-frame";
    return false;
  }
  return true;
}

bool service::parseRequest(const std::string &Json, Request &R,
                           std::string &Err) {
  json::JValue V;
  if (!json::parse(Json, V)) {
    Err = "malformed JSON";
    return false;
  }
  if (V.K != json::JValue::Object) {
    Err = "request is not a JSON object";
    return false;
  }
  R.Cmd = V.strField("cmd");
  R.Id = V.strField("id");
  R.App = V.strField("app");
  R.Scale = static_cast<int64_t>(V.numField("scale", 1));
  R.Threads = static_cast<unsigned>(V.numField("threads", 0));
  R.Engine = V.strField("engine");
  R.DeadlineMs = static_cast<int64_t>(V.numField("deadline_ms", 0));
  R.MaxMemoryMb = static_cast<int64_t>(V.numField("max_memory_mb", 0));
  R.MaxIterations = static_cast<int64_t>(V.numField("max_iterations", 0));
  if (R.Scale < 1)
    R.Scale = 1;
  if (R.Cmd.empty() || R.Cmd == "run") {
    if (R.App.empty()) {
      Err = "request names no app";
      return false;
    }
    return true;
  }
  if (R.Cmd == "stats" || R.Cmd == "ping" || R.Cmd == "shutdown")
    return true;
  Err = "unknown cmd \"" + R.Cmd + "\"";
  return false;
}

std::string service::renderRequest(const Request &R) {
  std::string Out = "{";
  bool First = true;
  auto Str = [&](const char *K, const std::string &V) {
    if (V.empty())
      return;
    Out += std::string(First ? "" : ",") + "\"" + K + "\":" + json::quote(V);
    First = false;
  };
  auto Num = [&](const char *K, int64_t V, int64_t Skip) {
    if (V == Skip)
      return;
    Out += std::string(First ? "" : ",") + "\"" + K +
           "\":" + std::to_string(V);
    First = false;
  };
  Str("cmd", R.Cmd);
  Str("id", R.Id);
  Str("app", R.App);
  Num("scale", R.Scale, 1);
  Num("threads", static_cast<int64_t>(R.Threads), 0);
  Str("engine", R.Engine);
  Num("deadline_ms", R.DeadlineMs, 0);
  Num("max_memory_mb", R.MaxMemoryMb, 0);
  Num("max_iterations", R.MaxIterations, 0);
  Out += "}";
  return Out;
}

std::string service::renderResponse(const Response &R) {
  char Ms[48];
  std::snprintf(Ms, sizeof(Ms), "%.6f", R.Ms);
  std::string Out = "{\"status\":" + json::quote(R.Status);
  if (!R.Id.empty())
    Out += ",\"id\":" + json::quote(R.Id);
  if (!R.Cache.empty())
    Out += ",\"cache\":" + json::quote(R.Cache);
  if (!R.Digest.empty())
    Out += ",\"digest\":" + json::quote(R.Digest);
  Out += ",\"ms\":" + std::string(Ms);
  if (!R.Key.empty())
    Out += ",\"key\":" + json::quote(R.Key);
  if (!R.Error.empty())
    Out += ",\"error\":" + json::quote(R.Error);
  Out += R.Extra;
  Out += "}";
  return Out;
}

bool service::parseResponse(const std::string &Json, Response &R,
                            std::string &Err) {
  json::JValue V;
  if (!json::parse(Json, V)) {
    Err = "malformed JSON";
    return false;
  }
  if (V.K != json::JValue::Object) {
    Err = "response is not a JSON object";
    return false;
  }
  R.Status = V.strField("status");
  R.Id = V.strField("id");
  R.Cache = V.strField("cache");
  R.Digest = V.strField("digest");
  R.Ms = V.numField("ms", 0);
  R.Error = V.strField("error");
  R.Key = V.strField("key");
  if (R.Status.empty()) {
    Err = "response carries no status";
    return false;
  }
  return true;
}
