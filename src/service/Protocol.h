//===- service/Protocol.h - dmll-serve wire protocol -----------*- C++ -*-===//
//
// Part of the DMLL reproduction of Brown et al., CGO 2016.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dmll-serve-v1 request protocol (docs/SERVICE.md): length-prefixed
/// JSON frames over a loopback TCP connection or a stdin/stdout pipe. A
/// frame is a 4-byte big-endian payload length followed by that many bytes
/// of UTF-8 JSON; frames above a fixed ceiling are rejected before any
/// allocation, so a garbage length prefix cannot OOM the daemon.
///
/// Requests either execute a catalog program (`{"app": "logreg", ...}`,
/// service/Catalog.h) under per-request ExecLimits, or carry a control
/// command (`{"cmd": "stats" | "ping" | "shutdown"}`). Responses echo the
/// request id and report a structured status — the ExecStatus names of
/// runtime/Cancel.h plus the service-level `shed` (admission control
/// rejected the request) and `bad_request` — alongside the result digest,
/// wall milliseconds, and whether the compiled-program cache hit.
///
/// The bytecode-style compactness of the format follows the ROADMAP note on
/// bistra's `lib/Bytecode/`: requests name programs and sizes, they never
/// ship data — the daemon materializes deterministic datasets by (app,
/// scale), so a request is a few hundred bytes however large the workload.
///
//===----------------------------------------------------------------------===//

#ifndef DMLL_SERVICE_PROTOCOL_H
#define DMLL_SERVICE_PROTOCOL_H

#include "ir/Printer.h"

#include <cstdint>
#include <string>

namespace dmll {
namespace service {

/// Hard ceiling on one frame's payload; a length prefix above this is a
/// protocol error, not an allocation.
constexpr uint32_t MaxFrameBytes = 1 << 20;

/// Writes one length-prefixed frame (support/Net.h semantics: MSG_NOSIGNAL,
/// EINTR-retried; false on a vanished peer, never SIGPIPE).
bool sendFrame(int Fd, const std::string &Body);

/// Reads one frame into \p Body. False on EOF, error, or an oversized
/// length prefix (\p Err says which when non-null).
bool recvFrame(int Fd, std::string &Body, std::string *Err = nullptr);

/// One parsed request.
struct Request {
  std::string Cmd;  ///< "" / "run": execute; "stats", "ping", "shutdown"
  std::string Id;   ///< opaque client tag, echoed in the response
  std::string App;  ///< catalog program name (service/Catalog.h)
  int64_t Scale = 1;
  unsigned Threads = 0;    ///< 0: the daemon's configured worker count
  std::string Engine;      ///< "": the daemon's configured engine mode
  /// Per-request resource ceilings (runtime/Cancel.h); 0 = the daemon's
  /// defaults.
  int64_t DeadlineMs = 0;
  int64_t MaxMemoryMb = 0;
  int64_t MaxIterations = 0;
};

/// Parses a request payload; false (with \p Err) on malformed JSON or a
/// frame that is neither a command nor an app execution.
bool parseRequest(const std::string &Json, Request &R, std::string &Err);

/// Renders \p R as a request payload (the client half: tests, loadgen).
std::string renderRequest(const Request &R);

/// One response. Status is an ExecStatus name ("ok", "trapped",
/// "deadline_exceeded", "budget_exceeded") or a service-level outcome
/// ("shed", "bad_request", "shutting_down").
struct Response {
  std::string Status;
  std::string Id;
  std::string Cache;  ///< "hit" / "miss" for executions, else empty
  std::string Digest; ///< "count:sum:abs" result checksum, %.17g floats
  double Ms = 0;      ///< request latency observed by the daemon
  std::string Error;  ///< trap message / protocol error, empty on ok
  std::string Key;    ///< compiled-program cache key (hex of the IR hash)
  /// Extra JSON object members rendered verbatim (leading comma included),
  /// e.g. the stats payload. Must be valid JSON fragments.
  std::string Extra;
};

std::string renderResponse(const Response &R);

/// Parses a response payload (the client half); false on malformed JSON.
bool parseResponse(const std::string &Json, Response &R, std::string &Err);

/// The serialized-IR hash (ir/Printer.h) a response reports as its key.
using dmll::fnv1a64;
using dmll::hashKey;

} // namespace service
} // namespace dmll

#endif // DMLL_SERVICE_PROTOCOL_H
