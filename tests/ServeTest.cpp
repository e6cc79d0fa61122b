//===- tests/ServeTest.cpp - Query daemon and wire protocol ----*- C++ -*-===//
//
// Covers docs/SERVICE.md's contracts: the dmll-serve-v1 protocol round-trips
// through render/parse (frames over real pipes included — the stdio path
// shares the socket framing via the ENOTSOCK fallback in support/Net.h); the
// daemon's compiled-program cache misses once per app and every hit returns
// a bit-identical digest; a trapped / over-budget tenant gets a structured
// error while the persistent ThreadPool stays reusable; unknown apps and
// commands are bad_request, never process exits; admission control sheds on
// a full queue; and the socket path survives clients that disconnect without
// reading their response. The daemon runs its own acceptor/executor threads
// over the shared pool, hence the sanitize label.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "service/Catalog.h"
#include "service/Protocol.h"
#include "service/Serve.h"
#include "support/Json.h"
#include "support/Net.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <unistd.h>

using namespace dmll;
using namespace dmll::service;

namespace {

//===----------------------------------------------------------------------===//
// Wire protocol.
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, RequestRoundTrips) {
  Request R;
  R.Cmd = "run";
  R.Id = "client-7";
  R.App = "logreg";
  R.Scale = 25;
  R.Threads = 3;
  R.Engine = "kernel";
  R.DeadlineMs = 500;
  R.MaxMemoryMb = 64;
  R.MaxIterations = 1000;

  Request Back;
  std::string Err;
  ASSERT_TRUE(parseRequest(renderRequest(R), Back, Err)) << Err;
  EXPECT_EQ(Back.Cmd, "run");
  EXPECT_EQ(Back.Id, "client-7");
  EXPECT_EQ(Back.App, "logreg");
  EXPECT_EQ(Back.Scale, 25);
  EXPECT_EQ(Back.Threads, 3u);
  EXPECT_EQ(Back.Engine, "kernel");
  EXPECT_EQ(Back.DeadlineMs, 500);
  EXPECT_EQ(Back.MaxMemoryMb, 64);
  EXPECT_EQ(Back.MaxIterations, 1000);

  // Defaults survive a minimal run request (no cmd means run).
  Request Min;
  ASSERT_TRUE(parseRequest("{\"app\":\"gda\"}", Min, Err)) << Err;
  EXPECT_EQ(Min.App, "gda");
  EXPECT_EQ(Min.Scale, 1);
  EXPECT_EQ(Min.Threads, 0u);
  EXPECT_TRUE(Min.Engine.empty());
}

TEST(ServeProtocol, ResponseRoundTrips) {
  Response R;
  R.Status = "ok";
  R.Id = "req-1";
  R.Cache = "hit";
  R.Digest = "251:1.5:2.5";
  R.Ms = 12.5;
  R.Key = "00c0ffee00c0ffee";

  Response Back;
  std::string Err;
  ASSERT_TRUE(parseResponse(renderResponse(R), Back, Err)) << Err;
  EXPECT_EQ(Back.Status, "ok");
  EXPECT_EQ(Back.Id, "req-1");
  EXPECT_EQ(Back.Cache, "hit");
  EXPECT_EQ(Back.Digest, "251:1.5:2.5");
  EXPECT_NEAR(Back.Ms, 12.5, 1e-9);
  EXPECT_EQ(Back.Key, "00c0ffee00c0ffee");

  // Error payloads escape cleanly (trap messages can carry quotes).
  Response Bad;
  Bad.Status = "trapped";
  Bad.Error = "integer division by zero [loop \"Multiloop[Reduce]\"]";
  ASSERT_TRUE(parseResponse(renderResponse(Bad), Back, Err)) << Err;
  EXPECT_EQ(Back.Status, "trapped");
  EXPECT_EQ(Back.Error, Bad.Error);

  // Extra members (the stats payload) keep the document valid JSON.
  Response Stats;
  Stats.Status = "ok";
  Stats.Extra = ",\"requests\":4,\"p50_ms\":1.25";
  json::JValue Doc;
  ASSERT_TRUE(json::parse(renderResponse(Stats), Doc));
  EXPECT_EQ(Doc.numField("requests"), 4);
  EXPECT_NEAR(Doc.numField("p50_ms"), 1.25, 1e-9);
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  Request R;
  std::string Err;
  EXPECT_FALSE(parseRequest("{not json", R, Err));
  EXPECT_EQ(Err, "malformed JSON");
  EXPECT_FALSE(parseRequest("[1,2]", R, Err));
  EXPECT_FALSE(parseRequest("{}", R, Err)) << "no app and no cmd";
  EXPECT_FALSE(parseRequest("{\"cmd\":\"explode\"}", R, Err));
  EXPECT_NE(Err.find("explode"), std::string::npos);
  // Control commands need no app.
  EXPECT_TRUE(parseRequest("{\"cmd\":\"ping\"}", R, Err)) << Err;
  EXPECT_TRUE(parseRequest("{\"cmd\":\"stats\"}", R, Err)) << Err;
  EXPECT_TRUE(parseRequest("{\"cmd\":\"shutdown\"}", R, Err)) << Err;
}

TEST(ServeProtocol, FramesRoundTripOverPipes) {
  // The stdio transport: length-prefixed frames over non-socket fds
  // (net::sendAll / recvAll fall back from send/recv to write/read).
  int P[2];
  ASSERT_EQ(::pipe(P), 0);
  EXPECT_TRUE(sendFrame(P[1], "{\"cmd\":\"ping\"}"));
  EXPECT_TRUE(sendFrame(P[1], ""));
  std::string Body, Err;
  ASSERT_TRUE(recvFrame(P[0], Body, &Err)) << Err;
  EXPECT_EQ(Body, "{\"cmd\":\"ping\"}");
  ASSERT_TRUE(recvFrame(P[0], Body, &Err)) << Err;
  EXPECT_TRUE(Body.empty());
  // EOF is reported as such, distinct from protocol errors.
  ::close(P[1]);
  EXPECT_FALSE(recvFrame(P[0], Body, &Err));
  EXPECT_EQ(Err, "eof");
  ::close(P[0]);

  // A garbage length prefix above the ceiling is rejected before any
  // allocation — the daemon never trusts the peer's length.
  ASSERT_EQ(::pipe(P), 0);
  unsigned char Huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(P[1], Huge, 4), 4);
  EXPECT_FALSE(recvFrame(P[0], Body, &Err));
  EXPECT_NE(Err.find("ceiling"), std::string::npos) << Err;
  ::close(P[0]);
  ::close(P[1]);

  // And the sender refuses oversized bodies symmetrically.
  EXPECT_FALSE(sendFrame(-1, std::string(MaxFrameBytes + 1, 'x')));
}

TEST(ServeProtocol, HashKeyIsStableAndDiscriminates) {
  std::string A = hashKey("program-a");
  EXPECT_EQ(A.size(), 16u);
  EXPECT_EQ(A, hashKey("program-a"));
  EXPECT_NE(A, hashKey("program-b"));
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ull) << "FNV-1a offset basis";
}

//===----------------------------------------------------------------------===//
// The daemon, driven in-process through handle().
//===----------------------------------------------------------------------===//

ServerOptions inProcessOptions() {
  ServerOptions O;
  O.Port = -1; // no socket: handle() directly
  O.Threads = 2;
  return O;
}

Request runReq(const std::string &App, int64_t Scale) {
  Request R;
  R.App = App;
  R.Scale = Scale;
  return R;
}

TEST(ServeDaemon, CacheMissesOnceThenHitsBitIdentically) {
  Server S(inProcessOptions());
  Response First = S.handle(runReq("logreg", 200));
  ASSERT_EQ(First.Status, "ok") << First.Error;
  EXPECT_EQ(First.Cache, "miss");
  ASSERT_FALSE(First.Digest.empty());
  ASSERT_EQ(First.Key.size(), 16u);

  for (int I = 0; I < 3; ++I) {
    Response Again = S.handle(runReq("logreg", 200));
    ASSERT_EQ(Again.Status, "ok") << Again.Error;
    EXPECT_EQ(Again.Cache, "hit");
    EXPECT_EQ(Again.Digest, First.Digest)
        << "cache hit diverged from the compiled-once result";
    EXPECT_EQ(Again.Key, First.Key);
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.Programs, 1u);
  EXPECT_EQ(St.CacheMisses, 1);
  EXPECT_EQ(St.CacheHits, 3);
  EXPECT_EQ(St.Ok, 4);
  EXPECT_EQ(St.Failed, 0);
}

TEST(ServeDaemon, FirstAndLaterRequestsAgreeForEveryApp) {
  // The first request builds the app's handle and fills its column store;
  // later ones run on what it holds. Each answers exactly as the first.
  Server S(inProcessOptions());
  for (const std::string &App : catalogNames()) {
    Response First = S.handle(runReq(App, 100));
    EXPECT_EQ(First.Cache, "miss") << App;
    for (int I = 0; I < 2; ++I) {
      Response Again = S.handle(runReq(App, 100));
      EXPECT_EQ(Again.Cache, "hit") << App;
      EXPECT_EQ(Again.Status, First.Status) << App;
      EXPECT_EQ(Again.Digest, First.Digest) << App;
      EXPECT_EQ(Again.Error, First.Error) << App;
    }
  }
}

TEST(ServeDaemon, ConcurrentColdMissesShareOneBuild) {
  // Four threads ask for two cold apps at once. Each app's handle and input
  // set build once, outside the cache lock, and every request waiting on
  // the build shares it: one miss per app and one digest per app.
  Server S(inProcessOptions());
  const std::vector<std::string> Apps = {"logreg", "pagerank"};
  std::vector<std::vector<Response>> Got(4);
  std::vector<std::thread> Clients;
  for (size_t C = 0; C < Got.size(); ++C)
    Clients.emplace_back([&, C] {
      for (int I = 0; I < 2; ++I)
        for (const std::string &App : Apps)
          Got[C].push_back(S.handle(runReq(App, 200)));
      (void)S.stats(); // never waits for a build
    });
  for (std::thread &T : Clients)
    T.join();
  std::map<std::string, std::string> Digest;
  for (const std::vector<Response> &Rs : Got)
    for (size_t I = 0; I < Rs.size(); ++I) {
      const std::string &App = Apps[I % Apps.size()];
      ASSERT_EQ(Rs[I].Status, "ok") << App << ": " << Rs[I].Error;
      auto [It, New] = Digest.emplace(App, Rs[I].Digest);
      EXPECT_EQ(It->second, Rs[I].Digest) << App;
    }
  ServerStats St = S.stats();
  EXPECT_EQ(St.Programs, Apps.size());
  EXPECT_EQ(St.CacheMisses, static_cast<int64_t>(Apps.size()));
  EXPECT_EQ(St.CacheHits, static_cast<int64_t>(4 * 2 * Apps.size()) -
                              static_cast<int64_t>(Apps.size()));
}

TEST(ServeDaemon, EngineOverrideKeepsDigestsBitIdentical) {
  // One daemon, same (app, scale), three engine modes: the digest must not
  // depend on which engine a request picked.
  Server S(inProcessOptions());
  std::string Digest;
  for (const char *Engine : {"interp", "kernel", "auto"}) {
    Request R = runReq("gda", 200);
    R.Engine = Engine;
    Response Resp = S.handle(R);
    ASSERT_EQ(Resp.Status, "ok") << Engine << ": " << Resp.Error;
    if (Digest.empty())
      Digest = Resp.Digest;
    else
      EXPECT_EQ(Resp.Digest, Digest) << "engine " << Engine << " diverged";
  }
}

TEST(ServeDaemon, TrappedTenantLeavesThePoolReusable) {
  Server S(inProcessOptions());
  // Interleave the deliberately faulty tenant with a healthy one, twice:
  // every trap must come back structured, and the shared pool must keep
  // executing afterwards as if nothing happened.
  std::string HealthyDigest;
  for (int Round = 0; Round < 2; ++Round) {
    Response Trap = S.handle(runReq("trapdiv", 100));
    EXPECT_EQ(Trap.Status, "trapped");
    EXPECT_NE(Trap.Error.find("division by zero"), std::string::npos)
        << Trap.Error;
    EXPECT_TRUE(Trap.Digest.empty());

    Response Ok = S.handle(runReq("k-means", 200));
    ASSERT_EQ(Ok.Status, "ok") << "pool unusable after a trap: " << Ok.Error;
    if (HealthyDigest.empty())
      HealthyDigest = Ok.Digest;
    else
      EXPECT_EQ(Ok.Digest, HealthyDigest);
  }
  ServerStats St = S.stats();
  EXPECT_EQ(St.Ok, 2);
  EXPECT_EQ(St.Failed, 2);
}

TEST(ServeDaemon, PerRequestBudgetYieldsStructuredError) {
  Server S(inProcessOptions());
  Request R = runReq("gene", 50);
  R.MaxIterations = 10; // far below the app's loop volume
  Response Resp = S.handle(R);
  EXPECT_EQ(Resp.Status, "budget_exceeded") << Resp.Error;
  EXPECT_FALSE(Resp.Error.empty());
  // The same app without the ceiling still runs on the same daemon.
  Response Ok = S.handle(runReq("gene", 50));
  EXPECT_EQ(Ok.Status, "ok") << Ok.Error;
}

TEST(ServeDaemon, UnknownAppAndCmdAreBadRequests) {
  Server S(inProcessOptions());
  Response R1 = S.handle(runReq("no-such-app", 1));
  EXPECT_EQ(R1.Status, "bad_request");
  EXPECT_NE(R1.Error.find("no-such-app"), std::string::npos);

  Request Cmd;
  Cmd.Cmd = "explode";
  Response R2 = S.handle(Cmd);
  EXPECT_EQ(R2.Status, "bad_request");

  Request Ping;
  Ping.Cmd = "ping";
  Ping.Id = "p1";
  Response R3 = S.handle(Ping);
  EXPECT_EQ(R3.Status, "ok");
  EXPECT_EQ(R3.Id, "p1");
}

TEST(ServeDaemon, StatsPayloadCarriesCountersAndQuantiles) {
  Server S(inProcessOptions());
  (void)S.handle(runReq("logreg", 500));
  (void)S.handle(runReq("logreg", 500));
  (void)S.handle(runReq("trapdiv", 500));

  Request Stats;
  Stats.Cmd = "stats";
  Response Resp = S.handle(Stats);
  ASSERT_EQ(Resp.Status, "ok");
  json::JValue Doc;
  ASSERT_TRUE(json::parse(renderResponse(Resp), Doc));
  EXPECT_EQ(Doc.numField("requests"), 3);
  EXPECT_EQ(Doc.numField("ok"), 2);
  EXPECT_EQ(Doc.numField("failed"), 1);
  EXPECT_EQ(Doc.numField("cache_hits"), 1);
  EXPECT_EQ(Doc.numField("cache_misses"), 2);
  EXPECT_EQ(Doc.numField("programs"), 2);
  EXPECT_EQ(Doc.numField("threads"), 2);
  // The quantiles come from the process-global serve.request_ms histogram,
  // which other tests in this binary feed too — the invariants one test can
  // assert are order and positivity, not exact values.
  EXPECT_GT(Doc.numField("p50_ms"), 0.0);
  EXPECT_GE(Doc.numField("p99_ms"), Doc.numField("p50_ms"));
}

TEST(ServeDaemon, StdioPipeModeServesFrames) {
  // The --stdio transport end-to-end: requests written into one pipe,
  // responses read from the other, shutdown ends the loop with exit 0.
  int In[2], Out[2];
  ASSERT_EQ(::pipe(In), 0);
  ASSERT_EQ(::pipe(Out), 0);

  ASSERT_TRUE(sendFrame(In[1], "{\"cmd\":\"ping\",\"id\":\"a\"}"));
  ASSERT_TRUE(
      sendFrame(In[1], renderRequest(runReq("logreg", 500))));
  ASSERT_TRUE(sendFrame(In[1], "{\"cmd\":\"shutdown\"}"));
  ::close(In[1]);

  Server S(inProcessOptions());
  EXPECT_EQ(S.runStdio(In[0], Out[1]), 0);
  ::close(In[0]);
  ::close(Out[1]);

  std::string Body, Err;
  Response R;
  ASSERT_TRUE(recvFrame(Out[0], Body, &Err)) << Err;
  ASSERT_TRUE(parseResponse(Body, R, Err)) << Err;
  EXPECT_EQ(R.Status, "ok");
  EXPECT_EQ(R.Id, "a");
  ASSERT_TRUE(recvFrame(Out[0], Body, &Err)) << Err;
  ASSERT_TRUE(parseResponse(Body, R, Err)) << Err;
  EXPECT_EQ(R.Status, "ok");
  EXPECT_EQ(R.Cache, "miss");
  EXPECT_FALSE(R.Digest.empty());
  ASSERT_TRUE(recvFrame(Out[0], Body, &Err)) << Err; // shutdown ack
  ASSERT_TRUE(parseResponse(Body, R, Err)) << Err;
  EXPECT_EQ(R.Status, "ok");
  // Clean EOF after the shutdown ack.
  EXPECT_FALSE(recvFrame(Out[0], Body, &Err));
  EXPECT_EQ(Err, "eof");
  ::close(Out[0]);
}

//===----------------------------------------------------------------------===//
// The socket path: ephemeral ports, hostile clients, admission control.
//===----------------------------------------------------------------------===//

/// One connection, one request, one response (the protocol's
/// request-response-close shape). \p RawBody receives the unparsed payload
/// when non-null — parseResponse drops Extra members like the stats fields.
bool exchange(int Port, const Request &R, Response &Resp, std::string &Err,
              std::string *RawBody = nullptr) {
  int Fd = net::connectLoopback(Port);
  if (Fd < 0) {
    Err = "connect failed";
    return false;
  }
  bool Ok = sendFrame(Fd, renderRequest(R));
  std::string Body;
  Ok = Ok && recvFrame(Fd, Body, &Err) && parseResponse(Body, Resp, Err);
  if (RawBody)
    *RawBody = Body;
  ::close(Fd);
  return Ok;
}

TEST(ServeSocket, EphemeralPortServesAndSurvivesClientAbort) {
  ServerOptions O;
  O.Port = 0; // kernel-assigned: parallel test runs never collide
  O.Threads = 2;
  O.MaxQueue = 8;
  Server S(O);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;
  ASSERT_GT(S.boundPort(), 0);

  // A client that sends a request and vanishes before reading the
  // response: the daemon's send hits a dead socket — recorded, not fatal.
  for (int I = 0; I < 3; ++I) {
    int Fd = net::connectLoopback(S.boundPort());
    ASSERT_GE(Fd, 0);
    ASSERT_TRUE(sendFrame(Fd, renderRequest(runReq("logreg", 500))));
    ::close(Fd);
  }

  // The daemon still answers well-behaved clients afterwards.
  Response R1, R2;
  ASSERT_TRUE(exchange(S.boundPort(), runReq("logreg", 500), R1, Err))
      << Err;
  EXPECT_EQ(R1.Status, "ok") << R1.Error;
  EXPECT_GE(R1.Ms, 0.0);
  ASSERT_TRUE(exchange(S.boundPort(), runReq("logreg", 500), R2, Err))
      << Err;
  EXPECT_EQ(R2.Status, "ok") << R2.Error;
  EXPECT_EQ(R2.Cache, "hit");
  EXPECT_EQ(R2.Digest, R1.Digest);

  // And a trapping tenant over the wire is a structured response too.
  Response Trap;
  ASSERT_TRUE(exchange(S.boundPort(), runReq("trapdiv", 500), Trap, Err))
      << Err;
  EXPECT_EQ(Trap.Status, "trapped");

  // Shutdown over the protocol: ack first, then the daemon unblocks wait().
  Request Down;
  Down.Cmd = "shutdown";
  Response Ack;
  ASSERT_TRUE(exchange(S.boundPort(), Down, Ack, Err)) << Err;
  EXPECT_EQ(Ack.Status, "ok");
  S.wait();
  EXPECT_TRUE(S.stopping());
  S.stop();
}

TEST(ServeSocket, FullQueueShedsInsteadOfQueueingUnboundedly) {
  ServerOptions O;
  O.Port = 0;
  O.Threads = 1;
  O.MaxQueue = 0; // every run request overflows immediately
  Server S(O);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  Response R;
  ASSERT_TRUE(exchange(S.boundPort(), runReq("logreg", 500), R, Err)) << Err;
  EXPECT_EQ(R.Status, "shed");
  EXPECT_NE(R.Error.find("queue full"), std::string::npos) << R.Error;

  // Control commands bypass admission control: stats answers even though
  // every run request is being shed.
  Request Stats;
  Stats.Cmd = "stats";
  std::string Raw;
  ASSERT_TRUE(exchange(S.boundPort(), Stats, R, Err, &Raw)) << Err;
  EXPECT_EQ(R.Status, "ok");
  json::JValue Doc;
  ASSERT_TRUE(json::parse(Raw, Doc));
  EXPECT_GE(Doc.numField("shed"), 1);
  S.stop();
}

TEST(ServeSocket, MalformedFrameGetsBadRequestNotDisconnect) {
  ServerOptions O;
  O.Port = 0;
  O.Threads = 1;
  Server S(O);
  std::string Err;
  ASSERT_TRUE(S.start(&Err)) << Err;

  int Fd = net::connectLoopback(S.boundPort());
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(sendFrame(Fd, "this is not json"));
  std::string Body;
  ASSERT_TRUE(recvFrame(Fd, Body, &Err)) << Err;
  Response R;
  ASSERT_TRUE(parseResponse(Body, R, Err)) << Err;
  EXPECT_EQ(R.Status, "bad_request");
  EXPECT_EQ(R.Error, "malformed JSON");
  ::close(Fd);
  S.stop();
}

//===----------------------------------------------------------------------===//
// Catalog.
//===----------------------------------------------------------------------===//

TEST(ServeCatalog, EveryEntryBuildsAndPrintsDeterministically) {
  EXPECT_GE(appNames().size(), 6u);
  EXPECT_EQ(catalogNames().size(), appNames().size() + 1);
  for (const std::string &Name : catalogNames()) {
    Program P1, P2;
    ASSERT_TRUE(makeProgram(Name, P1)) << Name;
    ASSERT_TRUE(makeProgram(Name, P2)) << Name;
    // The cache key is the serialized-IR hash: building the same entry
    // twice must produce the same key or the daemon would recompile.
    EXPECT_EQ(hashKey(printProgram(P1)), hashKey(printProgram(P2))) << Name;
    InputMap In;
    int64_t N = 0;
    ASSERT_TRUE(makeInputs(Name, 100, In, N)) << Name;
    EXPECT_GT(N, 0) << Name;
    EXPECT_FALSE(In.empty()) << Name;
  }
  Program P;
  EXPECT_FALSE(makeProgram("no-such-app", P));
}

} // namespace
