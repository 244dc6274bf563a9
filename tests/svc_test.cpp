// Service-tier tests: protocol framing in isolation, then a live
// in-process svc::Server driven through svc::Client (compile, submit,
// stream, backpressure, cancellation, disconnect, keepalive) plus raw
// sockets for the malformed-input paths a well-behaved client can't
// produce. The SvcStress suite is the high-contention configuration the
// TSan CI pass runs (8 client threads submitting and cancelling against
// the shared daemon state).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "omx/models/oscillator.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/solve.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/svc/client.hpp"
#include "omx/svc/protocol.hpp"
#include "omx/svc/server.hpp"

namespace omx::svc {
namespace {

// ------------------------------------------------------------ protocol

TEST(SvcProtocol, EncodeDecodeRoundTrip) {
  Message m;
  m.type = MsgType::kSubmit;
  m.json = "{\"model\": \"m1\", \"scenarios\": 3}";
  const double payload[4] = {1.0, -2.5, 3.25e-300, 0.0};
  append_f64(m.binary, payload, 4);

  const std::string wire = encode(m);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Message out;
  ASSERT_TRUE(reader.next(out));
  EXPECT_EQ(out.type, MsgType::kSubmit);
  EXPECT_EQ(out.json, m.json);
  double decoded[4] = {};
  read_f64(out.binary, 0, decoded, 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(decoded[i], payload[i]) << "f64 slot " << i;
  }
  EXPECT_FALSE(reader.next(out)) << "one frame in, one frame out";
}

TEST(SvcProtocol, ReassemblesByteAtATime) {
  Message m;
  m.type = MsgType::kStats;
  m.json = "{}";
  const std::string wire = encode(m) + encode(m);
  FrameReader reader;
  Message out;
  int got = 0;
  for (const char b : wire) {
    reader.feed(&b, 1);
    while (reader.next(out)) {
      EXPECT_EQ(out.type, MsgType::kStats);
      ++got;
    }
  }
  EXPECT_EQ(got, 2);
}

TEST(SvcProtocol, RejectsRuntLength) {
  // length = 2 cannot even hold the type byte + json_len field.
  const char wire[] = {2, 0, 0, 0, 0x01, 0x00};
  FrameReader reader;
  reader.feed(wire, sizeof(wire));
  Message out;
  EXPECT_THROW(reader.next(out), omx::Error);
}

TEST(SvcProtocol, RejectsOversizedFrameBeforeBuffering) {
  // A header claiming 1 MiB against a 64-byte ceiling must throw from
  // the header alone — no payload bytes are ever supplied.
  const std::uint32_t huge = 1u << 20;
  char wire[5];
  std::memcpy(wire, &huge, 4);
  wire[4] = 0x01;
  FrameReader reader(64);
  reader.feed(wire, sizeof(wire));
  Message out;
  EXPECT_THROW(reader.next(out), omx::Error);
}

TEST(SvcProtocol, RejectsJsonLenOverrun) {
  Message m;
  m.type = MsgType::kPing;
  m.json = "{}";
  std::string wire = encode(m);
  // Corrupt json_len (bytes 5..8) to overrun the frame.
  const std::uint32_t bad = 9999;
  std::memcpy(&wire[5], &bad, 4);
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Message out;
  EXPECT_THROW(reader.next(out), omx::Error);
}

TEST(SvcProtocol, RejectsUnknownMessageType) {
  Message m;
  m.type = MsgType::kPing;
  std::string wire = encode(m);
  wire[4] = 0x7f;  // not a MsgType
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  Message out;
  EXPECT_THROW(reader.next(out), omx::Error);
}

// ------------------------------------------------------- live server

/// Interpreter backend: no host-compiler dependency, and kernels build
/// in microseconds so tests exercise the daemon, not g++.
ServerOptions test_server_opts() {
  ServerOptions so;
  so.backend = exec::Backend::kInterp;
  so.executors = 2;
  so.queue_cap = 4;
  so.retry_after_ms = 5;
  return so;
}

/// A submit whose rk4 step budget keeps the job running for hundreds of
/// milliseconds — long enough to observe RETRY/CANCEL behavior, short
/// enough (when cancelled) to keep the suite fast.
SubmitRequest slow_request(const ModelInfo& model) {
  SubmitRequest req;
  req.model = model.model;
  req.method = "rk4";
  req.dt = 1e-7;
  req.tend = 1.0;  // 10M steps; cancellation is the expected exit
  req.record_every = 1u << 20;
  return req;
}

/// Drains events until `job`'s DONE arrives; returns it.
Event drain_to_done(Client& client, std::uint64_t job) {
  for (;;) {
    Event ev;
    if (!client.next_event(ev, 120000)) {
      ADD_FAILURE() << "timed out waiting for DONE of job " << job;
      return ev;
    }
    if (ev.kind == Event::Kind::kDone && ev.job == job) {
      return ev;
    }
  }
}

TEST(SvcServer, CompileSubmitStreamRoundTrip) {
  Server server(test_server_opts());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());

  const ModelInfo model = client.compile_builtin("oscillator");
  EXPECT_EQ(model.n, 2u);
  EXPECT_FALSE(model.model.empty());
  const ModelInfo again = client.compile_builtin("oscillator");
  EXPECT_EQ(again.model, model.model);
  EXPECT_TRUE(again.cached) << "second COMPILE must hit the registry";

  SubmitRequest req;
  req.model = model.model;
  req.method = "dopri5";
  req.tend = 0.5;
  req.scenarios = 3;
  req.y0s.reserve(3 * model.n);
  for (int s = 0; s < 3; ++s) {
    req.y0s.push_back(1.0 + 0.1 * s);
    req.y0s.push_back(0.0);
  }
  const SubmitResult sub = client.submit(req);
  ASSERT_TRUE(sub.accepted);

  std::vector<std::uint64_t> streamed(3, 0);
  std::uint64_t frames = 0;
  Event done;
  for (;;) {
    Event ev;
    ASSERT_TRUE(client.next_event(ev, 120000)) << "stream stalled";
    if (ev.kind == Event::Kind::kFrame) {
      ASSERT_LT(ev.scenario, 3u);
      ASSERT_EQ(ev.n, model.n);
      ASSERT_EQ(ev.times.size(), ev.rows);
      ASSERT_EQ(ev.states.size(), ev.rows * ev.n);
      streamed[ev.scenario] += ev.rows;
      ++frames;
      continue;
    }
    done = ev;
    break;
  }
  EXPECT_TRUE(done.error.empty()) << done.error;
  EXPECT_FALSE(done.cancelled);
  EXPECT_EQ(done.frames, frames);
  ASSERT_EQ(done.row_counts.size(), 3u);
  for (int s = 0; s < 3; ++s) {
    EXPECT_EQ(streamed[s], done.row_counts[s])
        << "scenario " << s << ": dropped frames";
    EXPECT_GT(streamed[s], 0u);
  }
  client.bye();
  server.stop();
}

TEST(SvcServer, AdmissionRejectCarriesRetryHint) {
  ServerOptions so = test_server_opts();
  so.executors = 1;
  so.queue_cap = 0;
  so.retry_after_ms = 37;
  Server server(so);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const ModelInfo model = client.compile_builtin("oscillator");

  const SubmitResult first = client.submit(slow_request(model));
  ASSERT_TRUE(first.accepted);
  const SubmitResult second = client.submit(slow_request(model));
  EXPECT_FALSE(second.accepted) << "queue_cap 0 + busy executor";
  EXPECT_EQ(second.retry_after_ms, 37);

  EXPECT_TRUE(client.cancel(first.job));
  const Event done = drain_to_done(client, first.job);
  EXPECT_TRUE(done.cancelled);
  client.bye();
  server.stop();
}

TEST(SvcServer, ZeroExecutorsIsRejected) {
  // With no executor thread every SUBMIT would queue and never finish.
  ServerOptions so = test_server_opts();
  so.executors = 0;
  Server none(so);
  EXPECT_THROW(none.start(), omx::Error);
  so.executors = 1;
  Server one(so);
  EXPECT_NO_THROW(one.start());
  one.stop();
}

TEST(SvcServer, CancelAbortsInFlightLanes) {
  const std::uint64_t lanes_before =
      obs::Registry::global().counter("ensemble.lanes_cancelled").value();
  Server server(test_server_opts());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const ModelInfo model = client.compile_builtin("oscillator");

  const SubmitResult sub = client.submit(slow_request(model));
  ASSERT_TRUE(sub.accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(client.cancel(sub.job));
  const Event done = drain_to_done(client, sub.job);
  EXPECT_TRUE(done.cancelled);
  EXPECT_TRUE(done.error.empty()) << done.error;
  client.bye();
  server.stop();

  // The solver lane was abandoned mid-flight, not run to completion.
  const std::uint64_t lanes_after =
      obs::Registry::global().counter("ensemble.lanes_cancelled").value();
  EXPECT_GT(lanes_after, lanes_before);
}

TEST(SvcServer, CancelAfterRetireIsNoOp) {
  Server server(test_server_opts());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const ModelInfo model = client.compile_builtin("oscillator");

  SubmitRequest req;
  req.model = model.model;
  req.tend = 0.01;
  const SubmitResult sub = client.submit(req);
  ASSERT_TRUE(sub.accepted);
  const Event done = drain_to_done(client, sub.job);
  EXPECT_FALSE(done.cancelled);

  EXPECT_FALSE(client.cancel(sub.job)) << "job already retired";
  EXPECT_FALSE(client.cancel(999999)) << "job never existed";
  client.bye();
  server.stop();
}

TEST(SvcServer, MidStreamDisconnectCancelsJob) {
  const std::uint64_t cancelled_before =
      obs::Registry::global().counter("svc.jobs_cancelled").value();
  Server server(test_server_opts());
  server.start();
  {
    Client client;
    client.connect("127.0.0.1", server.port());
    const ModelInfo model = client.compile_builtin("oscillator");
    const SubmitResult sub = client.submit(slow_request(model));
    ASSERT_TRUE(sub.accepted);
    client.close();  // abrupt: no BYE, no CANCEL
  }
  // The event loop notices the hangup and flips the job's cancel flag;
  // the solver aborts within one step attempt.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (obs::Registry::global().counter("svc.jobs_cancelled").value() ==
         cancelled_before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "disconnect never cancelled the job";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
}

TEST(SvcServer, IdleConnectionTimesOut) {
  ServerOptions so = test_server_opts();
  so.idle_timeout_ms = 100;
  Server server(so);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  client.ping();  // healthy while active
  // Poll-loop wakeups sweep idlers every <= 200 ms; well past both.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  EXPECT_THROW(
      {
        client.ping();
        client.ping();  // first may ride the send buffer; reads must fail
      },
      omx::Error);
  server.stop();
}

// Raw-socket sender for malformed input a Client cannot produce.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
  }
  ~RawConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  void send_bytes(const void* data, std::size_t n) {
    EXPECT_EQ(::send(fd_, data, n, 0), static_cast<ssize_t>(n));
  }

  /// Reads until one message parses; false when the peer closes first.
  bool read_reply(Message& out) {
    char buf[4096];
    while (!reader_.next(out)) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return false;
      }
      reader_.feed(buf, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Reads until one message parses or the peer closes; true when the
  /// peer closed the connection after (at most) one message.
  bool read_reply_then_eof(Message& out) {
    FrameReader reader;
    bool got = false;
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        return got;
      }
      reader.feed(buf, static_cast<std::size_t>(n));
      if (!got && reader.next(out)) {
        got = true;
      }
    }
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

TEST(SvcServer, MalformedFrameAnswersErrorAndCloses) {
  Server server(test_server_opts());
  server.start();
  RawConn raw(server.port());
  const char runt[] = {2, 0, 0, 0, 0x01, 0x00};  // length too short
  raw.send_bytes(runt, sizeof(runt));
  Message reply;
  ASSERT_TRUE(raw.read_reply_then_eof(reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  EXPECT_NE(reply.json.find("error"), std::string::npos);
  server.stop();
}

TEST(SvcServer, OversizedFrameAnswersErrorAndCloses) {
  ServerOptions so = test_server_opts();
  so.max_frame_bytes = 4096;
  Server server(so);
  server.start();
  RawConn raw(server.port());
  // Header alone: claims 1 MiB. The server must reject it from the
  // length field without waiting for (or buffering) the payload.
  const std::uint32_t huge = 1u << 20;
  char header[5];
  std::memcpy(header, &huge, 4);
  header[4] = 0x02;
  raw.send_bytes(header, sizeof(header));
  Message reply;
  ASSERT_TRUE(raw.read_reply_then_eof(reply));
  EXPECT_EQ(reply.type, MsgType::kError);
  server.stop();
}

TEST(SvcServer, CompileRejectsOutOfRangeRollers) {
  Server server(test_server_opts());
  server.start();
  RawConn raw(server.port());
  for (const char* rollers : {"1", "2.5", "-3", "1e12"}) {
    SCOPED_TRACE(rollers);
    Message m;
    m.type = MsgType::kCompile;
    m.json = std::string("{\"builtin\": \"bearing2d\", \"rollers\": ") +
             rollers + "}";
    const std::string wire = encode(m);
    raw.send_bytes(wire.data(), wire.size());
    Message reply;
    ASSERT_TRUE(raw.read_reply(reply));
    EXPECT_EQ(reply.type, MsgType::kError);
    EXPECT_NE(reply.json.find("rollers"), std::string::npos) << reply.json;

    // The daemon keeps serving the same connection.
    Message ping;
    ping.type = MsgType::kPing;
    const std::string pw = encode(ping);
    raw.send_bytes(pw.data(), pw.size());
    Message pong;
    ASSERT_TRUE(raw.read_reply(pong));
    EXPECT_EQ(pong.type, MsgType::kPong);
  }
  // The smallest legal bearing still compiles.
  Client client;
  client.connect("127.0.0.1", server.port());
  EXPECT_GT(client.compile_builtin("bearing2d", 2).n, 0u);
  client.bye();
  server.stop();
}

TEST(SvcServer, SubmitRejectsInvalidCounts) {
  Server server(test_server_opts());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const ModelInfo model = client.compile_builtin("oscillator");

  RawConn raw(server.port());
  for (const char* field :
       {"\"workers\": -1", "\"workers\": 2.5", "\"max_batch\": 1e300",
        "\"record_every\": -3", "\"scenarios\": 0",
        "\"scenarios\": 1e12"}) {
    SCOPED_TRACE(field);
    Message m;
    m.type = MsgType::kSubmit;
    m.json = "{\"model\": \"" + model.model + "\", " + field + "}";
    const std::string wire = encode(m);
    raw.send_bytes(wire.data(), wire.size());
    Message reply;
    ASSERT_TRUE(raw.read_reply(reply));
    EXPECT_EQ(reply.type, MsgType::kError) << reply.json;
    EXPECT_NE(reply.json.find("must be an integer"), std::string::npos)
        << reply.json;

    // The daemon keeps serving the same connection.
    Message ping;
    ping.type = MsgType::kPing;
    const std::string pw = encode(ping);
    raw.send_bytes(pw.data(), pw.size());
    Message pong;
    ASSERT_TRUE(raw.read_reply(pong));
    EXPECT_EQ(pong.type, MsgType::kPong);
  }
  client.bye();
  server.stop();
}

TEST(SvcServer, ZeroRecordEveryAnswersDoneWithError) {
  Server server(test_server_opts());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const ModelInfo model = client.compile_builtin("oscillator");

  for (const char* method : {"dopri5", "rk4"}) {
    SCOPED_TRACE(method);
    SubmitRequest req;
    req.model = model.model;
    req.method = method;
    req.tend = 0.01;
    req.record_every = 0;
    const SubmitResult sub = client.submit(req);
    ASSERT_TRUE(sub.accepted);
    const Event done = drain_to_done(client, sub.job);
    EXPECT_NE(done.error.find("record_every"), std::string::npos)
        << done.error;
  }

  // The daemon is still up and runs a well-formed job.
  SubmitRequest ok;
  ok.model = model.model;
  ok.tend = 0.01;
  const SubmitResult sub = client.submit(ok);
  ASSERT_TRUE(sub.accepted);
  EXPECT_TRUE(drain_to_done(client, sub.job).error.empty());
  client.bye();
  server.stop();
}

/// Per-scenario trajectories of one job, concatenated in arrival order.
struct Streamed {
  std::vector<std::vector<double>> times, states;
  Event done;
};

Streamed run_streamed(Client& client, const SubmitRequest& req) {
  Streamed out;
  out.times.resize(req.scenarios);
  out.states.resize(req.scenarios);
  const SubmitResult sub = client.submit(req);
  EXPECT_TRUE(sub.accepted);
  for (;;) {
    Event ev;
    if (!client.next_event(ev, 120000)) {
      ADD_FAILURE() << "stream stalled";
      return out;
    }
    if (ev.kind == Event::Kind::kDone) {
      out.done = ev;
      return out;
    }
    out.times[ev.scenario].insert(out.times[ev.scenario].end(),
                                  ev.times.begin(), ev.times.end());
    out.states[ev.scenario].insert(out.states[ev.scenario].end(),
                                   ev.states.begin(), ev.states.end());
  }
}

TEST(SvcServer, AutotuneRuleStreamsTheUntunedTrajectories) {
  Server server(test_server_opts());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const ModelInfo model = client.compile_builtin("oscillator");

  // 40 scenarios: the rule runs ceil(40 / 16) = 3 workers (fewer on a
  // smaller host) against the plain job's single worker and batch of 4.
  SubmitRequest req;
  req.model = model.model;
  req.method = "dopri5";
  req.tend = 2.0;
  req.scenarios = 40;
  for (std::size_t s = 0; s < req.scenarios; ++s) {
    req.y0s.push_back(1.0 + 0.05 * static_cast<double>(s));
    req.y0s.push_back(-0.02 * static_cast<double>(s));
  }
  req.workers = 1;
  req.max_batch = 4;
  const Streamed plain = run_streamed(client, req);

  obs::Counter& autotuned =
      obs::Registry::global().counter("svc.jobs_autotuned");
  const std::uint64_t before = autotuned.value();
  req.autotune = true;
  const Streamed tuned = run_streamed(client, req);
  EXPECT_EQ(autotuned.value(), before + 1);

  EXPECT_TRUE(plain.done.error.empty()) << plain.done.error;
  EXPECT_TRUE(tuned.done.error.empty()) << tuned.done.error;
  EXPECT_EQ(tuned.done.row_counts, plain.done.row_counts);
  for (std::size_t s = 0; s < req.scenarios; ++s) {
    SCOPED_TRACE(s);
    EXPECT_FALSE(plain.times[s].empty());
    // Worker and batch assignment never changes a lane's step control:
    // the frames are bitwise equal.
    EXPECT_EQ(tuned.times[s], plain.times[s]);
    EXPECT_EQ(tuned.states[s], plain.states[s]);
  }
  client.bye();
  server.stop();
}

// --------------------------------------------------- solver-side cancel

TEST(SvcCancel, SolveThrowsCancelledWhenFlagPreSet) {
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const exec::KernelInstance kernel =
      cm.make_kernel(exec::Backend::kInterp);
  const ode::Problem p = cm.make_problem(kernel, 0.0, 1.0);

  std::atomic<bool> cancel{true};
  ode::SolverOptions opts;
  opts.cancel = &cancel;
  EXPECT_THROW(ode::solve(p, ode::Method::kDopri5, opts), ode::Cancelled);
  EXPECT_THROW(ode::solve(p, ode::Method::kRk4, opts), ode::Cancelled);
  EXPECT_THROW(ode::solve(p, ode::Method::kBdf, opts), ode::Cancelled);
}

TEST(SvcCancel, EnsembleAbandonsLanesMidFlight) {
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const exec::KernelInstance kernel =
      cm.make_kernel(exec::Backend::kInterp);
  const ode::Problem p = cm.make_problem(kernel, 0.0, 1.0);

  std::atomic<bool> cancel{false};
  ode::SolverOptions opts;
  opts.dt = 1e-7;  // 10M rk4 steps: cancellation is the only exit
  opts.record_every = 1u << 20;
  opts.cancel = &cancel;
  ode::EnsembleSpec spec;
  spec.workers = 2;
  for (int s = 0; s < 4; ++s) {
    spec.initial_states.push_back({1.0 + 0.1 * s, 0.0});
  }

  const std::uint64_t lanes_before =
      obs::Registry::global().counter("ensemble.lanes_cancelled").value();
  std::thread trigger([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    cancel.store(true, std::memory_order_relaxed);
  });
  EXPECT_THROW(ode::solve_ensemble(p, ode::Method::kRk4, opts, spec),
               ode::Cancelled);
  trigger.join();
  const std::uint64_t lanes_after =
      obs::Registry::global().counter("ensemble.lanes_cancelled").value();
  EXPECT_GT(lanes_after, lanes_before) << "no lane recorded its abandon";
}

/// Wraps the collecting sink: the first chunk any lane acquires sets the
/// cancel flag, so each worker sees it with a lane in flight. Counts the
/// finish() calls that reach it.
class CancelOnFirstRowSink final : public ode::TrajectorySink {
 public:
  CancelOnFirstRowSink(std::size_t scenarios, std::atomic<bool>& cancel)
      : inner_(scenarios), cancel_(cancel) {}
  ode::TrajectoryChunk* acquire(std::uint32_t scenario,
                                std::size_t n) override {
    cancel_.store(true, std::memory_order_relaxed);
    return inner_.acquire(scenario, n);
  }
  void commit(ode::TrajectoryChunk* chunk) override { inner_.commit(chunk); }
  void finish(std::uint32_t scenario,
              const ode::SolverStats& stats) override {
    finished.fetch_add(1, std::memory_order_relaxed);
    inner_.finish(scenario, stats);
  }
  std::atomic<int> finished{0};

 private:
  ode::EnsembleCollectSink inner_;
  std::atomic<bool>& cancel_;
};

TEST(SvcCancel, MultistepEnsembleAbandonsLanesWithoutFinish) {
  const pipeline::CompiledModel cm =
      pipeline::compile_model(models::build_oscillator);
  const exec::KernelInstance kernel =
      cm.make_kernel(exec::Backend::kInterp);
  const ode::Problem p = cm.make_problem(kernel, 0.0, 1.0);
  for (const ode::Method m : {ode::Method::kBdf, ode::Method::kLsodaLike}) {
    for (const std::size_t workers : {1u, 2u}) {
      std::atomic<bool> cancel{false};
      ode::SolverOptions opts;
      opts.cancel = &cancel;
      ode::EnsembleSpec spec;
      spec.workers = workers;
      for (int s = 0; s < 4; ++s) {
        spec.initial_states.push_back({1.0 + 0.1 * s, 0.0});
      }
      CancelOnFirstRowSink sink(spec.initial_states.size(), cancel);
      const std::uint64_t lanes_before =
          obs::Registry::global().counter("ensemble.lanes_cancelled").value();
      EXPECT_THROW(ode::solve_ensemble(p, m, opts, spec, sink),
                   ode::Cancelled)
          << ode::to_string(m) << ", " << workers << " workers";
      const std::uint64_t lanes_after =
          obs::Registry::global().counter("ensemble.lanes_cancelled").value();
      EXPECT_GE(lanes_after - lanes_before, 1u)
          << ode::to_string(m) << ", " << workers << " workers";
      EXPECT_EQ(sink.finished.load(), 0)
          << ode::to_string(m) << ", " << workers << " workers";
    }
  }
}

// --------------------------------------------------------------- stress

/// 8 client threads submit and cancel against one daemon: every oddly
/// numbered job is cancelled right after submit, and every job — ok or
/// cancelled — must still deliver exactly one DONE. Run under the TSan
/// CI pass (scripts/ci.sh --tsan includes the Svc suites).
TEST(SvcStress, ConcurrentSubmitCancelEightClients) {
  ServerOptions so = test_server_opts();
  so.executors = 2;
  so.queue_cap = 16;
  Server server(so);
  server.start();
  const std::uint16_t port = server.port();

  constexpr int kClients = 8;
  constexpr int kJobs = 6;
  std::atomic<int> done_count{0};
  std::atomic<int> cancelled_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([port, c, &done_count, &cancelled_count] {
      Client client;
      client.connect("127.0.0.1", port);
      const ModelInfo model = client.compile_builtin("oscillator");
      for (int j = 0; j < kJobs; ++j) {
        const bool will_cancel = (c + j) % 2 == 1;
        SubmitRequest req = will_cancel
                                ? slow_request(model)
                                : SubmitRequest{};
        if (!will_cancel) {
          req.model = model.model;
          req.tend = 0.01;
        }
        SubmitResult sub;
        for (;;) {
          sub = client.submit(req);
          if (sub.accepted) {
            break;
          }
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::max(1, sub.retry_after_ms)));
        }
        if (will_cancel) {
          client.cancel(sub.job);  // may race retirement; both fine
        }
        const Event done = drain_to_done(client, sub.job);
        done_count.fetch_add(1, std::memory_order_relaxed);
        if (done.cancelled) {
          cancelled_count.fetch_add(1, std::memory_order_relaxed);
        }
      }
      client.bye();
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  server.stop();
  EXPECT_EQ(done_count.load(), kClients * kJobs);
  // Slow jobs only end by cancellation, so at least one must land even
  // under scheduler noise (kClients * kJobs / 2 are flagged).
  EXPECT_GT(cancelled_count.load(), 0);
}

}  // namespace
}  // namespace omx::svc
