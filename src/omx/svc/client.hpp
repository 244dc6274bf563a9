// Synchronous client for the simulation service (svc/server.hpp).
//
// One Client = one TCP connection = one session. Requests are strictly
// paired (send, wait for the 0x8x response); asynchronous FRAME/DONE
// messages that arrive while waiting are queued and drained later with
// next_event(). This is the library bench/loadgen and the service tests
// build on; anything protocol-level (framing, f64 payloads) stays in
// svc/protocol.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "omx/svc/protocol.hpp"

namespace omx::svc {

struct ModelInfo {
  std::string model;    // handle to pass to submit()
  std::size_t n = 0;    // state-vector width
  std::string backend;  // "native" or the interpreter fallback
  bool cached = false;  // served from the daemon's model registry
  std::vector<double> y0;
};

struct SubmitRequest {
  std::string model;
  std::string method = "dopri5";
  double t0 = 0.0;
  double tend = 1.0;
  std::size_t scenarios = 1;
  /// Scenario initial states, scenario-major, scenarios*n doubles.
  /// Empty = every scenario starts from the model's y0.
  std::vector<double> y0s;
  bool stream = true;
  std::size_t record_every = 1;
  double dt = 1e-3;
  double rtol = 1e-6;
  double atol = 1e-9;
  std::size_t workers = 0;    // 0 = server default
  std::size_t max_batch = 0;  // 0 = server default
  /// Let the daemon pick workers/max_batch instead of the settings
  /// above: one worker per 16 scenarios, up to one per hardware thread.
  bool autotune = false;
};

struct SubmitResult {
  bool accepted = false;
  std::uint64_t job = 0;
  int retry_after_ms = 0;  // backpressure hint when !accepted
};

/// One asynchronous message: a trajectory chunk or a job completion.
struct Event {
  enum class Kind { kFrame, kDone };
  Kind kind = Kind::kFrame;
  std::uint64_t job = 0;
  // kFrame:
  std::uint32_t scenario = 0;
  std::size_t rows = 0;
  std::size_t n = 0;
  bool final_chunk = false;
  std::vector<double> times;   // [rows]
  std::vector<double> states;  // [rows * n], row-major
  // kDone:
  bool cancelled = false;
  std::uint64_t frames = 0;
  std::vector<std::uint64_t> row_counts;  // per scenario
  std::string error;                      // empty = success
};

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  ModelInfo compile_builtin(const std::string& name, int rollers = 0);
  ModelInfo compile_source(const std::string& source);
  SubmitResult submit(const SubmitRequest& req);
  /// True = the job was still running and is now flagged.
  bool cancel(std::uint64_t job);
  /// Raw JSON server statistics snapshot.
  std::string stats();
  void ping();
  /// Orderly goodbye; the server closes after acknowledging.
  void bye();

  /// Next FRAME/DONE event. Blocks up to timeout_ms (-1 = forever);
  /// false = timeout with no event. Throws on a broken connection.
  bool next_event(Event& ev, int timeout_ms = -1);

 private:
  Message request(const Message& m);
  Message read_message(int timeout_ms);  // throws on timeout/disconnect
  static Event to_event(const Message& m);

  int fd_ = -1;
  FrameReader reader_;
  std::vector<Event> pending_;  // async events queued during request()
};

}  // namespace omx::svc
