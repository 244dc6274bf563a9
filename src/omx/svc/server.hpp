// The simulation service daemon core (the "omxd" in bin form).
//
// A long-lived process owns the expensive state — compiled models, warm
// native kernels, the executor pool — and clients talk to it over a
// TCP socket with the framed protocol of svc/protocol.hpp:
//
//   COMPILE  model source or builtin  -> cached model handle
//   SUBMIT   scenario batch           -> job id (or RETRY backpressure)
//   FRAME*   trajectory chunks stream back while the job runs
//   DONE     per-scenario row counts close the job
//   CANCEL   aborts a job's in-flight lanes cooperatively
//   STATS    live server statistics; PING/BYE keepalive & goodbye
//
// Threading: one poll-based event loop owns every socket (accept, read,
// write, timeouts — no thread per connection); `executors` worker
// threads run compiles and ensemble jobs. Admission control
// (runtime::AdmissionGate) bounds concurrent + queued jobs and answers
// RETRY with a backoff hint beyond that, so overload surfaces as
// protocol backpressure instead of memory growth. A client disconnect
// flips the cancellation flag of every job it owns; the solver lanes
// notice within one step attempt (SolverOptions::cancel) and abort.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "omx/exec/backend.hpp"
#include "omx/svc/protocol.hpp"

namespace omx::svc {

struct ServerOptions {
  std::string bind = "127.0.0.1";
  /// 0 = ephemeral; read the chosen port back with Server::port().
  std::uint16_t port = 0;
  /// Executor threads = maximum concurrently *running* jobs; at least 1
  /// (Server::start throws otherwise).
  std::size_t executors = 2;
  /// Accepted-but-waiting jobs beyond that; the bounded queue.
  std::size_t queue_cap = 8;
  /// Admission-rejected SUBMITs carry this backoff hint.
  int retry_after_ms = 200;
  /// Close connections idle this long with no live jobs (0 = never).
  int idle_timeout_ms = 0;
  /// Per-frame size ceiling (tests shrink it to probe the rejection).
  std::size_t max_frame_bytes = kDefaultMaxFrame;
  /// solve_ensemble workers per job. The default keeps one job on one
  /// core so `executors` jobs share the machine predictably; a single
  /// dedicated server would raise it instead of `executors`.
  std::size_t job_workers = 1;
  /// Interpreter lanes / batch width for compiled kernels.
  std::size_t kernel_lanes = 8;
  exec::Backend backend = exec::Backend::kNative;
};

class Server {
 public:
  explicit Server(ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds + listens and spawns the event loop and executor threads.
  /// Throws omx::Error when the socket cannot be bound.
  void start();

  /// Graceful stop: closes the listener and every connection, cancels
  /// running jobs, joins all threads. Idempotent.
  void stop();

  /// The bound port (after start()); useful with an ephemeral bind.
  std::uint16_t port() const;

  /// Per-session statistics, the queue-depth timeline, and totals as a
  /// JSON document — the daemon writes this next to the obs metrics on
  /// shutdown, and scripts/obs_report.py --service renders it.
  std::string service_json() const;

  /// Implementation detail (public only so server.cpp internals — the
  /// per-job trajectory sink — can hold a typed back-pointer).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace omx::svc
