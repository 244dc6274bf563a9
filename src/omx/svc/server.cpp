#include "omx/svc/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "omx/models/bearing2d.hpp"
#include "omx/models/oscillator.hpp"
#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/ode/sink.hpp"
#include "omx/ode/solve.hpp"
#include "omx/parser/parser.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/runtime/admission.hpp"
#include "omx/support/hash.hpp"
#include "omx/support/json.hpp"
#include "omx/support/timer.hpp"

namespace omx::svc {

namespace {

// ---------------------------------------------------------------- metrics

obs::Counter& sessions_opened() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.sessions_opened");
  return c;
}
obs::Counter& sessions_closed() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.sessions_closed");
  return c;
}
obs::Counter& jobs_submitted_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.jobs_submitted");
  return c;
}
obs::Counter& jobs_done_total() {
  static obs::Counter& c = obs::Registry::global().counter("svc.jobs_done");
  return c;
}
obs::Counter& jobs_cancelled_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.jobs_cancelled");
  return c;
}
obs::Counter& jobs_rejected_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.jobs_rejected");
  return c;
}
obs::Counter& jobs_autotuned_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.jobs_autotuned");
  return c;
}
obs::Counter& frames_sent_total() {
  static obs::Counter& c =
      obs::Registry::global().counter("svc.frames_sent");
  return c;
}
obs::Counter& bytes_sent_total() {
  static obs::Counter& c = obs::Registry::global().counter("svc.bytes_sent");
  return c;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("svc.queue_depth");
  return g;
}
obs::Histogram& job_seconds_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "svc.job_seconds", obs::log_spaced_bounds(1e-4, 1e2));
  return h;
}

// ----------------------------------------------------------------- misc

ode::Method parse_method(const std::string& s) {
  for (const ode::Method m :
       {ode::Method::kExplicitEuler, ode::Method::kRk4,
        ode::Method::kDopri5, ode::Method::kAdamsPece, ode::Method::kBdf,
        ode::Method::kLsodaLike}) {
    if (s == ode::to_string(m)) {
      return m;
    }
  }
  throw omx::Error("svc: unknown method '" + s + "'");
}

/// Largest bearing a COMPILE may ask for by "rollers".
constexpr std::size_t kMaxBuiltinRollers = 640;

/// Largest SUBMIT scenario count.
constexpr std::size_t kMaxScenarios = 100000;

/// Upper bound of the other SUBMIT counts: every integer up to 2^53 is
/// exact in a JSON number, so the cast below is exact too.
constexpr std::size_t kMaxCount = std::size_t{1} << 53;

/// An optional integer field of an untrusted request: an integer in
/// [lo, hi], else a clear error instead of a cast that is undefined for
/// negative, huge or non-finite values.
std::size_t requested_count(const support::json::Value& req,
                            const std::string& key, std::size_t fallback,
                            std::size_t lo, std::size_t hi) {
  const double v = req.get_number(key, static_cast<double>(fallback));
  if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi)) ||
      v != std::floor(v)) {
    throw omx::Error("svc: \"" + key + "\" must be an integer in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<std::size_t>(v);
}

/// Ensemble workers a job may run: one per hardware thread.
std::size_t hardware_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

Message error_msg(const std::string& what) {
  Message m;
  m.type = MsgType::kError;
  m.json = "{\"error\": \"" + obs::json_escape(what) + "\"}";
  return m;
}

// ------------------------------------------------------------ structures

struct Conn {
  int fd = -1;
  std::uint64_t session = 0;
  FrameReader reader;
  std::atomic<bool> closed{false};
  bool close_after_flush = false;
  std::chrono::steady_clock::time_point last_activity;

  // Outgoing bytes; executors append under the mutex, the event loop
  // drains. `out_off` avoids erasing from the front on every write.
  std::mutex out_mutex;
  std::string outbox;
  std::size_t out_off = 0;

  // Jobs owned by this session (event-loop thread only).
  std::set<std::uint64_t> jobs;

  // Per-session statistics, exported by Server::service_json().
  std::atomic<std::uint64_t> jobs_submitted{0};
  std::atomic<std::uint64_t> jobs_done{0};
  std::atomic<std::uint64_t> jobs_cancelled{0};
  std::atomic<std::uint64_t> rejects{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> bytes_out{0};
  double opened_s = 0.0;
  std::atomic<double> closed_s{-1.0};
};

/// One compiled model held warm across jobs and sessions. The kernel is
/// built once; every job's Problem references it (make_problem pins the
/// instance), so COMPILE amortizes and SUBMIT is allocation-light.
struct ModelEntry {
  std::string id;
  pipeline::CompiledModel cm;
  exec::KernelInstance kernel;
  std::vector<double> y0;
  std::string backend_name;

  ModelEntry() : kernel(nullptr, nullptr) {}
};

/// Registry slot: the per-key mutex serializes concurrent COMPILEs of
/// the same model (second caller waits, then reuses).
struct ModelSlot {
  std::mutex mutex;
  std::shared_ptr<ModelEntry> entry;
};

struct Job {
  std::uint64_t id = 0;
  std::shared_ptr<Conn> conn;
  std::shared_ptr<ModelEntry> model;
  ode::Method method = ode::Method::kDopri5;
  ode::SolverOptions sopts;
  ode::EnsembleSpec spec;
  double t0 = 0.0;
  double tend = 1.0;
  bool stream = true;
  bool autotune = false;  // let the daemon pick workers/batch (run_job)
  bool queued = false;  // admitted into the wait queue (vs a free slot)
  std::atomic<bool> cancel{false};
  std::atomic<bool> finished{false};
};

}  // namespace

// ------------------------------------------------------------------ Impl

struct Server::Impl {
  explicit Impl(ServerOptions o)
      : opts(std::move(o)), gate(opts.executors, opts.queue_cap) {}

  ServerOptions opts;
  runtime::AdmissionGate gate;
  Stopwatch clock;  // server-relative timestamps

  int listen_fd = -1;
  std::uint16_t bound_port = 0;
  int wake_rd = -1, wake_wr = -1;
  std::atomic<bool> running{false};

  std::thread loop_thread;
  std::vector<std::thread> executor_threads;

  // Executor work queue (compiles and jobs alike).
  std::mutex task_mutex;
  std::condition_variable task_cv;
  std::deque<std::function<void()>> tasks;

  // Connections: the event loop owns the map; service_json and sends
  // from executors go through the mutex / the conn's own atomics.
  mutable std::mutex conns_mutex;
  std::map<int, std::shared_ptr<Conn>> conns;
  std::vector<std::shared_ptr<Conn>> all_sessions;  // closed ones too
  std::uint64_t next_session = 1;

  // Compiled-model registry, shared across sessions.
  std::mutex models_mutex;
  std::map<std::string, std::shared_ptr<ModelSlot>> models;

  // Live jobs by id (CANCEL lookup); erased when the job retires.
  std::mutex jobs_mutex;
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs;
  std::atomic<std::uint64_t> next_job{1};

  // Queue-depth timeline: (seconds since start, queued jobs).
  mutable std::mutex timeline_mutex;
  std::vector<std::pair<double, std::size_t>> timeline;

  // ---------------------------------------------------------- lifecycle

  void start();
  void stop();
  void loop();
  void executor();

  // ------------------------------------------------------------- wiring

  void wake() {
    if (wake_wr >= 0) {
      const char b = 1;
      [[maybe_unused]] const ssize_t r = ::write(wake_wr, &b, 1);
    }
  }

  void post(std::function<void()> task) {
    {
      const std::lock_guard<std::mutex> lock(task_mutex);
      tasks.push_back(std::move(task));
    }
    task_cv.notify_one();
  }

  void send(const std::shared_ptr<Conn>& conn, const Message& m) {
    if (conn->closed.load(std::memory_order_relaxed)) {
      return;
    }
    const std::string bytes = encode(m);
    {
      const std::lock_guard<std::mutex> lock(conn->out_mutex);
      conn->outbox += bytes;
    }
    conn->bytes_out.fetch_add(bytes.size(), std::memory_order_relaxed);
    bytes_sent_total().add(bytes.size());
    wake();
  }

  void record_queue_depth() {
    const std::size_t depth = gate.queued();
    queue_depth_gauge().set(static_cast<double>(depth));
    const std::lock_guard<std::mutex> lock(timeline_mutex);
    timeline.emplace_back(clock.seconds(), depth);
  }

  // ----------------------------------------------------------- handlers

  void handle_frame(const std::shared_ptr<Conn>& conn, const Message& m);
  void handle_compile(const std::shared_ptr<Conn>& conn, Message m);
  void handle_submit(const std::shared_ptr<Conn>& conn, const Message& m);
  void handle_cancel(const std::shared_ptr<Conn>& conn, const Message& m);
  void handle_stats(const std::shared_ptr<Conn>& conn);
  void run_job(const std::shared_ptr<Job>& job);
  void close_conn(const std::shared_ptr<Conn>& conn);

  std::shared_ptr<ModelEntry> compile_model_payload(const std::string& json,
                                                    bool& cached);
  std::string service_json() const;
};

// ----------------------------------------------------------- stream sink

namespace {

/// Per-job TrajectorySink: counts rows per scenario and, for streaming
/// jobs, serializes each committed chunk into one FRAME straight from
/// the chunk's buffers (a single copy: chunk -> wire bytes) before
/// recycling it. Thread-safe per the ensemble sink contract.
class StreamSink final : public ode::TrajectorySink {
 public:
  StreamSink(Server::Impl* srv, std::shared_ptr<Job> job)
      : srv_(srv),
        job_(std::move(job)),
        pool_(kDefaultChunkRows),
        rows_(job_->spec.initial_states.size(), 0) {}

  ode::TrajectoryChunk* acquire(std::uint32_t scenario,
                                std::size_t n) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return pool_.get(scenario, n);
  }

  void commit(ode::TrajectoryChunk* chunk) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    rows_[chunk->scenario] += chunk->size;
    if (job_->stream && chunk->size > 0 &&
        !job_->cancel.load(std::memory_order_relaxed)) {
      Message f;
      f.type = MsgType::kFrame;
      std::ostringstream js;
      js << "{\"job\": " << job_->id
         << ", \"scenario\": " << chunk->scenario
         << ", \"rows\": " << chunk->size << ", \"n\": " << chunk->n
         << ", \"final\": " << (chunk->final ? "true" : "false") << "}";
      f.json = js.str();
      append_f64(f.binary, chunk->times.data(), chunk->size);
      append_f64(f.binary, chunk->states.data(), chunk->size * chunk->n);
      srv_->send(job_->conn, f);
      ++frames_;
      job_->conn->frames.fetch_add(1, std::memory_order_relaxed);
      frames_sent_total().add();
    }
    pool_.put(chunk);
  }

  void finish(std::uint32_t, const ode::SolverStats&) override {}

  std::uint64_t frames() const { return frames_; }
  const std::vector<std::uint64_t>& rows() const { return rows_; }

 private:
  Server::Impl* srv_;
  std::shared_ptr<Job> job_;
  std::mutex mutex_;
  ode::detail::ChunkPool pool_;
  std::vector<std::uint64_t> rows_;
  std::uint64_t frames_ = 0;
};

}  // namespace

// ------------------------------------------------------------- lifecycle

void Server::Impl::start() {
  // With no executor, AdmissionGate would queue every SUBMIT forever.
  if (opts.executors == 0) {
    throw omx::Error("svc: executors must be at least 1");
  }
  listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  OMX_REQUIRE(listen_fd >= 0, "svc: cannot create listen socket");
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts.port);
  if (::inet_pton(AF_INET, opts.bind.c_str(), &addr.sin_addr) != 1) {
    throw omx::Error("svc: invalid bind address " + opts.bind);
  }
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw omx::Error("svc: cannot bind " + opts.bind + ":" +
                     std::to_string(opts.port) + " (" +
                     std::strerror(errno) + ")");
  }
  if (::listen(listen_fd, 64) != 0) {
    throw omx::Error("svc: listen failed");
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  bound_port = ntohs(bound.sin_port);

  int pipefd[2];
  OMX_REQUIRE(::pipe(pipefd) == 0, "svc: cannot create wake pipe");
  wake_rd = pipefd[0];
  wake_wr = pipefd[1];
  ::fcntl(wake_rd, F_SETFL, O_NONBLOCK);
  ::fcntl(wake_wr, F_SETFL, O_NONBLOCK);
  ::fcntl(listen_fd, F_SETFL, O_NONBLOCK);

  running.store(true);
  loop_thread = std::thread([this] { loop(); });
  executor_threads.reserve(opts.executors);
  for (std::size_t i = 0; i < opts.executors; ++i) {
    executor_threads.emplace_back([this] { executor(); });
  }
}

void Server::Impl::stop() {
  if (!running.exchange(false)) {
    return;
  }
  // Cancel whatever is in flight so executors drain quickly.
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex);
    for (auto& [id, job] : jobs) {
      job->cancel.store(true, std::memory_order_relaxed);
    }
  }
  {
    // The executors' wait predicate reads `running` under task_mutex. An
    // executor between its check and its wait would miss a notify sent
    // without the mutex and never wake, so stop() hangs in join().
    const std::lock_guard<std::mutex> lock(task_mutex);
  }
  task_cv.notify_all();
  wake();
  if (loop_thread.joinable()) {
    loop_thread.join();
  }
  for (std::thread& t : executor_threads) {
    if (t.joinable()) {
      t.join();
    }
  }
  executor_threads.clear();
  {
    const std::lock_guard<std::mutex> lock(conns_mutex);
    for (auto& [fd, conn] : conns) {
      conn->closed.store(true, std::memory_order_relaxed);
      conn->closed_s.store(clock.seconds(), std::memory_order_relaxed);
      ::close(fd);
    }
    conns.clear();
  }
  for (const int fd : {listen_fd, wake_rd, wake_wr}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  listen_fd = wake_rd = wake_wr = -1;
}

void Server::Impl::executor() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(task_mutex);
      task_cv.wait(lock, [this] {
        return !tasks.empty() || !running.load(std::memory_order_relaxed);
      });
      if (tasks.empty()) {
        return;  // stopping and drained
      }
      task = std::move(tasks.front());
      tasks.pop_front();
    }
    task();
  }
}

void Server::Impl::loop() {
  std::vector<pollfd> pfds;
  std::vector<std::shared_ptr<Conn>> order;
  char buf[64 * 1024];

  while (running.load(std::memory_order_relaxed)) {
    pfds.clear();
    order.clear();
    pfds.push_back({listen_fd, POLLIN, 0});
    pfds.push_back({wake_rd, POLLIN, 0});
    {
      const std::lock_guard<std::mutex> lock(conns_mutex);
      for (auto& [fd, conn] : conns) {
        short events = POLLIN;
        {
          const std::lock_guard<std::mutex> ol(conn->out_mutex);
          if (conn->out_off < conn->outbox.size()) {
            events |= POLLOUT;
          }
        }
        pfds.push_back({fd, events, 0});
        order.push_back(conn);
      }
    }

    const int timeout_ms = opts.idle_timeout_ms > 0
                               ? std::min(opts.idle_timeout_ms, 200)
                               : 200;
    const int nready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (!running.load(std::memory_order_relaxed)) {
      break;
    }
    if (nready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }

    // Drain wakeups.
    if ((pfds[1].revents & POLLIN) != 0) {
      while (::read(wake_rd, buf, sizeof(buf)) > 0) {
      }
    }

    // Accept.
    if ((pfds[0].revents & POLLIN) != 0) {
      for (;;) {
        const int cfd = ::accept(listen_fd, nullptr, nullptr);
        if (cfd < 0) {
          break;
        }
        ::fcntl(cfd, F_SETFL, O_NONBLOCK);
        const int one = 1;
        ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn = std::make_shared<Conn>();
        conn->fd = cfd;
        conn->reader = FrameReader(opts.max_frame_bytes);
        conn->last_activity = std::chrono::steady_clock::now();
        conn->opened_s = clock.seconds();
        {
          const std::lock_guard<std::mutex> lock(conns_mutex);
          conn->session = next_session++;
          conns[cfd] = conn;
          all_sessions.push_back(conn);
        }
        sessions_opened().add();
      }
    }

    // Per-connection IO.
    for (std::size_t i = 2; i < pfds.size(); ++i) {
      const auto& conn = order[i - 2];
      const short re = pfds[i].revents;
      if (re == 0) {
        continue;
      }
      if ((re & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((re & POLLIN) != 0) {
        bool dead = false;
        for (;;) {
          const ssize_t got = ::recv(conn->fd, buf, sizeof(buf), 0);
          if (got > 0) {
            conn->last_activity = std::chrono::steady_clock::now();
            conn->reader.feed(buf, static_cast<std::size_t>(got));
            continue;
          }
          if (got == 0) {
            dead = true;
          }
          break;  // EAGAIN or error or EOF
        }
        try {
          Message m;
          while (conn->reader.next(m)) {
            handle_frame(conn, m);
          }
        } catch (const std::exception& e) {
          // Malformed frame: answer ERROR, then drop the connection.
          send(conn, error_msg(e.what()));
          conn->close_after_flush = true;
        }
        if (dead) {
          close_conn(conn);
          continue;
        }
      }
      if ((re & POLLOUT) != 0) {
        const std::lock_guard<std::mutex> ol(conn->out_mutex);
        while (conn->out_off < conn->outbox.size()) {
          const ssize_t put =
              ::send(conn->fd, conn->outbox.data() + conn->out_off,
                     conn->outbox.size() - conn->out_off, MSG_NOSIGNAL);
          if (put <= 0) {
            break;
          }
          conn->out_off += static_cast<std::size_t>(put);
        }
        if (conn->out_off >= conn->outbox.size()) {
          conn->outbox.clear();
          conn->out_off = 0;
        }
      }
    }

    // Flush-then-close and idle-timeout sweeps.
    std::vector<std::shared_ptr<Conn>> to_close;
    {
      const std::lock_guard<std::mutex> lock(conns_mutex);
      const auto now = std::chrono::steady_clock::now();
      for (auto& [fd, conn] : conns) {
        bool drained;
        {
          const std::lock_guard<std::mutex> ol(conn->out_mutex);
          drained = conn->out_off >= conn->outbox.size();
        }
        if (conn->close_after_flush && drained) {
          to_close.push_back(conn);
          continue;
        }
        if (opts.idle_timeout_ms > 0 && conn->jobs.empty()) {
          const auto idle =
              std::chrono::duration_cast<std::chrono::milliseconds>(
                  now - conn->last_activity)
                  .count();
          if (idle > opts.idle_timeout_ms) {
            to_close.push_back(conn);
          }
        }
      }
    }
    for (const auto& conn : to_close) {
      close_conn(conn);
    }
  }
}

void Server::Impl::close_conn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed.exchange(true)) {
    return;
  }
  // Disconnect-driven cancellation: every job this session owns aborts
  // at its next cancellation poll.
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex);
    for (const std::uint64_t id : conn->jobs) {
      const auto it = jobs.find(id);
      if (it != jobs.end()) {
        it->second->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
  conn->closed_s.store(clock.seconds(), std::memory_order_relaxed);
  {
    const std::lock_guard<std::mutex> lock(conns_mutex);
    conns.erase(conn->fd);
  }
  ::close(conn->fd);
  sessions_closed().add();
}

// -------------------------------------------------------------- handlers

void Server::Impl::handle_frame(const std::shared_ptr<Conn>& conn,
                                const Message& m) {
  switch (m.type) {
    case MsgType::kPing: {
      Message r;
      r.type = MsgType::kPong;
      send(conn, r);
      return;
    }
    case MsgType::kBye: {
      Message r;
      r.type = MsgType::kOk;
      r.json = "{}";
      send(conn, r);
      conn->close_after_flush = true;
      return;
    }
    case MsgType::kStats:
      handle_stats(conn);
      return;
    case MsgType::kCancel:
      handle_cancel(conn, m);
      return;
    case MsgType::kCompile:
      // Compiling can take seconds (the native backend shells out to the
      // host compiler) — never on the event loop.
      handle_compile(conn, m);
      return;
    case MsgType::kSubmit:
      handle_submit(conn, m);
      return;
    default:
      throw omx::Error(std::string("svc: unexpected ") + to_string(m.type) +
                       " from client");
  }
}

std::shared_ptr<ModelEntry> Server::Impl::compile_model_payload(
    const std::string& json, bool& cached) {
  const std::string key = "m" + support::hex16(support::fnv1a(json));
  std::shared_ptr<ModelSlot> slot;
  {
    const std::lock_guard<std::mutex> lock(models_mutex);
    auto& s = models[key];
    if (!s) {
      s = std::make_shared<ModelSlot>();
    }
    slot = s;
  }
  const std::lock_guard<std::mutex> lock(slot->mutex);
  if (slot->entry) {
    cached = true;
    return slot->entry;
  }
  cached = false;

  const support::json::Value req = support::json::parse(json);
  pipeline::ModelBuilder builder;
  const std::string builtin = req.get_string("builtin", "");
  if (builtin == "bearing2d") {
    models::BearingConfig cfg;
    cfg.n_rollers = static_cast<int>(requested_count(
        req, "rollers", static_cast<std::size_t>(cfg.n_rollers), 2,
        kMaxBuiltinRollers));
    builder = [cfg](expr::Context& ctx) {
      return models::build_bearing(ctx, cfg);
    };
  } else if (builtin == "oscillator") {
    builder = [](expr::Context& ctx) {
      return models::build_oscillator(ctx);
    };
  } else if (!builtin.empty()) {
    throw omx::Error("svc: unknown builtin model '" + builtin + "'");
  } else {
    const std::string source = req.get_string("source", "");
    if (source.empty()) {
      throw omx::Error("svc: COMPILE needs \"builtin\" or \"source\"");
    }
    builder = [source](expr::Context& ctx) {
      return parser::parse_model(source, ctx);
    };
  }

  auto entry = std::make_shared<ModelEntry>();
  entry->id = key;
  entry->cm = pipeline::compile_model(builder);
  pipeline::KernelOptions ko;
  ko.lanes = opts.kernel_lanes;
  entry->kernel = entry->cm.make_kernel(opts.backend, ko);
  entry->backend_name = exec::to_string(entry->kernel.backend());
  entry->y0.resize(entry->cm.n());
  for (std::size_t i = 0; i < entry->y0.size(); ++i) {
    entry->y0[i] = entry->cm.flat->states()[i].start;
  }
  slot->entry = entry;
  return entry;
}

void Server::Impl::handle_compile(const std::shared_ptr<Conn>& conn,
                                  Message m) {
  post([this, conn, m = std::move(m)] {
    try {
      bool cached = false;
      const std::shared_ptr<ModelEntry> entry =
          compile_model_payload(m.json, cached);
      std::ostringstream js;
      js << "{\"model\": \"" << entry->id
         << "\", \"n\": " << entry->y0.size() << ", \"backend\": \""
         << entry->backend_name
         << "\", \"cached\": " << (cached ? "true" : "false")
         << ", \"y0\": [";
      for (std::size_t i = 0; i < entry->y0.size(); ++i) {
        js << (i > 0 ? ", " : "") << entry->y0[i];
      }
      js << "]}";
      Message r;
      r.type = MsgType::kOk;
      r.json = js.str();
      send(conn, r);
    } catch (const std::exception& e) {
      send(conn, error_msg(e.what()));
    }
  });
}

void Server::Impl::handle_submit(const std::shared_ptr<Conn>& conn,
                                 const Message& m) {
  const support::json::Value req = support::json::parse(m.json);
  const std::string model_id = req.get_string("model", "");
  std::shared_ptr<ModelEntry> entry;
  {
    const std::lock_guard<std::mutex> lock(models_mutex);
    const auto it = models.find(model_id);
    if (it != models.end()) {
      const std::lock_guard<std::mutex> sl(it->second->mutex);
      entry = it->second->entry;
    }
  }
  if (!entry) {
    send(conn, error_msg("svc: unknown model '" + model_id +
                         "' (COMPILE first)"));
    return;
  }

  const std::size_t n = entry->y0.size();
  auto job = std::make_shared<Job>();
  std::size_t scenarios = 0;
  try {
    scenarios = requested_count(req, "scenarios", 1, 1, kMaxScenarios);
    job->method = parse_method(req.get_string("method", "dopri5"));
    job->t0 = req.get_number("t0", 0.0);
    job->tend = req.get_number("tend", 1.0);
    job->stream = req.get_bool("stream", true);
    job->sopts.tol.rtol = req.get_number("rtol", job->sopts.tol.rtol);
    job->sopts.tol.atol = req.get_number("atol", job->sopts.tol.atol);
    job->sopts.dt = req.get_number("dt", job->sopts.dt);
    job->sopts.record_every =
        requested_count(req, "record_every", 1, 0, kMaxCount);
    job->spec.workers = std::clamp<std::size_t>(
        requested_count(req, "workers", opts.job_workers, 0, kMaxCount), 1,
        hardware_workers());
    job->spec.max_batch =
        requested_count(req, "max_batch", job->spec.max_batch, 0, kMaxCount);
    job->autotune = req.get_bool("autotune", false);
  } catch (const omx::Error& e) {
    send(conn, error_msg(e.what()));
    return;
  }
  job->conn = conn;
  job->model = entry;
  job->sopts.cancel = &job->cancel;

  job->spec.initial_states.resize(scenarios);
  if (!m.binary.empty()) {
    if (m.binary.size() != scenarios * n * 8) {
      send(conn, error_msg("svc: SUBMIT binary payload is " +
                           std::to_string(m.binary.size()) +
                           " bytes, expected " +
                           std::to_string(scenarios * n * 8)));
      return;
    }
    for (std::size_t s = 0; s < scenarios; ++s) {
      job->spec.initial_states[s].resize(n);
      read_f64(m.binary, s * n * 8, job->spec.initial_states[s].data(), n);
    }
  } else {
    for (std::size_t s = 0; s < scenarios; ++s) {
      job->spec.initial_states[s] = entry->y0;
    }
  }

  // Admission: run now, wait in the bounded queue, or push back.
  const runtime::Admission verdict = gate.admit();
  if (verdict == runtime::Admission::kReject) {
    conn->rejects.fetch_add(1, std::memory_order_relaxed);
    jobs_rejected_total().add();
    Message r;
    r.type = MsgType::kRetry;
    r.json = "{\"retry_after_ms\": " + std::to_string(opts.retry_after_ms) +
             "}";
    send(conn, r);
    return;
  }
  job->queued = verdict == runtime::Admission::kQueue;
  job->id = next_job.fetch_add(1);
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex);
    jobs[job->id] = job;
  }
  conn->jobs.insert(job->id);
  conn->jobs_submitted.fetch_add(1, std::memory_order_relaxed);
  jobs_submitted_total().add();
  record_queue_depth();

  Message r;
  r.type = MsgType::kOk;
  r.json = "{\"job\": " + std::to_string(job->id) + "}";
  send(conn, r);
  post([this, job] { run_job(job); });
}

void Server::Impl::handle_cancel(const std::shared_ptr<Conn>& conn,
                                 const Message& m) {
  const support::json::Value req = support::json::parse(m.json);
  const auto id =
      static_cast<std::uint64_t>(req.get_number("job", 0.0));
  bool cancelled = false;
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex);
    const auto it = jobs.find(id);
    // Cancel-after-retire (or a bogus id) is a no-op, not an error: the
    // race between DONE and CANCEL is inherent to the protocol.
    if (it != jobs.end() &&
        !it->second->finished.load(std::memory_order_relaxed)) {
      it->second->cancel.store(true, std::memory_order_relaxed);
      cancelled = true;
    }
  }
  Message r;
  r.type = MsgType::kOk;
  r.json = std::string("{\"cancelled\": ") +
           (cancelled ? "true" : "false") + "}";
  send(conn, r);
}

void Server::Impl::handle_stats(const std::shared_ptr<Conn>& conn) {
  std::ostringstream js;
  std::size_t live;
  {
    const std::lock_guard<std::mutex> lock(conns_mutex);
    live = conns.size();
  }
  js << "{\"active_jobs\": " << gate.active()
     << ", \"queued_jobs\": " << gate.queued()
     << ", \"sessions\": " << live
     << ", \"executors\": " << opts.executors
     << ", \"queue_cap\": " << opts.queue_cap << "}";
  Message r;
  r.type = MsgType::kOk;
  r.json = js.str();
  send(conn, r);
}

void Server::Impl::run_job(const std::shared_ptr<Job>& job) {
  if (job->queued) {
    gate.on_start();
    record_queue_depth();
  }

  Stopwatch timer;
  StreamSink sink(this, job);
  bool cancelled = false;
  std::string error;
  try {
    // An interpreter kernel keeps one workspace per lane, and every job's
    // ensemble workers start at lane 0: concurrent jobs must not share
    // one. Native kernels are stateless and stay shared.
    exec::KernelInstance kernel = job->model->kernel;
    if (kernel.backend() == exec::Backend::kInterp) {
      pipeline::KernelOptions ko;
      ko.lanes = opts.kernel_lanes;
      kernel = job->model->cm.make_kernel(exec::Backend::kInterp, ko);
    }
    const ode::Problem problem =
        job->model->cm.make_problem(kernel, job->t0, job->tend);
    if (job->autotune) {
      // Daemon-side configuration pick: the default batch width (a whole
      // number of SIMD blocks on every lane width) and one worker per
      // batch of scenarios, up to one per hardware thread.
      const std::size_t ns = job->spec.initial_states.size();
      job->spec.max_batch = ode::EnsembleSpec{}.max_batch;
      job->spec.workers =
          std::min(hardware_workers(),
                   (ns + job->spec.max_batch - 1) / job->spec.max_batch);
      jobs_autotuned_total().add();
    }
    ode::solve_ensemble(problem, job->method, job->sopts, job->spec, sink);
  } catch (const ode::Cancelled&) {
    cancelled = true;
  } catch (const std::exception& e) {
    error = e.what();
  }
  job->finished.store(true, std::memory_order_relaxed);
  gate.on_finish();
  record_queue_depth();
  job_seconds_hist().observe(timer.seconds());

  const auto& conn = job->conn;
  if (cancelled) {
    conn->jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
    jobs_cancelled_total().add();
  } else {
    conn->jobs_done.fetch_add(1, std::memory_order_relaxed);
    jobs_done_total().add();
  }

  std::ostringstream js;
  js << "{\"job\": " << job->id
     << ", \"cancelled\": " << (cancelled ? "true" : "false")
     << ", \"scenarios\": " << job->spec.initial_states.size()
     << ", \"frames\": " << sink.frames() << ", \"rows\": [";
  const auto& rows = sink.rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    js << (i > 0 ? ", " : "") << rows[i];
  }
  js << "]";
  if (!error.empty()) {
    js << ", \"error\": \"" << obs::json_escape(error) << "\"";
  }
  js << "}";
  Message done;
  done.type = MsgType::kDone;
  done.json = js.str();
  send(conn, done);

  {
    const std::lock_guard<std::mutex> lock(jobs_mutex);
    jobs.erase(job->id);
  }
}

// ----------------------------------------------------------- service_json

std::string Server::Impl::service_json() const {
  std::ostringstream os;
  os << "{\n  \"summary\": {";
  std::uint64_t submitted = 0, done = 0, cancelled = 0, rejects = 0,
                frames = 0, bytes = 0;
  std::vector<std::shared_ptr<Conn>> sessions;
  {
    const std::lock_guard<std::mutex> lock(conns_mutex);
    sessions = all_sessions;
  }
  for (const auto& c : sessions) {
    submitted += c->jobs_submitted.load(std::memory_order_relaxed);
    done += c->jobs_done.load(std::memory_order_relaxed);
    cancelled += c->jobs_cancelled.load(std::memory_order_relaxed);
    rejects += c->rejects.load(std::memory_order_relaxed);
    frames += c->frames.load(std::memory_order_relaxed);
    bytes += c->bytes_out.load(std::memory_order_relaxed);
  }
  os << "\"sessions\": " << sessions.size()
     << ", \"jobs_submitted\": " << submitted << ", \"jobs_done\": " << done
     << ", \"jobs_cancelled\": " << cancelled
     << ", \"rejects\": " << rejects << ", \"frames\": " << frames
     << ", \"bytes_sent\": " << bytes << "},\n  \"sessions\": [\n";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& c = sessions[i];
    const double closed_at = c->closed_s.load(std::memory_order_relaxed);
    const double dur =
        (closed_at >= 0.0 ? closed_at : clock.seconds()) - c->opened_s;
    os << "    {\"session\": " << c->session << ", \"open\": "
       << (c->closed.load(std::memory_order_relaxed) ? "false" : "true")
       << ", \"duration_s\": " << dur << ", \"jobs_submitted\": "
       << c->jobs_submitted.load(std::memory_order_relaxed)
       << ", \"jobs_done\": " << c->jobs_done.load(std::memory_order_relaxed)
       << ", \"jobs_cancelled\": "
       << c->jobs_cancelled.load(std::memory_order_relaxed)
       << ", \"rejects\": " << c->rejects.load(std::memory_order_relaxed)
       << ", \"frames\": " << c->frames.load(std::memory_order_relaxed)
       << ", \"bytes_sent\": "
       << c->bytes_out.load(std::memory_order_relaxed) << "}"
       << (i + 1 < sessions.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"queue_depth_timeline\": [";
  {
    const std::lock_guard<std::mutex> lock(timeline_mutex);
    for (std::size_t i = 0; i < timeline.size(); ++i) {
      os << (i > 0 ? ", " : "") << "[" << timeline[i].first << ", "
         << timeline[i].second << "]";
    }
  }
  os << "]\n}\n";
  return os.str();
}

// ---------------------------------------------------------------- Server

Server::Server(ServerOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts))) {}

Server::~Server() { stop(); }

void Server::start() { impl_->start(); }

void Server::stop() { impl_->stop(); }

std::uint16_t Server::port() const { return impl_->bound_port; }

std::string Server::service_json() const { return impl_->service_json(); }

}  // namespace omx::svc
