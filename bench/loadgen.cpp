// Service-tier load driver: N concurrent clients x M scenarios each
// against an omxd daemon, measuring end-to-end job latency (submit ->
// DONE) and streamed-frame integrity (every row the solver produced
// must arrive; a mismatch is a dropped frame).
//
// Each client runs closed-loop: compile the model (a cache hit for all
// but the first client), then submit one-scenario streaming jobs one
// after another, honoring RETRY backpressure with the server's backoff
// hint. Scenario initial states perturb the model's equilibrium like
// examples/param_sweep.cpp does, so jobs carry real solver work.
//
// Default mode spawns an in-process svc::Server (no daemon needed);
// --connect HOST:PORT drives an external omxd — the CI service job
// boots one and points this at it. Results export to
// BENCH_service.json for scripts/bench_gate.py gate_service.
//
// --job-scenarios S --job-workers W set every job's shape (omxbench's
// daemon workload runs S=8 on W=2). An in-process run also exports the
// ensemble.batch_occupancy histogram its jobs' workers recorded (lanes
// per stepper round; report only), so the batch widths a job shape
// reaches the kernel at are on record.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/support/timer.hpp"
#include "omx/svc/client.hpp"
#include "omx/svc/server.hpp"

using namespace omx;

namespace {

struct Args {
  std::size_t clients = 8;
  std::size_t scenarios = 32;  // jobs per client
  std::string model = "bearing2d";
  int rollers = 10;
  std::string method = "dopri5";
  double tend = 0.005;
  std::size_t record_every = 8;
  std::string connect_host;  // empty = in-process server
  std::uint16_t connect_port = 0;
  std::size_t executors = 2;
  std::size_t queue_cap = 8;
  std::string out = "BENCH_service.json";
  // --autotune: submit multi-scenario jobs with "autotune": true so the
  // daemon picks each job's workers and batch width.
  bool autotune = false;
  // Scenarios per job; 0 = 4 in autotune mode, else 1.
  std::size_t job_scenarios = 0;
  std::size_t job_workers = 0;  // 0 = server default (autotune ignores it)

  std::size_t scenarios_per_job() const {
    return job_scenarios > 0 ? job_scenarios : (autotune ? 4 : 1);
  }
};

struct ClientResult {
  std::vector<double> latencies_s;
  std::uint64_t jobs_ok = 0;
  std::uint64_t jobs_err = 0;
  std::uint64_t retries = 0;
  std::uint64_t frames = 0;
  std::uint64_t rows_streamed = 0;
  std::uint64_t rows_reported = 0;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void run_client(const Args& args, const std::string& host,
                std::uint16_t port, std::size_t idx, ClientResult& out) {
  svc::Client client;
  client.connect(host, port);
  const svc::ModelInfo model =
      args.model == "oscillator"
          ? client.compile_builtin("oscillator")
          : client.compile_builtin(args.model, args.rollers);

  for (std::size_t j = 0; j < args.scenarios; ++j) {
    svc::SubmitRequest req;
    req.model = model.model;
    req.method = args.method;
    req.tend = args.tend;
    req.scenarios = args.scenarios_per_job();
    req.workers = args.job_workers;
    req.record_every = args.record_every;
    req.autotune = args.autotune;
    // Distinct initial condition per scenario, small against the bearing
    // clearance (same perturbation scheme as examples/param_sweep.cpp).
    for (std::size_t s = 0; s < req.scenarios; ++s) {
      std::vector<double> y0 = model.y0;
      if (y0.size() > 1) {
        // A grid of 4 per job, or of the job width --job-scenarios sets.
        const std::size_t stride =
            args.job_scenarios > 0 ? args.job_scenarios : 4;
        const double frac =
            static_cast<double>((idx * args.scenarios + j) * stride + s +
                                1) /
            static_cast<double>(args.clients * args.scenarios * stride + 1);
        y0[1] += frac * 1e-5;
      }
      req.y0s.insert(req.y0s.end(), y0.begin(), y0.end());
    }

    Stopwatch timer;
    svc::SubmitResult sub;
    for (;;) {
      sub = client.submit(req);
      if (sub.accepted) {
        break;
      }
      ++out.retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max(1, sub.retry_after_ms)));
    }

    // Closed loop: drain this job's stream until DONE.
    std::uint64_t rows_streamed = 0;
    for (;;) {
      svc::Event ev;
      if (!client.next_event(ev, 120000)) {
        std::fprintf(stderr, "loadgen: job %llu timed out\n",
                     static_cast<unsigned long long>(sub.job));
        ++out.jobs_err;
        break;
      }
      if (ev.kind == svc::Event::Kind::kFrame) {
        rows_streamed += ev.rows;
        ++out.frames;
        continue;
      }
      // DONE
      out.latencies_s.push_back(timer.seconds());
      std::uint64_t reported = 0;
      for (const std::uint64_t r : ev.row_counts) {
        reported += r;
      }
      out.rows_streamed += rows_streamed;
      out.rows_reported += reported;
      if (!ev.error.empty() || ev.cancelled) {
        ++out.jobs_err;
      } else {
        ++out.jobs_ok;
      }
      break;
    }
  }
  client.bye();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "loadgen: missing value for %s\n",
                     arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--clients") {
      args.clients = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--scenarios") {
      args.scenarios = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--model") {
      args.model = next();
    } else if (arg == "--rollers") {
      args.rollers = std::atoi(next());
    } else if (arg == "--method") {
      args.method = next();
    } else if (arg == "--tend") {
      args.tend = std::atof(next());
    } else if (arg == "--record-every") {
      args.record_every = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--executors") {
      args.executors = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--queue-cap") {
      args.queue_cap = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--out") {
      args.out = next();
    } else if (arg == "--autotune") {
      args.autotune = true;
    } else if (arg == "--job-scenarios") {
      args.job_scenarios =
          std::max<std::size_t>(1, static_cast<std::size_t>(std::atol(next())));
    } else if (arg == "--job-workers") {
      args.job_workers = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--connect") {
      const std::string hp = next();
      const std::size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "loadgen: --connect needs HOST:PORT\n");
        return 2;
      }
      args.connect_host = hp.substr(0, colon);
      args.connect_port =
          static_cast<std::uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else {
      std::fprintf(stderr, "loadgen: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // External daemon or an in-process server for self-contained runs.
  std::unique_ptr<svc::Server> server;
  std::string host = args.connect_host;
  std::uint16_t port = args.connect_port;
  if (host.empty()) {
    svc::ServerOptions so;
    so.executors = args.executors;
    so.queue_cap = args.queue_cap;
    server = std::make_unique<svc::Server>(so);
    server->start();
    host = "127.0.0.1";
    port = server->port();
    std::printf("loadgen: in-process server on port %u\n", port);
  }

  std::printf(
      "loadgen: %zu clients x %zu jobs, model=%s method=%s tend=%g\n",
      args.clients, args.scenarios, args.model.c_str(),
      args.method.c_str(), args.tend);

  std::vector<ClientResult> results(args.clients);
  Stopwatch wall;
  std::vector<std::thread> threads;
  threads.reserve(args.clients);
  for (std::size_t c = 0; c < args.clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        run_client(args, host, port, c, results[c]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "loadgen: client %zu failed: %s\n", c,
                     e.what());
        results[c].jobs_err += 1;
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const double wall_s = wall.seconds();

  ClientResult total;
  for (const ClientResult& r : results) {
    total.jobs_ok += r.jobs_ok;
    total.jobs_err += r.jobs_err;
    total.retries += r.retries;
    total.frames += r.frames;
    total.rows_streamed += r.rows_streamed;
    total.rows_reported += r.rows_reported;
    total.latencies_s.insert(total.latencies_s.end(),
                             r.latencies_s.begin(), r.latencies_s.end());
  }
  std::sort(total.latencies_s.begin(), total.latencies_s.end());
  const double p50 = percentile(total.latencies_s, 0.50) * 1e3;
  const double p99 = percentile(total.latencies_s, 0.99) * 1e3;
  const std::uint64_t jobs_total = args.clients * args.scenarios;
  const std::uint64_t dropped =
      total.rows_reported >= total.rows_streamed
          ? total.rows_reported - total.rows_streamed
          : total.rows_streamed - total.rows_reported;
  const double jobs_per_s =
      wall_s > 0.0 ? static_cast<double>(jobs_total) / wall_s : 0.0;

  std::printf("loadgen: %llu/%llu ok, %llu retries, %llu frames, "
              "%llu dropped rows\n",
              static_cast<unsigned long long>(total.jobs_ok),
              static_cast<unsigned long long>(jobs_total),
              static_cast<unsigned long long>(total.retries),
              static_cast<unsigned long long>(total.frames),
              static_cast<unsigned long long>(dropped));
  std::printf("loadgen: p50 %.2f ms  p99 %.2f ms  %.1f jobs/s\n", p50, p99,
              jobs_per_s);

  obs::Registry metrics;
  metrics.gauge("service.clients").set(static_cast<double>(args.clients));
  metrics.gauge("service.scenarios_per_client")
      .set(static_cast<double>(args.scenarios));
  metrics.gauge("service.jobs_total").set(static_cast<double>(jobs_total));
  metrics.gauge("service.jobs_ok").set(static_cast<double>(total.jobs_ok));
  metrics.gauge("service.retries").set(static_cast<double>(total.retries));
  metrics.gauge("service.frames_total")
      .set(static_cast<double>(total.frames));
  metrics.gauge("service.rows_streamed")
      .set(static_cast<double>(total.rows_streamed));
  metrics.gauge("service.dropped_frames").set(static_cast<double>(dropped));
  metrics.gauge("service.p50_ms").set(p50);
  metrics.gauge("service.p99_ms").set(p99);
  metrics.gauge("service.p99_over_p50").set(p50 > 0.0 ? p99 / p50 : 0.0);
  metrics.gauge("service.jobs_per_s").set(jobs_per_s);
  metrics.gauge("service.wall_seconds").set(wall_s);
  metrics.gauge("service.autotune").set(args.autotune ? 1.0 : 0.0);
  metrics.gauge("service.hardware_concurrency")
      .set(static_cast<double>(std::thread::hardware_concurrency()));
  metrics.gauge("service.job_scenarios")
      .set(static_cast<double>(args.scenarios_per_job()));
  metrics.gauge("service.job_workers")
      .set(static_cast<double>(args.job_workers));
  if (server) {
    // Rounds by batch width: bucket le_<b> counts rounds of more lanes
    // than the previous bound and at most b.
    const obs::Histogram& occ = obs::Registry::global().histogram(
        "ensemble.batch_occupancy", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
    const std::vector<std::uint64_t> counts = occ.counts();
    std::printf("loadgen: batch occupancy (rounds by lanes):");
    for (std::size_t b = 0; b < counts.size(); ++b) {
      const std::string le =
          b < occ.bounds().size()
              ? "le_" + std::to_string(static_cast<int>(occ.bounds()[b]))
              : std::string("over");
      metrics.gauge("service.batch_occupancy." + le)
          .set(static_cast<double>(counts[b]));
      std::printf(" %s=%llu", le.c_str(),
                  static_cast<unsigned long long>(counts[b]));
    }
    const double mean =
        occ.count() > 0 ? occ.sum() / static_cast<double>(occ.count()) : 0.0;
    metrics.gauge("service.batch_occupancy.mean").set(mean);
    std::printf("  mean %.2f\n", mean);
  }
  if (!obs::write_file(args.out, obs::metrics_json(metrics.snapshot()))) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", args.out.c_str());
    return 1;
  }
  std::printf("loadgen: wrote %s\n", args.out.c_str());

  if (server) {
    server->stop();
  }
  // Dropped rows are a streaming-integrity failure even when every job
  // nominally succeeded — fail the run, not just the gate.
  return (total.jobs_ok == jobs_total && dropped == 0) ? 0 : 1;
}
