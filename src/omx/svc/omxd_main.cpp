// omxd — the simulation service daemon.
//
// Boots a svc::Server, prints the bound port (machine-readable, for CI
// harnesses polling the log), and runs until SIGTERM/SIGINT. On
// shutdown it writes the obs metrics snapshot and the per-session
// service report so the run leaves artifacts behind, e.g. (one line):
//
//   omxd --port 0 --executors 2 --queue-cap 8
//        --metrics svc_metrics.json --service-json svc_service.json
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "omx/obs/export.hpp"
#include "omx/obs/registry.hpp"
#include "omx/support/cli.hpp"
#include "omx/svc/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--bind ADDR] [--port N] [--executors N] [--queue-cap N]\n"
      "          [--retry-after-ms N] [--idle-timeout-ms N]\n"
      "          [--job-workers N] [--interp]\n"
      "          [--metrics PATH] [--service-json PATH]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  omx::svc::ServerOptions opts;
  std::string metrics_path;
  std::string service_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage(argv[0]));
      }
      return argv[++i];
    };
    auto number = [&](long long lo, long long hi) -> long long {
      const auto v = omx::cli::parse_int(next(), lo, hi);
      if (!v) {
        std::exit(usage(argv[0]));
      }
      return *v;
    };
    if (arg == "--bind") {
      opts.bind = next();
    } else if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(number(0, 65535));
    } else if (arg == "--executors") {
      opts.executors = static_cast<std::size_t>(number(1, 256));
    } else if (arg == "--queue-cap") {
      opts.queue_cap = static_cast<std::size_t>(number(0, INT_MAX));
    } else if (arg == "--retry-after-ms") {
      opts.retry_after_ms = static_cast<int>(number(0, INT_MAX));
    } else if (arg == "--idle-timeout-ms") {
      opts.idle_timeout_ms = static_cast<int>(number(0, INT_MAX));
    } else if (arg == "--job-workers") {
      opts.job_workers = static_cast<std::size_t>(number(1, 256));
    } else if (arg == "--interp") {
      opts.backend = omx::exec::Backend::kInterp;
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--service-json") {
      service_path = next();
    } else {
      return usage(argv[0]);
    }
  }

  omx::svc::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omxd: %s\n", e.what());
    return 1;
  }
  std::printf("omxd listening on %u\n", server.port());
  std::fflush(stdout);

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  sigset_t mask;
  sigemptyset(&mask);
  while (g_stop == 0) {
    sigsuspend(&mask);  // sleeps until any signal is delivered
  }

  std::printf("omxd shutting down\n");
  server.stop();
  if (!service_path.empty()) {
    omx::obs::write_file(service_path, server.service_json());
  }
  if (!metrics_path.empty()) {
    omx::obs::write_file(
        metrics_path,
        omx::obs::metrics_json(omx::obs::Registry::global().snapshot()));
  }
  return 0;
}
