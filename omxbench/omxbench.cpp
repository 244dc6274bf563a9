// omxbench: the end-to-end benchmark program for OMX.
//
// One run = one workload, one seed, a fixed measuring window. Every
// workload starts from model *source text* and goes through the tool
// chain the way a user's job does: parse -> compile_model -> native
// kernel -> solver -> TrajectorySink, and for the daemon workload on to
// frames on the service socket.
//
//   compile   cold compiles of seeded servo-bank models, one per core
//             at a time: the request is compiling the batch, host
//             compiler included, into fresh native caches; each kernel is
//             then checked against the tape interpreter and a short
//             ensemble solve
//   explicit  DOPRI5 ensemble sweeps of perturbed bearing scenarios on
//             the native batched kernel (checked: ensemble == sequential)
//   stiff     BDF ensemble sweeps of the n=128 heat PDE with the sparse
//             symbolic Jacobian (checked against the exact semidiscrete
//             solution)
//   daemon    streamed jobs from concurrent closed-loop clients against an
//             in-process svc::Server over TCP (checked: every row
//             arrives, final rows equal a local reference solve)
//
// The other workloads compile fixed models (the seed varies their
// scenarios) and load the native objects from a cache that persists
// across runs (--cache-dir), the way a returning user's do. Only the first
// set-up in a fresh build pays the host compile for them, and the median
// of the repeated set-ups hides it.
//
// With --trace 0 the run reports end-to-end metrics (median request
// latency, median set-up time). No tail percentile: on a shared host it
// follows the other processes' load. With --trace 1 it turns on
// the program's span recorder, wraps the RHS kernel of every problem the
// benchmark builds in a timer, and reports per-layer metrics instead.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "omx/models/bearing2d.hpp"
#include "omx/models/heat1d.hpp"
#include "omx/obs/registry.hpp"
#include "omx/obs/trace.hpp"
#include "omx/ode/ensemble.hpp"
#include "omx/parser/parser.hpp"
#include "omx/parser/unparse.hpp"
#include "omx/pipeline/pipeline.hpp"
#include "omx/support/rng.hpp"
#include "omx/svc/client.hpp"
#include "omx/svc/server.hpp"

namespace fs = std::filesystem;
using namespace omx;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t nanos_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Linear-interpolated quantile of an unsorted sample (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

// ------------------------------------------------------------ run context

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string cache_dir = ".bench_build/kcache";
};

// Set-up repeats at least kMinSetups times, and until kMinSetupSeconds
// have passed, before the window and again after it; setup_s is the
// median of all of them. Single-threaded work on a shared host runs at
// one of two speeds (up to 1.8x apart) that switch every second or so,
// so set-ups sampled at two times give a steadier median than one block.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;

/// Time spent inside RHS kernels of the problems the benchmark builds
/// (trace mode only), in lane evaluations: a batched call of width nb
/// counts nb lanes.
struct KernelClock {
  std::atomic<std::int64_t> ns{0};
  std::atomic<std::uint64_t> lanes{0};
};

/// Compile-layer accounting for the compiles the benchmark runs; the
/// pipeline's phase spans, recorded on the compiling threads, supply the
/// rest.
struct CompileLayers {
  std::int64_t parse_ns = 0;
  std::int64_t build_ns = 0;
  std::uint64_t compiles = 0;
  std::uint64_t tape_ops = 0;
};

struct Context {
  Args args;
  KernelClock kernel;

  std::mutex mutex;  // guards the members below: compiles run in parallel
  CompileLayers compile;
  std::set<std::uint32_t> compile_tids;  // span-recorder ids of compilers
  std::uint64_t cache_dirs = 0;

  /// A cache directory no compile has used yet: every native compile
  /// the benchmark asks for is cold.
  std::string fresh_cache_dir() {
    const std::lock_guard<std::mutex> lock(mutex);
    return (fs::path(args.work_dir) / "cc" / std::to_string(cache_dirs++))
        .string();
  }

  CompileLayers compile_snapshot() {
    const std::lock_guard<std::mutex> lock(mutex);
    return compile;
  }
};

/// Request-level outcome of one measuring window.
struct Window {
  std::vector<double> latencies_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t frames = 0;  // daemon: FRAME messages received
};

// --------------------------------------------------------- model sources

std::string bearing_source(int rollers) {
  models::BearingConfig cfg;
  cfg.n_rollers = rollers;
  expr::Context ctx;
  return parser::unparse_model(models::build_bearing(ctx, cfg));
}

/// The servo example grown into a bank of position servos: a base motor
/// class with a PI loop, an inheriting variant, and an instance array —
/// classes, inheritance, parameters and algebraic variables for the
/// front end, one SCC per axis for the partitioner. Every parameter is
/// drawn from the seed, so each source text is distinct.
std::string servo_bank_source(int axes, SplitMix64& rng) {
  auto num = [&](double lo, double hi) {
    return std::to_string(rng.uniform(lo, hi));
  };
  std::string s = "model ServoBank\n  class Motor(phase)\n";
  s += "    param R = " + num(1.0, 1.4) + ";\n";
  s += "    param L = " + num(0.015, 0.025) + ";\n";
  s += "    param Ke = " + num(0.08, 0.12) + ";\n";
  s += "    param Kt = " + num(0.08, 0.12) + ";\n";
  s += "    param J = " + num(0.003, 0.005) + ";\n";
  s += "    param b = " + num(0.008, 0.012) + ";\n";
  s += "    param Kp = " + num(5.0, 7.0) + ";\n";
  s += "    param Ki = " + num(2.0, 3.0) + ";\n";
  s += "    var i start 0;\n    var w start 0;\n    var th start 0;\n";
  s += "    var ei start 0;\n    var ref;\n    var u;\n";
  s += "    eq ref == sin(time + phase);\n";
  s += "    eq u == Kp*(ref - th) + Ki*ei;\n";
  s += "    eq der(ei) == ref - th;\n";
  s += "    eq der(i) == (u - R*i - Ke*w)/L;\n";
  s += "    eq der(w) == (Kt*i - b*w)/J;\n";
  s += "    eq der(th) == w;\n  end\n";
  s += "  class FastMotor(phase) inherits Motor(phase)\n";
  s += "    param Kp = " + num(10.0, 14.0) + ";\n";
  s += "    param J = " + num(0.0015, 0.0025) + ";\n  end\n";
  s += "  instance axis[1.." + std::to_string(axes) +
       "] : Motor(" + num(0.3, 0.7) + "*index);\n";
  s += "  instance boost : FastMotor(" + num(1.5, 1.9) + ");\nend\n";
  return s;
}

/// The method-of-lines heat rod of models::build_heat1d as source text:
/// one class, state u<k> for interior node k (zero-padded, so the names
/// sort in node order), Dirichlet ends.
std::string heat_source(const models::Heat1dConfig& cfg) {
  const int n = cfg.n_cells;
  const double dx = 1.0 / (n + 1);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.17g", cfg.alpha / (dx * dx));
  const std::string coef = buf;
  auto u = [](int k) {
    char name[16];
    std::snprintf(name, sizeof(name), "u%04d", k);
    return std::string(name);
  };
  std::string s = "model Heat\n  class Rod\n";
  for (int k = 1; k <= n; ++k) {
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::sin(cfg.mode * std::numbers::pi * dx * k));
    s += "    var " + u(k) + " start " + buf + ";\n";
  }
  for (int k = 1; k <= n; ++k) {
    const std::string left = k > 1 ? u(k - 1) : "0";
    const std::string right = k < n ? u(k + 1) : "0";
    s += "    eq der(" + u(k) + ") == " + coef + " * (" + left + " - 2 * " +
         u(k) + " + " + right + ");\n";
  }
  s += "  end\n  instance rod : Rod;\nend\n";
  return s;
}

// ------------------------------------------------------------- compiling

/// A model compiled from text plus its native kernel. The kernel refers
/// to the model's programs, so it is declared (and destroyed) after it.
struct Compiled {
  pipeline::CompiledModel cm;
  exec::KernelInstance kernel;

  std::vector<double> y0() const {
    std::vector<double> y(cm.n());
    for (std::size_t i = 0; i < y.size(); ++i) {
      y[i] = cm.flat->states()[i].start;
    }
    return y;
  }
};

/// Source text -> CompiledModel -> native kernel, from a fresh cache
/// directory when `cold`, else from the persistent cache. Throws when the
/// native backend is unavailable: the benchmark measures the native path
/// only.
std::unique_ptr<Compiled> compile_text(Context& c, const std::string& source,
                                       bool jacobian, bool cold) {
  auto out = std::make_unique<Compiled>();
  pipeline::CompileOptions co;
  co.build_jacobian = jacobian;
  std::int64_t parse_ns = 0;
  out->cm = pipeline::compile_model(
      [&](expr::Context& ctx) {
        const auto t0 = Clock::now();
        model::Model m = parser::parse_model(source, ctx);
        parse_ns += nanos_since(t0);
        return m;
      },
      co);
  pipeline::KernelOptions ko;
  ko.lanes = worker_count();
  ko.native.cache_dir = cold ? c.fresh_cache_dir() : c.args.cache_dir;
  const auto t0 = Clock::now();
  out->kernel = out->cm.make_kernel(exec::Backend::kNative, ko);
  const std::int64_t build_ns = nanos_since(t0);
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.compile.build_ns += build_ns;
    c.compile.parse_ns += parse_ns;
    c.compile.compiles += 1;
    c.compile.tape_ops += out->cm.parallel_program.total_ops();
    c.compile_tids.insert(obs::TraceBuffer::thread_id());
  }
  if (out->kernel.backend() != exec::Backend::kNative) {
    throw omx::Error("omxbench: native backend unavailable");
  }
  return out;
}

/// make_problem, with the RHS entry points timed into `kc` in trace mode.
/// The untimed problem is kept alive by the wrappers (it owns the kernel
/// bindings they forward to).
ode::Problem make_problem(Context& c, const Compiled& m, double tend) {
  ode::Problem p = m.cm.make_problem(m.kernel, 0.0, tend);
  if (!c.args.trace) {
    return p;
  }
  auto base = std::make_shared<const ode::Problem>(p);
  KernelClock* kc = &c.kernel;
  p.set_rhs([base, kc](double t, std::span<const double> y,
                       std::span<double> ydot) {
    const auto t0 = Clock::now();
    base->rhs(t, y, ydot);
    kc->ns.fetch_add(nanos_since(t0), std::memory_order_relaxed);
    kc->lanes.fetch_add(1, std::memory_order_relaxed);
  });
  if (base->batch_rhs) {
    p.set_batch_rhs([base, kc](std::size_t lane, std::size_t nb,
                               const double* t, const double* y,
                               double* ydot) {
      const auto t0 = Clock::now();
      base->batch_rhs(lane, nb, t, y, ydot);
      kc->ns.fetch_add(nanos_since(t0), std::memory_order_relaxed);
      kc->lanes.fetch_add(nb, std::memory_order_relaxed);
    });
  }
  return p;
}

bool all_finite(std::span<const double> v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

// -------------------------------------------------------------- workloads

/// A workload builds its inputs and compiled state in setup() (run
/// several times; the last one is kept) and then serves requests.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(Context& c, std::uint64_t seed) = 0;
  /// Runs requests until `deadline`, recording each one into `w`.
  virtual void run(Context& c, Clock::time_point deadline, Window& w) = 0;
  virtual void teardown() {}
};

/// Single-caller loop: times `request`, then runs `check` untimed. A
/// request that throws failed; `check` returns false when the result is
/// wrong.
void serve(Clock::time_point deadline, Window& w,
           const std::function<void(std::uint64_t)>& request,
           const std::function<bool(std::uint64_t)>& check) {
  for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
    ++w.attempted;
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      request(i);
    } catch (const std::exception& e) {
      ok = false;
      std::fprintf(stderr, "omxbench: request %llu failed: %s\n",
                   static_cast<unsigned long long>(i), e.what());
    }
    const double dt = seconds_since(t0);
    if (ok) {
      w.latencies_s.push_back(dt);
    }
    if (!ok || !check(i)) {
      ++w.failed;
    }
  }
}

// ---- compile: cold compiles of seeded servo banks

class CompileWorkload final : public Workload {
 public:
  static constexpr int kAxes = 2;
  static constexpr std::size_t kSources = 32;

  void setup(Context& c, std::uint64_t seed) override {
    SplitMix64 rng(seed);
    sources_.clear();
    for (std::size_t i = 0; i < kSources; ++i) {
      sources_.push_back(servo_bank_source(kAxes, rng));
    }
    // One cold batch, so the timed requests find the host compiler's
    // binaries and headers already read from disk.
    compile_batch(c, 0);
    models_.clear();
  }

  void run(Context& c, Clock::time_point deadline, Window& w) override {
    serve(
        deadline, w, [&](std::uint64_t i) { compile_batch(c, i + 1); },
        [&](std::uint64_t) {
          const bool ok = std::all_of(
              models_.begin(), models_.end(),
              [&](const std::unique_ptr<Compiled>& m) { return check(c, *m); });
          models_.clear();
          return ok;
        });
  }

 private:
  /// Batch `b`: one model per worker, compiled concurrently, the way a
  /// model library builds or a daemon serves several users' COMPILEs.
  /// Spreading the batch over every core also keeps the figure steady on
  /// hosts whose cores run at different speeds.
  void compile_batch(Context& c, std::uint64_t b) {
    const std::size_t nb = worker_count();
    models_.clear();
    models_.resize(nb);
    std::vector<std::string> errors(nb);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < nb; ++k) {
      threads.emplace_back([&, k] {
        try {
          models_[k] = compile_text(c, sources_[(b * nb + k) % kSources],
                                    false, true);
        } catch (const std::exception& e) {
          errors[k] = e.what();
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (const std::string& e : errors) {
      if (!e.empty()) {
        throw omx::Error(e);
      }
    }
  }

  /// Native == interpreter on the RHS at perturbed states, and a short
  /// two-scenario ensemble solve equals the sequential solve bit for bit.
  static bool check(Context& c, const Compiled& m) {
    const exec::KernelInstance interp =
        m.cm.make_kernel(exec::Backend::kInterp);
    const std::size_t n = m.cm.n();
    std::vector<double> y = m.y0();
    std::vector<double> a(n), b(n);
    for (int k = 0; k < 3; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        y[i] *= 1.0 + 1e-3 * k;
      }
      m.kernel.kernel()(0.01 * k, y, a);
      interp.kernel()(0.01 * k, y, b);
      for (std::size_t i = 0; i < n; ++i) {
        if (!(std::abs(a[i] - b[i]) <= 1e-9 * (1.0 + std::abs(b[i])))) {
          return false;
        }
      }
    }
    const ode::Problem p = make_problem(c, m, 1e-4);
    ode::SolverOptions o;
    ode::EnsembleSpec spec;
    spec.workers = 2;
    spec.initial_states = {m.y0(), y};
    ode::StatsOnlySink sink(2);
    ode::solve_ensemble(p, ode::Method::kDopri5, o, spec, sink);
    ode::Problem ps = p;
    ps.y0 = y;
    const ode::Solution ref = ode::solve(ps, ode::Method::kDopri5, o);
    return bitwise_equal(sink.final_state(1), ref.final_state()) &&
           all_finite(sink.final_state(0));
  }

  std::vector<std::string> sources_;
  std::vector<std::unique_ptr<Compiled>> models_;
};

// ---- explicit: DOPRI5 ensemble sweeps over perturbed bearing scenarios

class ExplicitWorkload final : public Workload {
 public:
  static constexpr int kRollers = 10;
  static constexpr std::size_t kScenarios = 64;
  static constexpr double kTend = 0.004;

  void setup(Context& c, std::uint64_t seed) override {
    SplitMix64 rng(seed);
    problem_ = {};
    model_.reset();
    model_ = compile_text(c, bearing_source(kRollers), false, false);
    problem_ = make_problem(c, *model_, kTend);
    const std::vector<double> y0 = model_->y0();
    // Two solver workers, as in stiff: with one worker per core, a core
    // taken by another process stalls the whole sweep, and the figures
    // moved with the load on the host rather than with the program.
    spec_ = {};
    spec_.workers = 2;
    spec_.max_batch = 16;
    for (std::size_t s = 0; s < kScenarios; ++s) {
      std::vector<double> y = y0;
      for (double& v : y) {
        v += 1e-6 * rng.uniform(-1.0, 1.0) * (1.0 + std::abs(v));
      }
      spec_.initial_states.push_back(std::move(y));
    }
    sweep();  // warm-up: caches, allocator and worker stacks
  }

  void run(Context&, Clock::time_point deadline, Window& w) override {
    serve(
        deadline, w, [&](std::uint64_t) { sweep(); },
        [&](std::uint64_t i) {
          // Every lane reached tend; one lane (rotating) equals its
          // sequential solve bit for bit.
          for (std::size_t s = 0; s < kScenarios; ++s) {
            if (sink_->final_time(s) != kTend ||
                !all_finite(sink_->final_state(s))) {
              return false;
            }
          }
          const std::size_t s = i % kScenarios;
          ode::Problem ps = problem_;
          ps.y0 = spec_.initial_states[s];
          ode::StatsOnlySink ref;
          ode::solve(ps, ode::Method::kDopri5, {}, ref);
          return bitwise_equal(sink_->final_state(s), ref.final_state());
        });
  }

 private:
  void sweep() {
    sink_ = std::make_unique<ode::StatsOnlySink>(kScenarios);
    ode::solve_ensemble(problem_, ode::Method::kDopri5, {}, spec_, *sink_);
  }

  std::unique_ptr<Compiled> model_;
  ode::Problem problem_;
  ode::EnsembleSpec spec_;
  std::unique_ptr<ode::StatsOnlySink> sink_;
};

// ---- stiff: BDF ensemble sweeps of the heat PDE, sparse Jacobian

class StiffWorkload final : public Workload {
 public:
  static constexpr int kCells = 128;
  static constexpr std::size_t kScenarios = 64;
  static constexpr double kTend = 0.025;

  void setup(Context& c, std::uint64_t seed) override {
    SplitMix64 rng(seed);
    cfg_ = {};
    cfg_.n_cells = kCells;
    problem_ = {};
    model_.reset();
    model_ = compile_text(c, heat_source(cfg_), true, false);
    problem_ = make_problem(c, *model_, kTend);
    model_->cm.bind_symbolic_jacobian(problem_);
    // Node number of each flat state, from its name (rod.u0001 ...).
    node_.clear();
    for (const model::FlatState& st : model_->cm.flat->states()) {
      const std::string& name = model_->cm.ctx->names.name(st.name);
      node_.push_back(std::atoi(name.c_str() + name.rfind('u') + 1));
    }
    // Two solver workers leave headroom on a four-core host, where the
    // four-worker sweep's figures moved more from run to run.
    spec_ = {};
    spec_.workers = 2;
    modes_.clear();
    amps_.clear();
    // Scenario s starts from amp * sin(mode pi x): an eigenvector of the
    // discrete Laplacian, so its exact trajectory is a pure decay.
    const double dx = 1.0 / (kCells + 1);
    for (std::size_t s = 0; s < kScenarios; ++s) {
      const int mode = 1 + static_cast<int>(s % 3);
      const double amp = rng.uniform(0.5, 1.5);
      std::vector<double> y;
      for (const int k : node_) {
        y.push_back(amp * std::sin(mode * std::numbers::pi * dx * k));
      }
      modes_.push_back(mode);
      amps_.push_back(amp);
      spec_.initial_states.push_back(std::move(y));
    }
    sweep();  // warm-up: caches, allocator and worker stacks
  }

  void run(Context&, Clock::time_point deadline, Window& w) override {
    serve(
        deadline, w, [&](std::uint64_t) { sweep(); },
        [&](std::uint64_t) {
          for (std::size_t s = 0; s < kScenarios; ++s) {
            models::Heat1dConfig mc = cfg_;
            mc.mode = modes_[s];
            const std::span<const double> y = sink_->final_state(s);
            if (sink_->final_time(s) != kTend || y.size() != kCells) {
              return false;
            }
            for (int i = 0; i < kCells; ++i) {
              const double exact = amps_[s] * models::heat1d_semidiscrete_exact(
                                                  mc, node_[i], kTend);
              if (!(std::abs(y[i] - exact) <= 1e-3 * amps_[s])) {
                return false;
              }
            }
          }
          return true;
        });
  }

 private:
  void sweep() {
    ode::SolverOptions o;
    o.bdf_max_order = 2;
    sink_ = std::make_unique<ode::StatsOnlySink>(kScenarios);
    ode::solve_ensemble(problem_, ode::Method::kBdf, o, spec_, *sink_);
  }

  models::Heat1dConfig cfg_;
  std::unique_ptr<Compiled> model_;
  ode::Problem problem_;
  ode::EnsembleSpec spec_;
  std::vector<int> node_;  // node number of each state
  std::vector<int> modes_;
  std::vector<double> amps_;
  std::unique_ptr<ode::StatsOnlySink> sink_;
};

// ---- daemon: streamed jobs through an in-process svc::Server

class DaemonWorkload final : public Workload {
 public:
  static constexpr int kRollers = 10;
  static constexpr std::size_t kClients = 2;
  static constexpr std::size_t kJobs = 16;  // distinct jobs, reused
  static constexpr std::size_t kScenariosPerJob = 8;
  static constexpr double kTend = 0.002;
  static constexpr std::size_t kRecordEvery = 1;

  void setup(Context& c, std::uint64_t seed) override {
    teardown();
    SplitMix64 rng(seed);
    const std::string source = bearing_source(kRollers);

    // The daemon reads its cache location from the environment. Two
    // executors with two solver workers per job fill four cores.
    ::setenv("OMX_NATIVE_CACHE_DIR", c.args.cache_dir.c_str(), 1);
    svc::ServerOptions so;
    so.executors = 2;
    so.job_workers = 2;
    so.queue_cap = 8;
    server_ = std::make_unique<svc::Server>(so);
    server_->start();
    {
      svc::Client client;
      client.connect("127.0.0.1", server_->port());
      const svc::ModelInfo info = client.compile_source(source);
      model_id_ = info.model;
      if (info.backend != "native") {
        throw omx::Error("omxbench: daemon fell back to " + info.backend);
      }
      client.bye();
    }

    // Local compile of the same text: the reference the streamed results
    // are checked against.
    local_.reset();
    local_ = compile_text(c, source, false, false);
    const ode::Problem p = make_problem(c, *local_, kTend);
    const std::vector<double> y0 = local_->y0();
    const std::size_t n = y0.size();
    jobs_.assign(kJobs, {});
    ode::SolverOptions o;
    o.record_every = kRecordEvery;
    for (Job& job : jobs_) {
      for (std::size_t s = 0; s < kScenariosPerJob; ++s) {
        ode::Problem ps = p;
        ps.y0 = y0;
        for (double& v : ps.y0) {
          v += 1e-6 * rng.uniform(-1.0, 1.0) * (1.0 + std::abs(v));
        }
        ode::StatsOnlySink sink;
        ode::solve(ps, ode::Method::kDopri5, o, sink);
        job.y0s.insert(job.y0s.end(), ps.y0.begin(), ps.y0.end());
        const std::span<const double> f = sink.final_state();
        job.finals.insert(job.finals.end(), f.begin(), f.end());
      }
    }
    n_ = n;
  }

  void run(Context&, Clock::time_point deadline, Window& w) override {
    std::vector<Window> per(kClients);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kClients; ++k) {
      threads.emplace_back([&, k] {
        try {
          client_loop(k, deadline, per[k]);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "omxbench: client %zu failed: %s\n", k,
                       e.what());
          per[k].attempted += 1;
          per[k].failed += 1;
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    for (const Window& p : per) {
      w.latencies_s.insert(w.latencies_s.end(), p.latencies_s.begin(),
                           p.latencies_s.end());
      w.attempted += p.attempted;
      w.failed += p.failed;
      w.frames += p.frames;
    }
  }

  void teardown() override {
    if (server_) {
      server_->stop();
      server_.reset();
    }
  }

 private:
  struct Job {
    std::vector<double> y0s;     // scenario-major
    std::vector<double> finals;  // reference final states, same layout
  };

  void client_loop(std::size_t k, Clock::time_point deadline, Window& w) {
    svc::Client client;
    client.connect("127.0.0.1", server_->port());
    for (std::size_t j = k; Clock::now() < deadline; j += kClients) {
      const Job& job = jobs_[j % kJobs];
      svc::SubmitRequest req;
      req.model = model_id_;
      req.tend = kTend;
      req.scenarios = kScenariosPerJob;
      req.y0s = job.y0s;
      req.record_every = kRecordEvery;
      ++w.attempted;
      const auto t0 = Clock::now();
      svc::SubmitResult sub;
      for (;;) {
        sub = client.submit(req);
        if (sub.accepted) {
          break;
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::max(1, sub.retry_after_ms)));
      }
      std::vector<std::uint64_t> rows(kScenariosPerJob, 0);
      std::vector<double> last(kScenariosPerJob * n_, 0.0);
      bool ok = false;
      for (;;) {
        svc::Event ev;
        if (!client.next_event(ev, 60000)) {
          break;  // timed out: counted as a failure below
        }
        if (ev.kind == svc::Event::Kind::kFrame) {
          ++w.frames;
          if (ev.job != sub.job || ev.scenario >= kScenariosPerJob ||
              ev.n != n_ || ev.rows == 0) {
            break;
          }
          rows[ev.scenario] += ev.rows;
          std::copy_n(ev.states.end() - static_cast<std::ptrdiff_t>(n_), n_,
                      last.begin() + ev.scenario * n_);
          continue;
        }
        w.latencies_s.push_back(seconds_since(t0));
        ok = ev.job == sub.job && ev.error.empty() && !ev.cancelled &&
             ev.row_counts == rows &&
             bitwise_equal(last, job.finals);
        break;
      }
      if (!ok) {
        ++w.failed;
      }
    }
    client.bye();
  }

  std::unique_ptr<svc::Server> server_;
  std::string model_id_;
  std::unique_ptr<Compiled> local_;
  std::vector<Job> jobs_;
  std::size_t n_ = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "compile") {
    return std::make_unique<CompileWorkload>();
  }
  if (name == "explicit") {
    return std::make_unique<ExplicitWorkload>();
  }
  if (name == "stiff") {
    return std::make_unique<StiffWorkload>();
  }
  if (name == "daemon") {
    return std::make_unique<DaemonWorkload>();
  }
  return nullptr;
}

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Per-layer figures from the span recorder, the kernel clock and the
/// solver counters. Compile layers are per compile the benchmark ran in the
/// window, or in set-up when the window compiled nothing; request layers
/// are per request in the window.
std::vector<Metric> layer_metrics(Context& c, const Window& w,
                                  const CompileLayers& at_window,
                                  std::int64_t win_start_ns,
                                  std::int64_t win_end_ns,
                                  const std::map<std::string, double>& d) {
  const CompileLayers now = c.compile_snapshot();
  const bool window_compiles = now.compiles > at_window.compiles;
  CompileLayers cl = at_window;
  if (window_compiles) {
    cl.parse_ns = now.parse_ns - at_window.parse_ns;
    cl.build_ns = now.build_ns - at_window.build_ns;
    cl.compiles = now.compiles - at_window.compiles;
    cl.tape_ops = now.tape_ops - at_window.tape_ops;
  }
  std::map<std::string, std::int64_t> mine;  // spans of the compiling threads
  std::int64_t solve_ns = 0, method_ns = 0, jac_ns = 0;  // window only
  for (const obs::TraceEvent& ev : obs::TraceBuffer::global().events()) {
    const bool in_window =
        ev.start_ns >= win_start_ns && ev.start_ns < win_end_ns;
    if (c.compile_tids.count(ev.tid) != 0 && in_window == window_compiles) {
      mine[ev.name] += ev.dur_ns;
    }
    if (!in_window) {
      continue;
    }
    if (ev.name == "solve_ensemble") {
      solve_ns += ev.dur_ns;
    } else if (ev.name.rfind("jacobian", 0) == 0) {
      jac_ns += ev.dur_ns;
    } else if (ev.name == "bdf" || ev.name == "dopri5" ||
               ev.name == "lsoda_like" || ev.name == "adams_pece" ||
               ev.name == "rk4" || ev.name == "explicit_euler") {
      method_ns += ev.dur_ns;
    }
  }
  const double compiles =
      static_cast<double>(std::max<std::uint64_t>(1, cl.compiles));
  const double requests = static_cast<double>(
      std::max<std::size_t>(1, w.latencies_s.size()));
  auto per_compile_ms = [&](std::int64_t ns) {
    return static_cast<double>(ns) * 1e-6 / compiles;
  };
  const std::uint64_t lanes = c.kernel.lanes.load();
  return {
      {"parse_ms", per_compile_ms(cl.parse_ns), "ms"},
      {"flatten_ms", per_compile_ms(mine["build+flatten"] - cl.parse_ns),
       "ms"},
      {"analysis_ms", per_compile_ms(mine["dependency+scc"]), "ms"},
      {"cse_ms", per_compile_ms(mine["assignments+cse"]), "ms"},
      {"task_planning_ms", per_compile_ms(mine["task_planning"]), "ms"},
      {"tapes_ms", per_compile_ms(mine["compile_tapes"]), "ms"},
      {"kernel_build_ms", per_compile_ms(cl.build_ns), "ms"},
      {"tape_ops", static_cast<double>(cl.tape_ops) / compiles, "count"},
      {"solve_ms", static_cast<double>(solve_ns) * 1e-6 / requests, "ms"},
      {"kernel_ns_per_lane",
       lanes > 0 ? static_cast<double>(c.kernel.ns.load()) /
                       static_cast<double>(lanes)
                 : 0.0,
       "ns"},
      {"jac_share_pct",
       method_ns > 0 ? 100.0 * static_cast<double>(jac_ns) /
                           static_cast<double>(method_ns)
                     : 0.0,
       "%"},
      {"steps", d.at("ode.steps") / requests, "count"},
      {"rhs_calls", d.at("ode.rhs_calls") / requests, "count"},
      {"jac_evals", d.at("ode.jac_evals") / requests, "count"},
      {"frames", static_cast<double>(w.frames) / requests, "count"},
  };
}

int usage() {
  std::fprintf(stderr,
               "usage: omxbench --workload compile|explicit|stiff|daemon\n"
               "                --seed N --seconds S --trace 0|1\n"
               "                [--work-dir DIR] [--cache-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      return usage();
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atof(v);
    } else if (a == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--cache-dir") {
      args.cache_dir = v;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> wl = make_workload(args.workload);
  if (!wl || !(args.seconds > 0.0)) {
    return usage();
  }

  Context c;
  c.args = args;
  if (args.trace) {
    obs::TraceBuffer::global().start();
  }
  const char* counters[] = {"ode.steps", "ode.rhs_calls", "ode.jac_evals"};
  std::map<std::string, double> deltas;
  Window w;
  std::vector<double> setup_s;
  std::int64_t win_start_ns = 0, win_end_ns = 0;
  CompileLayers at_window;
  try {
    // Every set-up derives the same inputs from the seed; the last one
    // before the window is kept.
    auto set_up = [&] {
      const auto start = Clock::now();
      for (int k = 0; k < kMinSetups || seconds_since(start) < kMinSetupSeconds;
           ++k) {
        const auto t0 = Clock::now();
        wl->setup(c, args.seed);
        setup_s.push_back(seconds_since(t0));
      }
    };
    set_up();
    for (const char* name : counters) {
      deltas[name] = -static_cast<double>(
          obs::Registry::global().counter(name).value());
    }
    at_window = c.compile_snapshot();
    win_start_ns = obs::TraceBuffer::global().now_ns();
    const auto start = Clock::now();
    wl->run(c,
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(args.seconds)),
            w);
    win_end_ns = obs::TraceBuffer::global().now_ns();
    for (const char* name : counters) {
      deltas[name] += static_cast<double>(
          obs::Registry::global().counter(name).value());
    }
    if (!args.trace) {
      set_up();
    }
    wl->teardown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "omxbench: %s\n", e.what());
    wl->teardown();
    return 1;
  }
  obs::TraceBuffer::global().stop();

  if (w.latencies_s.empty()) {
    std::fprintf(stderr, "omxbench: no request completed\n");
    return 1;
  }
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics =
        layer_metrics(c, w, at_window, win_start_ns, win_end_ns, deltas);
  } else {
    metrics = {
        {"latency_ms", quantile(w.latencies_s, 0.5) * 1e3, "ms"},
        {"setup_s", quantile(setup_s, 0.5), "s"},
    };
  }
  std::printf("omxbench: workload=%s seed=%llu requests=%zu failed=%llu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              w.latencies_s.size(),
              static_cast<unsigned long long>(w.failed));
  std::string json = "{\"correct\": ";
  json += w.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(w.attempted);
  json += ", \"failed\": " + std::to_string(w.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
