#include "omx/exec/native.hpp"

#include <dlfcn.h>
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>

#include "omx/codegen/cpp_emit.hpp"
#include "omx/exec/vmath_embed.hpp"
#include "omx/model/flat_system.hpp"
#include "omx/obs/registry.hpp"
#include "omx/support/config.hpp"
#include "omx/support/hash.hpp"
#include "omx/vm/program.hpp"

namespace omx::exec {

namespace fs = std::filesystem;

namespace {

// ---------------------------------------------------------------- metrics

obs::Counter& native_compiles() {
  static obs::Counter& c =
      obs::Registry::global().counter("backend.native.compiles");
  return c;
}
obs::Counter& native_cache_hits() {
  static obs::Counter& c =
      obs::Registry::global().counter("backend.native.cache_hits");
  return c;
}
obs::Counter& native_runtime_builds() {
  static obs::Counter& c =
      obs::Registry::global().counter("backend.native.runtime_builds");
  return c;
}
obs::Counter& native_fallbacks() {
  static obs::Counter& c =
      obs::Registry::global().counter("backend.native.fallbacks");
  return c;
}

// ------------------------------------------------------------- toolchain

std::string detect_compiler() {
  const std::string env = config::get_string("OMX_NATIVE_CXX", "");
  if (!env.empty()) {
    return env;
  }
  for (const char* cand : {"c++", "g++", "clang++"}) {
    const std::string probe =
        std::string("command -v ") + cand + " > /dev/null 2>&1";
    if (std::system(probe.c_str()) == 0) {
      return cand;
    }
  }
  return {};
}

const std::string& compiler() {
  static const std::string cxx = detect_compiler();
  return cxx;
}

/// True if the host compiler accepts `flags` (each with a leading
/// space). Some toolchains (cross compilers, very old gcc) reject the
/// tuning flags below, and the kernel must still build without them.
bool accepts_flags(const std::string& cxx, const std::string& flags) {
  const std::string probe = cxx + flags +
                            " -x c++ -fsyntax-only /dev/null"
                            " > /dev/null 2>&1";
  return std::system(probe.c_str()) == 0;
}

/// Host tuning for the `#pragma omp simd` lane loops, probed once per
/// process. -march=native unlocks the wide vector units (AVX2/AVX-512);
/// the objects are host-specific, so the cache key includes the flag
/// string and the default cache lives in the machine-local tmp. gcc
/// prefers 256-bit vectors even on AVX-512 hardware, but these kernels
/// are the all-lanes-hot case where 512-bit wins; the width changes how
/// many lanes ride one instruction, never a result bit. gcc's dependence
/// analysis gives up on a loop with more than
/// loop-max-datarefs-for-datadeps (default 1000) memory references, so a
/// wide model's rhs_batch lane loop (one load per state, one store per
/// derivative) silently stays scalar; the raised limit lets it
/// vectorize and leaves narrower models' objects unchanged. One probe
/// tries all three; only when it fails (clang rejects the gcc param) is
/// each flag probed on its own, and the kernel builds with those that
/// pass.
const std::string& tuning_flags() {
  static const std::string flags = [] {
    constexpr const char* kTuning[] = {
        " -march=native", " -mprefer-vector-width=512",
        " --param=loop-max-datarefs-for-datadeps=100000"};
    std::string all;
    for (const char* flag : kTuning) {
      all += flag;
    }
    if (accepts_flags(compiler(), all)) {
      return all;
    }
    std::string f;
    for (const char* flag : kTuning) {
      if (accepts_flags(compiler(), flag)) {
        f += flag;
      }
    }
    return f;
  }();
  return flags;
}

/// Flags that make the lane loops vectorize WITHOUT changing per-lane
/// IEEE arithmetic:
///   -ffp-contract=off  no FMA contraction, so rhs_batch's vector body,
///                      its scalar epilogue and the interpreter execute
///                      identical mul/add sequences even on FMA
///                      hardware;
///   -fno-math-errno    sqrt/fabs lower to single instructions instead
///                      of errno-setting libm calls;
///   -fno-trapping-math FP compares/divides may be speculated across
///                      blends. This only relaxes *exception-flag*
///                      semantics (we never read feraiseexcept state);
///                      computed values are untouched. Without it,
///                      gcc's if-conversion refuses to flatten the
///                      guard blends in the vmath runtime ("tree could
///                      trap") and every lane loop with a log/sin/pow
///                      stays scalar;
///   -fopenmp-simd      honor the emitted `#pragma omp simd` (pragma
///                      only, no OpenMP runtime).
/// Deliberately still no -ffast-math/-funsafe-math-optimizations: no
/// reassociation, so results stay bitwise reproducible run to run.
std::string codegen_flags() {
  return " -ffp-contract=off -fno-math-errno -fno-trapping-math"
         " -fopenmp-simd" +
         tuning_flags();
}

/// The cache every process shares: $OMX_NATIVE_CACHE_DIR, else
/// <tmp>/omx-native-cache. The vector-math runtime object always lives
/// here, so a caller that gives each model its own cache directory still
/// builds the runtime once.
fs::path shared_cache_dir() {
  const std::string env = config::get_string("OMX_NATIVE_CACHE_DIR", "");
  if (!env.empty()) {
    return env;
  }
  return fs::temp_directory_path() / "omx-native-cache";
}

fs::path cache_dir(const NativeOptions& opts) {
  return opts.cache_dir.empty() ? shared_cache_dir() : fs::path(opts.cache_dir);
}

/// `s` as one single-quoted shell word: each ' becomes '\\''.
std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (const char c : s) {
    q += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return q + "'";
}

// ------------------------------------------------------ source synthesis

/// The vector-math runtime's public functions, by arity.
struct VmathFn {
  const char* name;
  int arity;
};
constexpr VmathFn kVmathFns[] = {{"exp", 1},  {"log", 1},   {"sin", 1},
                                 {"cos", 1},  {"tanh", 1},  {"hypot", 2},
                                 {"pow", 2}};

std::string vmath_params(const VmathFn& f) {
  return f.arity == 1 ? "double a" : "double a, double b";
}

/// The runtime unit, compiled once per key into a PIC object that every
/// kernel links. The vmath text is included with each public name
/// defined to a private one, so its bodies stay static inline; each
/// public name is then an extern "C" wrapper around its own inline body.
/// `declare simd` gives every wrapper SIMD clones for the model units'
/// lane loops to call. A wrapper inlines the bodies it uses (pow's
/// log and exp included): calling another wrapper would make each of
/// its clones a scalar loop of calls. Hidden visibility keeps the
/// wrappers out of every kernel's dynamic symbol table.
std::string runtime_source() {
  std::ostringstream os;
  os << "// Synthesized by omx::exec (native vector-math runtime)."
        " Do not edit.\n";
  for (const VmathFn& f : kVmathFns) {
    os << "#define omx_" << f.name << " omx_vm_in_" << f.name << "\n";
  }
  os << vmath_source();
  for (const VmathFn& f : kVmathFns) {
    os << "#undef omx_" << f.name << "\n";
  }
  os << "extern \"C\" {\n";
  for (const VmathFn& f : kVmathFns) {
    os << "#pragma omp declare simd notinbranch\n"
       << "__attribute__((visibility(\"hidden\"))) double omx_" << f.name
       << "(" << vmath_params(f) << ") {\n"
       << "  return omx_vm_in_" << f.name << (f.arity == 1 ? "(a)" : "(a, b)")
       << ";\n}\n";
  }
  os << "}  // extern \"C\"\n";
  return os.str();
}

/// Composes the model's translation unit: the runtime's declarations, the
/// inline selects, the batched (SoA) serial body in its own internal
/// namespace, and the extern "C" export surface the loader binds to. The
/// runtime functions are declared `const, nothrow, leaf`: without that
/// gcc reads each call as one that may clobber memory or throw and gives
/// up on the lane loop. There is no scalar serial body: a whole-system call is
/// rhs_batch at nb=1, which is bitwise the scalar result (same expression
/// trees, no reassociation) and spares the host compiler another copy of
/// the model. The unit includes no header: the selects and the kCxxSimd
/// spellings use GNU builtins only, so the host compiler parses nothing
/// but the kernel itself.
std::string compose_source(const model::FlatSystem& flat,
                           const codegen::AssignmentSet& set) {
  codegen::EmitOptions eo;
  eo.with_helpers = false;
  eo.with_prelude = false;
  // Transcendentals print as the omx_* vmath runtime names, which every
  // kernel links from the one runtime object: every lane of rhs_batch,
  // vectorized or not, computes the same bits.
  eo.simd_math = true;
  // Emission interns into the model's expression context, which two
  // builders of one model's kernels may share.
  std::unique_lock<std::mutex> emitting(flat.ctx().emit_mutex);
  const codegen::EmitResult batch =
      codegen::emit_cpp_serial_batch(flat, set, eo);
  emitting.unlock();

  std::ostringstream os;
  os << "// Synthesized by omx::exec (native backend). Do not edit.\n"
     << "#define OMX_SIMD_LOOP _Pragma(\"omp simd\")\n"
     << "// ---- omx vector-math runtime (linked object) ----\n"
     << "extern \"C\" {\n";
  for (const VmathFn& f : kVmathFns) {
    os << "#pragma omp declare simd notinbranch\n"
       << "__attribute__((const, nothrow, leaf, visibility(\"hidden\")))"
          " double omx_"
       << f.name << "(" << vmath_params(f) << ");\n";
  }
  os << "}  // extern \"C\"\n"
     << vmath_select_source()
     << "namespace {\n"
     << "namespace omx_serial {\n"
     << batch.code
     << "}  // namespace omx_serial\n"
     << "}  // namespace\n"
     << "extern \"C\" {\n"
     << "int omx_abi_version() { return 8; }\n"
     << "unsigned omx_n_state() { return " << flat.num_states() << "u; }\n"
     << "void omx_rhs_serial_batch(unsigned nb, const double* ts,\n"
     << "                          const double* y, double* ydot) {\n"
     << "  omx_serial::rhs_batch(static_cast<int>(nb), ts, y, ydot);\n"
     << "}\n"
     << "}  // extern \"C\"\n";
  return os.str();
}

// --------------------------------------------------------- cache locking

/// Advisory inter-process lock on one cache key. Two processes (or two
/// threads — flock is per open file description) building the same
/// artifact otherwise race: both run the compiler, and the second rename
/// clobbers an object the first may already have loaded or linked. The
/// loser blocks on the lockfile, then finds the published artifact and
/// takes the cache-hit path. The lockfile itself is left behind
/// (removing it would race a third waiter locking the same inode).
class CacheLock {
 public:
  explicit CacheLock(const fs::path& lockfile) {
    fd_ = ::open(lockfile.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ >= 0 && ::flock(fd_, LOCK_EX) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~CacheLock() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
    }
  }
  CacheLock(const CacheLock&) = delete;
  CacheLock& operator=(const CacheLock&) = delete;

  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

// -------------------------------------------------------- loaded module

using SerialBatchEntry = void (*)(unsigned, const double*, const double*,
                                  double*);

struct NativeState {
  void* handle = nullptr;
  SerialBatchEntry serial_batch = nullptr;

  ~NativeState() {
    if (handle != nullptr) {
      dlclose(handle);
    }
  }
};

// A whole-system call is a one-lane batch: at nb=1 the SoA layout is
// the plain state vector.
void native_eval(void* ctx, double t, const double* y, double* ydot) {
  static_cast<NativeState*>(ctx)->serial_batch(1, &t, y, ydot);
}

void native_eval_batch(void* ctx, std::size_t /*lane*/, std::size_t nb,
                       const double* t, const double* y_soa,
                       double* ydot_soa) {
  static_cast<NativeState*>(ctx)->serial_batch(static_cast<unsigned>(nb), t,
                                               y_soa, ydot_soa);
}

void diag(const std::string& why) {
  std::fprintf(stderr,
               "omx: native backend unavailable (%s); "
               "falling back to the tape interpreter\n",
               why.c_str());
}

enum class Build { kHit, kCompiled, kFailed };

/// Publishes `<dir>/<stem><ext>`, compiled from `source` with
/// `cxx -std=c++17 -O2 -fPIC <flags> -o <tmp> <stem>.cpp<inputs>`, unless
/// it is already published. Builders of one stem are serialized across
/// threads and processes by its CacheLock; whoever loses the race finds
/// the artifact published on the re-check. The rename is the atomic
/// publish point, so concurrent processes sharing the cache never load a
/// half-written artifact, and published artifacts are immutable, so the
/// fast path needs no lock. Sets `why` on failure.
Build build_cached(const fs::path& dir, const std::string& stem,
                   const std::string& ext, const std::string& source,
                   const std::string& flags, const std::string& inputs,
                   obs::Gauge& seconds, std::string& why) {
  std::error_code ec;
  const fs::path out = dir / (stem + ext);
  if (fs::exists(out, ec)) {
    return Build::kHit;
  }
  fs::create_directories(dir, ec);
  if (ec) {
    why = "cannot create cache dir " + dir.string();
    return Build::kFailed;
  }
  const CacheLock lock(dir / (stem + ".lock"));
  if (!lock.held()) {
    why = "cannot lock cache key " + stem + " in " + dir.string();
    return Build::kFailed;
  }
  if (fs::exists(out, ec)) {
    return Build::kHit;
  }
  const fs::path cpp = dir / (stem + ".cpp");
  const fs::path log = dir / (stem + ".log");
  {
    std::ofstream file(cpp);
    file << source;
    if (!file) {
      why = "cannot write " + cpp.string();
      return Build::kFailed;
    }
  }
  const fs::path tmp = dir / (stem + ext + ".tmp");
  const std::string cmd = compiler() + " -std=c++17 -O2 -fPIC" + flags +
                          " -o " + shell_quote(tmp.string()) + " " +
                          shell_quote(cpp.string()) + inputs + " > " +
                          shell_quote(log.string()) + " 2>&1";
  const auto start = std::chrono::steady_clock::now();
  const int rc = std::system(cmd.c_str());
  seconds.set(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count());
  if (rc != 0) {
    why = "compile failed (see " + log.string() + ")";
    return Build::kFailed;
  }
  fs::rename(tmp, out, ec);
  if (ec && !fs::exists(out)) {
    why = "cannot publish " + out.string();
    return Build::kFailed;
  }
  return Build::kCompiled;
}

/// Compiles (or reuses) the shared object and loads it. Returns null and
/// sets `why` on any failure.
std::shared_ptr<NativeState> build_module(const std::string& source,
                                          const vm::Program& parallel,
                                          const NativeOptions& opts,
                                          std::string& why) {
  const std::string& cxx = compiler();
  if (cxx.empty()) {
    why = "no host C++ compiler found; set OMX_NATIVE_CXX";
    return nullptr;
  }

  std::string flags = codegen_flags();
  if (!opts.extra_flags.empty()) {
    flags += " " + opts.extra_flags;
  }
  // The kernel links no default library: neither the unit nor the
  // runtime object calls into libstdc++, libgcc or libc (the crt files
  // only hold weak references), so the driver is spared loading them.
  // libm stays for the host functions without an omx_ form (tan, asin,
  // acos, atan, sinh, cosh, atan2); an --as-needed link records it only
  // when the unit calls one.
  static const std::string link_mode = " -shared -nodefaultlibs";
  static const std::string link_libs = " -lm";
  // The runtime object's key covers everything that shapes its code; the
  // kernel's key covers its own source, the runtime it links and the
  // link line, so a kernel linked another way is never served.
  static const std::string runtime = runtime_source();
  const std::string runtime_stem =
      "omx_vmath_" +
      support::hex16(support::fnv1a(runtime + "\x1f" + cxx + "\x1f" + flags));
  const std::string stem =
      "omx_" + support::hex16(support::fnv1a(source + "\x1f" + runtime_stem +
                                             "\x1f" + link_mode + link_libs));
  const fs::path dir = cache_dir(opts);
  const fs::path so = dir / (stem + ".so");
  const fs::path shared = shared_cache_dir();
  const std::string link =
      " " + shell_quote((shared / (runtime_stem + ".o")).string()) + link_libs;

  std::error_code ec;
  if (!fs::exists(so, ec)) {
    static obs::Gauge& runtime_seconds = obs::Registry::global().gauge(
        "backend.native.runtime_build_seconds");
    const Build rt = build_cached(shared, runtime_stem, ".o", runtime,
                                  " -c" + flags, "", runtime_seconds, why);
    if (rt == Build::kFailed) {
      why = "vector-math runtime: " + why;
      return nullptr;
    }
    if (rt == Build::kCompiled) {
      native_runtime_builds().add();
    }
  }
  static obs::Gauge& compile_seconds =
      obs::Registry::global().gauge("backend.compile_seconds");
  switch (build_cached(dir, stem, ".so", source, link_mode + flags, link,
                       compile_seconds, why)) {
    case Build::kFailed:
      return nullptr;
    case Build::kHit:
      native_cache_hits().add();
      break;
    case Build::kCompiled:
      native_compiles().add();
      break;
  }

  auto state = std::make_shared<NativeState>();
  state->handle = dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (state->handle == nullptr) {
    const char* err = dlerror();
    why = std::string("dlopen failed: ") + (err != nullptr ? err : "?");
    return nullptr;
  }
  auto sym = [&](const char* name) {
    return dlsym(state->handle, name);
  };
  auto* abi = reinterpret_cast<int (*)()>(sym("omx_abi_version"));
  auto* n_state = reinterpret_cast<unsigned (*)()>(sym("omx_n_state"));
  state->serial_batch =
      reinterpret_cast<SerialBatchEntry>(sym("omx_rhs_serial_batch"));
  if (abi == nullptr || n_state == nullptr || state->serial_batch == nullptr) {
    why = "missing export in " + so.string();
    return nullptr;
  }
  // ABI 8 = the serial-batch (SoA) entry point over a header-free unit
  // linked with the prebuilt vector-math runtime object, and no other
  // export; whole-system calls use the batch at nb=1. Stale cache entries
  // can't satisfy this loader; their source hash differs anyway, so they
  // simply never match — the check guards hand-placed or corrupt objects.
  if (abi() != 8) {
    why = "ABI version mismatch in " + so.string();
    return nullptr;
  }
  if (n_state() != parallel.n_state) {
    why = "stale cache entry shape mismatch in " + so.string();
    return nullptr;
  }
  return state;
}

bool env_disabled() {
  return config::get_bool("OMX_NATIVE_DISABLE", false);
}

}  // namespace

bool native_toolchain_available() {
  return !compiler().empty();
}

KernelInstance make_native_kernel(const model::FlatSystem& flat,
                                  const codegen::AssignmentSet& set,
                                  const vm::Program& parallel,
                                  const vm::Program* serial,
                                  const NativeOptions& opts) {
  auto fallback = [&]() {
    native_fallbacks().add();
    InterpKernelOptions io;
    io.lanes = opts.fallback_lanes;
    return make_interp_kernel(parallel, serial, io);
  };
  if (env_disabled()) {
    return fallback();
  }

  std::string why;
  std::shared_ptr<NativeState> state;
  try {
    state = build_module(compose_source(flat, set), parallel, opts, why);
  } catch (const std::exception& e) {
    why = e.what();
  }
  if (state == nullptr) {
    diag(why);
    return fallback();
  }

  // The unit has no task form: a null TaskFn and table make has_tasks()
  // false and num_tasks() 0.
  auto view = std::make_shared<RhsKernel>(
      Backend::kNative, state.get(), &native_eval, /*task=*/nullptr,
      parallel.n_state, parallel.n_out, /*num_lanes=*/SIZE_MAX,
      /*tasks=*/nullptr, &native_eval_batch);
  return KernelInstance(std::move(view), std::move(state));
}

}  // namespace omx::exec
