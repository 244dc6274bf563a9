#!/usr/bin/env bash
# CI entry point: configure with warnings-as-errors, build, run the tier-1
# test suite, then run it once more with observability (metrics, trace
# spans and solver step events) force-enabled to catch instrumentation
# regressions that only fire when events are being recorded. The default path finishes with the benchmark
# regression gate (scripts/bench_gate.py against bench/baselines/).
#
# Usage: scripts/ci.sh [--sanitize|--tsan|--coverage|--service] [build-dir]
#   default build-dir: build-ci (build-asan with --sanitize,
#                                build-tsan with --tsan,
#                                build-cov with --coverage,
#                                build-svc with --service)
# With --sanitize the tree is built with -DOMX_SANITIZE=ON
# (AddressSanitizer + UndefinedBehaviorSanitizer) and the tier-1 suite
# runs once under halt-on-error sanitizer settings.
# With --tsan the tree is built with -DOMX_SANITIZE=THREAD and the tier-1
# suite runs under halt-on-error ThreadSanitizer, plus one extra pass of
# the runtime stress suite with metrics, spans and step events forced on
# (every worker then records into the shared event store).
# With --coverage the tree is built with gcov instrumentation, the tier-1
# suite runs once, and scripts/coverage_report.py writes a line-coverage
# summary to <build-dir>/coverage.txt. Report-only: low coverage does not
# fail the job, only missing coverage data does.
# With --service the tree is built, a real omxd daemon is booted on an
# ephemeral port, bench/loadgen drives it twice (8 clients x 32 bearing
# jobs over TCP, then a 4-client --autotune pass that exercises
# daemon-side config selection), and the resulting BENCH_service.json
# files are gated with scripts/bench_gate.py --only service. The
# daemon's shutdown artifacts (metrics, per-session service report)
# stay in the build dir for the CI upload step.
set -euo pipefail

cd "$(dirname "$0")/.."

MODE=default
case "${1:-}" in
  --sanitize) MODE=asan; shift ;;
  --tsan)     MODE=tsan; shift ;;
  --coverage) MODE=coverage; shift ;;
  --service)  MODE=service; shift ;;
esac
case "$MODE" in
  asan)     DEFAULT_DIR=build-asan ;;
  tsan)     DEFAULT_DIR=build-tsan ;;
  coverage) DEFAULT_DIR=build-cov ;;
  service)  DEFAULT_DIR=build-svc ;;
  *)        DEFAULT_DIR=build-ci ;;
esac
BUILD_DIR="${1:-$DEFAULT_DIR}"

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror)
if command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
case "$MODE" in
  asan) CMAKE_ARGS+=(-DOMX_SANITIZE=ON) ;;
  tsan) CMAKE_ARGS+=(-DOMX_SANITIZE=THREAD) ;;
  coverage)
    # -O0 keeps line attribution exact; the later -D overrides the
    # defaults set above.
    CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE=Debug
                 "-DCMAKE_CXX_FLAGS=-Werror --coverage -O0")
    ;;
esac

# Resolved-configuration header: the first thing every job log shows, so
# a matrix entry that picked up the wrong compiler or a cold ccache is
# visible at a glance instead of buried in cmake output.
echo "== ci config =="
echo "mode:       $MODE"
echo "build dir:  $BUILD_DIR"
echo "compiler:   ${CXX:-<default>} ($({ ${CXX:-c++} --version 2>/dev/null || echo 'not found'; } | head -n1))"
case "$MODE" in
  asan) echo "sanitizer:  address+undefined" ;;
  tsan) echo "sanitizer:  thread" ;;
  *)    echo "sanitizer:  none" ;;
esac
if command -v ccache >/dev/null 2>&1; then
  echo "ccache:     $(ccache -s 2>/dev/null | grep -iE 'hit rate|hits' | head -n1 | sed 's/^ *//' || echo 'stats unavailable')"
else
  echo "ccache:     not installed"
fi

# Fail fast with an actionable message when configure dies (missing
# compiler, broken toolchain probe) instead of letting the build step
# fail later with a confusing "no such file" on the build dir.
if ! cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"; then
  echo "ci: cmake configure failed for mode=$MODE in $BUILD_DIR." >&2
  echo "ci: check the compiler probe above — CXX=${CXX:-<default>};" >&2
  echo "ci: see $BUILD_DIR/CMakeFiles/CMakeError.log for the probe log." >&2
  exit 1
fi
cmake --build "$BUILD_DIR" -j
# The config header's last line, once there is a binary to ask: the ISA
# build of the lane ops (simd::lane_isa()) that the tests below run.
echo "lane isa:   $("$BUILD_DIR"/examples/trace_explorer --config | sed -n 's/^lane isa: //p')"

if [[ $MODE == asan ]]; then
  echo "== tier-1 tests (ASan + UBSan, halt on error) =="
  ASAN_OPTIONS=halt_on_error=1:detect_leaks=1 \
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
  echo "CI OK (sanitized)"
  exit 0
fi

if [[ $MODE == tsan ]]; then
  export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
  echo "== tier-1 tests (ThreadSanitizer, halt on error) =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

  echo "== runtime stress (TSan + spans and step events forced on) =="
  # RuntimeStress covers the worker pool and the event store, including
  # RecorderConcurrentWritersAndReaders (step events past a per-thread
  # capacity) and SpanWritersAndConcurrentReader (8 threads closing spans
  # across chunks of their logs while a reader snapshots events()).
  # Svc covers the service daemon suite, including the 8-thread
  # concurrent SUBMIT/CANCEL stress against a live in-process server.
  # Event|Hybrid covers the event-handling suites, including the
  # HybridEnsembleStress run where event-desynchronized lanes retire
  # out of order while workers steal and repack batches. NativeBackend
  # covers the native kernels, including
  # ConcurrentBuildersCompileEachModuleOnce: racing cold host compiles of
  # one model, and one build of the vector-math runtime object they all
  # link, through the shared cache, and
  # RacingFirstBuildsOfOneModelShareItsContextSafely: four first native
  # builds of one model whose emissions meet on its expression context.
  # StiffPath|SparseLu covers the stiff path's linear algebra and its
  # ensemble lanes, including
  # StiffPath.EnsembleColoredFdOnMultiLaneInterpMatchesSequential: four
  # BDF workers whose colored-FD Jacobians must each stay on their own
  # interpreter lane, StiffPath.LockstepWidthSweepMatchesSequentialBitwise:
  # BDF and LSODA lanes taking their Newton iterations in lockstep (one
  # batched RHS, one lanes solve) at widths 1-16 on one and two workers,
  # and StiffPath.LockstepMixedLaneStatesMatchSequentialBitwise: heat lanes
  # at different orders, doubling and rejecting side by side in one SoA
  # lane block at widths 3-16 on one and two workers.
  # Ensemble|SolveDispatch|AutoSwitch covers the multistep lane stepper
  # (kAdamsPece, kBdf, kLsodaLike) that ensemble workers now run side by
  # side, including Ensemble.MultistepLanesMatchIndividualSolves at two
  # workers. LaneBlock covers the explicit steppers' SoA lane blocks at
  # two workers (refills in place, re-strides, the semi-dynamic fill).
  OMX_OBS_ENABLED=1 OMX_OBS_TRACE=1 OMX_OBS_RECORDER=1 \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" \
      -R 'RuntimeStress|WorkerPool|ParallelRhs|ParallelColoredFd|Svc|Event|Hybrid|NativeBackend|StiffPath|SparseLu|Ensemble|SolveDispatch|AutoSwitch|LaneBlock'
  echo "CI OK (TSan)"
  exit 0
fi

if [[ $MODE == coverage ]]; then
  echo "== tier-1 tests (gcov instrumented) =="
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

  echo "== line-coverage summary (report-only) =="
  python3 scripts/coverage_report.py "$BUILD_DIR" \
    --out "$BUILD_DIR"/coverage.txt
  echo "CI OK (coverage)"
  exit 0
fi

if [[ $MODE == service ]]; then
  echo "== service: boot omxd on an ephemeral port =="
  OMXD_LOG="$BUILD_DIR/omxd.log"
  "$BUILD_DIR"/src/omxd --port 0 --executors 2 --queue-cap 8 \
    --metrics "$BUILD_DIR"/svc_metrics.json \
    --service-json "$BUILD_DIR"/svc_service.json \
    >"$OMXD_LOG" 2>&1 &
  OMXD_PID=$!
  trap 'kill "$OMXD_PID" 2>/dev/null || true' EXIT
  PORT=""
  for _ in $(seq 1 50); do
    PORT="$(sed -n 's/^omxd listening on \([0-9]*\)$/\1/p' "$OMXD_LOG")"
    [[ -n $PORT ]] && break
    kill -0 "$OMXD_PID" 2>/dev/null || { cat "$OMXD_LOG" >&2; exit 1; }
    sleep 0.1
  done
  if [[ -z $PORT ]]; then
    echo "ci: omxd never reported its port; log follows" >&2
    cat "$OMXD_LOG" >&2
    exit 1
  fi
  echo "omxd pid $OMXD_PID port $PORT"

  echo "== service: loadgen smoke (8 clients x 32 bearing jobs) =="
  (cd "$BUILD_DIR" && ./bench/loadgen --connect 127.0.0.1:"$PORT" \
    --clients 8 --scenarios 32)
  test -s "$BUILD_DIR"/BENCH_service.json

  echo "== service: loadgen autotune (daemon-side config selection) =="
  # Exercises the SUBMIT autotune flag: the daemon picks every job's
  # workers and batch width by its closed-form rule. loadgen itself exits
  # nonzero unless jobs_ok == jobs_total and no trajectory frames were
  # dropped.
  mkdir -p "$BUILD_DIR"/autotune-svc
  (cd "$BUILD_DIR"/autotune-svc && ../bench/loadgen \
    --connect 127.0.0.1:"$PORT" --clients 4 --scenarios 16 --autotune)
  test -s "$BUILD_DIR"/autotune-svc/BENCH_service.json

  echo "== service: graceful daemon shutdown writes artifacts =="
  kill -TERM "$OMXD_PID"
  wait "$OMXD_PID"
  trap - EXIT
  cat "$OMXD_LOG"
  test -s "$BUILD_DIR"/svc_metrics.json
  test -s "$BUILD_DIR"/svc_service.json

  echo "== service: per-session report =="
  python3 scripts/obs_report.py --service "$BUILD_DIR"/svc_service.json \
    | tee "$BUILD_DIR"/svc_report.txt
  test -s "$BUILD_DIR"/svc_report.txt

  echo "== service: bench gate =="
  python3 scripts/bench_gate.py --current "$BUILD_DIR" --only service
  python3 scripts/bench_gate.py --current "$BUILD_DIR"/autotune-svc \
    --only service
  echo "CI OK (service)"
  exit 0
fi

echo "== tier-1 tests (default observability) =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== tier-1 tests (observability forced on: metrics, spans, step events) =="
OMX_OBS_ENABLED=1 OMX_OBS_TRACE=1 OMX_OBS_RECORDER=1 \
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== smoke: trace_explorer writes valid observability artifacts =="
# The binary validates every JSON artifact with obs::validate_json before
# writing and exits nonzero on a malformed document, so this step is the
# trace/profile/recorder schema check. OMX_OBS_RECORDER arms step events
# at process start; --recorder arms them again with the trace's spans.
OMX_OBS_RECORDER=1 "$BUILD_DIR"/examples/trace_explorer \
  --model bearing2d --workers 4 \
  --out "$BUILD_DIR"/trace.json \
  --profile "$BUILD_DIR"/profile.json \
  --recorder "$BUILD_DIR"/recorder.json \
  --metrics "$BUILD_DIR"/metrics.json
test -s "$BUILD_DIR"/trace.json
test -s "$BUILD_DIR"/profile.json
test -s "$BUILD_DIR"/recorder.json
test -s "$BUILD_DIR"/metrics.json

echo "== smoke: obs_report renders the run report =="
python3 scripts/obs_report.py \
  --profile "$BUILD_DIR"/profile.json \
  --metrics "$BUILD_DIR"/metrics.json \
  --recorder "$BUILD_DIR"/recorder.json \
  | tee "$BUILD_DIR"/obs_report.txt
test -s "$BUILD_DIR"/obs_report.txt

echo "== smoke: backend shootout exports BENCH_backends.json =="
(cd "$BUILD_DIR" && ./bench/backends)
test -s "$BUILD_DIR"/BENCH_backends.json

echo "== bench: ensemble sweep =="
(cd "$BUILD_DIR" && ./bench/ensemble)
test -s "$BUILD_DIR"/BENCH_ensemble.json

echo "== bench: Figure 12 virtual-time series =="
(cd "$BUILD_DIR" && ./bench/fig12_speedup)
test -s "$BUILD_DIR"/BENCH_fig12.json

echo "== bench: partitioned solver + sparse stiff backend =="
(cd "$BUILD_DIR" && ./bench/partitioned_solver)
test -s "$BUILD_DIR"/BENCH_sparse.json

echo "== bench: SIMD lane throughput =="
(cd "$BUILD_DIR" && ./bench/simd)
test -s "$BUILD_DIR"/BENCH_simd.json

echo "== bench: compile-path scaling (no host compiler) =="
(cd "$BUILD_DIR" && ./bench/compile_scaling)
test -s "$BUILD_DIR"/BENCH_compile.json

echo "== bench regression gate =="
python3 scripts/bench_gate.py --current "$BUILD_DIR"

echo "CI OK"
