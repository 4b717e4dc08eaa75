#!/usr/bin/env bash
# Full verification sweep: static analysis first (fail fast), then the
# architecture audit, then tier-1 tests, then ASan+UBSan, then TSan, then e2e.
#
#   scripts/check.sh            # lint, audit, tier1, asan, tsan, e2e
#   scripts/check.sh lint       # repo linter (+ clang-tidy where installed)
#   scripts/check.sh audit      # layering/lock-order/options/alloc/header audit
#   scripts/check.sh tier1      # just the plain build + ctest
#   scripts/check.sh asan       # just the ASan+UBSan build + ctest
#   scripts/check.sh tsan       # just the TSan build + threaded suites
#   scripts/check.sh e2e        # build the e2ebench/ harness + its self-tests
#   scripts/check.sh bench      # events/sec vs the committed BENCH_pipeline.json
#   scripts/check.sh bench --repeat 9   # best-of-9 sampling (default 5)
#
# Each stage uses its own build tree (build/, build-asan/, build-tsan/) so
# switching sanitizers never forces a from-scratch rebuild of the others.
# Every build runs with the warning wall (-Wshadow -Wconversion -Werror via
# NETFAIL_WERROR=ON) and, under Clang, -Werror=thread-safety.
#
# The lint stage needs no build at all for the repo linter; clang-tidy runs
# only when installed, over the tier-1 tree's compile_commands.json.
#
# The bench stage fails when any committed entry's events_per_sec regresses
# by more than 10% (noisy/shared machines: skip it with NETFAIL_SKIP_BENCH=1,
# or relax via NETFAIL_BENCH_TOLERANCE=0.25 for 25%).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

configure_and_build() {
  local dir="$1"; shift
  cmake -S . -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DNETFAIL_WERROR=ON "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
}

run_lint() {
  echo "== lint: linter self-test + repo invariants + clang-tidy =="
  python3 scripts/test_netfail_lint.py
  python3 scripts/netfail_lint.py src tests bench
  if command -v clang-tidy >/dev/null 2>&1; then
    # Reuse (or produce) the tier-1 tree's compile_commands.json.
    if [[ ! -f build/compile_commands.json ]]; then
      cmake -S . -B build -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DNETFAIL_WERROR=ON >/dev/null
    fi
    mapfile -t tidy_sources < <(find src -name '*.cpp' | sort)
    clang-tidy -p build --quiet "${tidy_sources[@]}"
  else
    echo "clang-tidy not installed — skipping (netfail_lint still gates)"
  fi
}

run_audit() {
  echo "== audit: self-tests + layering/lock-order/options/alloc/header audit =="
  python3 scripts/test_netfail_audit.py
  # The alloc and header analyzers read the tier-1 tree's objects and
  # compile_commands.json; build it first.
  configure_and_build build
  if command -v nm >/dev/null 2>&1 && command -v objdump >/dev/null 2>&1; then
    python3 scripts/netfail_audit.py --build-dir build
  else
    echo "nm/objdump not installed — skipping the binary allocation audit"
    python3 scripts/netfail_audit.py --build-dir build \
      layering lock-order options headers
  fi
}

run_tier1() {
  echo "== tier-1: plain build + full ctest =="
  configure_and_build build
  ctest --test-dir build -j "$JOBS" --output-on-failure
}

run_asan() {
  echo "== ASan+UBSan build + full ctest =="
  configure_and_build build-asan -DNETFAIL_SANITIZE=ON -DNETFAIL_TSAN=OFF
  ctest --test-dir build-asan -j "$JOBS" --output-on-failure
  # Every bench links bench/bench_common.cpp's counting operator new and
  # delete; run one bench under the sanitizers too, and hold its text to
  # the golden file.
  echo "== ASan+UBSan: bench_paper vs tests/golden/cenic_paper.txt =="
  ./build-asan/bench/bench_paper --benchmark_filter=NONE 2>/dev/null |
    diff - tests/golden/cenic_paper.txt
}

run_tsan() {
  echo "== TSan build + threaded suites =="
  configure_and_build build-tsan -DNETFAIL_TSAN=ON -DNETFAIL_SANITIZE=OFF
  # The suites that actually exercise threads: the concurrent metrics/cache
  # paths, sim determinism across threads, the streaming engine, the socket
  # ingest path (IO + consumer threads; the net suites skip themselves where
  # the sandbox forbids sockets), and the sharded gateway (one IO loop x N
  # consumer shards racing on the merge/backpressure paths), plus the service
  # layer: the HTTP server's loop-thread handler racing live
  # snapshot_engines() reads against ingest, and snapshot save/restore across
  # the same threads; the bundle load (messages.log and listener.nfc read
  # on two worker threads, configs/ mined off a shared queue of host
  # directories that the caller and both workers drain); the syslog
  # file reader (byte ranges of the mapped file parsed on lanes, then
  # stamped in file order) and the LSP capture reader (records cut from a
  # mapped file or a FIFO's buffer, sharing its owner's reference count
  # across threads);
  # batch IS-IS extraction (source lanes diffing while the caller folds the
  # last chunk); the analysis fan-out (syslog extraction on a task beside
  # the IS-IS lanes, Tables 2-6 rendered on tasks); the stream
  # lookahead (a producer thread running that extraction a chunk ahead of
  # the engine thread); the paper's tables (run_analysis's lanes and
  # tasks under TSan scheduling must still render the golden file's bytes);
  # and the page release every one of those readers calls behind its
  # cursor (the syslog lanes release concurrently, under one lock).
  ctest --test-dir build-tsan -j "$JOBS" --output-on-failure \
    --tests-regex 'PageRelease|PaperGolden|CaptureBundle|BundleSymbolOrder|ConfigQueue|SyslogFile|LspCapture|AnalysisFanOut|ExtractLanes|StreamLookahead|ScenarioCacheTest|SimDeterminism|Registry|StreamDifferential|SymConcurrencyTest|BoundedMpsc|EventLoop|NetGateway|AlertSink|DetectDifferential|ShardedDifferential|ShardMap|ShardedGateway|SvcSnapshot|RestartDifferential|SvcHttp|Anonymize'
}

run_e2e() {
  echo "== e2e: end-to-end benchmark harness build + self-tests =="
  # A src/ API change that breaks the harness fails here, not in a bench run.
  cmake -S e2ebench -B build-e2ebench -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build build-e2ebench -j "$JOBS" --target nfbench netfail
  PYTHONDONTWRITEBYTECODE=1 python3 -m unittest discover -s e2ebench -p 'test_*.py'
}

run_bench() {
  echo "== bench: events/sec vs committed BENCH_pipeline.json =="
  if [[ "${NETFAIL_SKIP_BENCH:-0}" == "1" ]]; then
    echo "NETFAIL_SKIP_BENCH=1 — skipping the throughput gate"
    return 0
  fi
  # Best-of-N sampling: each self-timed entry reports the minimum over N
  # passes, which rejects scheduler noise on shared/single-core boxes.
  # Override with `check.sh bench --repeat 9` or NETFAIL_BENCH_REPEAT.
  local repeat="${NETFAIL_BENCH_REPEAT:-5}"
  while [[ $# -gt 0 ]]; do
    case "$1" in
      --repeat) repeat="$2"; shift 2 ;;
      --repeat=*) repeat="${1#--repeat=}"; shift ;;
      *) echo "usage: $0 bench [--repeat N]" >&2; return 2 ;;
    esac
  done
  configure_and_build build
  ./build/bench/bench_stream_throughput --json=build/BENCH_pipeline.json \
    --repeat="$repeat" --benchmark_filter='^$' >/dev/null
  python3 scripts/bench_compare.py BENCH_pipeline.json build/BENCH_pipeline.json \
    --tolerance "${NETFAIL_BENCH_TOLERANCE:-0.10}"
  # Socket ingest throughput. The bench self-skips (and writes no entries)
  # where the sandbox forbids sockets; bench_compare ignores entries present
  # on only one side, so the gate degrades gracefully there.
  ./build/bench/bench_net_ingest --json=build/BENCH_net.json \
    --repeat="$repeat" --benchmark_filter='^$' >/dev/null
  python3 scripts/bench_compare.py BENCH_pipeline.json build/BENCH_net.json \
    --tolerance "${NETFAIL_BENCH_TOLERANCE:-0.10}"
  # Online-detection overhead: the detect-on stream pass must hold its
  # committed events/sec (and the entry records allocs/event + the on/off
  # throughput ratio alongside it).
  ./build/bench/bench_detect --json=build/BENCH_detect.json \
    --repeat="$repeat" --benchmark_filter='^$' >/dev/null
  python3 scripts/bench_compare.py BENCH_pipeline.json build/BENCH_detect.json \
    --tolerance "${NETFAIL_BENCH_TOLERANCE:-0.10}"
  # HTTP query throughput: the handle()-only render pass always emits its
  # entry (gates even where sockets are forbidden); the socket round-trip
  # passes self-skip there, and bench_compare ignores one-sided entries.
  ./build/bench/bench_http_query --json=build/BENCH_http.json \
    --repeat="$repeat" --benchmark_filter='^$' >/dev/null
  python3 scripts/bench_compare.py BENCH_pipeline.json build/BENCH_http.json \
    --tolerance "${NETFAIL_BENCH_TOLERANCE:-0.10}"
}

case "$STAGE" in
  lint) run_lint ;;
  audit) run_audit ;;
  tier1) run_tier1 ;;
  asan) run_asan ;;
  tsan) run_tsan ;;
  e2e) run_e2e ;;
  bench) shift; run_bench "$@" ;;
  all)
    run_lint
    run_audit
    run_tier1
    run_asan
    run_tsan
    run_e2e
    echo "== all checks passed (run 'scripts/check.sh bench' for the =="
    echo "== throughput-regression gate; it wants a quiet machine)   =="
    ;;
  *)
    echo "usage: $0 [lint|audit|tier1|asan|tsan|e2e|bench|all]" >&2
    exit 2
    ;;
esac
