#!/usr/bin/env python3
"""netfail end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload bundle_busy --seed 3 --seconds 40 --trace 0

It builds `netfail` and the `nfbench` harness from this checkout's sources
into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench) and
generates the workload's capture bundle from --seed. Then, for --seconds,
it runs rounds of one set-up (`nfbench setup`), `netfail analyze`,
`netfail stream` and `netfail export --anonymize`, each a separate
process, one invocation at a time (a closed loop).

With --trace 1 it instead re-runs each verb's public calls in-process under
a span tracer, and runs the serve workload: the bundle replayed over
loopback at a fixed 100k msgs/s into a 2-shard gateway with detection on,
while one keep-alive client sends GET /links at a fixed 50/s (an open loop:
each query is timed from when it was due). It reports the per-layer
figures; layers.json says which end-to-end metric each should move, and on
which workload. Metric names and units come from BENCHMARK.json. Every
output is checked against a reference computed in-process. The last line
of stdout is one JSON object with correct, attempted, failed and metrics;
the exit code is non-zero when a check fails.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Workload -> bundle kind (`nfbench gen --kind`).
WORKLOADS = {"bundle_cenic": "cenic", "bundle_busy": "busy"}
VERBS = ("analyze", "stream", "export")
GENERATOR_THREADS = 2    # serve workload: replay sender + query client
MIN_VERB_ROUNDS = 3
KEEP_BUNDLES = 4
COVERAGE_REPS = 3

ANALYSIS_STAGES = ("reconstruct", "sanitize", "flaps", "match", "linkstats",
                   "render")

STREAM_LINE = re.compile(
    r"^(IS-IS|syslog) reconstruction: (\d+) failures on \d+ links, "
    r"[0-9.]+ h downtime, (\d+) flap episodes, (\d+) double-down, "
    r"(\d+) double-up, (\d+) merged, (\d+) unterminated$", re.M)
COUNT_KEYS = ("failures", "flap_episodes", "double_downs", "double_ups",
              "merged", "unterminated")


class SetupError(Exception):
    """The benchmark cannot run here: exit with `code`, print no result."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


class Tally:
    """Operations attempted and failed, with one note per kind of failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = set()

    def add(self, attempted, failed, note):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.add(note)


def harness(*cmd):
    """Run an nfbench subcommand; its last stdout line is a JSON object."""
    out = subprocess.run([str(c) for c in cmd], check=True, text=True,
                         stdout=subprocess.PIPE).stdout
    return json.loads(out.strip().splitlines()[-1])


def med(values):
    """Median, or 0.0 when a failed run left nothing to measure."""
    return stats.median(values) if values else 0.0


def describe(name, values, unit):
    line = f"{name}: median {med(values):.6g} {unit}, n={len(values)}"
    high = stats.highest_percentile(values) if values else None
    if high:
        line += f", p{high[0]:g} {high[1]:.6g} {unit}"
    print(line)


def read(path):
    with open(path, "rb") as f:
        return f.read()


def metric_units(kind):
    """{name: unit} of BENCHMARK.json's `end_to_end` or `per_layer` list."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


# ---- build, environment, inputs -------------------------------------------


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SetupError("netfail sources not found beside e2ebench/", 2)
    if shutil.which("cmake") is None:
        raise SetupError("cmake not found", 2)
    cmake_dir = os.path.join(build_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        def step(cmd):
            if subprocess.run(cmd, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise SetupError("build failed; see " + log_path, 3)

        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", cmake_dir, *generator,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        step(["cmake", "--build", cmake_dir, "--target", "nfbench", "netfail",
              "--parallel", str(os.cpu_count() or 1)])
    return (os.path.join(cmake_dir, "nfbench"),
            os.path.join(cmake_dir, "netfail", "tools", "netfail"))


def check_environment(nfbench):
    env = harness(nfbench, "env")
    cores = os.cpu_count() or 1
    print(f"env: {cores} cores, {env['build_type']} build, {env['compiler']}")
    if env["build_type"] == "Debug" or not env["optimized"]:
        raise SetupError("refusing to time an unoptimised build", 4)
    if env["sanitized"]:
        raise SetupError("refusing to time a sanitizer build", 4)
    if GENERATOR_THREADS > cores:
        raise SetupError(f"the serve workload's {GENERATOR_THREADS} generator "
                         f"threads need {GENERATOR_THREADS} cores", 4)


def bundle_for(build_dir, nfbench, kind, seed):
    """The bundle for (kind, seed), generated unless already cached; only
    the most recently used bundles stay in the cache."""
    cache = os.path.join(build_dir, "bundles")
    path = os.path.join(cache, f"{kind}-{seed}")
    marker = os.path.join(path, ".complete")
    if os.path.exists(marker):
        os.utime(marker)
        return path, True
    shutil.rmtree(path, ignore_errors=True)
    partial = path + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    made = harness(nfbench, "gen", "--kind", kind, "--seed", seed,
                   "--out", partial)
    print(f"generated: {json.dumps(made)}")
    open(os.path.join(partial, ".complete"), "w").close()
    os.rename(partial, path)

    def last_used(d):
        return os.path.getmtime(os.path.join(cache, d, ".complete"))

    done = [d for d in os.listdir(cache)
            if os.path.exists(os.path.join(cache, d, ".complete"))]
    for old in sorted(done, key=last_used, reverse=True)[KEEP_BUNDLES:]:
        shutil.rmtree(os.path.join(cache, old))
    return path, False


def digest_dir(path):
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            if name == ".complete":
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            h.update(read(full))
    return h.hexdigest()


# ---- verbs ------------------------------------------------------------------


def stream_counts(text):
    """The stream verb's two reconstruction summary lines, as counts."""
    counts = {}
    for m in STREAM_LINE.finditer(text):
        side = "isis" if m.group(1) == "IS-IS" else "syslog"
        counts[side] = dict(zip(COUNT_KEYS, map(int, m.groups()[1:])))
    return counts


class VerbRunner:
    """Runs verb processes one at a time and checks each one's output
    against the in-process reference."""

    def __init__(self, netfail, bundle, work, reference, tally):
        self.netfail = netfail
        self.bundle = bundle
        self.work = work
        self.tally = tally
        self.expected = {
            "analyze": read(os.path.join(work, "analyze.expected")),
            "export": read(os.path.join(work, "export.expected")),
            "stream": {"isis": reference["isis"],
                       "syslog": reference["syslog"]},
        }

    def output(self, verb):
        if verb == "export":
            return read(os.path.join(self.work, "export.out"))
        text = read(os.path.join(self.work, verb + ".stdout"))
        return stream_counts(text.decode()) if verb == "stream" else text

    def run(self, verb):
        """(wall seconds, peak RSS in MB) of one checked invocation."""
        cmd = [self.netfail, verb, "--dir", self.bundle]
        if verb == "export":
            cmd += ["--anonymize", "--out",
                    os.path.join(self.work, "export.out")]
        with open(os.path.join(self.work, verb + ".stdout"), "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        ok = proc.returncode == 0 and self.output(verb) == self.expected[verb]
        self.tally.add(1, 0 if ok else 1,
                       f"{verb}: non-zero exit, or output differs from the "
                       "in-process reference")
        return wall, usage.ru_maxrss / 1024.0


# ---- serve ------------------------------------------------------------------


def serve(nfbench, bundle, work):
    return harness(nfbench, "serve", "--dir", bundle,
                   "--expect-digest", os.path.join(work, "serve.digest"),
                   "--work", work)["passes"]


def check_passes(passes, tally):
    """Count every datagram, frame and query; return the passes that ran."""
    done = []
    for p in passes:
        if "error" in p:
            tally.add(1, 1, "serve: " + p["error"])
            continue
        lost = (p["syslog_sent"] - p["syslog_datagrams"]
                + p["syslog_queue_drops"] + p["lsp_frames_sent"]
                - p["lsp_frames"] + p["lsp_out_of_order"])
        tally.add(p["syslog_sent"] + p["lsp_frames_sent"], max(0, lost),
                  "serve: datagrams or LSP frames lost")
        tally.add(p["queries_attempted"], p["queries_failed"],
                  "serve: a GET /links reply was missing or not 200")
        ok = (p["replay_ok"] and p["drained"] and p["digest_match"]
              and not p.get("snapshot_failed"))
        tally.add(1, 0 if ok else 1,
                  "serve: replay, drain, merged-digest or snapshot check "
                  "failed")
        done.append(p)
    return done


def delivered(p):
    return max(1, p["syslog_datagrams"] + p["lsp_frames"])


def server_us_per_event(p):
    cpu = stats.server_cpu_seconds(p["process_cpu_s"], p["generator_cpu_s"],
                                   p["client_cpu_s"], p["main_cpu_s"])
    return cpu / delivered(p) * 1e6


def server_allocs_per_event(p):
    allocs = (p["process_allocs"] - p["generator_allocs"]
              - p["client_allocs"] - p["main_allocs"])
    return allocs / delivered(p)


# ---- the two kinds of run ---------------------------------------------------


def measure(seconds, nfbench, bundle, verbs):
    """End-to-end metrics, measured untraced. Each round times one set-up
    beside the verbs, so set-up gets as many samples as a verb, spread
    over the run in the same way."""
    setup = []
    walls = {verb: [] for verb in VERBS}
    rss = []
    start = time.perf_counter()
    rounds = 0
    while (rounds < MIN_VERB_ROUNDS
           or time.perf_counter() - start < seconds):
        setup.append(harness(nfbench, "setup", "--dir", bundle)["setup_s"])
        for verb in VERBS:
            wall, peak = verbs.run(verb)
            walls[verb].append(wall)
            rss.append(peak)
        rounds += 1
    describe("setup_s", setup, "s")
    for verb in VERBS:
        describe(f"{verb}_s", walls[verb], "s")
    return {
        "setup_s": stats.median(setup),
        **{f"{verb}_s": stats.median(walls[verb]) for verb in VERBS},
        "peak_rss_mb": max(rss),
    }


def traced(nfbench, verbs, bundle, work, reference, tally):
    """Per-layer metrics from the traced in-process sequences and the
    serve workload."""
    path = os.path.join(work, "trace.json")
    harness(nfbench, "trace", "--dir", bundle, "--out", path)
    with open(path) as f:
        trace = json.load(f)
    tally.add(1, 1 if trace["analyze_mismatches"] else 0,
              "trace: traced analyze output changed between runs")

    spans_by_run = {}
    for s in trace["trace"]["spans"]:
        spans_by_run.setdefault(s["run"], []).append(s)
    counts = {(c["run"], c["name"]): c["value"]
              for c in trace["trace"]["counts"]}
    runs = {}  # root name -> [(run id, root span, self times, spans)]
    for run_id, spans in spans_by_run.items():
        root = next(s for s in spans if s["parent"] == -1)
        problems = stats.span_problems(spans)
        tally.add(1, 1 if problems else 0,
                  f"trace: run {run_id} ({root['name']}): "
                  + "; ".join(problems[:3]))
        runs.setdefault(root["name"], []).append(
            (run_id, root, stats.self_times(spans), spans))

    def span_ms(root, name):
        return med([sum(selfs[s["id"]] for s in spans if s["name"] == name)
                    / 1e6 for _, _, selfs, spans in runs[root]])

    def count(root, name):
        return med([counts[(run_id, name)] for run_id, _, _, _ in runs[root]])

    def root_s(root):
        return med([(r["end_ns"] - r["start_ns"]) / 1e9
                    for _, r, _, _ in runs[root]])

    for root in runs:
        names = sorted({s["name"] for _, _, _, spans in runs[root]
                        for s in spans if s["parent"] != -1})
        parts = ", ".join(f"{n} {span_ms(root, n):.1f}" for n in names)
        print(f"trace {root}: {root_s(root) * 1e3:.1f} ms = {parts}, "
              f"unattributed {span_ms(root, root):.2f} (median self ms)")

    walls = {verb: [] for verb in VERBS}
    for _ in range(COVERAGE_REPS):
        for verb in VERBS:
            walls[verb].append(verbs.run(verb)[0])
    passes = check_passes(serve(nfbench, bundle, work), tally)
    queries = [q for p in passes for q in p["query_ms"]]
    describe("GET /links latency", queries, "ms")
    high = stats.highest_percentile(queries) if queries else None

    def per_pass(key):
        return med([p[key] for p in passes])

    return {
        "io.read_configs_ms": span_ms("analyze", "io.read_configs"),
        "io.read_syslog_ms": span_ms("analyze", "io.read_syslog"),
        "io.read_lsp_ms": span_ms("analyze", "io.read_lsp"),
        "config.mine_ms": span_ms("analyze", "config.mine"),
        "config.links": reference["links"],
        "isis.extract_ms": span_ms("analyze", "isis.extract"),
        "isis.lsps_decoded": count("analyze", "isis.lsps_decoded"),
        "syslog.extract_ms": span_ms("analyze", "syslog.extract"),
        "syslog.parse_failure_ratio":
            count("analyze", "syslog.parse_failures")
            / max(1, count("analyze", "syslog.lines")),
        **{f"analysis.{stage}_ms": span_ms("analyze", f"analysis.{stage}")
           for stage in ANALYSIS_STAGES},
        "analysis.isolation_ms": span_ms("table7", "analysis.isolation"),
        "stream.feed_syslog_ms": count("stream", "stream.feed_syslog_ms"),
        "stream.feed_lsp_ms": count("stream", "stream.feed_lsp_ms"),
        "stream.finish_ms": span_ms("stream", "stream.finish"),
        "stream.pending_peak": count("stream", "stream.pending_peak"),
        "stream.allocs_per_event": count("stream", "stream.allocs")
        / max(1, count("stream", "stream.events")),
        "stream.lsp_decodes_per_frame": med(
            [p["lsp_decodes"] / max(1, p["lsp_frames"]) for p in passes]),
        "stream.shard_skew": per_pass("shard_skew"),
        "stream.merge_ms": per_pass("merge_ms"),
        "detect.overhead_ms": (stats.median(trace["detect_on_s"])
                               - stats.median(trace["detect_off_s"])) * 1e3,
        "detect.alerts": per_pass("alerts"),
        "svc.export_render_ms": span_ms("export", "svc.export_render"),
        "svc.snapshot_engines_ms": med(
            [x for p in passes for x in p["snapshot_engines_ms"]]),
        "svc.http_links_ms": med(
            [x for p in passes for x in p["http_links_ms"]]),
        "svc.query_p99_ms": high[1] if high else 0.0,
        "svc.snapshot_save_ms": per_pass("snapshot_save_ms"),
        "svc.snapshot_bytes": per_pass("snapshot_bytes"),
        "net.replay_send_ms": per_pass("replay_send_ms"),
        "net.generator_late_ms": per_pass("generator_late_ms"),
        "net.drain_ms": per_pass("drain_ms"),
        "net.udp_lost": sum(p["syslog_sent"] - p["syslog_datagrams"]
                            + p["syslog_queue_drops"] for p in passes),
        "net.backpressure_pauses": sum(p["backpressure_pauses"]
                                       for p in passes),
        "net.syslog_queue_peak": max(
            (p["syslog_queue_peak"] for p in passes), default=0),
        "net.lsp_queue_peak": max(
            (p["lsp_queue_peak"] for p in passes), default=0),
        "net.allocs_per_event": med([server_allocs_per_event(p)
                                     for p in passes]),
        "net.server_cpu_us_per_event": med([server_us_per_event(p)
                                            for p in passes]),
        "svc.query_p50_ms": med(queries),
        "trace.overhead": sum(root_s(v) for v in VERBS)
        / sum(stats.median(trace["untraced_s"][v]) for v in VERBS) - 1.0,
        **{f"trace.coverage.{v}": root_s(v) / stats.median(walls[v])
           for v in VERBS},
        **{f"trace.unattributed_ms.{v}": span_ms(v, v) for v in VERBS},
    }


def benchmark(args):
    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "e2ebench")
    nfbench, netfail = build(build_dir)
    check_environment(nfbench)
    kind = WORKLOADS[args.workload]
    bundle, reused = bundle_for(build_dir, nfbench, kind, args.seed)
    print(f"input: {kind} bundle for seed {args.seed} "
          f"({'reused' if reused else 'generated'}), "
          f"sha256 {digest_dir(bundle)}")
    work = os.path.join(build_dir, "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tally = Tally()
    try:
        reference = harness(nfbench, "reference", "--dir", bundle,
                            "--work", work)
        print(f"bundle: {reference['links']} links, "
              f"{reference['syslog_lines']} syslog lines, "
              f"{reference['lsps']} LSPs")
        for name in ("analyze", "export"):
            digest = hashlib.sha256(
                read(os.path.join(work, name + ".expected"))).hexdigest()
            print(f"reference {name} output sha256 {digest}; every "
                  "invocation is compared with it byte for byte")
        verbs = VerbRunner(netfail, bundle, work, reference, tally)
        if args.trace:
            values = traced(nfbench, verbs, bundle, work, reference, tally)
            units = metric_units("per_layer")
        else:
            values = measure(args.seconds, nfbench, bundle, verbs)
            units = metric_units("end_to_end")
        if set(values) != set(units):
            raise AssertionError("metrics measured differ from BENCHMARK.json: "
                                 f"{sorted(set(values) ^ set(units))}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"operations: {tally.failed} failed of {tally.attempted} attempted")
    for note in sorted(tally.notes):
        print("FAILED: " + note)
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        result = benchmark(args)
    except SetupError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return e.code
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
