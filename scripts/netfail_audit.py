#!/usr/bin/env python3
"""netfail_audit — architecture, lock-order, and binary-level allocation
auditor (dependency-free; binutils `nm`/`objdump` and the C++ compiler are
consulted for the binary/header analyzers).

Where netfail_lint.py polices line-level idioms, this tool proves
*structural* invariants of the whole tree — the properties a reviewer
cannot eyeball across 15 subsystems:

  layering            src/* forms a declared DAG (SUBSYSTEM_DEPS below). An
                      #include from subsystem A into subsystem B is legal
                      only when B is A itself or one of A's declared
                      dependencies; the file-level include graph must also
                      be acyclic. Rules: `layer`, `include-cycle`.

  lock-order          The global mutex acquisition graph is acyclic. Edges
                      come from three sources: lexical MutexLock/UniqueLock
                      nesting sites, NETFAIL_REQUIRES(mu) functions that
                      take further locks, and declared ordering annotations
                      (NETFAIL_ACQUIRED_BEFORE/AFTER on the mutex member,
                      or `// netfail-audit: acquired-before(x)` for edges
                      the C++ attribute cannot spell across classes). Locks
                      taken behind a call — invisible to lexical scanning —
                      are recorded at the call site with
                      `// netfail-audit: locks(x) reason`. Every annotated
                      edge must be exercised by at least one lock site:
                      stale annotations are errors, so the declared order
                      and the real order cannot drift apart. Mutex identity
                      is the declared member name (`sync::Mutex <name>`),
                      so name mutexes by role — two unrelated locks sharing
                      a name merge into one audit node. Rules:
                      `lock-order`, `lock-annotation`.

  alloc               Binary-level allocation audit: the object files of
                      the hot-path TU roster (ALLOC_TU_ROSTER below) are
                      scanned with nm/objdump for undefined references to
                      operator new / malloc-family symbols. Every
                      repo-owned function that can allocate must be on the
                      TU's allowlist with a reason (cold setup, error path,
                      amortized growth); anything else fails the audit —
                      the runtime allocs_per_event gate, restated as a
                      property of the compiled artifact. Standard-library
                      template instantiations are exempt (their repo-side
                      callers are what the allowlist pins). Stale allowlist
                      entries are errors. Rules: `alloc`, `alloc-allowlist`.

  options             Every field of a `struct ...Options` under src/ is
                      assigned by code outside tests/ (src/, bench/,
                      examples/, e2ebench/: `x.field = ...`, a compound
                      assignment, `&x.field`, or a member chain through
                      it such as `x.field.sub = ...`), or is on
                      OPTIONS_ALLOWLIST below with a reason. A knob no
                      caller sets is a constant with extra steps. Fields
                      are matched by name (the audit does not parse
                      types), so a name two structs share counts as set
                      for both. Stale allowlist entries (the field is set
                      after all, or no longer exists) are errors. Rules:
                      `options`, `options-allowlist`.

  headers             Every public header under src/ compiles as a
                      standalone TU (one generated `#include "<hdr>"` file
                      each, batch-compiled with the project's own flags
                      from compile_commands.json), so no header depends on
                      includer-provided context. Rule: `header-standalone`.

Escapes use the same discipline as the linter (see netfail_checks.py):
`// netfail-audit: allow(rule) reason` inline, or entries in the shared
scripts/lint_suppressions.txt. Stale suppressions for audit rules are
errors. Exit status: 0 clean, 1 violations/stale escapes, 2 usage or
configuration error.

Usage:
  netfail_audit.py [--root DIR] [--build-dir DIR] [--suppressions FILE]
                   [--if-tools-missing {error,skip}] [--list-rules]
                   [analyzer...]
Analyzers default to all five: layering lock-order options alloc headers.
`alloc` and `headers` need --build-dir (default: <root>/build) for
compile_commands.json; `alloc` additionally needs the build's object
files, nm, and objdump.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile

import netfail_checks as checks

Violation = checks.Violation

ANALYZERS = ("layering", "lock-order", "options", "alloc", "headers")
RULE_NAMES = checks.AUDIT_RULE_NAMES

# ---------------------------------------------------------------------------
# Declared architecture: subsystem -> the subsystems it may #include.
#
# This is the layering contract (DESIGN.md §16). The shape:
#
#   common
#     -> topology | tickets | stats            (leaf vocabularies)
#     -> config                                 (census over topology)
#     -> syslog | isis                          (the two measurement planes)
#     -> io | sim                               (cold loaders; the simulator)
#     -> detect -> analysis -> stream           (online detection feeds the
#                                                batch analysis; the stream
#                                                engine replays both)
#     -> net -> svc -> tools                    (sockets, service, CLIs)
#
# tests/ and bench/ may see everything and are not scanned. Edges are
# minimal on purpose: a new cross-subsystem include is an architecture
# decision, and the way to make it is to add the edge here (keeping the
# graph acyclic — the audit checks that too) in the same PR.

SUBSYSTEM_DEPS = {
    "common":   set(),
    "topology": {"common"},
    "tickets":  {"common"},
    "stats":    {"common"},
    "config":   {"common", "topology"},
    "syslog":   {"common", "topology", "config"},
    "isis":     {"common", "topology", "config"},
    "io":       {"common", "config", "syslog", "isis", "tickets"},
    "sim":      {"common", "topology", "tickets", "syslog", "isis"},
    "detect":   {"common", "config", "tickets", "syslog", "sim"},
    "analysis": {"common", "config", "stats", "tickets", "syslog", "isis",
                 "sim", "detect"},
    "stream":   {"common", "config", "syslog", "isis", "detect", "analysis"},
    "net":      {"common", "config", "syslog", "isis", "stream"},
    "svc":      {"common", "config", "syslog", "detect", "analysis",
                 "stream", "net"},
    "tools":    {"common", "config", "io", "analysis", "stream", "net",
                 "svc"},
}

INCLUDE_RE = re.compile(r'#\s*include\s+"(src/([\w.-]+)/[^"]+)"')

# ---------------------------------------------------------------------------
# Hot-path TU roster for the binary allocation audit. Key: TU path relative
# to the repo root. Value: (substring-of-demangled-name, reason) pairs — the
# only repo-owned functions in that object allowed to reference
# operator new / malloc. Every entry must match at least one function
# (stale entries are errors); every allocating function must match an entry.

ALLOC_TU_ROSTER = {
    # The SWAR tokenizer: steady-state parses are allocation-free; only the
    # error path materializes a std::string reason.
    "src/syslog/tokenizer.cpp": (
        ("netfail::syslog::(anonymous namespace)::parse_direction",
         "error path builds the Error reason string"),
        ("netfail::syslog::tokenize",
         "error path builds the Error reason string"),
    ),
    # The mux hands out borrowed events: nothing repo-owned may allocate.
    "src/stream/event_mux.cpp": (),
    "src/stream/link_tracker.cpp": (
        ("netfail::stream::LinkTracker::ingest",
         "first sighting of a link creates its per-link state"),
        ("netfail::stream::LinkTracker::link_stats",
         "cold snapshot query, copies per-link rows"),
    ),
    # ShardMap routes by FNV over borrowed views: nothing repo-owned may
    # allocate (vector growth happens inside std:: instantiations at
    # construction, which the std exemption covers).
    "src/stream/sharded.cpp": (),
    # The LSP differ and pair fold: a steady-state feed reuses its scratch
    # and delta buffers, so only first sightings and buffer growth allocate.
    "src/isis/extract.cpp": (
        ("netfail::isis::LspDiffer::diff",
         "first sighting of a source creates its state; its sorted "
         "adjacency/prefix vectors and the delta buffer grow amortized"),
        ("netfail::isis::(anonymous namespace)::make_change",
         "a neighbor's first resolution under its source's hostname joins "
         "the source's memo, capped at kMaxResolved entries"),
        ("netfail::isis::(anonymous namespace)::append_missing",
         "delta buffer growth, amortized; a lane's buffer is reserved per "
         "chunk on the caller and reused"),
        ("netfail::isis::PairFold::apply",
         "first sighting of a host pair, prefix or reporting host creates "
         "its entry; the output vectors grow amortized"),
        ("netfail::isis::LaneExtractor::LaneExtractor",
         "per-capture setup: the lane differs and the fold"),
        ("netfail::isis::LaneExtractor::State::launch",
         "per-chunk lane tasks; the delta buffers are reserved here, on the "
         "caller, and reused"),
        ("netfail::isis::extract_transitions",
         "drains the chunks into the capture-wide output vectors"),
    ),
    # The one LSP walk: the differ reads every record through
    # LspReach::read into reused scratch, so only error paths, the
    # encoders and the hello codec allocate.
    "src/isis/pdu.cpp": (
        ("netfail::isis::(anonymous namespace)::walk_lsp",
         "error paths build the Error message; a sink's vectors and hostname "
         "grow amortized in storage the caller reuses"),
        ("netfail::isis::Lsp::decode(",
         "returns a fresh Lsp (tests, tools); extraction reads through "
         "LspReach::read"),
        ("netfail::isis::Lsp::encode",
         "builds a PDU: the simulator and tests, never a reader"),
        ("netfail::ByteWriter::",
         "the encoders' output buffer grows"),
        ("netfail::isis::(anonymous namespace)::write_common_header",
         "encoder header into the growing output buffer"),
        ("netfail::isis::(anonymous namespace)::read_common_header",
         "hello and pdu_type parse: error path builds the reason"),
        ("netfail::isis::(anonymous namespace)::read_system_id",
         "hello parse: error path builds the reason"),
        ("netfail::isis::PointToPointHello::",
         "the adjacency FSM's hello codec, not on the LSP path"),
    ),
    # The stream lookahead: the producer thread and chunk buffers are set
    # up once; per-event feeding hands out borrowed slices and must not
    # allocate.
    "src/stream/lookahead.cpp": (
        ("netfail::stream::IsisLookahead::IsisLookahead",
         "per-capture setup: the lane extractor and the producer thread"),
    ),
    "src/detect/detector.cpp": (
        ("netfail::detect::LinkDetector::observe_syslog",
         "first sighting of a (link, template) pair creates its cell"),
        ("netfail::detect::LinkDetector::close_window",
         "drift candidate buffer, amortized; cleared in place per window"),
    ),
}

ALLOC_SYMBOL_RE = re.compile(
    r"^(operator new(?:\[\])?\s*\(|"
    r"(?:malloc|calloc|realloc|aligned_alloc|posix_memalign|strdup)\b)")
ALLOC_NM_RE = re.compile(r"\b(_Znwm|_Znam|_ZnwmSt|_ZnamSt|malloc|calloc|"
                         r"realloc|aligned_alloc|posix_memalign|strdup)\b")
# Demangled names the audit treats as library internals: the repo-side
# caller is the auditable unit, not the container's growth template.
STD_INTERNAL_PREFIXES = ("std::", "__gnu_cxx::", "__cxxabiv")

# ---------------------------------------------------------------------------
# Lock-order scanning.

MUTEX_DECL_RE = re.compile(r"\bsync::Mutex\s+(\w+)")
LOCK_SITE_RE = re.compile(
    r"\b(?:sync::)?(?:MutexLock|UniqueLock)\s+(\w+)\s*\(([^)]+)\)")
REQUIRES_RE = re.compile(r"\bNETFAIL_REQUIRES\s*\(([^)]*)\)")
ACQ_BEFORE_RE = re.compile(r"\bNETFAIL_ACQUIRED_BEFORE\s*\(([^)]*)\)")
ACQ_AFTER_RE = re.compile(r"\bNETFAIL_ACQUIRED_AFTER\s*\(([^)]*)\)")
ACQ_COMMENT_RE = re.compile(r"netfail-audit:\s*acquired-before\(([^)]*)\)")
LOCKS_MARKER_RE = re.compile(r"netfail-audit:\s*locks\(([^)]*)\)")
UNLOCK_RE = re.compile(r"\b(\w+)\.unlock\s*\(\s*\)")
RELOCK_RE = re.compile(r"\b(\w+)\.lock\s*\(\s*\)")


def canon_lock_name(expr: str) -> str:
    """`shard.ws.mu` -> `mu`, `job->done_mu` -> `done_mu`, `this->mu_` ->
    `mu_`: mutex identity is the declared member name (its role)."""
    expr = expr.strip()
    return re.split(r"\.|->", expr)[-1].strip()


def split_names(arglist: str) -> list[str]:
    return [canon_lock_name(a) for a in arglist.split(",") if a.strip()]


class LockScan:
    """Results of the lock-order extraction over one tree."""

    def __init__(self):
        self.declared: dict[str, list[tuple[str, int]]] = {}
        # (a, b) -> first witness (path, line); "a held while b acquired".
        self.observed: dict[tuple[str, str], tuple[str, int]] = {}
        # (a, b) -> annotation site (path, line).
        self.annotated: dict[tuple[str, str], tuple[str, int]] = {}
        self.violations: list[Violation] = []


def _scan_mutex_decls(ft: checks.FileText, scan: LockScan) -> None:
    for lineno, line in enumerate(ft.code_lines, start=1):
        if line.lstrip().startswith("#"):
            continue  # the macro definitions themselves
        m = MUTEX_DECL_RE.search(line)
        if not m:
            # An ordering annotation must ride a mutex declaration.
            if ACQ_BEFORE_RE.search(line) or ACQ_AFTER_RE.search(line):
                scan.violations.append(Violation(
                    ft.rel_path, lineno, "lock-annotation",
                    "NETFAIL_ACQUIRED_BEFORE/AFTER on a line with no "
                    "sync::Mutex declaration — attach it to the member"))
            continue
        name = m.group(1)
        scan.declared.setdefault(name, []).append((ft.rel_path, lineno))
        # Macro-form annotations on the declaration line.
        for am in ACQ_BEFORE_RE.finditer(line):
            for other in split_names(am.group(1)):
                scan.annotated.setdefault((name, other), (ft.rel_path, lineno))
        for am in ACQ_AFTER_RE.finditer(line):
            for other in split_names(am.group(1)):
                scan.annotated.setdefault((other, name), (ft.rel_path, lineno))
        # Comment-form (cross-class edges the attribute cannot spell), on
        # the declaration line or the line above.
        for raw_ln in (lineno - 1, lineno):
            if 1 <= raw_ln <= len(ft.raw_lines):
                cm = ACQ_COMMENT_RE.search(ft.raw_lines[raw_ln - 1])
                if cm:
                    for other in split_names(cm.group(1)):
                        scan.annotated.setdefault(
                            (name, other), (ft.rel_path, raw_ln))


def _scan_lock_sites(ft: checks.FileText, scan: LockScan) -> None:
    depth = 0
    # Held capabilities: dicts {depth, node, var, active}. `var` is None for
    # REQUIRES seeds and marker acquisitions (no RAII object to unlock).
    held: list[dict] = []
    pending_requires: list[str] | None = None

    def acquire(node: str, lineno: int, var: str | None) -> None:
        if node not in scan.declared:
            scan.violations.append(Violation(
                ft.rel_path, lineno, "lock-annotation",
                f"unknown mutex '{node}': no `sync::Mutex {node}` "
                "declaration anywhere in src/ — declare it, or name a "
                "declared member in the locks(...) marker"))
            return
        for h in held:
            if h["active"] and h["node"] != node:
                scan.observed.setdefault((h["node"], node),
                                         (ft.rel_path, lineno))
            elif h["active"] and h["node"] == node:
                # Same lock family nested inside itself (e.g. two instances
                # of one class): a self-edge, cyclic by definition.
                scan.observed.setdefault((node, node), (ft.rel_path, lineno))
        held.append({"depth": depth, "node": node, "var": var,
                     "active": True})

    for lineno, line in enumerate(ft.code_lines, start=1):
        if line.lstrip().startswith("#"):
            continue
        raw = ft.raw_lines[lineno - 1]

        # Order brace/lock/unlock events by column so `{ Lock l(a); }` on
        # one line resolves correctly.
        events: list[tuple[int, str, object]] = []
        for i, ch in enumerate(line):
            if ch == "{":
                events.append((i, "open", None))
            elif ch == "}":
                events.append((i, "close", None))
        for m in LOCK_SITE_RE.finditer(line):
            events.append((m.start(), "lock",
                           (m.group(1), canon_lock_name(m.group(2)))))
        for m in UNLOCK_RE.finditer(line):
            events.append((m.start(), "unlock", m.group(1)))
        for m in RELOCK_RE.finditer(line):
            events.append((m.start(), "relock", m.group(1)))
        for m in LOCKS_MARKER_RE.finditer(raw):
            # Markers live in comments; order them after code events.
            events.append((len(line) + m.start(), "marker",
                           split_names(m.group(1))))
        events.sort(key=lambda e: e[0])

        req = REQUIRES_RE.search(line)
        if req:
            pending_requires = split_names(req.group(1))

        for _, kind, payload in events:
            if kind == "open":
                depth += 1
                if pending_requires is not None:
                    for node in pending_requires:
                        if node in scan.declared:
                            held.append({"depth": depth, "node": node,
                                         "var": None, "active": True})
                    pending_requires = None
            elif kind == "close":
                depth -= 1
                held[:] = [h for h in held if h["depth"] <= depth]
            elif kind == "lock":
                var, node = payload
                acquire(node, lineno, var)
            elif kind == "marker":
                for node in payload:
                    acquire(node, lineno, None)
            elif kind == "unlock":
                for h in held:
                    if h["var"] == payload:
                        h["active"] = False
            elif kind == "relock":
                for h in held:
                    if h["var"] == payload:
                        h["active"] = True

        # A pure declaration (`T f(...) NETFAIL_REQUIRES(mu);`) never opens
        # a body: drop the pending seed at the statement end.
        if pending_requires is not None and line.rstrip().endswith(";"):
            pending_requires = None


def _find_lock_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    color: dict[str, int] = {}
    parent: dict[str, str] = {}

    def dfs(n: str) -> list[str] | None:
        color[n] = 1
        for m in sorted(graph.get(n, ())):
            if color.get(m, 0) == 0:
                parent[m] = n
                found = dfs(m)
                if found:
                    return found
            elif color.get(m) == 1:
                # Walk back from n to m to materialize the cycle.
                cycle = [n]
                cur = n
                while cur != m:
                    cur = parent[cur]
                    cycle.append(cur)
                cycle.reverse()
                cycle.append(m if m != n else n)
                return cycle
        color[n] = 2
        return None

    for n in sorted(graph):
        if color.get(n, 0) == 0:
            found = dfs(n)
            if found:
                return found
    return None


def analyze_lock_order(root: str,
                       files: list[str]) -> list[Violation]:
    scan = LockScan()
    fts = [checks.load_file(root, rel) for rel in files]
    for ft in fts:
        _scan_mutex_decls(ft, scan)
    for ft in fts:
        _scan_lock_sites(ft, scan)

    violations = list(scan.violations)

    # Annotations must name declared mutexes.
    for (a, b), (path, line) in sorted(scan.annotated.items()):
        for node in (a, b):
            if node not in scan.declared:
                violations.append(Violation(
                    path, line, "lock-annotation",
                    f"ordering annotation names unknown mutex '{node}'"))

    # Stale annotations: a declared edge no lock site exercises.
    for (a, b), (path, line) in sorted(scan.annotated.items()):
        if a in scan.declared and b in scan.declared \
                and (a, b) not in scan.observed:
            violations.append(Violation(
                path, line, "lock-annotation",
                f"stale ordering annotation: no lock site acquires "
                f"'{b}' while holding '{a}' — remove the annotation or "
                "add the `netfail-audit: locks(...)` marker at the real "
                "acquisition site"))

    # The combined graph (annotated ∪ observed) must be acyclic.
    graph: dict[str, set[str]] = {}
    for (a, b) in list(scan.observed) + list(scan.annotated):
        graph.setdefault(a, set()).add(b)
    cycle = _find_lock_cycle(graph)
    if cycle:
        edge = (cycle[0], cycle[1]) if len(cycle) > 1 else (cycle[0],) * 2
        path, line = scan.observed.get(edge) or scan.annotated.get(edge) \
            or ("src", 1)
        violations.append(Violation(
            path, line, "lock-order",
            "lock acquisition cycle: " + " -> ".join(cycle)))
    return violations


# ---------------------------------------------------------------------------
# Layering.


def analyze_layering(root: str, files: list[str],
                     deps: dict[str, set[str]] | None = None
                     ) -> list[Violation]:
    deps = SUBSYSTEM_DEPS if deps is None else deps
    violations: list[Violation] = []

    # The declared graph itself must be a DAG (a bad edit here would
    # otherwise legalize anything).
    cycle = _find_lock_cycle({k: set(v) for k, v in deps.items()})
    if cycle:
        violations.append(Violation(
            "scripts/netfail_audit.py", 1, "layer",
            "SUBSYSTEM_DEPS itself is cyclic: " + " -> ".join(cycle)))
        return violations

    # Every subsystem directory present on disk must be declared.
    src_dir = os.path.join(root, "src")
    if os.path.isdir(src_dir):
        for entry in sorted(os.listdir(src_dir)):
            if os.path.isdir(os.path.join(src_dir, entry)) \
                    and entry not in deps:
                violations.append(Violation(
                    f"src/{entry}", 1, "layer",
                    f"subsystem 'src/{entry}' is not declared in "
                    "SUBSYSTEM_DEPS (scripts/netfail_audit.py) — place it "
                    "in the layer DAG"))

    include_graph: dict[str, list[tuple[str, int, str]]] = {}
    for rel in files:
        if not rel.startswith("src/"):
            continue
        sub = rel.split("/")[1]
        ft = checks.load_file(root, rel)
        for lineno, code_line in enumerate(ft.code_lines, start=1):
            # The stripper blanks string literals, so the target path lives
            # only in the raw line; the stripped line still shows whether
            # the directive is real code (a commented-out include is not).
            if "#" not in code_line or "include" not in code_line:
                continue
            m = INCLUDE_RE.search(ft.raw_lines[lineno - 1])
            if not m:
                continue
            target, target_sub = m.group(1), m.group(2)
            include_graph.setdefault(rel, []).append((target, lineno))
            if sub not in deps:
                continue  # already reported above
            if target_sub != sub and target_sub not in deps.get(sub, set()):
                v = Violation(
                    rel, lineno, "layer",
                    f"'src/{sub}' may not include '{target}': allowed "
                    f"dependencies are {{{', '.join(sorted(deps[sub]))}}} "
                    "(SUBSYSTEM_DEPS; see DESIGN.md §16)")
                if v.rule not in ft.allow.get(lineno, set()):
                    violations.append(v)

    # File-level include cycles (possible even inside one subsystem).
    edges = {src: [t for t, _ in tgts]
             for src, tgts in include_graph.items()}
    color: dict[str, int] = {}
    stack: list[str] = []

    def dfs(n: str) -> list[str] | None:
        color[n] = 1
        stack.append(n)
        for m2 in edges.get(n, ()):  # noqa: B023
            if color.get(m2, 0) == 0:
                found = dfs(m2)
                if found:
                    return found
            elif color.get(m2) == 1:
                return stack[stack.index(m2):] + [m2]
        stack.pop()
        color[n] = 2
        return None

    for n in sorted(edges):
        if color.get(n, 0) == 0:
            found = dfs(n)
            if found:
                first = found[0]
                lineno = next((ln for t, ln in include_graph.get(first, ())
                               if t == found[1]), 1)
                violations.append(Violation(
                    first, lineno, "include-cycle",
                    "include cycle: " + " -> ".join(found)))
                break  # one cycle report at a time keeps the output usable
    return violations


# ---------------------------------------------------------------------------
# Binary-level allocation audit.


def load_compile_commands(build_dir: str) -> list[dict]:
    path = os.path.join(build_dir, "compile_commands.json")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def object_path_for(entry: dict) -> str | None:
    args = shlex.split(entry.get("command", ""))
    for i, a in enumerate(args):
        if a == "-o" and i + 1 < len(args):
            return os.path.normpath(
                os.path.join(entry["directory"], args[i + 1]))
    return None


def _owner_name(demangled: str) -> str:
    """Qualified function name of a demangled symbol, with template
    arguments and the parameter list stripped — `void std::vector<netfail::
    Foo>::_M_realloc_insert<...>(...)` -> `std::vector::_M_realloc_insert`.
    Regexes misfire here (argument lists contain `std::` after spaces), so
    walk brackets structurally."""
    s = demangled.replace("(anonymous namespace)", "{anon}")
    for op in ("operator<<", "operator>>", "operator<=>", "operator<=",
               "operator>=", "operator<", "operator>", "operator()"):
        s = s.replace(op, "operator")
    chars = []
    depth = 0
    for ch in s:
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif depth == 0:
            chars.append(ch)
    s = "".join(chars).split("(")[0].strip()
    return s.split()[-1] if s else demangled


def _demangled_is_internal(name: str) -> bool:
    # Static initializers (_GLOBAL__sub_I...) run once at startup: cold by
    # construction, not a hot-path property of the TU.
    if name.startswith(("_GLOBAL__sub_I", "_ZN", "_ZSt")):
        return True
    return _owner_name(name).startswith(STD_INTERNAL_PREFIXES)


def scan_object_allocs(obj_path: str, root: str
                       ) -> dict[str, tuple[set[str], tuple[str, int]]]:
    """function -> (alloc symbols referenced, best-effort source location).

    Fast path: if `nm` shows no undefined allocation symbols at all, the
    object is clean and objdump is skipped.
    """
    nm_out = subprocess.run(["nm", "--undefined-only", obj_path],
                            capture_output=True, text=True, check=True)
    if not ALLOC_NM_RE.search(nm_out.stdout):
        return {}

    out = subprocess.run(
        ["objdump", "-d", "-r", "-l", "-C", obj_path],
        capture_output=True, text=True, check=True)
    func = None
    loc: tuple[str, int] | None = None
    result: dict[str, tuple[set[str], tuple[str, int]]] = {}
    func_re = re.compile(r"^[0-9a-f]+ <(.+)>:$")
    loc_re = re.compile(r"^(/[^:]+):(\d+)")
    reloc_re = re.compile(r"R_\w+\s+(.*)$")
    for line in out.stdout.splitlines():
        fm = func_re.match(line)
        if fm:
            func = re.sub(r"\s*\[clone[^\]]*\]", "", fm.group(1))
            loc = None
            continue
        lm = loc_re.match(line)
        if lm:
            abs_path = lm.group(1)
            if abs_path.startswith(root + os.sep):
                loc = (os.path.relpath(abs_path, root).replace(os.sep, "/"),
                       int(lm.group(2)))
            continue
        rm = reloc_re.search(line)
        if rm and func is not None:
            sym = rm.group(1).strip()
            if ALLOC_SYMBOL_RE.match(sym):
                entry = result.setdefault(func, (set(), loc or ("", 0)))
                entry[0].add(sym.split("-")[0].split("+")[0].strip())
    return result


def analyze_alloc(root: str, build_dir: str,
                  roster: dict | None = None) -> list[Violation]:
    roster = ALLOC_TU_ROSTER if roster is None else roster
    violations: list[Violation] = []
    try:
        cc = load_compile_commands(build_dir)
    except OSError:
        violations.append(Violation(
            "scripts/netfail_audit.py", 1, "alloc",
            f"no compile_commands.json under {build_dir}: configure the "
            "build tree first (cmake -B build -S .)"))
        return violations
    by_file = {}
    for entry in cc:
        rel = os.path.relpath(entry["file"], root).replace(os.sep, "/")
        by_file[rel] = entry

    for tu, allow in sorted(roster.items()):
        entry = by_file.get(tu)
        obj = object_path_for(entry) if entry else None
        if obj is None or not os.path.exists(obj):
            violations.append(Violation(
                tu, 1, "alloc",
                f"hot-path TU has no built object under {build_dir} — "
                "build the tree before auditing"))
            continue
        funcs = scan_object_allocs(obj, root)
        used_patterns: set[str] = set()
        for func in sorted(funcs):
            syms, loc = funcs[func]
            if _demangled_is_internal(func):
                continue
            matched = [pat for pat, _ in allow if pat in func]
            if matched:
                used_patterns.update(matched)
                continue
            path, line = loc if loc[0] else (tu, 1)
            violations.append(Violation(
                path, line, "alloc",
                f"hot-path TU {tu}: `{func}` references "
                f"{', '.join(sorted(syms))} but is not on the TU's "
                "allocation allowlist (ALLOC_TU_ROSTER) — make the "
                "function allocation-free or allowlist it with a reason"))
        for pat, reason in allow:
            if pat not in used_patterns:
                violations.append(Violation(
                    tu, 1, "alloc-allowlist",
                    f"stale allocation allowlist entry '{pat}' ({reason}): "
                    "no function in the object references an allocator "
                    "through it — the compiler no longer emits the call; "
                    "drop the entry"))
    return violations


# ---------------------------------------------------------------------------
# Options: every knob is set by some caller.

# Trees whose assignments count as a caller setting a knob: everything that
# ships or measures, never the unit tests.
OPTIONS_CALLER_DIRS = ["src", "bench", "examples", "e2ebench"]

# "Struct::field" -> why the field stays settable although no code outside
# tests/ assigns it.
OPTIONS_ALLOWLIST = {
    "GatewayOptions::lsp_queue_capacity":
        "gateway_test shrinks the LSP queue to drive the backpressure "
        "watermarks deterministically",
    "GatewayOptions::consumer_slowdown":
        "gateway_test's fault injection: a deliberately slow consumer is "
        "how the backpressure path is exercised on a fast machine",
}

OPTIONS_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Options)\s*\{")
FIELD_NAME_RE = re.compile(r"(\w+)\s*(?:=|\{|;|\[)")
# `x.a.b = v`, `p->a += v`, `.a = v` (designated initializer): every name
# on the member chain counts as set.
MEMBER_SET_RE = re.compile(
    r"((?:(?:\.|->)\s*\w+\s*)+)(?:[-+*/%|&^]|<<|>>)?=(?!=)")
# `&x.a.b` (an out-parameter) and `++x.a` / `x.a--`.
MEMBER_REF_RE = re.compile(
    r"(?:&|\+\+|--)\s*\w+((?:\s*(?:\.|->)\s*\w+)+)"
    r"|\w+((?:\s*(?:\.|->)\s*\w+)+)\s*(?:\+\+|--)")
CHAIN_NAME_RE = re.compile(r"(?:\.|->)\s*(\w+)")


def _strip_template_args(text: str) -> str:
    out: list[str] = []
    depth = 0
    for c in text:
        if c == "<":
            depth += 1
        elif c == ">" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(c)
    return "".join(out)


def scan_options_fields(ft: checks.FileText) -> list[tuple[str, str, int]]:
    """(struct, field, line) for every data member of every `struct
    ...Options` in `ft`, in declaration order."""
    fields: list[tuple[str, str, int]] = []
    lines = ft.code_lines
    i = 0
    while i < len(lines):
        m = OPTIONS_STRUCT_RE.search(lines[i])
        if not m:
            i += 1
            continue
        struct = m.group(1)
        depth = 0
        stmt, stmt_line = "", 0
        lineno = i
        col = m.end() - 1  # the opening brace
        while lineno < len(lines):
            text = lines[lineno][col:]
            col = 0
            done = False
            for c in text:
                if c == "{":
                    depth += 1
                    if depth == 1:
                        continue
                elif c == "}":
                    depth -= 1
                    if depth == 0:
                        done = True
                        break
                if depth >= 1:
                    if not stmt.strip():
                        stmt_line = lineno + 1
                    stmt += c
                    if c == ";" and depth == 1:
                        name = _member_name(stmt)
                        if name:
                            fields.append((struct, name, stmt_line))
                        stmt = ""
            if done:
                break
            stmt += " "
            lineno += 1
        i = lineno + 1
    return fields


def _member_name(stmt: str) -> str | None:
    """The data member a statement at struct scope declares, or None for a
    function, an operator, a type alias or a static."""
    text = " ".join(_strip_template_args(stmt).split())
    if re.match(r"(using|static|friend|typedef|enum|struct|class)\b", text) \
            or re.search(r"\boperator\b", text):
        return None
    head = re.split(r"=|\{", text, maxsplit=1)[0]
    if "(" in head:
        return None
    m = FIELD_NAME_RE.search(head + ";")
    return m.group(1) if m else None


def scan_member_sets(ft: checks.FileText) -> set[str]:
    """Names of members `ft` assigns, takes the address of, or steps."""
    names: set[str] = set()
    for line in ft.code_lines:
        if "=" in line:
            for m in MEMBER_SET_RE.finditer(line):
                names.update(CHAIN_NAME_RE.findall(m.group(1)))
        if "&" in line or "++" in line or "--" in line:
            for m in MEMBER_REF_RE.finditer(line):
                names.update(CHAIN_NAME_RE.findall(m.group(1) or m.group(2)))
    return names


def analyze_options(root: str, files: list[str],
                    allowlist: dict[str, str] | None = None
                    ) -> list[Violation]:
    allowlist = OPTIONS_ALLOWLIST if allowlist is None else allowlist
    declared: list[tuple[str, str, str, int]] = []
    for rel in files:
        if rel.startswith("src/"):
            ft = checks.load_file(root, rel)
            declared += [(rel, st, fld, ln)
                         for st, fld, ln in scan_options_fields(ft)]
    set_names: set[str] = set()
    for rel in checks.collect_files(root, OPTIONS_CALLER_DIRS):
        set_names |= scan_member_sets(checks.load_file(root, rel))

    violations: list[Violation] = []
    seen: set[str] = set()
    for rel, struct, fld, line in declared:
        key = f"{struct}::{fld}"
        seen.add(key)
        if key in allowlist:
            if fld in set_names:
                violations.append(Violation(
                    rel, line, "options-allowlist",
                    f"stale options allowlist entry '{key}' "
                    f"({allowlist[key]}): code outside tests/ sets it — "
                    "drop the entry"))
            continue
        if fld not in set_names:
            violations.append(Violation(
                rel, line, "options",
                f"'{key}' is set by no code outside tests/ (src/, bench/, "
                "examples/, e2ebench/): make it a named constant next to "
                "the code that reads it, or allowlist it in "
                "OPTIONS_ALLOWLIST (scripts/netfail_audit.py) with a "
                "reason"))
    for key in sorted(set(allowlist) - seen):
        violations.append(Violation(
            "scripts/netfail_audit.py", 1, "options-allowlist",
            f"stale options allowlist entry '{key}' ({allowlist[key]}): no "
            "such field of a struct ...Options under src/ — drop the entry"))
    return violations


# ---------------------------------------------------------------------------
# Header self-sufficiency.


def header_compile_flags(root: str, build_dir: str
                         ) -> tuple[str, list[str]]:
    """(compiler, flags) — the project's own flags when a configured build
    tree is available, a portable fallback otherwise."""
    try:
        cc = load_compile_commands(build_dir)
    except OSError:
        cc = []
    for entry in cc:
        if not entry["file"].endswith(".cpp"):
            continue
        if f"{os.sep}src{os.sep}" not in entry["file"]:
            continue
        args = shlex.split(entry["command"])
        compiler, flags = args[0], []
        skip = False
        for a in args[1:]:
            if skip:
                skip = False
                continue
            if a == "-o":
                skip = True
                continue
            if a == "-c" or a.endswith((".cpp", ".o")):
                continue
            flags.append(a)
        return compiler, flags
    compiler = shutil.which("c++") or shutil.which("g++") \
        or shutil.which("clang++") or "c++"
    return compiler, ["-std=c++20", "-I" + root]


def analyze_headers(root: str, headers: list[str], build_dir: str,
                    jobs: int | None = None) -> list[Violation]:
    compiler, flags = header_compile_flags(root, build_dir)
    violations: list[Violation] = []

    def compile_one(rel: str) -> Violation | None:
        with tempfile.TemporaryDirectory(prefix="netfail_audit_hdr") as td:
            tu = os.path.join(td, "standalone_tu.cpp")
            with open(tu, "w", encoding="utf-8") as f:
                f.write(f'#include "{rel}"\n')
            proc = subprocess.run(
                [compiler, *flags, "-fsyntax-only", tu],
                capture_output=True, text=True, cwd=root)
            if proc.returncode == 0:
                return None
            first_error = next(
                (ln for ln in proc.stderr.splitlines() if "error" in ln),
                proc.stderr.splitlines()[0] if proc.stderr else "no output")
            return Violation(
                rel, 1, "header-standalone",
                "header does not compile as a standalone TU (it relies on "
                f"includer-provided context): {first_error.strip()}")

    with concurrent.futures.ThreadPoolExecutor(
            max_workers=jobs or os.cpu_count() or 2) as pool:
        for v in pool.map(compile_one, headers):
            if v is not None:
                violations.append(v)
    violations.sort(key=lambda v: (v.path, v.line))
    return violations


# ---------------------------------------------------------------------------
# Driver.


def apply_escapes(root: str, violations: list[Violation],
                  suppressions: list[checks.Suppression]) -> list[Violation]:
    """Drop violations covered by inline allow comments or file-scoped
    suppressions; mark suppressions used."""
    kept: list[Violation] = []
    ft_cache: dict[str, checks.FileText] = {}
    for v in violations:
        full = os.path.join(root, v.path)
        if os.path.isfile(full):
            if v.path not in ft_cache:
                ft_cache[v.path] = checks.load_file(root, v.path)
            if v.rule in ft_cache[v.path].allow.get(v.line, set()):
                continue
        sup = next((s for s in suppressions if s.matches(v)), None)
        if sup is not None:
            sup.used = True
            continue
        kept.append(v)
    return kept


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="netfail_audit.py",
        description="netfail architecture / lock-order / allocation / "
                    "header auditor (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--build-dir", default=None,
                        help="build tree for compile_commands.json and "
                             "object files (default: <root>/build)")
    parser.add_argument("--suppressions", default=None,
                        help="suppression file (default: "
                             "scripts/lint_suppressions.txt under --root; "
                             "shared with netfail_lint.py)")
    parser.add_argument("--if-tools-missing", choices=("error", "skip"),
                        default="error",
                        help="when nm/objdump (alloc) or the compiler "
                             "(headers) are unavailable: hard error "
                             "(default) or skip that analyzer with a note")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    parser.add_argument("analyzers", nargs="*",
                        help=f"subset of: {' '.join(ANALYZERS)} "
                             "(default: all)")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(RULE_NAMES))
        return 0

    selected = args.analyzers or list(ANALYZERS)
    for a in selected:
        if a not in ANALYZERS:
            print(f"netfail_audit: unknown analyzer '{a}' "
                  f"(choose from: {' '.join(ANALYZERS)})", file=sys.stderr)
            parser.print_usage(sys.stderr)
            return 2

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(root)
    build_dir = args.build_dir or os.path.join(root, "build")
    sup_path = args.suppressions or os.path.join(
        root, "scripts", "lint_suppressions.txt")
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"netfail_audit: no src/ under {root}", file=sys.stderr)
        return 2

    suppressions, config_errors = checks.parse_suppressions(sup_path)
    if config_errors:
        print("\n".join(config_errors), file=sys.stderr)
        return 2

    def tool_missing(names: list[str], analyzer: str) -> bool:
        missing = [n for n in names if shutil.which(n) is None]
        if not missing:
            return False
        note = (f"netfail_audit: {analyzer}: required tool(s) missing: "
                f"{', '.join(missing)}")
        if args.if_tools_missing == "skip":
            print(note + " — skipped", file=sys.stderr)
            return True
        print(note, file=sys.stderr)
        raise SystemExit(2)

    files = checks.collect_files(root, ["src"])
    headers = [f for f in files if f.endswith((".hpp", ".h"))]

    violations: list[Violation] = []
    ran: list[str] = []
    for analyzer in selected:
        if analyzer == "layering":
            violations += analyze_layering(root, files)
        elif analyzer == "lock-order":
            violations += analyze_lock_order(root, files)
        elif analyzer == "options":
            violations += analyze_options(root, files)
        elif analyzer == "alloc":
            if tool_missing(["nm", "objdump"], "alloc"):
                continue
            violations += analyze_alloc(root, build_dir)
        elif analyzer == "headers":
            compiler, _ = header_compile_flags(root, build_dir)
            if tool_missing([compiler], "headers"):
                continue
            violations += analyze_headers(root, headers, build_dir)
        ran.append(analyzer)

    violations = apply_escapes(root, violations, suppressions)
    for v in violations:
        print(v.render())
    stale = checks.stale_suppression_errors(suppressions, RULE_NAMES,
                                            set(files))
    for s in stale:
        print(f"netfail_audit: {s}", file=sys.stderr)
    if violations or stale:
        print(f"netfail_audit: {len(violations)} violation(s), "
              f"{len(stale)} stale suppression(s) "
              f"[{' '.join(ran)}]", file=sys.stderr)
        return 1
    print(f"netfail_audit: clean ({len(files)} files; "
          f"analyzers: {' '.join(ran)})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
