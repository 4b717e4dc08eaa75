#!/usr/bin/env python3
"""netfail_lint — repo-specific invariant linter (dependency-free).

Enforces machine-checkable rules the codebase relies on but the compiler
cannot express:

  determinism         No wall-clock, non-seeded randomness, or
                      implementation-defined hashing primitives in src/sim,
                      src/analysis, src/stream, src/net (and the rest of
                      DETERMINISM_DIRS): rand()/srand(), std::random_device,
                      time(nullptr), clock(),
                      std::chrono::system_clock::now(), and std::hash. The
                      parallel/sharded differential guarantee
                      (byte-identical output for any thread or shard count)
                      dies the moment an analysis path reads ambient entropy
                      or routes by an unspecified hash; use netfail::rng,
                      simulated TimePoints, and stream::stable_hash64.
  hot-path-string-map No std::string-keyed std::unordered_map in hot-path
                      dirs. PR-3 moved all hot lookups to Symbol/u64 keys;
                      a string-keyed hash map re-introduces a per-lookup
                      hash of the bytes and per-insert allocations.
  hot-path-iostream   No <iostream>/<sstream>/std::*stringstream in
                      hot-path dirs: iostreams allocate and lock; the
                      hot paths format with strfmt/snprintf into reused
                      buffers. (src/tools is cold and exempt.)
  naked-new           No naked new/delete expressions outside the bench
                      counting-allocator harness: ownership lives in
                      containers and smart pointers. Intentionally leaked
                      process-wide singletons carry an inline allow with the
                      reason.
  todo-owner          Every TODO carries an owner tag: TODO(name).
  include-guard       Every header uses `#pragma once` (the repo's guard
                      idiom); classic #ifndef guards flag as inconsistent.

Suppressions:
  - inline, same line (or the line above, for multi-line statements):
        // netfail-lint: allow(rule) reason...
  - file/line scoped, checked in at scripts/lint_suppressions.txt:
        rule path[:line] reason...
    A suppression without a reason is itself an error. The file is shared
    with netfail_audit.py (one escape-discipline for both tools); each tool
    only matches — and only stale-reports — its own rules.

Exit status (the combined contract, see scripts/netfail_checks.py):
0 clean, 1 violations or stale suppressions, 2 usage/config error.
Usage: netfail_lint.py [--root DIR] [--suppressions FILE] [paths...]
Paths default to `src tests bench`, relative to --root (repo root).
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import netfail_checks as checks

# Re-exported so existing consumers (tests) keep one import surface.
Violation = checks.Violation
Suppression = checks.Suppression
FileText = checks.FileText
strip_comments_and_strings = checks.strip_comments_and_strings
load_file = checks.load_file
parse_suppressions = checks.parse_suppressions
collect_files = checks.collect_files
in_dirs = checks.in_dirs

# Directory scoping, relative to the repo root (forward slashes).
DETERMINISM_DIRS = (
    "src/sim",
    "src/analysis",
    "src/detect",
    "src/stream",
    "src/syslog",  # the one parse feeds byte-identical batch and stream output
    "src/net",     # sharded ingest feeds the byte-identical merge; only
                   # steady_clock (monotonic, not banned) belongs here
    "src/svc",     # snapshot bytes and anonymized pseudonyms must be
                   # reproducible across processes and stdlibs
    "src/topology",  # topology hashes feed shard routing and rendered
                     # tables; an unspecified std::hash here would leak
                     # into every downstream digest
    "src/config",  # the census is the naming layer every digest renders
    "src/tickets",  # ticket matching feeds the scored tables
    "src/stats",   # summary/ECDF/KS outputs land in golden-file tables
    "src/io",      # loaders stamp parsed records; ambient time here would
                   # skew every replay
)
HOT_PATH_DIRS = (
    "src/analysis",
    "src/common",
    "src/detect",
    "src/isis",
    "src/net",
    "src/sim",
    "src/stream",
    "src/svc",
    "src/syslog",
    "src/topology",  # address/prefix types live in every hot lookup
    "src/config",  # census lookups sit on the per-event resolve path
    "src/tickets",
    "src/stats",
    "src/io",  # bulk loaders feed the batch path; per-line iostream
               # formatting would dominate load time
)
# The counting operator new/delete harness the `naked-new` rule exists to
# protect: the only place allowed to spell allocation primitives.
ALLOC_HARNESS_FILES = ("bench/bench_common.cpp",)


# ---------------------------------------------------------------------------
# Rules. Each takes a FileText and yields Violations.

DETERMINISM_PATTERNS = (
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() (ambient RNG)"),
    (re.compile(r"std::random_device"), "std::random_device (ambient entropy)"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr) (wall clock)"),
    (re.compile(r"(?<![\w:])clock\s*\(\s*\)"), "clock() (wall clock)"),
    (re.compile(r"system_clock::now\s*\(\s*\)"),
     "std::chrono::system_clock::now() (wall clock)"),
    # Shard routing and checkpoint digests must agree across processes and
    # standard libraries; std::hash's value is unspecified.
    (re.compile(r"std::hash\b"),
     "std::hash (implementation-defined; use stream::stable_hash64)"),
)


def rule_determinism(ft: FileText):
    if not in_dirs(ft.rel_path, DETERMINISM_DIRS):
        return
    for lineno, line in enumerate(ft.code_lines, start=1):
        for pattern, what in DETERMINISM_PATTERNS:
            if pattern.search(line):
                yield Violation(
                    ft.rel_path, lineno, "determinism",
                    f"{what} breaks the byte-identical differential "
                    "guarantee; use netfail::rng / simulated time",
                )


STRING_MAP_RE = re.compile(r"unordered_map\s*<\s*(?:std::)?string\b")
IOSTREAM_INCLUDE_RE = re.compile(r'#\s*include\s*<(iostream|sstream)>')
SSTREAM_USE_RE = re.compile(r"std::\s*(o|i)?stringstream")


def rule_hot_path(ft: FileText):
    if not in_dirs(ft.rel_path, HOT_PATH_DIRS):
        return
    for lineno, line in enumerate(ft.code_lines, start=1):
        if STRING_MAP_RE.search(line):
            yield Violation(
                ft.rel_path, lineno, "hot-path-string-map",
                "std::string-keyed unordered_map on a hot path: key by "
                "sym::Symbol / sym::pair_key (see DESIGN.md §7)",
            )
        if IOSTREAM_INCLUDE_RE.search(line) or SSTREAM_USE_RE.search(line):
            yield Violation(
                ft.rel_path, lineno, "hot-path-iostream",
                "iostream/stringstream on a hot path allocates and locks: "
                "format with strfmt/snprintf into a reused buffer",
            )


NEW_DELETE_RE = re.compile(r"(?<![\w:])(new|delete)(?![\w:])")
OPERATOR_NEW_RE = re.compile(r"operator\s+(new|delete)(\s*\[\s*\])?")
EQUALS_DELETE_RE = re.compile(r"=\s*delete\b")


def rule_naked_new(ft: FileText):
    if ft.rel_path in ALLOC_HARNESS_FILES:
        return
    for lineno, line in enumerate(ft.code_lines, start=1):
        # Blank the legal spellings, then look for what is left.
        cleaned = OPERATOR_NEW_RE.sub(" ", line)
        cleaned = EQUALS_DELETE_RE.sub(" ", cleaned)
        m = NEW_DELETE_RE.search(cleaned)
        if m:
            yield Violation(
                ft.rel_path, lineno, "naked-new",
                f"naked `{m.group(1)}`: ownership belongs in containers or "
                "smart pointers (bench alloc harness excepted)",
            )


TODO_RE = re.compile(r"\bTODO\b")
TODO_OWNER_RE = re.compile(r"\bTODO\(\w[\w.-]*\)")


def rule_todo_owner(ft: FileText):
    for lineno, line in enumerate(ft.raw_lines, start=1):
        if TODO_RE.search(line) and not TODO_OWNER_RE.search(line):
            yield Violation(
                ft.rel_path, lineno, "todo-owner",
                "TODO without an owner tag: write TODO(name): ...",
            )


IFNDEF_GUARD_RE = re.compile(r"#\s*ifndef\s+\w+_(H|HPP|H_|HPP_)\b")


def rule_include_guard(ft: FileText):
    if not ft.rel_path.endswith((".hpp", ".h")):
        return
    for lineno, line in enumerate(ft.code_lines, start=1):
        if "#pragma once" in line:
            return
    # No pragma once anywhere: point at an #ifndef guard if one exists
    # (inconsistent idiom), else at line 1 (unguarded).
    for lineno, line in enumerate(ft.code_lines, start=1):
        if IFNDEF_GUARD_RE.search(line):
            yield Violation(
                ft.rel_path, lineno, "include-guard",
                "#ifndef-style include guard: this repo uses #pragma once",
            )
            return
    yield Violation(
        ft.rel_path, 1, "include-guard",
        "header without #pragma once",
    )


RULES = (
    rule_determinism,
    rule_hot_path,
    rule_naked_new,
    rule_todo_owner,
    rule_include_guard,
)
RULE_NAMES = checks.LINT_RULE_NAMES

# ---------------------------------------------------------------------------


def lint_tree(root: str, paths: list[str],
              suppressions: list[Suppression]
              ) -> tuple[list[Violation], list[str]]:
    """Returns (unsuppressed violations, files scanned)."""
    violations: list[Violation] = []
    files = collect_files(root, paths)
    for rel in files:
        ft = load_file(root, rel)
        for rule in RULES:
            for v in rule(ft):
                if v.rule in ft.allow.get(v.line, set()):
                    continue
                sup = next((s for s in suppressions if s.matches(v)), None)
                if sup is not None:
                    sup.used = True
                    continue
                violations.append(v)
    return violations, files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="netfail_lint.py",
        description="netfail repo-invariant linter (see module docstring)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--suppressions", default=None,
                        help="suppression file (default: "
                             "scripts/lint_suppressions.txt under --root)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories, relative to --root "
                             "(default: src tests bench)")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(RULE_NAMES))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    sup_path = args.suppressions or os.path.join(
        root, "scripts", "lint_suppressions.txt")
    paths = args.paths or ["src", "tests", "bench"]
    for p in paths:
        if not os.path.exists(os.path.join(root, p)):
            print(f"netfail_lint: no such path under {root}: {p}",
                  file=sys.stderr)
            return 2

    suppressions, config_errors = parse_suppressions(sup_path)
    if config_errors:
        print("\n".join(config_errors), file=sys.stderr)
        return 2

    violations, scanned_files = lint_tree(root, paths, suppressions)
    scanned = len(scanned_files)
    for v in violations:
        print(v.render())
    # Stale escapes for rules this tool owns are errors (combined contract);
    # suppressions for audit rules are netfail_audit.py's to judge, and a
    # subset run only judges suppressions for files it scanned.
    stale = checks.stale_suppression_errors(suppressions, RULE_NAMES,
                                            set(scanned_files))
    for s in stale:
        print(f"netfail_lint: {s}", file=sys.stderr)
    if violations or stale:
        print(f"netfail_lint: {len(violations)} violation(s), "
              f"{len(stale)} stale suppression(s) in {scanned} file(s)",
              file=sys.stderr)
        return 1
    print(f"netfail_lint: clean ({scanned} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
