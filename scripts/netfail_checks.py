#!/usr/bin/env python3
"""netfail_checks — shared infrastructure for the repo's static-analysis
tools (netfail_lint.py and netfail_audit.py).

Both tools consume C++ source the same way (comment/string-blanked line
views with stable line numbers), share one suppression file
(scripts/lint_suppressions.txt, `rule path[:line] reason` per line), and
share one escape-hatch comment grammar:

    // netfail-lint: allow(rule) reason...     (linter rules)
    // netfail-audit: allow(rule) reason...    (audit rules)

The combined exit-code contract both tools implement:

    0  clean
    1  violations found — including *stale escapes*: a checked-in
       suppression that no longer matches anything, for a rule the running
       tool owns, is itself a violation (dead escape hatches rot)
    2  usage or configuration error (unknown rule, reasonless suppression,
       missing path)

Rule-name ownership: the suppression parser accepts the union of both
tools' rule names, so one file serves both; each tool only *matches* and
only *stale-reports* suppressions for its own rules, never the other
tool's.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

SOURCE_EXTENSIONS = (".cpp", ".hpp", ".cc", ".h")

# Rule-name universe, split by owning tool. Keeping both tuples here (and
# nowhere else) is what lets one suppression file serve both tools without
# either rejecting the other's entries as unknown.
LINT_RULE_NAMES = (
    "determinism",
    "hot-path-string-map",
    "hot-path-iostream",
    "naked-new",
    "todo-owner",
    "include-guard",
)
AUDIT_RULE_NAMES = (
    "layer",
    "include-cycle",
    "lock-order",
    "lock-annotation",
    "options",
    "options-allowlist",
    "alloc",
    "alloc-allowlist",
    "header-standalone",
)
ALL_RULE_NAMES = LINT_RULE_NAMES + AUDIT_RULE_NAMES

ALLOW_RE = re.compile(
    r"netfail-(?:lint|audit):\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")


@dataclass
class Violation:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class Suppression:
    rule: str
    path: str
    line: int | None  # None = whole file
    reason: str
    used: bool = False

    def matches(self, v: Violation) -> bool:
        return (
            self.rule == v.rule
            and self.path == v.path
            and (self.line is None or self.line == v.line)
        )


@dataclass
class FileText:
    """One source file in the three views the rules need."""

    rel_path: str
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)  # comments/strings blanked
    allow: dict[int, set[str]] = field(default_factory=dict)  # line -> rules


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string literals, and char literals, preserving
    line structure so reported line numbers match the raw file. Handles //,
    /* */, "..." with escapes, '...', and R"delim(...)delim" raw strings."""
    out: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue  # newline handled next iteration
        if c == "/" and nxt == "*":
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2  # skip */
            continue
        if c == "R" and nxt == '"':
            # Raw string: R"delim( ... )delim"
            m = re.match(r'R"([^\s()\\]{0,16})\(', text[i:])
            if m:
                closer = ")" + m.group(1) + '"'
                end = text.find(closer, i + m.end())
                if end == -1:
                    end = n
                else:
                    end += len(closer)
                out.extend("\n" for ch in text[i:end] if ch == "\n")
                i = end
                continue
        if c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append('""')
            continue
        if c == "'":
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append("''")
            continue
        out.append(c)
        i += 1
    return "".join(out)


def load_file(root: str, rel_path: str) -> FileText:
    with open(os.path.join(root, rel_path), encoding="utf-8", errors="replace") as f:
        raw = f.read()
    ft = FileText(rel_path=rel_path)
    ft.raw_lines = raw.splitlines()
    ft.code_lines = strip_comments_and_strings(raw).splitlines()
    # Pad so both views always have the same length.
    while len(ft.code_lines) < len(ft.raw_lines):
        ft.code_lines.append("")
    for lineno, line in enumerate(ft.raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")}
            ft.allow.setdefault(lineno, set()).update(rules)
            # An allow comment above a statement covers the next line too
            # (attribute-style placement for multi-line statements).
            ft.allow.setdefault(lineno + 1, set()).update(rules)
    return ft


def in_dirs(rel_path: str, dirs: tuple[str, ...]) -> bool:
    return any(rel_path.startswith(d + "/") for d in dirs)


def parse_suppressions(path: str) -> tuple[list[Suppression], list[str]]:
    """Returns (suppressions, config_errors). Accepts rules from either
    tool's universe; ownership is applied by the caller."""
    sups: list[Suppression] = []
    errors: list[str] = []
    if not os.path.exists(path):
        return sups, errors
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                errors.append(
                    f"{path}:{lineno}: suppression needs `rule path reason...`"
                    " — a reason is mandatory")
                continue
            rule, target, reason = parts
            if rule not in ALL_RULE_NAMES:
                errors.append(f"{path}:{lineno}: unknown rule '{rule}'")
                continue
            target_line: int | None = None
            if ":" in target:
                target, line_str = target.rsplit(":", 1)
                try:
                    target_line = int(line_str)
                except ValueError:
                    errors.append(
                        f"{path}:{lineno}: bad line number '{line_str}'")
                    continue
            sups.append(Suppression(rule, target, target_line, reason))
    return sups, errors


def stale_suppression_errors(suppressions: list[Suppression],
                             owned_rules: tuple[str, ...],
                             scanned: set[str] | None = None) -> list[str]:
    """Unused suppressions for rules the running tool owns. Suppressions for
    the *other* tool's rules are its business — never reported here. When
    `scanned` is given, suppressions for files outside this run's scan set
    are also exempt (a subset run cannot judge them)."""
    return [
        f"stale suppression: {s.rule} {s.path}"
        f"{':' + str(s.line) if s.line else ''} ({s.reason})"
        for s in suppressions
        if not s.used and s.rule in owned_rules
        and (scanned is None or s.path in scanned)
    ]


def collect_files(root: str, paths: list[str]) -> list[str]:
    rels: list[str] = []
    for p in paths:
        full = os.path.join(root, p)
        if os.path.isfile(full):
            rels.append(os.path.relpath(full, root).replace(os.sep, "/"))
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames.sort()
            # Never descend into build trees or fixtures-for-the-checker-tests.
            dirnames[:] = [d for d in dirnames
                           if not d.startswith("build") and d != "fixtures"]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    rels.append(rel.replace(os.sep, "/"))
    return rels
