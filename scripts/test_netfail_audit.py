#!/usr/bin/env python3
"""Self-tests for netfail_audit.py: fixture trees with known violation
sets, the binary alloc analyzer against a purpose-built object file, the
header analyzer against good/bad headers, the CLI exit-code contract, and
the shared-suppressions contract with netfail_lint.py.

Run directly (`python3 scripts/test_netfail_audit.py`) or via ctest
(AuditSelfTest)."""

import io
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import netfail_audit  # noqa: E402
import netfail_checks as checks  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "audit", "fixtures")
LAYERING_ROOT = os.path.join(FIXTURES, "layering")
LOCK_ROOT = os.path.join(FIXTURES, "lock")
CLEAN_ROOT = os.path.join(FIXTURES, "clean")
OPTIONS_ROOT = os.path.join(FIXTURES, "options")

HAVE_CXX = shutil.which("c++") or shutil.which("g++")
HAVE_BINUTILS = shutil.which("nm") and shutil.which("objdump")


def run_layering(root):
    files = checks.collect_files(root, ["src"])
    return netfail_audit.analyze_layering(root, files)


def run_lock_order(root):
    files = checks.collect_files(root, ["src"])
    return netfail_audit.analyze_lock_order(root, files)


class LayeringAnalyzer(unittest.TestCase):
    def test_fixture_tree_exact_hit_set(self):
        got = {(v.path, v.rule) for v in run_layering(LAYERING_ROOT)}
        self.assertEqual(
            got,
            {("src/common/bad_layer.hpp", "layer"),   # common -> net
             ("src/syslog/cycle_a.hpp", "include-cycle"),
             ("src/widgets", "layer")})               # undeclared subsystem
        # The legal chain net -> stream -> analysis and the inline-allowed
        # isis -> sim edge must NOT appear.
        paths = {v.path for v in run_layering(LAYERING_ROOT)}
        self.assertNotIn("src/net/socket.hpp", paths)
        self.assertNotIn("src/stream/feed.hpp", paths)
        self.assertNotIn("src/isis/allowed.hpp", paths)

    def test_cycle_report_names_both_files(self):
        v = next(x for x in run_layering(LAYERING_ROOT)
                 if x.rule == "include-cycle")
        self.assertIn("cycle_a.hpp", v.message)
        self.assertIn("cycle_b.hpp", v.message)

    def test_clean_tree_is_clean(self):
        self.assertEqual(run_layering(CLEAN_ROOT), [])

    def test_cyclic_declared_graph_is_itself_an_error(self):
        deps = {"common": {"net"}, "net": {"common"}}
        files = checks.collect_files(CLEAN_ROOT, ["src"])
        vs = netfail_audit.analyze_layering(CLEAN_ROOT, files, deps=deps)
        self.assertEqual([v.rule for v in vs], ["layer"])
        self.assertIn("SUBSYSTEM_DEPS itself is cyclic", vs[0].message)

    def test_declared_graph_matches_reality(self):
        # Meta-invariants of the real declaration: acyclic, every on-disk
        # subsystem declared, every declared dep is itself declared.
        deps = netfail_audit.SUBSYSTEM_DEPS
        self.assertIsNone(netfail_audit._find_lock_cycle(
            {k: set(v) for k, v in deps.items()}))
        for sub, targets in deps.items():
            for t in targets:
                self.assertIn(t, deps, f"{sub} -> {t}")
        for entry in os.listdir(os.path.join(REPO_ROOT, "src")):
            if os.path.isdir(os.path.join(REPO_ROOT, "src", entry)):
                self.assertIn(entry, deps, entry)


class LockOrderAnalyzer(unittest.TestCase):
    def test_fixture_tree_exact_hit_set(self):
        got = {(v.path, v.rule) for v in run_lock_order(LOCK_ROOT)}
        self.assertEqual(
            got,
            {("src/common/forward.cpp", "lock-order"),      # a<->b cycle
             ("src/common/locks.hpp", "lock-annotation"),   # stale c->d
             ("src/common/backward.cpp", "lock-annotation")})  # ghost_mu

    def test_cycle_report_names_the_cycle(self):
        v = next(x for x in run_lock_order(LOCK_ROOT)
                 if x.rule == "lock-order")
        self.assertIn("a_mu", v.message)
        self.assertIn("b_mu", v.message)

    def test_requires_and_marker_witness_the_annotation(self):
        # e -> f is only exercised through NETFAIL_REQUIRES + the
        # locks(...) marker; if either stopped counting as a witness the
        # annotation would go stale and a fourth violation would appear.
        stale = [v for v in run_lock_order(LOCK_ROOT)
                 if "e_mu" in v.message or "f_mu" in v.message]
        self.assertEqual(stale, [])

    def test_clean_tree_is_clean(self):
        self.assertEqual(run_lock_order(CLEAN_ROOT), [])

    def test_canon_lock_name(self):
        for expr, want in (("shard.ws.mu", "mu"), ("job->done_mu",
                           "done_mu"), ("this->mu_", "mu_"), ("mu_", "mu_")):
            self.assertEqual(netfail_audit.canon_lock_name(expr), want)


def run_options(root, allowlist=None):
    files = checks.collect_files(root, ["src"])
    return netfail_audit.analyze_options(root, files, allowlist=allowlist)


class OptionsAnalyzer(unittest.TestCase):
    def test_fixture_tree_exact_hit_set(self):
        # depth is set only under tests/; height is allowlisted though src/
        # sets it; ghost is allowlisted but declared nowhere.
        vs = run_options(OPTIONS_ROOT, allowlist={
            "WidgetOptions::height": "fixture",
            "WidgetOptions::ghost": "fixture"})
        got = {(v.path, v.line, v.rule) for v in vs}
        self.assertEqual(got, {
            ("src/common/knobs.hpp", 16, "options"),
            ("src/common/knobs.hpp", 18, "options-allowlist"),
            ("scripts/netfail_audit.py", 1, "options-allowlist")})
        messages = " ".join(v.message for v in vs)
        self.assertIn("WidgetOptions::depth", messages)
        self.assertIn("WidgetOptions::height", messages)
        self.assertIn("WidgetOptions::ghost", messages)

    def test_fields_skip_functions_operators_and_statics(self):
        ft = checks.load_file(OPTIONS_ROOT, "src/common/knobs.hpp")
        self.assertEqual(
            [f for _, f, _ in netfail_audit.scan_options_fields(ft)],
            ["width", "shape", "ratio", "retries", "depth", "height",
             "on_change"])

    def test_reads_are_not_sets(self):
        ft = checks.load_file(OPTIONS_ROOT, "src/common/caller.cpp")
        self.assertEqual(netfail_audit.scan_member_sets(ft),
                         {"width", "height", "shape", "sides", "on_change"})

    def test_allowlisting_the_unset_knob_clears_it(self):
        self.assertEqual(
            run_options(OPTIONS_ROOT,
                        allowlist={"WidgetOptions::depth": "fixture"}), [])

    def test_clean_tree_is_clean(self):
        self.assertEqual(run_options(CLEAN_ROOT, allowlist={}), [])

    def test_real_allowlist_has_reasons(self):
        for key, reason in netfail_audit.OPTIONS_ALLOWLIST.items():
            self.assertRegex(key, r"^\w+Options::\w+$")
            self.assertTrue(reason.strip(), key)


class DemangledOwnership(unittest.TestCase):
    """The alloc analyzer's repo-vs-library split. The regex trap: repo
    functions whose ARGUMENT lists mention std:: after a space must stay
    repo-owned."""

    def test_repo_function_with_std_args_is_owned(self):
        name = ("netfail::syslog::tokenize(std::basic_string_view"
                "<char, std::char_traits<char> >, "
                "netfail::syslog::LineParse&)")
        self.assertFalse(netfail_audit._demangled_is_internal(name))

    def test_std_instantiation_with_repo_args_is_internal(self):
        name = ("void std::vector<netfail::stream::LinkRunningStats, "
                "std::allocator<netfail::stream::LinkRunningStats> >::"
                "_M_realloc_insert<netfail::stream::LinkRunningStats const&>"
                "(__gnu_cxx::__normal_iterator<netfail::stream::"
                "LinkRunningStats*, std::vector<netfail::stream::"
                "LinkRunningStats, std::allocator<netfail::stream::"
                "LinkRunningStats> > >, netfail::stream::LinkRunningStats "
                "const&)")
        self.assertTrue(netfail_audit._demangled_is_internal(name))

    def test_template_return_type_is_skipped(self):
        name = ("std::_Rb_tree_iterator<std::pair<int const, int> > "
                "std::_Rb_tree<int, std::pair<int const, int> >::"
                "_M_emplace_hint_unique<int&>(int&)")
        self.assertTrue(netfail_audit._demangled_is_internal(name))

    def test_static_initializers_are_internal(self):
        self.assertTrue(netfail_audit._demangled_is_internal(
            "_GLOBAL__sub_I__ZN7netfail6stream8EventMuxC2Ev"))

    def test_anonymous_namespace_is_owned(self):
        self.assertFalse(netfail_audit._demangled_is_internal(
            "netfail::syslog::(anonymous namespace)::parse_direction"
            "(std::basic_string_view<char, std::char_traits<char> >)"))

    def test_object_path_parsing(self):
        entry = {"directory": "/b/src/stream",
                 "command": "/usr/bin/c++ -O2 -o CMakeFiles/x.dir/a.cpp.o "
                            "-c /r/src/stream/a.cpp",
                 "file": "/r/src/stream/a.cpp"}
        self.assertEqual(netfail_audit.object_path_for(entry),
                         "/b/src/stream/CMakeFiles/x.dir/a.cpp.o")


@unittest.skipUnless(HAVE_CXX and HAVE_BINUTILS,
                     "compiler or binutils missing")
class AllocAnalyzer(unittest.TestCase):
    """Compile the alloc fixture with the project's defaults and audit the
    real object file."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(prefix="netfail_audit_test")
        cls.root = cls.tmp.name
        cls.build = os.path.join(cls.root, "build")
        src_dir = os.path.join(cls.root, "src", "fx")
        os.makedirs(src_dir)
        os.makedirs(cls.build)
        src = os.path.join(src_dir, "hot_alloc.cpp")
        shutil.copy(os.path.join(FIXTURES, "alloc", "hot_alloc.cpp"), src)
        obj = os.path.join(cls.build, "hot_alloc.cpp.o")
        cxx = HAVE_CXX
        cmd = f"{cxx} -std=c++20 -O2 -g -o {obj} -c {src}"
        subprocess.run(cmd.split(), check=True)
        with open(os.path.join(cls.build, "compile_commands.json"), "w",
                  encoding="utf-8") as f:
            import json
            json.dump([{"directory": cls.build, "command": cmd,
                        "file": src}], f)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def audit(self, roster):
        return netfail_audit.analyze_alloc(self.root, self.build,
                                           roster=roster)

    def test_unlisted_allocating_function_flags(self):
        vs = self.audit({"src/fx/hot_alloc.cpp": (("fx_cold", "setup"),)})
        self.assertEqual([v.rule for v in vs], ["alloc"])
        self.assertIn("fx_hot", vs[0].message)
        # RelWithDebInfo line info attributes the violation to the source.
        self.assertEqual(vs[0].path, "src/fx/hot_alloc.cpp")

    def test_fully_allowlisted_tu_is_clean(self):
        vs = self.audit({"src/fx/hot_alloc.cpp":
                         (("fx_cold", "setup"), ("fx_hot", "fixture"))})
        self.assertEqual(vs, [])

    def test_stale_allowlist_entry_flags(self):
        vs = self.audit({"src/fx/hot_alloc.cpp":
                         (("fx_cold", "setup"), ("fx_hot", "fixture"),
                          ("fx_never", "no such function"))})
        self.assertEqual([v.rule for v in vs], ["alloc-allowlist"])
        self.assertIn("fx_never", vs[0].message)

    def test_missing_object_flags(self):
        vs = self.audit({"src/fx/other.cpp": ()})
        self.assertEqual([v.rule for v in vs], ["alloc"])
        self.assertIn("no built object", vs[0].message)

    def test_missing_compile_commands_flags(self):
        vs = netfail_audit.analyze_alloc(self.root,
                                         os.path.join(self.root, "nope"),
                                         roster={})
        self.assertEqual([v.rule for v in vs], ["alloc"])
        self.assertIn("compile_commands.json", vs[0].message)


@unittest.skipUnless(HAVE_CXX, "compiler missing")
class HeadersAnalyzer(unittest.TestCase):
    def test_good_and_bad_headers(self):
        root = os.path.join(FIXTURES, "headers")
        vs = netfail_audit.analyze_headers(
            root, ["good_header.hpp", "bad_header.hpp"],
            os.path.join(root, "no-build-dir"))
        self.assertEqual([(v.path, v.rule) for v in vs],
                         [("bad_header.hpp", "header-standalone")])
        self.assertIn("standalone", vs[0].message)


class MainEntry(unittest.TestCase):
    def run_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = netfail_audit.main(argv)
            except SystemExit as e:  # argparse or tool_missing
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def test_unknown_analyzer_exits_2_with_usage(self):
        code, _, err = self.run_main(["--root", CLEAN_ROOT, "bogus"])
        self.assertEqual(code, 2)
        self.assertIn("unknown analyzer", err)
        self.assertIn("usage:", err)

    def test_clean_tree_exits_0(self):
        code, out, err = self.run_main(
            ["--root", CLEAN_ROOT, "layering", "lock-order"])
        self.assertEqual(code, 0, (out, err))
        self.assertIn("clean", err)

    def test_layering_fixture_exits_1_with_diagnostics(self):
        code, out, _ = self.run_main(
            ["--root", LAYERING_ROOT, "layering"])
        self.assertEqual(code, 1)
        self.assertIn("src/common/bad_layer.hpp:4: layer:", out)
        self.assertIn("include cycle", out)

    def test_lock_fixture_exits_1_with_diagnostics(self):
        code, out, _ = self.run_main(["--root", LOCK_ROOT, "lock-order"])
        self.assertEqual(code, 1)
        self.assertIn("lock acquisition cycle", out)
        self.assertIn("stale ordering annotation", out)

    def test_options_fixture_exits_1_with_diagnostics(self):
        code, out, _ = self.run_main(["--root", OPTIONS_ROOT, "options"])
        self.assertEqual(code, 1)
        self.assertIn("src/common/knobs.hpp:16: options:", out)
        self.assertIn("'WidgetOptions::depth' is set by no code", out)

    def test_missing_src_exits_2(self):
        with tempfile.TemporaryDirectory() as td:
            code, _, err = self.run_main(["--root", td])
        self.assertEqual(code, 2)
        self.assertIn("no src/", err)

    def test_list_rules(self):
        code, out, _ = self.run_main(["--list-rules"])
        self.assertEqual(code, 0)
        self.assertEqual(tuple(out.split()), checks.AUDIT_RULE_NAMES)

    def test_real_repo_layering_lock_order_and_options_are_clean(self):
        # The acceptance gate: the actual repo passes its own audit (the
        # build-dependent analyzers are exercised by the AuditTree ctest
        # entry and scripts/check.sh audit).
        code, out, err = self.run_main(
            ["--root", REPO_ROOT, "layering", "lock-order", "options"])
        self.assertEqual(code, 0, (out, err))


class SharedSuppressions(unittest.TestCase):
    """One suppressions file serves both tools: each tool only honors —
    and only stale-reports — its own rules, over the files it scanned."""

    def run_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = netfail_audit.main(argv)
        return code, out.getvalue(), err.getvalue()

    def write_suppressions(self, text):
        f = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False)
        f.write(text)
        f.close()
        self.addCleanup(os.unlink, f.name)
        return f.name

    def test_file_suppression_silences_a_layer_violation(self):
        sup = self.write_suppressions(
            "layer src/common/bad_layer.hpp fixture escape\n")
        code, out, _ = self.run_main(
            ["--root", LAYERING_ROOT, "--suppressions", sup, "layering"])
        self.assertEqual(code, 1)  # cycle + widgets still flag
        self.assertNotIn("bad_layer", out)

    def test_stale_audit_suppression_exits_1(self):
        sup = self.write_suppressions(
            "layer src/config/conf.hpp nothing to suppress\n")
        code, _, err = self.run_main(
            ["--root", CLEAN_ROOT, "--suppressions", sup, "layering"])
        self.assertEqual(code, 1)
        self.assertIn("stale suppression", err)

    def test_lint_rules_in_the_shared_file_are_not_audits_business(self):
        sup = self.write_suppressions(
            "naked-new src/common/util.hpp lint-owned entry\n")
        code, out, err = self.run_main(
            ["--root", CLEAN_ROOT, "--suppressions", sup, "layering",
             "lock-order"])
        self.assertEqual(code, 0, (out, err))

    def test_unknown_rule_in_shared_file_is_a_config_error(self):
        sup = self.write_suppressions("not-a-rule src/x.cpp whatever\n")
        code, _, err = self.run_main(
            ["--root", CLEAN_ROOT, "--suppressions", sup, "layering"])
        self.assertEqual(code, 2)
        self.assertIn("unknown rule", err)

    def test_cli_subprocess_contract(self):
        # End-to-end through the real interpreter: exit codes 0/1/2.
        script = os.path.join(REPO_ROOT, "scripts", "netfail_audit.py")
        runs = (
            (["--root", CLEAN_ROOT, "layering", "lock-order"], 0),
            (["--root", LOCK_ROOT, "lock-order"], 1),
            (["--root", CLEAN_ROOT, "bogus"], 2),
        )
        for argv, want in runs:
            proc = subprocess.run([sys.executable, script, *argv],
                                  capture_output=True, text=True)
            self.assertEqual(proc.returncode, want,
                             (argv, proc.stdout, proc.stderr))


if __name__ == "__main__":
    unittest.main()
