"""Self-tests of the benchmark's own arithmetic and metric lists.

    python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


def span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end}


class PercentileRule(unittest.TestCase):
    def test_median_needs_ten_samples_beyond_it(self):
        self.assertIsNone(stats.highest_percentile(range(19)))
        self.assertEqual(stats.highest_percentile(range(20)), (50.0, 9))

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(stats.highest_percentile(range(100)), (90.0, 89))
        self.assertEqual(stats.highest_percentile(range(999)), (95.0, 949))
        self.assertEqual(stats.highest_percentile(range(1000)), (99.0, 989))

    def test_input_order_does_not_matter(self):
        values = [5.0, 1.0, 3.0, 2.0] * 10
        self.assertEqual(stats.highest_percentile(values),
                         stats.highest_percentile(sorted(values)))


def named(id_, parent, start, end):
    return {**span(id_, parent, start, end), "name": f"s{id_}"}


class SpanSelfTime(unittest.TestCase):
    def test_nested_spans_balance_the_root(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 1, 15, 20),
                 span(3, 0, 50, 90)]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs, {0: 30, 1: 25, 2: 5, 3: 40})
        self.assertEqual(sum(selfs.values()), 100)

    def test_overlapping_children_count_once(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 0, 40, 80)]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 5, 20)]
        self.assertEqual(stats.self_times(spans)[0], 5)


class SpanProblems(unittest.TestCase):
    def test_well_nested_run_has_none(self):
        spans = [named(0, -1, 0, 100), named(1, 0, 10, 40),
                 named(2, 1, 15, 20), named(3, 0, 40, 90)]
        self.assertEqual(stats.span_problems(spans), [])

    def test_unclosed_span(self):
        spans = [named(0, -1, 0, 100), named(1, 0, 10, 0)]
        self.assertEqual(stats.span_problems(spans),
                         ["span s1 was never closed"])

    def test_child_outside_its_parent(self):
        spans = [named(0, -1, 0, 10), named(1, 0, 5, 20)]
        self.assertEqual(stats.span_problems(spans),
                         ["span s1 is not inside s0"])

    def test_overlapping_siblings(self):
        spans = [named(0, -1, 0, 100), named(2, 0, 40, 80),
                 named(1, 0, 10, 60)]
        self.assertEqual(stats.span_problems(spans),
                         ["spans s1 and s2 overlap"])

    def test_parent_missing_from_the_run(self):
        spans = [named(0, -1, 0, 100), named(1, 7, 10, 20)]
        self.assertEqual(stats.span_problems(spans),
                         ["span s1 has no parent in its run"])


class CpuSubtraction(unittest.TestCase):
    def test_benchmark_threads_are_subtracted(self):
        self.assertAlmostEqual(
            stats.server_cpu_seconds(3.0, 0.5, 0.2, 0.05), 2.25)

    def test_per_event_figure(self):
        p = {"process_cpu_s": 3.0, "generator_cpu_s": 0.5,
             "client_cpu_s": 0.2, "main_cpu_s": 0.05,
             "syslog_datagrams": 300000, "lsp_frames": 150000}
        self.assertAlmostEqual(run.server_us_per_event(p), 5.0)


class StreamSummary(unittest.TestCase):
    def test_reconstruction_lines_parse(self):
        text = (
            "\nIS-IS reconstruction: 12 failures on 3 links, 1.5 h downtime, "
            "2 flap episodes, 0 double-down, 0 double-up, 0 merged, "
            "1 unterminated\n"
            "\nsyslog reconstruction: 10 failures on 3 links, 1.2 h "
            "downtime, 1 flap episodes, 4 double-down, 2 double-up, "
            "9 merged, 0 unterminated\n")
        counts = run.stream_counts(text)
        self.assertEqual(counts["isis"], {
            "failures": 12, "flap_episodes": 2, "double_downs": 0,
            "double_ups": 0, "merged": 0, "unterminated": 1})
        self.assertEqual(counts["syslog"]["merged"], 9)


class MetricLists(unittest.TestCase):
    """layers.json and run.py agree with BENCHMARK.json."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        with open(os.path.join(HERE, "layers.json")) as f:
            cls.layers = json.load(f)

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(run.WORKLOADS))

    def test_layer_map_covers_every_layer_metric(self):
        end_to_end = {m["name"] for m in self.bench["end_to_end"]}
        self.assertEqual(set(self.layers),
                         {m["name"] for m in self.bench["per_layer"]})
        for name, entry in self.layers.items():
            self.assertLessEqual(set(entry["moves"]), end_to_end, name)
            self.assertIn(entry["on"], set(run.WORKLOADS) | {"both"}, name)

if __name__ == "__main__":
    unittest.main()
