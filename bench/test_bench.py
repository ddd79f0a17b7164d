"""Tests of the benchmark harness's own logic.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import json
import statistics
import sys
import time
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(99), 50)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(999), 90)
        self.assertEqual(run.tail_percentile(1000), 99)
        self.assertEqual(run.tail_percentile(10000), 99.9)

    def test_interpolated_percentile(self):
        xs = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(run.percentile(xs, 50), 3.0)
        self.assertEqual(run.percentile(xs, 0), 1.0)
        self.assertEqual(run.percentile(xs, 100), 5.0)
        self.assertAlmostEqual(run.percentile(xs, 90), 4.6)


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping) and
        # c [8, 12], which sticks out of the root and is clipped; a has child
        # d [2, 3].  Covered part of root: [1, 6] and [8, 10] = 7.
        names = ["root", "a", "b", "c", "d"]
        nids = [0, 1, 2, 3, 4]
        parents = [-1, 0, 0, 0, 1]
        starts = [0.0, 1.0, 3.0, 8.0, 2.0]
        ends = [10.0, 4.0, 6.0, 12.0, 3.0]
        agg = tracing.aggregate(names, nids, parents, starts, ends)
        self.assertAlmostEqual(agg["root"]["self_s"], 3.0)
        self.assertAlmostEqual(agg["a"]["self_s"], 2.0)
        self.assertAlmostEqual(agg["b"]["self_s"], 3.0)
        self.assertAlmostEqual(agg["c"]["self_s"], 4.0)
        self.assertEqual(agg["d"]["calls"], 1)

    def test_same_name_recursion_is_counted_once_per_level(self):
        agg = tracing.aggregate(["f"], [0, 0, 0], [-1, 0, 1],
                                [0.0, 1.0, 2.0], [6.0, 5.0, 3.0])
        self.assertEqual(agg["f"]["calls"], 3)
        self.assertAlmostEqual(agg["f"]["self_s"], 6.0)


class Traced(unittest.TestCase):
    def test_wrappers_are_bound_in_every_importing_module(self):
        import treehopf.growth
        import treehopf.hopf

        trace = tracing.Trace()
        tracing.install(trace)
        self.assertIs(treehopf.growth.coproduct, treehopf.hopf.coproduct)
        self.assertIsNot(treehopf.hopf.coproduct.__wrapped__, treehopf.hopf.coproduct)
        trace.enabled = True
        tree = treehopf.trees.parse_tree("[[][[]]]")
        treehopf.hopf.antipode(tree)
        trace.enabled = False
        agg = tracing.aggregate(trace.names, trace.nids, trace.parents, trace.starts, trace.ends)
        self.assertEqual(agg["hopf.antipode"]["calls"], 1)
        self.assertGreater(agg["hopf.LinComb.mul"]["calls"], 0)
        self.assertGreater(trace.counts["trees.RootedTree.built"], 0)
        antipode_id = trace.ids["hopf.antipode"]
        top = [i for i, n in enumerate(trace.nids) if n == antipode_id]
        self.assertTrue(any(p == top[0] for p in trace.parents))


class Seeds(unittest.TestCase):
    def test_same_seed_same_cli_requests(self):
        self.assertEqual(workloads.cli_requests(7), workloads.cli_requests(7))
        self.assertNotEqual(workloads.cli_requests(7), workloads.cli_requests(8))
        reqs = workloads.cli_requests(7)
        self.assertGreaterEqual(len(reqs) * run.MIN_PASSES, 100)
        self.assertEqual(sum(argv[0] == "--json" for argv, _ in reqs), len(reqs) // 2)

    def test_same_seed_same_batch_inputs_and_digests(self):
        def slice_digests(seed):
            _facts, ops = workloads.hopf_ops(seed)
            picked = [op for op in ops if op[0].startswith("m(S*id)D")][:3]
            picked += [op for op in ops if op[0].count("[") <= 5][:20]
            return [(op_id, workloads.digest(workloads.render("hopf-bulk", fn())))
                    for op_id, fn in picked]

        self.assertEqual(slice_digests(3), slice_digests(3))
        self.assertNotEqual(slice_digests(3), slice_digests(4))

    def test_verify_pattern(self):
        row = lambda rel, inst, status: {"relation": rel, "instance": inst, "status": status}
        report = {"suite": "cm", "results": [
            row("Delta X_t", "trial=0 t=[]", "pass"),
            row("Delta X_t", "trial=0 t=[[]]", "fail"),
            row("Delta delta_t", "trial=0 t=[[]]", "pass"),
            row("Delta delta_t", "trial=0 t=[[[]]]", "fail"),
            row("Delta delta_t", "trial=1 t=[[[]]]", "pass"),   # a coincidental pass
            row("gamma cocycle", "trial=0", "pass"),
        ]}
        self.assertTrue(workloads.verify_pattern_ok(report))
        report["results"][3]["status"] = "pass"      # the family no longer fails anywhere
        self.assertFalse(workloads.verify_pattern_ok(report))
        report["results"][3]["status"] = "fail"
        report["results"][2]["status"] = "fail"      # fails below its bound
        self.assertFalse(workloads.verify_pattern_ok(report))
        report["results"][2]["status"] = "pass"
        report["results"][5]["status"] = "fail"      # an identity fails
        self.assertFalse(workloads.verify_pattern_ok(report))


class RefClock(unittest.TestCase):
    def test_reference_is_fixed_work(self):
        self.assertEqual(refclock.reference(), refclock.reference())
        self.assertGreater(refclock.time_reference(), 0)

    def test_sampler_counts_the_program_time_in_reference_calls(self):
        clock = refclock.Sampler()
        clock.start()
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            pass
        clock.stop()
        wall = time.perf_counter() - t
        self.assertGreaterEqual(len(clock.samples), 5)
        self.assertLess(clock.spent, wall / 2)
        # Each stretch is divided by a sample near it, so the sum sits near
        # the program's time over the median sample.
        expect = (wall - clock.spent) / statistics.median(clock.samples)
        self.assertGreater(clock.refs, expect / 2)
        self.assertLess(clock.refs, expect * 2)

    def test_stop_without_start_is_a_no_op(self):
        clock = refclock.Sampler()
        clock.stop()
        self.assertEqual((clock.refs, clock.samples), (0.0, []))


class Spec(unittest.TestCase):
    def test_benchmark_json_lists_every_traced_metric(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual(spec["per_layer"], tracing.per_layer_spec())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
