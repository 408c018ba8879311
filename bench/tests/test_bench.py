"""Tests of the benchmark's own code: generators, oracles and span arithmetic.

    python3 -m unittest discover -s bench/tests

They sit outside the repository's ``tests`` directory so that the engine's
test suite does not collect them.
"""

from __future__ import annotations

import gc
import random
import sys
import tempfile
import unittest
from math import inf
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spawner import Spawner  # noqa: E402
from tracing import Tracer, covered, quantile, self_times  # noqa: E402


def small_inputs(seed: int):
    rng = random.Random(seed)
    m = gen.matrix(rng, 6, 12, 4)
    hidden = gen.hidden_paths(rng, m, 5, 3)
    d = gen.dag(rng, 30, 60, 8)
    return m, hidden, d


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        (m1, h1, d1), (m2, h2, d2) = small_inputs(7), small_inputs(7)
        self.assertEqual(gen.matrix_csv(m1), gen.matrix_csv(m2))
        self.assertEqual(gen.hidden_csv(m1, h1), gen.hidden_csv(m2, h2))
        self.assertEqual(d1, d2)
        self.assertEqual(gen.matrix_csv(gen.dag_as_matrix(d1)),
                         gen.matrix_csv(gen.dag_as_matrix(d2)))

    def test_other_seed_other_bytes(self):
        (m1, _, d1), (m2, _, d2) = small_inputs(7), small_inputs(8)
        self.assertNotEqual(gen.matrix_csv(m1), gen.matrix_csv(m2))
        self.assertNotEqual(d1, d2)

    def test_shapes(self):
        m, hidden, d = small_inputs(3)
        self.assertEqual(m.edge_count, 6 * 4)
        for row in m.rows:
            self.assertEqual(len({w for _, w in row}), len(row))  # distinct weights
        invented = {frozenset((near, far)) for s in range(6)
                    for near, far, _, _ in gen.inventions(m, s)}
        matched = [p for p in hidden if p in invented]
        self.assertEqual((len(matched), len(hidden) - len(matched)), (5, 3))
        self.assertEqual(len(d.edges), 60)
        self.assertTrue(all(0 < head - tail <= 8 for tail, head, _ in d.edges))
        self.assertNotEqual(list(d.edges), sorted(d.edges))  # shuffled insertion


class OracleTest(unittest.TestCase):
    def setUp(self):
        self.m, self.hidden, self.d = small_inputs(11)
        self.E = run.load_engine()
        mio = self.E.matrix_io
        self.graph = mio.to_graph(mio.parse_build_matrix(gen.matrix_csv(self.m)))
        self.paths = mio.parse_hidden_paths(gen.hidden_csv(self.m, self.hidden), self.graph)

    def test_engine_agrees_with_oracles(self):
        for s, label in enumerate(self.m.source_labels):
            got = run.query_payload(self.E.cli.cmd_query(self.graph, label, hidden=self.paths))
            self.assertIsNone(oracle.check_equal(label, got,
                                                 oracle.expected_query(self.m, self.hidden, s)))
        inventions = self.E.invention.invent_all(self.graph)
        label = {n.id: n.label for n in self.graph.nodes}
        got = {label[s]: [[label[e.src], label[e.dst], e.weight, list(e.pair_weights)]
                          for e in edges] for s, edges in inventions.items()}
        self.assertIsNone(oracle.check_inventions(self.m, got))

    def test_planted_wrong_distance_is_flagged(self):
        want = oracle.expected_query(self.m, self.hidden, 0)
        got = run.query_payload(
            self.E.cli.cmd_query(self.graph, self.m.source_labels[0], hidden=self.paths))
        got["best"]["distance"] += 1
        self.assertIsNotNone(oracle.check_equal("q", got, want))

        ref = oracle.dag_distances(self.d, 0)
        wrong = dict(enumerate(ref))
        node = next(i for i, v in enumerate(ref) if 0 < v < inf)
        wrong[node] -= 1
        self.assertIsNone(oracle.check_distances("d", dict(enumerate(ref)), ref))
        self.assertIsNotNone(oracle.check_distances("d", wrong, ref))
        del wrong[node]  # a node left out reads as unreachable
        self.assertIsNotNone(oracle.check_distances("d", wrong, ref))

    def test_planted_wrong_invention_is_flagged(self):
        want = oracle.expected_inventions(self.m)
        source = next(s for s, edges in want.items() if edges)
        frm, to, weight, (lo, hi) = want[source][0]

        off_bound = {**want, source: [[frm, to, weight + 1, [lo, hi]], *want[source][1:]]}
        self.assertIn("breaks", oracle.check_inventions(self.m, off_bound))

        # consistent algebra but the wrong pair: only the record catches it
        swapped = {**want, source: [[to, frm, weight, [lo, hi]], *want[source][1:]]}
        self.assertIsNone(oracle.check_invention_algebra(swapped))
        self.assertIsNotNone(oracle.check_inventions(self.m, swapped))

        missing = {**want, source: want[source][1:]}
        self.assertIsNotNone(oracle.check_inventions(self.m, missing))

    def test_planted_wrong_fitness_is_flagged(self):
        s = next(s for s in range(len(self.m.rows))
                 if any(a["fitness"] for a in
                        oracle.expected_query(self.m, self.hidden, s)["invented_alternates"]))
        got = run.query_payload(
            self.E.cli.cmd_query(self.graph, self.m.source_labels[s], hidden=self.paths))
        graded = next(a for a in got["invented_alternates"] if a["fitness"])
        graded["fitness"]["fit"] = not graded["fitness"]["fit"]
        self.assertIsNotNone(oracle.check_equal(
            "q", got, oracle.expected_query(self.m, self.hidden, s)))

    def test_dot_check(self):
        inventions = self.E.invention.invent_all(self.graph)
        flat = [e for group in inventions.values() for e in group]
        text = self.E.dot.export_dot(self.graph, invented=flat)
        args = (self.graph.node_count, self.graph.edge_count, len(flat))
        self.assertIsNone(oracle.check_dot(text, *args))
        lines = text.splitlines()
        dropped = "\n".join(lines[:-2] + lines[-1:]) + "\n"
        self.assertIsNotNone(oracle.check_dot(dropped, *args))


class TracedCountsTest(unittest.TestCase):
    """The traced plan's counts repeat exactly on one seed."""

    def traced(self, w: run.Workload) -> run.Run:
        with tempfile.TemporaryDirectory() as tmp:
            rng = random.Random("test:1")
            inputs = run.make_inputs(w, 1, rng, Path(tmp))
            spawner = Spawner()
            try:
                r = run.Run(run.load_engine(), "test", w, inputs, rng, 1, Path(tmp), spawner)
                r.metrics = r.trace_plan(Tracer())
            finally:
                spawner.close()
        return r

    def check_repeats(self, w: run.Workload) -> dict:
        first, second = self.traced(w), self.traced(w)
        self.assertEqual((first.failed, second.failed), (0, 0))
        counts = [{k: r.metrics[k] for k in run.DETERMINISTIC} for r in (first, second)]
        self.assertEqual(counts[0], counts[1])
        return first.metrics

    def setUp(self):
        self._min_queries = run.MIN_QUERIES
        run.MIN_QUERIES = 20

    def tearDown(self):
        run.MIN_QUERIES = self._min_queries

    def test_matrix(self):
        w = run.Workload(matrix=(8, 30, 5), dag=None, hidden=(4, 2),
                         cli=("query", "--all-sources"), query_pool=8)
        metrics = self.check_repeats(w)
        self.assertEqual(metrics["invention.inventions"], 8 * 4)  # one per consecutive pair
        self.assertEqual(metrics["contraction.shortcuts"], 0)  # bipartite graph

    def test_dag(self):
        w = run.Workload(matrix=None, dag=(40, 90, 6), hidden=(4, 2),
                         cli=("invent",), query_pool=10)
        self.check_repeats(w)


class SpanTest(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertEqual(covered([]), 0.0)
        self.assertAlmostEqual(covered([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(covered([(1, 4), (2, 3)]), 3.0)

    def test_self_time_subtracts_children(self):
        # root 0..10 with children 1..3 and 4..8; the second has a child 5..6
        spans = [["root", 0.0, 10.0, -1, None, None],
                 ["a", 1.0, 3.0, 0, None, None],
                 ["b", 4.0, 8.0, 0, None, None],
                 ["c", 5.0, 6.0, 2, None, None]]
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_tracer_records_nesting_and_restores(self):
        class Owner:
            @staticmethod
            def inner(x):
                return x + 1

        def outer(x):
            return Owner.inner(x) * 2

        holder = type("Holder", (), {"outer": staticmethod(outer)})
        tracer = Tracer()
        original = Owner.inner
        with tracer.patched([(Owner, "inner", "inner", lambda a, k, r: {"r": r}),
                             (holder, "outer", "outer", None)]):
            tracer.qid = 7
            self.assertEqual(holder.outer(1), 4)
        self.assertIs(Owner.inner, original)
        (o, i) = tracer.spans
        self.assertEqual((o[0], o[3], i[0], i[3]), ("outer", -1, "inner", 0))
        self.assertEqual((o[4], i[4], i[5]), (7, 7, {"r": 2}))
        self.assertTrue(o[1] <= i[1] <= i[2] <= o[2])

    def test_nearest_rank_quantile(self):
        values = list(range(1, 1001))
        self.assertEqual(quantile(values, 0.99), 990)  # ten samples lie beyond
        self.assertEqual(quantile(values, 0.5), 500)
        self.assertEqual(quantile([3.0], 0.99), 3.0)


class SpeedTest(unittest.TestCase):
    def test_scales_use_the_kernels_around_each_span(self):
        kernels = [(0.0, 0.010), (1.0, 0.020), (2.0, 0.020), (10.0, 0.010)]
        short = (1.2, 1.4)  # within WINDOW_S of the kernel at 1.0 only
        long = (0.5, 2.5)  # two seconds long, so kernels within 2 s count
        lone = (5.0, 5.1)  # no kernel near; the nearest is at 2.0
        factors = speed.scales(kernels, [short, long, lone])
        reference = speed.REFERENCE_S
        self.assertAlmostEqual(factors[0], reference / 0.020)
        self.assertAlmostEqual(factors[1], reference / (0.050 / 3))
        self.assertAlmostEqual(factors[2], reference / 0.020)

    def test_end_to_end_scales_times_only(self):
        r = run.Run.__new__(run.Run)  # only the samples are needed
        r.raw = {"setup_s": [(1.0, 0), (3.0, 1)], "cli_wall_s": [(2.0, 1)],
                 "cli_peak_rss_mb": [(50.0, 1)], "invent_batch_s": [(1.0, 0)],
                 "contract_s": [(1.0, 1)]}
        r.chunks = [(0, {7: [0.001, 0.002]}, 0.003), (1, {7: [0.004]}, 0.004)]
        m = r.end_to_end([2.0, 0.5])
        self.assertEqual(m["setup_s"], 1.75)  # median of 2.0 and 1.5
        self.assertEqual(m["cli_wall_s"], 1.0)
        self.assertEqual(m["cli_peak_rss_mb"], 50.0)  # not a time
        self.assertEqual((m["invent_batch_s"], m["contract_s"]), (2.0, 0.5))
        self.assertAlmostEqual(m["query_p50_ms"], 2.0)  # of 2, 4 and 2 ms
        self.assertAlmostEqual(m["queries_per_s"], 3 / (0.006 + 0.002))

    def test_time_kernel_restores_the_collector(self):
        self.assertTrue(gc.isenabled())
        when, seconds = speed.time_kernel()
        self.assertTrue(gc.isenabled())
        self.assertGreater(seconds, 0.0)
        gc.disable()
        try:
            speed.time_kernel()
            self.assertFalse(gc.isenabled())
        finally:
            gc.enable()


if __name__ == "__main__":
    unittest.main()
