"""Seeded benchmark of the conicroute engine.

    python3 bench/run.py --workload wide-query --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from ``--seed``, drives the engine from
outside (the ``conicroute`` CLI as a subprocess, the package's public
functions in-process), checks every output against oracles built from the
generator's record, and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, with every time scaled to the
reference speed (see speed.py); ``--trace 1`` runs a fixed traced plan and
reports per-layer metrics. One client, one call at a time
(closed loop); at most one CLI subprocess runs at once. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tracemalloc
import types
from contextlib import redirect_stdout
from dataclasses import dataclass
from math import inf
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Iterable, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
from spawner import Spawner  # noqa: E402
from tracing import ATTRS, END, NAME, START, Tracer, quantile, root_of, self_times  # noqa: E402

# The same call the installed ``conicroute`` console script makes.
CLI_ENTRY = "from conicroute.cli import entrypoint; entrypoint()"
CLI_TIMEOUT_S = 60
MIN_QUERIES = 1000  # timed queries per run, at least
MIN_REPEATS = 5  # timed queries per source of the pool, at least
CHECK_EVERY = 250  # queries run back to back before their results are checked


@dataclass(frozen=True)
class Workload:
    matrix: tuple[int, int, int] | None  # sources, destinations, fan-out
    dag: tuple[int, int, int] | None     # nodes, edges, reach
    hidden: tuple[int, int]              # matched, unmatched hidden paths
    cli: tuple[str, ...]                 # subcommand and flags
    query_pool: int                      # sources per query pass


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    # query cost is O(V) label set-up and scans, not fan-out
    "wide-query": Workload(matrix=(200, 10_000, 16), dag=None, hidden=(300, 100),
                           cli=("query", "--all-sources"), query_pool=200),
    # parsing, graph build, invention and JSON/DOT rendering dominate
    "dense-ingest": Workload(matrix=(2_000, 1_000, 40), dag=None, hidden=(300, 100),
                             cli=("invent",), query_pool=250),
    # the add_edge cycle guard and contraction do real work
    "dag-contract": Workload(matrix=None, dag=(300, 900, 30), hidden=(150, 50),
                             cli=("query", "--all-sources"), query_pool=300),
}

# The untraced run's share of --seconds for each phase; each phase makes at
# least MIN_OPS operations, and the query stream runs in chunks of
# QUERY_CHUNK_S between the other phases' operations.
SHARES = {"setup": 0.15, "cli": 0.30, "invent": 0.10, "contract": 0.15, "query": 0.30}
MIN_OPS = 5
QUERY_CHUNK_S = 0.1
# The reference kernel (speed.py) runs before the next operation once this
# long has passed since it last ran, and once after the last operation.
KERNEL_EVERY_S = 0.2

# End-to-end metrics that are not times, and so are not scaled to the
# reference speed.
UNSCALED = {"cli_peak_rss_mb"}

END_TO_END_UNITS = {
    "setup_s": "s", "cli_wall_s": "s", "cli_peak_rss_mb": "MB",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "queries_per_s": "1/s",
    "invent_batch_s": "s", "contract_s": "s",
}

PER_LAYER_UNITS = {
    "matrix_io.parse_s": "s", "matrix_io.build_graph_s": "s",
    "matrix_io.parse_hidden_s": "s", "matrix_io.bytes_in": "bytes",
    "matrix_io.setup_peak_mb": "MB",
    "graph.validate_s": "s", "graph.destinations_s": "s",
    "graph.destinations_calls": "count", "graph.add_edge_s": "s",
    "graph.add_edge_calls": "count", "graph.extend_s": "s",
    "dijkstra.shortest_paths_ms_p50": "ms", "dijkstra.shortest_paths_ms_p99": "ms",
    "dijkstra.dist_entries_per_query": "count", "dijkstra.settled_per_query": "count",
    "dijkstra.settled_ratio": "ratio",
    "invention.invent_s": "s", "invention.inventions": "count",
    "invention.pairs_skipped": "count", "invention.fitness_calls": "count",
    "invention.fitness_matched_ratio": "ratio",
    "contraction.build_hierarchy_s": "s", "contraction.contract_ms_p50": "ms",
    "contraction.contract_ms_p99": "ms", "contraction.shortcuts": "count",
    "contraction.shortcuts_per_node": "ratio",
    "dot.export_s": "s", "dot.bytes_out": "bytes",
    "cli.cmd_query_self_ms_p50": "ms", "cli.main_self_s": "s",
    "cli.bytes_out": "bytes", "cli.import_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Counts that must repeat exactly across runs of one program on one seed.
DETERMINISTIC = (
    "matrix_io.bytes_in", "graph.destinations_calls", "graph.add_edge_calls",
    "dijkstra.dist_entries_per_query", "dijkstra.settled_per_query",
    "invention.inventions", "invention.pairs_skipped", "invention.fitness_calls",
    "contraction.shortcuts", "dot.bytes_out", "cli.bytes_out",
)


class BenchFailure(Exception):
    """The benchmark cannot produce a result (not an engine failure)."""


def load_engine() -> types.SimpleNamespace:
    """Import the package from this checkout's ``src``, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import conicroute
        from conicroute import cli, contraction, dijkstra, dot, graph, invention, matrix_io
    except ImportError as exc:
        raise BenchFailure(f"cannot import conicroute from {SRC}: {exc}") from None
    if Path(conicroute.__file__).resolve().parent != (SRC / "conicroute").resolve():
        raise BenchFailure(f"conicroute imported from {conicroute.__file__}, not {SRC}")
    return types.SimpleNamespace(cli=cli, contraction=contraction, dijkstra=dijkstra,
                                 dot=dot, graph=graph, invention=invention,
                                 matrix_io=matrix_io)


# --- inputs -------------------------------------------------------------------

@dataclass
class Inputs:
    matrix: gen.Matrix           # what the CLI reads (the DAG's split for dag-contract)
    hidden: dict
    dag: gen.Dag | None
    matrix_path: Path
    hidden_path: Path
    query_pool: list[int]


def make_inputs(w: Workload, seed: int, rng: random.Random, workdir: Path) -> Inputs:
    if w.dag is not None:
        d = gen.dag(rng, *w.dag)
        m = gen.dag_as_matrix(d)
        pool = rng.sample(range(d.n), min(w.query_pool, d.n))
    else:
        d = None
        m = gen.matrix(rng, *w.matrix)
        pool = rng.sample(range(len(m.rows)), min(w.query_pool, len(m.rows)))
    hidden = gen.hidden_paths(rng, m, *w.hidden)
    workdir.mkdir(parents=True, exist_ok=True)
    matrix_path = workdir / f"matrix-{seed}.csv"
    hidden_path = workdir / f"hidden-{seed}.csv"
    matrix_path.write_text(gen.matrix_csv(m), encoding="utf-8")
    hidden_path.write_text(gen.hidden_csv(m, hidden), encoding="utf-8")
    return Inputs(m, hidden, d, matrix_path, hidden_path, pool)


# --- the run --------------------------------------------------------------------

class Run:
    """One benchmark run: its operations, their checks and their samples."""

    def __init__(self, engine, name: str, w: Workload, inputs: Inputs,
                 rng: random.Random, seconds: float, workdir: Path, spawner: Spawner):
        self.E = engine
        self.spawner = spawner
        self.name = name
        self.w = w
        self.inp = inputs
        self.rng = rng
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[tuple[float, int]]] = {}  # (value, operation)
        self.op = 0  # index of the operation the end-to-end run is in
        self.op_spans: list[tuple[float, float]] = []  # (start, end) of each
        self.kernels: list[tuple[float, float]] = []  # (time, seconds); see speed.py
        self.chunks: list[tuple[int, dict[int, list[float]], float]] = []  # query stream
        self.graph = None
        self.hidden = None
        self.search_graph = None
        self.node_ids: list[int] = []
        self.reference: dict = {}
        self.first_outputs: dict[str, object] = {}
        self.tracer: Tracer | None = None
        self.next_qid = 0
        self.query_ops: dict = {}
        # the DAG's nodes carry the labels of its split matrix's rows
        self.label_view = inputs.matrix if inputs.dag is None else gen.dag_as_matrix(
            inputs.dag, "n", "n")

    # bookkeeping

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAIL {self.name}: {message}", file=sys.stderr)

    def attempt(self, what: str, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # any engine exception is a failed operation
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return False, None

    def check(self, problem: str | None) -> bool:
        """Count an oracle mismatch as a failure of the operation just made."""
        if problem is None:
            return True
        self.fail(problem)
        return False

    def same_as_first(self, key: str, value) -> None:
        first = self.first_outputs.setdefault(key, value)
        if first != value:
            self.fail(f"{key}: output differs between repetitions")

    def sample(self, metric: str, value: float) -> None:
        self.raw.setdefault(metric, []).append((value, self.op))

    # setup: file (or edge list) to a frozen graph ready to query

    def load(self):
        mio = self.E.matrix_io
        if self.inp.dag is not None:
            g = self.E.graph.ConicGraph()
            ids = [g.add_node(label, self.E.graph.NodeKind.SOURCE, i)
                   for i, label in enumerate(self.label_view.source_labels)]
            for tail, head, weight in self.inp.dag.edges:
                g.add_edge(ids[tail], ids[head], weight)
            return g.freeze(), ids
        return mio.to_graph(mio.parse_build_matrix(
            self.inp.matrix_path.read_text(encoding="utf-8"))), None

    def setup_once(self) -> float | None:
        """Time one load; the hidden paths, the query stream's other input,
        are parsed against the new graph after the clock stops."""
        start = perf_counter()
        ok, loaded = self.attempt("setup", self.load)
        elapsed = perf_counter() - start
        if not ok:
            return None
        g, ids = loaded
        hidden = None
        if self.inp.dag is None:
            ok, hidden = self.attempt("hidden paths", self.E.matrix_io.parse_hidden_paths,
                                      self.inp.hidden_path.read_text(encoding="utf-8"), g)
            if not ok:
                return None
        if self.inp.dag is not None:
            want = (self.inp.dag.n, len(self.inp.dag.edges), 0)
        else:
            m = self.inp.matrix
            want = (len(m.rows) + len(m.dest_labels), m.edge_count, len(self.inp.hidden))
        got = (g.node_count, g.edge_count, len(hidden or ()))
        if self.check(None if got == want else
                      f"setup: (nodes, edges, hidden) {got}, expected {want}"):
            self.graph, self.hidden, self.node_ids = g, hidden, ids or []
        return elapsed

    # the workload's CLI command as a subprocess

    def cli_argv(self) -> list[str]:
        argv = [*self.w.cli, str(self.inp.matrix_path)]
        if self.w.cli[0] == "query":
            argv += ["--hidden", str(self.inp.hidden_path)]
        return argv

    def spawn(self, argv: list[str]) -> tuple[int, float, float, bytes]:
        """Run the CLI; return (exit code, wall s, peak RSS MB, stdout)."""
        out_path = self.workdir / "cli.out"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts on every run
        code, wall, rss = self.spawner.run(
            [sys.executable, "-c", CLI_ENTRY, *argv], env, str(ROOT), str(out_path),
            str(self.workdir / "cli.err"), CLI_TIMEOUT_S)
        return code, wall, rss, out_path.read_bytes()

    def expected_cli(self):
        m = self.inp.matrix
        if self.w.cli[0] == "query":
            return [oracle.expected_query(m, self.inp.hidden, s) for s in range(len(m.rows))]
        return {source: [{"from": f, "to": t, "weight": wt, "pair_weights": p}
                         for f, t, wt, p in edges]
                for source, edges in oracle.expected_inventions(m).items()}

    def check_cli_output(self, what: str, stdout: bytes) -> None:
        if "cli" in self.first_outputs:
            self.same_as_first("cli", stdout)
            return
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            self.fail(f"{what}: output is not JSON: {exc}")
            return
        if self.check(oracle.check_equal(what, payload, self.expected_cli())):
            self.first_outputs["cli"] = stdout

    def cli_once(self) -> None:
        self.attempted += 1
        code, wall, rss, stdout = self.spawn(self.cli_argv())
        if code != 0:
            err = (self.workdir / "cli.err").read_text(errors="replace").strip()
            self.fail(f"cli exited {code}: {err[-300:]}")
            return
        self.sample("cli_wall_s", wall)
        self.sample("cli_peak_rss_mb", rss)
        self.check_cli_output("cli", stdout)

    # invention over every source, rendered as DOT

    def invent_once(self) -> float | None:
        E, g = self.E, self.graph

        def batch():
            inventions = E.invention.invent_all(g)
            flat = [e for group in inventions.values() for e in group]
            return inventions, E.dot.export_dot(g, invented=flat)

        start = perf_counter()
        ok, result = self.attempt("invent", batch)
        elapsed = perf_counter() - start
        if not ok:
            return None
        inventions, text = result
        if "invent" in self.first_outputs:  # checked once; later runs must repeat it
            self.same_as_first("invent", text)
            return elapsed
        label = {n.id: n.label for n in g.nodes}
        got = {label[s]: [[label[e.src], label[e.dst], e.weight, list(e.pair_weights)]
                          for e in edges] for s, edges in inventions.items()}
        total = sum(len(edges) for edges in got.values())
        if (self.check(oracle.check_inventions(self.label_view, got))
                and self.check(oracle.check_dot(text, g.node_count, g.edge_count, total))):
            self.first_outputs["invent"] = text
        return elapsed

    # contraction in the default order, merged into a queryable graph

    def contract_once(self) -> float | None:
        E, g = self.E, self.graph

        def contract():
            overlay = E.contraction.build_hierarchy(g)
            return overlay, overlay.extended_graph()

        start = perf_counter()
        ok, result = self.attempt("contract", contract)
        elapsed = perf_counter() - start
        if not ok:
            return None
        overlay, extended = result
        shortcuts = len(overlay.shortcuts)
        if self.inp.dag is None and shortcuts:
            self.fail(f"contract: {shortcuts} shortcuts on a bipartite matrix graph")
        if extended.edge_count != g.edge_count + shortcuts:
            self.fail(f"contract: extended graph has {extended.edge_count} edges, "
                      f"expected {g.edge_count} + {shortcuts}")
        self.same_as_first("shortcuts", shortcuts)
        if self.search_graph is None:
            self.search_graph = extended if self.inp.dag is not None else g
        return elapsed

    # the query stream

    def query_op(self, source: int):
        if self.inp.dag is not None:
            return lambda: self.E.dijkstra.shortest_paths(
                self.search_graph, self.node_ids[source], use_invented=True)
        label = self.inp.matrix.source_labels[source]
        return lambda: self.E.cli.cmd_query(self.graph, label, hidden=self.hidden)

    def check_query(self, source: int, result) -> None:
        want = self.reference.get(source)
        if self.inp.dag is not None:
            if want is None:
                want = self.reference[source] = oracle.dag_distances(self.inp.dag, source)
            got = [result.dist.get(node, inf) for node in self.node_ids]
            if got != want:
                self.check(oracle.check_distances(f"query n{source}", dict(enumerate(got)),
                                                  want))
            return
        if want is None:
            want = self.reference[source] = oracle.expected_query(
                self.inp.matrix, self.inp.hidden, source)
        self.check(oracle.check_equal(f"query {want['source']}",
                                      query_payload(result), want))

    def one_pass(self) -> list[int]:
        order = list(self.inp.query_pool)
        self.rng.shuffle(order)
        return order

    def run_queries(self, sources: Iterable[int],
                    latencies: dict[int, list[float]] | None = None,
                    deadline: float | None = None) -> float:
        """Run queries back to back until ``sources`` runs out or ``deadline``
        passes, then check them. Each success's latency is added to
        ``latencies[source]``. Returns the wall time of the queries."""
        ops = self.query_ops or {s: self.query_op(s) for s in self.inp.query_pool}
        self.query_ops = ops
        done = []
        wall = 0.0
        begin = perf_counter()
        for source in sources:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.qid = self.next_qid
                self.next_qid += 1
            start = perf_counter()
            try:
                result = ops[source]()
            except Exception as exc:  # a failed query
                self.fail(f"query: {type(exc).__name__}: {exc}")
                result = None
            end = perf_counter()
            if latencies is not None and result is not None:
                latencies.setdefault(source, []).append(end - start)
            done.append((source, result))
            if deadline is not None and end >= deadline:
                break
            if len(done) == CHECK_EVERY:  # bounds the results held in memory
                wall += perf_counter() - begin
                self.check_queries(done)
                done = []
                begin = perf_counter()
        wall += perf_counter() - begin
        self.check_queries(done)
        return wall

    def check_queries(self, done: list[tuple[int, object]]) -> None:
        for source, result in done:
            if result is not None:
                self.check_query(source, result)

    def ready(self, to_query: bool = False) -> None:
        if self.graph is None or (to_query and self.search_graph is None):
            raise BenchFailure("no graph could be built; see the failures above")

    # untraced: end-to-end metrics

    def measure(self) -> dict[str, float]:
        """A warm-up round whose outputs the oracles check, then --seconds of
        interleaved operations. The next operation always goes to the phase
        furthest behind its share of the time used, so every phase samples
        the whole run rather than one stretch of it."""
        self.setup_once()
        self.ready()
        self.spawn(["--help"])  # compiles and caches the package before timing
        self.cli_once()
        self.invent_once()
        self.contract_once()
        self.ready(to_query=True)
        self.run_queries(self.one_pass())
        self.raw.clear()
        freeze_heap()

        streamed = 0

        def stream() -> Iterator[int]:
            """Endless query stream: the pool, reshuffled on every pass."""
            nonlocal streamed
            while True:
                for source in self.one_pass():
                    streamed += 1
                    yield source

        # the stream runs whole passes, so this many gives every source of
        # the pool at least MIN_REPEATS attempts
        min_streamed = max(MIN_QUERIES, MIN_REPEATS * len(self.inp.query_pool))
        sources = stream()

        def timed(metric, op):
            elapsed = op()
            if elapsed is not None:
                self.sample(metric, elapsed)

        def queries():
            latencies: dict[int, list[float]] = {}
            wall = self.run_queries(sources, latencies, perf_counter() + QUERY_CHUNK_S)
            self.chunks.append((self.op, latencies, wall))

        ops = {"setup": lambda: timed("setup_s", self.setup_once),
               "cli": self.cli_once,
               "invent": lambda: timed("invent_batch_s", self.invent_once),
               "contract": lambda: timed("contract_s", self.contract_once),
               "query": queries}
        used = dict.fromkeys(SHARES, 0.0)
        runs = dict.fromkeys(SHARES, 0)
        end = perf_counter() + self.seconds
        kernel_at = -inf
        while True:
            short = [p for p in SHARES if runs[p] < MIN_OPS
                     or (p == "query" and streamed < min_streamed)]
            if perf_counter() >= end and not short:
                break
            phase = min(short if perf_counter() >= end else SHARES,
                        key=lambda p: used[p] / SHARES[p])
            if perf_counter() - kernel_at >= KERNEL_EVERY_S:
                self.kernels.append(speed.time_kernel())
                kernel_at = perf_counter()
            self.op = len(self.op_spans)
            start = perf_counter()
            ops[phase]()
            stop = perf_counter()
            self.op_spans.append((start, stop))
            used[phase] += stop - start
            runs[phase] += 1
        self.kernels.append(speed.time_kernel())
        return self.end_to_end(speed.scales(self.kernels, self.op_spans))

    def end_to_end(self, scale: list[float]) -> dict[str, float]:
        """The end-to-end metrics of the samples taken, each time multiplied
        by its operation's factor in ``scale``."""
        self.samples = {name: [v if name in UNSCALED else v * scale[op] for v, op in pairs]
                        for name, pairs in self.raw.items()}
        latencies: dict[int, list[float]] = {}
        stream_wall = 0.0
        for op, chunk, wall in self.chunks:
            for source, values in chunk.items():
                latencies.setdefault(source, []).extend(v * scale[op] for v in values)
            stream_wall += wall * scale[op]
        if not latencies:
            raise BenchFailure("no query succeeded; see the failures above")
        self.samples["query_ms"] = [x * 1e3 for v in latencies.values() for x in v]
        self.samples["source_median_ms"] = [median(v) * 1e3 for v in latencies.values()]
        metrics = {name: median(self.samples.get(name, [0.0])) for name in (
            "setup_s", "cli_wall_s", "cli_peak_rss_mb", "invent_batch_s", "contract_s")}
        metrics["query_p50_ms"] = median(self.samples["query_ms"])
        # the tail the work sets: a call stalled by the machine moves its
        # source's median only if it stalls at most of that source's repeats
        metrics["query_p99_ms"] = quantile(self.samples["source_median_ms"], 0.99)
        metrics["queries_per_s"] = len(self.samples["query_ms"]) / stream_wall
        return metrics

    # traced: per-layer metrics from a fixed plan

    def trace_plan(self, tracer: Tracer) -> dict[str, float]:
        """Fixed plan, so counts repeat exactly on one seed. Setups and query
        passes alternate untraced and traced to measure tracing overhead."""
        self.setup_once()
        self.ready()
        self.spawn(["--help"])
        import_runs = [self.spawn(["--help"]) for _ in range(3)]
        self.attempted += len(import_runs)
        for code, *_ in import_runs:
            if code != 0:
                self.fail(f"conicroute --help exited {code}")
        import_s = median(wall for _, wall, _, _ in import_runs)

        gc.collect()
        tracemalloc.start()
        self.attempt("setup", self.load)
        setup_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        self.invent_once()
        self.contract_once()
        self.ready(to_query=True)
        self.run_queries(self.one_pass())
        freeze_heap()

        targets = trace_targets(self.E)
        self.tracer = tracer
        setups: dict[bool, list] = {False: [], True: []}
        for _ in range(3):
            setups[False].append(self.setup_once())
            with tracer.patched(targets), tracer.span("bench.setup"):
                setups[True].append(self.setup_once())
        buffer = io.StringIO()
        with tracer.patched(targets):
            with tracer.span("bench.cli_main"), redirect_stdout(buffer):
                ran, code = self.attempt("cli.main", self.E.cli.main, self.cli_argv())
            for _ in range(3):
                with tracer.span("bench.invent"):
                    self.invent_once()
            for _ in range(2):
                with tracer.span("bench.contract"):
                    self.contract_once()
        passes: dict[bool, list[float]] = {False: [], True: []}
        for _ in range(max(2, -(-MIN_QUERIES // len(self.inp.query_pool)))):
            passes[False].append(self.run_queries(self.one_pass()))
            with tracer.patched(targets), tracer.span("bench.query"):
                passes[True].append(self.run_queries(self.one_pass()))
        tracer.qid = self.tracer = None

        if ran and code != 0:
            self.fail(f"cli.main returned {code}")
        elif ran:
            self.check_cli_output("cli.main", buffer.getvalue().encode())
        if None in setups[False] or None in setups[True]:
            raise BenchFailure("setup failed; see the failures above")
        untraced = median(setups[False]) + median(passes[False])
        traced = median(setups[True]) + median(passes[True])
        metrics, problems = layer_metrics(tracer.spans, self.graph.node_count)
        for problem in problems:
            self.fail(problem)
        metrics.update({
            "matrix_io.bytes_in": float(self.inp.matrix_path.stat().st_size
                                        + self.inp.hidden_path.stat().st_size),
            "matrix_io.setup_peak_mb": setup_peak / 2**20,
            "cli.bytes_out": float(len(buffer.getvalue().encode())),
            "cli.import_s": import_s,
            "trace.overhead_ratio": traced / untraced - 1,
        })
        return metrics


def freeze_heap() -> None:
    """Move everything alive now (the benchmark's inputs, expected outputs
    and the warm-up's results) out of the cyclic collector's reach, so that
    collections during timed calls traverse the engine's objects only, as
    they would in a process that holds nothing else."""
    gc.collect()
    gc.freeze()


def query_payload(result) -> dict:
    """A QueryResult in the CLI's JSON shape, read off its public fields."""
    best = None
    if result.best is not None:
        destination, distance, path = result.best
        best = {"destination": destination, "distance": distance, "path": list(path)}
    alternates = []
    for a in result.invented_alternates:
        grade = None
        if a.fitness is not None:
            f = a.fitness
            grade = {"invented_weight": f.invented_weight, "hidden_weight": f.hidden_weight,
                     "absolute_error": f.absolute_error,
                     "relative_error": float(f.relative_error), "fit": f.fit}
        alternates.append({"from": a.src_label, "to": a.dst_label, "weight": a.weight,
                           "pair_weights": list(a.pair_weights), "fitness": grade})
    return {"source": result.source, "best": best, "invented_alternates": alternates}


# --- tracing targets and per-layer metrics -------------------------------------------

def trace_targets(E) -> list[tuple]:
    """Every callable wrapped in the traced run, where its caller finds it."""
    def search_counts(args, kwargs, state):
        return {"dist": len(state.dist), "settled": len(state.settled_order)}

    def invent_counts(args, kwargs, result):
        graph = args[0]
        pairs = sum(max(0, len(graph.out_edges(s)) - 1) for s in result)
        return {"inventions": sum(len(v) for v in result.values()), "pairs": pairs}

    def query_counts(args, kwargs, result):
        return {"alternates": len(result.invented_alternates)}

    cli, mio, G = E.cli, E.matrix_io, E.graph
    return [
        (mio, "parse_build_matrix", "matrix_io.parse_build_matrix", None),
        (cli, "parse_build_matrix", "matrix_io.parse_build_matrix", None),
        (mio, "to_graph", "matrix_io.to_graph", None),
        (cli, "to_graph", "matrix_io.to_graph", None),
        (mio, "build_graph", "matrix_io.build_graph", None),
        (mio, "parse_hidden_paths", "matrix_io.parse_hidden_paths", None),
        (cli, "parse_hidden_paths", "matrix_io.parse_hidden_paths", None),
        (G, "validate", "graph.validate", None),
        (G.ConicGraph, "add_edge", "graph.add_edge", None),
        (G.ConicGraph, "destinations", "graph.destinations", None),
        (G.ConicGraph, "extend", "graph.extend", None),
        (E.dijkstra, "shortest_paths", "dijkstra.shortest_paths", search_counts),
        (cli, "shortest_paths", "dijkstra.shortest_paths", search_counts),
        (E.invention, "invent_for_source", "invention.invent_for_source", None),
        (cli, "invent_for_source", "invention.invent_for_source", None),
        (E.invention, "invent_all", "invention.invent_all", invent_counts),
        (cli, "invent_all", "invention.invent_all", invent_counts),
        (cli, "fitness", "invention.fitness", None),
        (E.contraction, "build_hierarchy", "contraction.build_hierarchy",
         lambda a, k, overlay: {"shortcuts": len(overlay.shortcuts)}),
        (E.contraction.Contractor, "contract", "contraction.contract", None),
        (E.contraction.Overlay, "extended_graph", "contraction.extended_graph", None),
        (E.dot, "export_dot", "dot.export_dot", lambda a, k, text: {"bytes": len(text)}),
        (cli, "cmd_query", "cli.cmd_query", query_counts),
        (cli, "main", "cli.main", None),
    ]


def layer_metrics(spans: list[list], node_count: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced plan's spans, plus any count that
    differed between repetitions of one operation."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[NAME], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def dur(i):
        return spans[i][END] - spans[i][START]

    def med(values):
        values = list(values)
        return median(values) if values else 0.0

    def attrs(name, key):
        # a call that raised has no counts; its failure is already counted
        return [(spans[i][ATTRS] or {}).get(key, 0) for i in idx(name)]

    def in_phase(name, phase):
        return [i for i in idx(name) if spans[root_of(spans, i)][NAME] == phase]

    problems = []

    def repeated(what, values):
        if len(set(values)) > 1:
            problems.append(f"{what} differs between repetitions: {sorted(set(values))}")
        return values[0] if values else 0

    per_setup: dict[int, list[float]] = {r: [] for r in idx("bench.setup")}
    for i in in_phase("graph.add_edge", "bench.setup"):
        per_setup[root_of(spans, i)].append(dur(i))
    edge_calls = repeated("graph.add_edge calls per setup",
                          [len(v) for v in per_setup.values()])

    per_pass: dict[int, list[tuple[int, int]]] = {r: [] for r in idx("bench.query")}
    for i in in_phase("dijkstra.shortest_paths", "bench.query"):
        a = spans[i][ATTRS] or {}
        per_pass[root_of(spans, i)].append((a.get("dist", 0), a.get("settled", 0)))
    dist_per_pass = [sum(d for d, _ in v) for v in per_pass.values()]
    settled_per_pass = [sum(s for _, s in v) for v in per_pass.values()]
    repeated("dijkstra dist entries per pass", dist_per_pass)
    repeated("dijkstra settled nodes per pass", settled_per_pass)
    searches = sum(len(v) for v in per_pass.values()) or 1
    search_ms = [dur(i) * 1e3 for i in in_phase("dijkstra.shortest_paths", "bench.query")]

    invented = repeated("invention.invent_all inventions",
                        attrs("invention.invent_all", "inventions"))
    pairs = repeated("invention.invent_all pairs", attrs("invention.invent_all", "pairs"))
    shortcuts = repeated("contraction.build_hierarchy shortcuts",
                         attrs("contraction.build_hierarchy", "shortcuts"))
    dot_bytes = repeated("dot.export_dot bytes", attrs("dot.export_dot", "bytes"))
    queries = len(idx("cli.cmd_query")) or 1
    alternates = sum(attrs("cli.cmd_query", "alternates")) or 1
    contract_ms = [dur(i) * 1e3 for i in idx("contraction.contract")] or [0.0]
    search_ms = search_ms or [0.0]

    return {
        "matrix_io.parse_s": med(dur(i) for i in idx("matrix_io.parse_build_matrix")),
        "matrix_io.build_graph_s": med(own[i] for i in idx("matrix_io.build_graph")),
        "matrix_io.parse_hidden_s": med(dur(i) for i in idx("matrix_io.parse_hidden_paths")),
        "graph.validate_s": med(dur(i) for i in idx("graph.validate")),
        "graph.destinations_s": med(dur(i) for i in idx("graph.destinations")),
        "graph.destinations_calls": len(idx("graph.destinations")) / queries,
        "graph.add_edge_s": med(sum(v) for v in per_setup.values()),
        "graph.add_edge_calls": float(edge_calls),
        "graph.extend_s": med(dur(i) for i in idx("graph.extend")),
        "dijkstra.shortest_paths_ms_p50": median(search_ms),
        "dijkstra.shortest_paths_ms_p99": quantile(search_ms, 0.99),
        "dijkstra.dist_entries_per_query": sum(dist_per_pass) / searches,
        "dijkstra.settled_per_query": sum(settled_per_pass) / searches,
        "dijkstra.settled_ratio": sum(settled_per_pass) / (sum(dist_per_pass) or 1),
        "invention.invent_s": med(dur(i) for i in idx("invention.invent_all")),
        "invention.inventions": float(invented),
        "invention.pairs_skipped": float(pairs - invented),
        "invention.fitness_calls": len(idx("invention.fitness")) / queries,
        "invention.fitness_matched_ratio": len(idx("invention.fitness")) / alternates,
        "contraction.build_hierarchy_s": med(
            dur(i) for i in idx("contraction.build_hierarchy")),
        "contraction.contract_ms_p50": median(contract_ms),
        "contraction.contract_ms_p99": quantile(contract_ms, 0.99),
        "contraction.shortcuts": float(shortcuts),
        "contraction.shortcuts_per_node": shortcuts / node_count,
        "dot.export_s": med(dur(i) for i in idx("dot.export_dot")),
        "dot.bytes_out": float(dot_bytes),
        "cli.cmd_query_self_ms_p50": med(own[i] * 1e3 for i in idx("cli.cmd_query")),
        "cli.main_self_s": med(own[i] for i in idx("cli.main")),
    }, problems


def source_digest() -> str:
    """Digest of the engine's and the benchmark's code, which together fix
    the counts a seed produces."""
    digest = hashlib.sha256()
    for path in sorted([*(SRC / "conicroute").glob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(run: Run, workload: str, seed: int, metrics: dict) -> None:
    """Compare this traced run's counts with an earlier traced run of the
    same code on the same seed, if there was one."""
    counts = {k: metrics[k] for k in DETERMINISTIC}
    path = WORK / f"counts-{workload}-seed{seed}-{source_digest()}.json"
    if path.exists():
        earlier = json.loads(path.read_text(encoding="utf-8"))
        for key, value in counts.items():
            if earlier.get(key) != value:
                run.fail(f"{key} was {earlier.get(key)} in an earlier run, now {value}")
    else:
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


# --- entry point -------------------------------------------------------------------------

def print_table(workload: str, seed: int, metrics: dict, units: dict, counts: dict,
                run: Run) -> None:
    print(f"workload {workload}  seed {seed}  seconds {run.seconds:g}")
    print(f"{'metric':36} {'value':>14}  {'unit':6} samples")
    for name, value in metrics.items():
        print(f"{name:36} {value:14.6g}  {units[name]:6} {counts.get(name, '')}")
    rate = run.failed / run.attempted if run.attempted else 0.0
    print(f"{'error_rate':36} {rate:14.6g}  {'ratio':6} {run.failed}/{run.attempted} failed")
    if run.kernels:
        kernel_ms = median(s for _, s in run.kernels) * 1e3
        print(f"times scaled to the reference speed: the reference kernel took "
              f"{kernel_ms:.4g} ms (median of {len(run.kernels)}), "
              f"against {speed.REFERENCE_S * 1e3:.4g} ms at the reference speed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the benchmark, its helper and the CLI runs, so that the
        # reference kernel runs where the timed work runs; see speed.py
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    spawner = Spawner()  # before anything large is built; see spawner.py
    try:
        engine = load_engine()
        inputs = make_inputs(w, args.seed, rng, workdir)
        run = Run(engine, args.workload, w, inputs, rng, args.seconds, workdir, spawner)
        if args.trace:
            tracer = Tracer()
            metrics = run.trace_plan(tracer)
            check_counts_repeat(run, args.workload, args.seed, metrics)
            tracer.dump(WORK / f"trace-{args.workload}.json")
            units, counts = PER_LAYER_UNITS, {"cli.import_s": 3}
            metrics = {k: metrics[k] for k in PER_LAYER_UNITS}
        else:
            metrics = run.measure()
            units = END_TO_END_UNITS
            counts = {k: len(run.samples.get(k, ())) for k in END_TO_END_UNITS}
            counts.update(query_p50_ms=len(run.samples["query_ms"]),
                          query_p99_ms=len(run.samples["source_median_ms"]),
                          queries_per_s=len(run.samples["query_ms"]))
            metrics = {k: metrics[k] for k in END_TO_END_UNITS}
    except BenchFailure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print_table(args.workload, args.seed, metrics, units, counts, run)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
