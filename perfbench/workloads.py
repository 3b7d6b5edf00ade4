"""The benchmark's three workloads: inputs, set-up, one op, and its checks.

Inputs are generated from the seed before anything is timed; the program
receives only the generated graphs and batches.  Every check raises
:class:`CheckFailed`, which the runner counts against ``error_rate``.

* ``color-forest`` — ``color(g, seed)`` on a union of 8 random forests.  The
  small-λ branch (19 rounds) is bound by the simulated-MPC ledger behind
  directed reachability; it bypasses the engine fan-out and nearly all
  kernels.
* ``orient-large-lambda`` — ``orient(g, k=256, seed)`` on a union of 12
  forests: the Lemma 2.1 branch (edge partition, per-part layering through a
  resident ``WorkerPool``, serial merge tree) with light ledger work.
* ``stream-fleet`` — a ``StreamEngine`` under deficit round-robin serving the
  four ``multi_tenant_traces`` tenants; one op is one ``tick()``.  Inserts and
  deletes run side by side, and rebuild ticks land in the tail.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

from repro import color, generators, orient
from repro.engine import WorkerPool
from repro.stream.engine import StreamEngine
from repro.stream.scheduler import DeficitRoundRobinPlanner
from repro.stream.workloads import multi_tenant_traces


class CheckFailed(Exception):
    """An op produced an output the benchmark does not accept."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Outcome:
    """What the checks of one op (or one drain) established."""

    fingerprint: str
    quality: dict
    words: int


@dataclass
class StaticInput:
    graph: object
    arboricity: int
    keys: np.ndarray  # sorted canonical edge keys u * n + v


def _edge_columns(graph) -> tuple[np.ndarray, np.ndarray]:
    edge_u, edge_v = graph.edge_endpoints
    return np.asarray(edge_u, dtype=np.int64), np.asarray(edge_v, dtype=np.int64)


def _static_input(num_vertices: int, arboricity: int, seed: int) -> StaticInput:
    graph = generators.union_of_random_forests(num_vertices, arboricity, seed=seed)
    edge_u, edge_v = _edge_columns(graph)
    return StaticInput(graph, arboricity, np.sort(edge_u * num_vertices + edge_v))


def _check_orientation(graph, keys, orientation, reported_max: int) -> tuple[np.ndarray, str]:
    """Each input edge oriented exactly once; the reported outdegree recounts.

    Returns the per-vertex outdegrees and a fingerprint of the directed edges.
    """
    n = graph.num_vertices
    pairs = np.fromiter(
        itertools.chain.from_iterable(orientation.iter_directed_edges()),
        dtype=np.int64,
        count=2 * orientation.graph.num_edges,
    ).reshape(-1, 2)
    tails, heads = pairs[:, 0], pairs[:, 1]
    oriented = np.sort(np.minimum(tails, heads) * n + np.maximum(tails, heads))
    _require(
        oriented.shape == keys.shape and np.array_equal(oriented, keys),
        f"orientation covers {oriented.size} edges, not each of the {keys.size} input edges once",
    )
    outdegrees = np.bincount(tails, minlength=n)
    recount = int(outdegrees.max()) if n else 0
    _require(
        recount == reported_max,
        f"reported max outdegree {reported_max} but the heads give {recount}",
    )
    return outdegrees, hashlib.sha256(pairs.tobytes()).hexdigest()


def _replayed_keys(trace) -> np.ndarray:
    """Sorted keys of the edge set a trace leaves, replayed without the program."""
    n = trace.initial.num_vertices
    edge_u, edge_v = _edge_columns(trace.initial)
    live = set((edge_u * n + edge_v).tolist())
    for batch in trace.batches:
        for update in batch.updates:
            key = min(update.u, update.v) * n + max(update.u, update.v)
            if update.is_insert:
                live.add(key)
            else:
                live.discard(key)
    return np.array(sorted(live), dtype=np.int64)


def _check_coloring(graph, coloring, reported_colors: int) -> tuple[np.ndarray, str]:
    """The coloring is total, proper on every edge, and uses the reported count."""
    n = graph.num_vertices
    colors = np.fromiter((coloring.color(v) for v in range(n)), dtype=np.int64, count=n)
    edge_u, edge_v = _edge_columns(graph)
    clashes = int(np.count_nonzero(colors[edge_u] == colors[edge_v]))
    _require(clashes == 0, f"coloring is not proper: {clashes} monochromatic edges")
    distinct = int(np.unique(colors).size) if n else 0
    _require(
        distinct == reported_colors,
        f"reported {reported_colors} colors but {distinct} are in use",
    )
    return colors, hashlib.sha256(colors.tobytes()).hexdigest()


def _machine_load(cluster) -> float:
    return cluster.stats.peak_machine_memory_words / cluster.config.words_per_machine


class ColorForest:
    name = "color-forest"
    why = "color() on a union of 8 forests: ledger-bound small-lambda branch, bypasses the engine fan-out and most kernels"
    stream = False
    # Program start-up, timed in a fresh interpreter: imports plus one tiny
    # op of the workload's kind, so lazy imports land.
    cold_start = (
        "from repro import color, generators\n"
        "color(generators.union_of_random_forests(64, 3, seed=0), seed=0)\n"
    )

    def __init__(self, smoke: bool = False) -> None:
        self.num_vertices = 200 if smoke else 1500
        self.arboricity = 8

    def make_input(self, seed: int) -> StaticInput:
        return _static_input(self.num_vertices, self.arboricity, seed)

    def work(self, inp: StaticInput) -> int:
        return inp.graph.num_edges

    def op(self, inp: StaticInput, pool: WorkerPool, seed: int):
        return color(inp.graph, seed=seed, pool=pool)

    def check(self, inp: StaticInput, run) -> Outcome:
        _require(not run.used_vertex_partitioning, "color() left the small-lambda branch")
        _colors, fingerprint = _check_coloring(inp.graph, run.coloring, run.num_colors)
        _require(
            run.num_colors <= run.palette_size,
            f"{run.num_colors} colors exceed the palette of {run.palette_size}",
        )
        quality = {
            "outdegree_ratio": run.hpartitions[0].max_out_degree() / inp.arboricity,
            "colors_ratio": run.num_colors / inp.arboricity,
            "mpc_rounds": run.rounds,
            "machine_load": _machine_load(run.cluster),
        }
        return Outcome(fingerprint, quality, run.cluster.stats.total_words_sent)


class OrientLargeLambda:
    name = "orient-large-lambda"
    why = "orient(k=256) on a union of 12 forests: edge partition, per-part layering via WorkerPool, serial merge tree"
    stream = False
    cold_start = (
        "from repro import orient, generators\n"
        "from repro.engine import WorkerPool\n"
        "with WorkerPool(workers=1) as pool:\n"
        "    orient(generators.union_of_random_forests(64, 3, seed=0), k=64, seed=0, pool=pool)\n"
    )

    def __init__(self, smoke: bool = False) -> None:
        self.num_vertices = 2000 if smoke else 30000
        self.arboricity = 12
        self.k = 256

    def make_input(self, seed: int) -> StaticInput:
        return _static_input(self.num_vertices, self.arboricity, seed)

    def work(self, inp: StaticInput) -> int:
        return inp.graph.num_edges

    def op(self, inp: StaticInput, pool: WorkerPool, seed: int):
        return orient(inp.graph, k=self.k, seed=seed, pool=pool)

    def check(self, inp: StaticInput, run) -> Outcome:
        _require(run.used_edge_partitioning, "orient() left the large-lambda branch")
        _outdegrees, fingerprint = _check_orientation(
            inp.graph, inp.keys, run.orientation, run.max_outdegree
        )
        quality = {
            "outdegree_ratio": run.max_outdegree / inp.arboricity,
            "colors_ratio": 0.0,
            "mpc_rounds": run.rounds,
            "machine_load": _machine_load(run.cluster),
        }
        return Outcome(fingerprint, quality, run.cluster.stats.total_words_sent)


class StreamFleet:
    name = "stream-fleet"
    why = "StreamEngine under deficit round-robin, 4 tenants, mixed inserts/deletes: data plane, spread ledger, scheduler, rebuilds"
    stream = True
    cold_start = (
        "from repro.stream.engine import StreamEngine\n"
        "from repro.stream.workloads import multi_tenant_traces\n"
        "(trace,) = multi_tenant_traces(num_tenants=1, num_vertices=64, num_batches=1, batch_size=8)\n"
        "with StreamEngine(planner='deficit-round-robin', round_budget=24) as engine:\n"
        "    engine.add_tenant(trace.name, trace.initial)\n"
        "    engine.submit_all(trace.name, trace.batches)\n"
        "    engine.run_until_drained()\n"
    )

    def __init__(self, smoke: bool = False) -> None:
        self.num_vertices = 500 if smoke else 20000
        self.num_batches = 4 if smoke else 30
        self.batch_size = 50 if smoke else 400

    def make_input(self, seed: int):
        return multi_tenant_traces(
            num_tenants=4,
            num_vertices=self.num_vertices,
            num_batches=self.num_batches,
            batch_size=self.batch_size,
            seed=seed,
        )

    def build(self, traces, seed: int, workers: int = 1) -> StreamEngine:
        engine = StreamEngine(
            seed=seed,
            workers=workers,
            planner=DeficitRoundRobinPlanner(quantum=12),
            round_budget=24,
        )
        for trace in traces:
            engine.add_tenant(trace.name, trace.initial)
        return engine

    @staticmethod
    def submit(engine: StreamEngine, traces) -> None:
        for trace in traces:
            engine.submit_all(trace.name, trace.batches)

    @staticmethod
    def services(engine: StreamEngine):
        return [engine.tenant_service(name) for name in engine.tenant_names()]

    @staticmethod
    def words(engine: StreamEngine) -> int:
        return sum(s.cluster.stats.total_words_sent for s in StreamFleet.services(engine))

    def check(self, traces, engine: StreamEngine, words_at_start: int) -> Outcome:
        """After a drain: every batch applied, the live edges match a replay of
        the trace, invariants hold, and outputs recount."""
        _require(engine.pending() == 0, f"{engine.pending()} batches left after the drain")
        engine.verify()
        digest = hashlib.sha256()
        outdegree_ratios, colors_ratios, machine_loads = [], [], []
        for trace, service in zip(traces, self.services(engine)):
            applied = service.summary.total_updates
            _require(
                applied == trace.num_updates,
                f"tenant {trace.name!r} applied {applied} of {trace.num_updates} updates",
            )
            snapshot = service.dynamic.snapshot()
            keys = _replayed_keys(trace)
            maximum = service.orientation.max_outdegree()
            _outdegrees, oriented = _check_orientation(
                snapshot, keys, service.orientation.to_orientation(snapshot), maximum
            )
            palette = service.coloring.num_colors()
            _colors, colored = _check_coloring(snapshot, service.coloring.to_coloring(snapshot), palette)
            digest.update(f"{trace.name}:{oriented}:{colored}:".encode())
            lam = service.orientation.lambda_bound
            outdegree_ratios.append(maximum / lam)
            colors_ratios.append(palette / lam)
            machine_loads.append(_machine_load(service.cluster))
        rounds = engine.cluster.stats.num_rounds
        digest.update(str(rounds).encode())
        # Ratios are the mean over tenants (each tenant is its own graph);
        # the load is the worst tenant's, as each has its own machines.
        quality = {
            "outdegree_ratio": sum(outdegree_ratios) / len(outdegree_ratios),
            "colors_ratio": sum(colors_ratios) / len(colors_ratios),
            "mpc_rounds": rounds,
            "machine_load": max(machine_loads),
        }
        return Outcome(digest.hexdigest(), quality, self.words(engine) - words_at_start)


WORKLOADS = {w.name: w for w in (ColorForest, OrientLargeLambda, StreamFleet)}
