"""In-memory span tracing installed from the benchmark's own files.

The traced run wraps public functions and methods of the program, one layer
name per target (:data:`TARGETS`).  A span records its name, start, end and
parent; spans stay in memory and are written out when the run ends.  A
function that other modules import by name is replaced in every loaded
``repro`` module that holds it, so the call sites see the wrapper too.
Every workload calls the program from one thread, so one span stack serves.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer name, module, attribute path).  Several targets may share a name;
# their spans then add up under it.
TARGETS = (
    ("mpc.communication_round", "repro.mpc.cluster", "MPCCluster.communication_round"),
    ("mpc.charge_rounds", "repro.mpc.cluster", "MPCCluster.charge_rounds"),
    ("mpc.restore_spread", "repro.mpc.cluster", "MPCCluster.restore_spread"),
    ("mpc.store_spread", "repro.mpc.cluster", "MPCCluster.store_spread"),
    ("mpc.load_graph", "repro.mpc.cluster", "MPCCluster.load_graph"),
    ("mpc.fork_merge", "repro.mpc.cluster", "MPCCluster.fork"),
    ("mpc.fork_merge", "repro.mpc.cluster", "MPCCluster.merge_parallel"),
    ("mpc.gather_bundles", "repro.mpc.primitives", "gather_bundles"),
    ("core.directed_reachability", "repro.core.directed_expo", "directed_reachability"),
    ("core.complete_layer_assignment", "repro.core.full_assignment", "complete_layer_assignment"),
    ("core.random_edge_partition", "repro.core.partitioning", "random_edge_partition"),
    ("core.orientation_merge", "repro.graph.orientation", "Orientation.merge_with"),
    ("local.list_coloring", "repro.local.list_coloring", "random_list_coloring"),
    ("graph.degeneracy", "repro.graph.arboricity", "degeneracy"),
    ("graph.induced_subgraph", "repro.graph.graph", "Graph.induced_subgraph"),
    ("engine.map", "repro.engine.pool", "WorkerPool.map"),
    ("engine.publish", "repro.engine.pool", "WorkerPool.publish_edge_parts"),
    ("engine.publish", "repro.engine.pool", "WorkerPool.publish_vertex_parts"),
    ("engine.publish", "repro.engine.pool", "WorkerPool.publish_out_shards"),
    ("engine.publish", "repro.engine.pool", "WorkerPool.publish_graph_columns"),
    ("stream.service_build", "repro.stream.service", "StreamingService.__init__"),
    ("stream.batch", "repro.stream.service", "StreamingService.apply"),
    ("stream.apply", "repro.stream.dynamic_graph", "DynamicGraph.apply_ops"),
    ("stream.compact", "repro.stream.dynamic_graph", "DynamicGraph.compact"),
    ("stream.orientation_apply", "repro.stream.orientation", "IncrementalOrientation.apply_batch"),
    ("stream.rebuild", "repro.stream.orientation", "IncrementalOrientation.ensure_quality"),
    ("stream.coloring", "repro.stream.coloring", "IncrementalColoring.handle_insert_batch"),
    ("stream.coloring", "repro.stream.coloring", "IncrementalColoring.refresh"),
    ("sched.plan", "repro.stream.scheduler", "DeficitRoundRobinPlanner.plan"),
    ("sched.tick", "repro.stream.engine", "StreamEngine.tick"),
)

# Every public kernel dispatcher becomes ``kernels.<name>``; these names in
# ``repro.kernels.__all__`` select or probe backends instead of computing.
_KERNEL_CONTROL = {
    "PURE", "NUMPY", "BACKENDS", "numpy_available", "available_backends",
    "active_backend", "set_backend", "use_backend",
}

ROOT_PHASES = ("setup", "op")

_INHERITED = object()


class SpanRecorder:
    """Collects spans as ``[name, start_ns, end_ns, parent_index]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, handle)


def kernel_targets() -> list[tuple[str, str, str]]:
    kernels = importlib.import_module("repro.kernels")
    return [
        (f"kernels.{name}", "repro.kernels", name)
        for name in kernels.__all__
        if name not in _KERNEL_CONTROL and callable(getattr(kernels, name))
    ]


class Patches:
    """Installs span wrappers on :data:`TARGETS` and the kernel dispatchers.

    ``install``/``remove`` may alternate, so one process can run traced and
    untraced ops side by side; ``remove`` restores the original objects.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for name, module_name, path in (*TARGETS, *kernel_targets()):
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            wrapper = self.recorder.wrap(name, original)
            self._set(owner, attr, wrapper)
            if not inspect.isclass(owner):
                # Modules that imported the function by name call their own
                # binding: patch those too.
                for module_key, module in list(sys.modules.items()):
                    if (
                        module is not owner
                        and module_key.startswith("repro")
                        and getattr(module, attr, None) is original
                    ):
                        self._set(module, attr, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield
        finally:
            self.remove()


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def root_of(spans) -> list[int]:
    """Index of each span's outermost ancestor (itself for a root)."""
    roots: list[int] = []
    for index, (_name, _start, _end, parent) in enumerate(spans):
        roots.append(index if parent < 0 else roots[parent])
    return roots


def layer_totals(spans) -> dict[str, dict]:
    """Root count, root wall time, and per-layer self time and calls by phase.

    Returns ``{phase: {"roots": count, "wall_ns": ns, "layers": {name:
    {"ns": self_ns, "calls": count}}}}`` for the ``setup`` and ``op`` phases;
    a span belongs to the phase its root is named after.
    """
    own = self_times(spans)
    roots = root_of(spans)
    totals = {
        phase: {"roots": 0, "wall_ns": 0, "layers": defaultdict(lambda: {"ns": 0, "calls": 0})}
        for phase in ROOT_PHASES
    }
    for index, (name, start, end, _parent) in enumerate(spans):
        phase = totals.get(spans[roots[index]][0])
        if phase is None:
            continue
        if roots[index] == index:
            phase["roots"] += 1
            phase["wall_ns"] += end - start
        else:
            entry = phase["layers"][name]
            entry["calls"] += 1
            entry["ns"] += own[index]
    return totals
