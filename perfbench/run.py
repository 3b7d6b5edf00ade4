"""End-to-end benchmark of color(), large-λ orient() and the DRR stream fleet.

Run from the repository root::

    python3 perfbench/run.py --workload color-forest --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that wraps the program's layers (see ``spans.py``) and
reports the per-layer metrics.  Every line but the last is a human-readable
table of every metric with its unit; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A traced run also
writes its spans to ``.perfbench_out/``.

Each workload is a closed loop: one caller, one process, ``workers=1``, with
kernels pinned to numpy.  Host speed drifts on shared machines, so a fixed
pure-Python spin runs between the calls and every timing is scaled
by ``REFERENCE_SPIN_MS`` over the median of the spins around it: the reported
times are "at reference host speed", and the raw wall-clock figures are kept
as ``host.raw_*``.  ``STEADINESS.md`` has the measurements behind this.

Every process a run starts, down to multiprocessing's resource tracker, has
ended before the run exits (see ``procs.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from procs import adopt_orphans, stop_all  # noqa: E402
from spans import Patches, SpanRecorder, layer_totals  # noqa: E402
from stats import median, normalize, spin, tail_percentile  # noqa: E402

# Median ``spin()`` time on the host the benchmark was calibrated on
# (2 CPUs, Python 3.11.7, numpy 2.4.6).  Fixed: changing it rescales every
# reported timing.
REFERENCE_SPIN_MS = 22.5
# After each timed call, spins run for this share of the call's time, so
# every workload takes about as many spins per second of work.
SPIN_SHARE = 0.1
LOCAL_SPINS = 3
# Cold starts and static set-ups per run; the median is reported.
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("outdegree_ratio", "ratio"),
    ("mpc_rounds", "count"),
    ("machine_load", "ratio"),
)

# Layer spans reported as self ms per op, plus self ms per set-up for the
# spans that run during set-up; spans.TARGETS says what each one wraps.
LAYER_MS = (
    "mpc.communication_round", "mpc.charge_rounds", "mpc.gather_bundles",
    "mpc.restore_spread", "mpc.store_spread", "mpc.load_graph", "mpc.fork_merge",
    "core.directed_reachability", "core.complete_layer_assignment",
    "core.random_edge_partition", "core.orientation_merge",
    "local.list_coloring", "graph.degeneracy", "graph.induced_subgraph",
    "kernels.build_csr", "kernels.peel_layers", "kernels.compact_journal",
    "kernels.validate_batch",
    "engine.map", "engine.publish",
    "stream.service_build", "stream.batch", "stream.apply",
    "stream.orientation_apply", "stream.coloring", "stream.compact", "stream.rebuild",
    "sched.plan",
)

PER_LAYER = (
    *((f"{name}.ms", "ms") for name in LAYER_MS),
    ("mpc.communication_round.calls", "count"),
    ("mpc.words", "count"),
    ("kernels.ms", "ms"),
    ("kernels.calls", "count"),
    ("engine.respawns", "count"),
    ("engine.parallel_speedup", "ratio"),
    ("engine.parallel_workers", "count"),
    ("stream.rebuilds", "count"),
    ("stream.flips_per_update", "ratio"),
    ("stream.recolors_per_update", "ratio"),
    ("stream.snapshot_hit_ratio", "ratio"),
    ("sched.tick_self.ms", "ms"),
    ("sched.served_per_tick", "count"),
    ("sched.deferred_per_tick", "count"),
    ("host.spin_ms", "ms"),
    ("host.raw_op_p50_ms", "ms"),
    ("host.raw_setup_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("op_p90_ms", "ms"),
    ("op_samples", "count"),
    ("error_rate", "ratio"),
    ("colors_ratio", "ratio"),
)


def bootstrap():
    """Import the program from this checkout's ``src`` with numpy kernels."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["REPRO_KERNELS"] = "numpy"
    from repro import kernels

    kernels.set_backend("numpy")
    if kernels.active_backend() != "numpy":
        sys.exit(f"perfbench: kernels resolve to {kernels.active_backend()!r}, not numpy")
    return kernels


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Clock:
    """Times calls and interleaves calibration spins between them.

    One spin swings by tens of percent from the next on a shared host, and
    the host also switches between faster and slower spells that last
    seconds.  So a call is scaled by the median of the :data:`LOCAL_SPINS`
    spins taken just before it and as many just after it: enough spins to
    damp the single-spin noise, close enough to follow the spells.
    """

    def __init__(self) -> None:
        self.spins: list[float] = [spin()]
        self._owed = 0.0

    def time(self, fn, *args):
        """Returns ``(result, sample)``, then spins for its share of the time."""
        position = len(self.spins)
        started = time.perf_counter()
        result = fn(*args)
        sample = Sample(time.perf_counter() - started, position)
        self._owed += sample.raw * SPIN_SHARE
        while self._owed > 0:
            self.spins.append(spin())
            self._owed -= self.spins[-1]
        return result, sample

    def normalized(self, sample: "Sample") -> float:
        nearby = self.spins[max(sample.position - LOCAL_SPINS, 0) : sample.position + LOCAL_SPINS]
        return normalize(sample.raw, median(nearby), REFERENCE_SPIN_MS / 1e3)

    def scale(self) -> float:
        """The run-wide factor, for figures not tied to one call."""
        return REFERENCE_SPIN_MS / 1e3 / median(self.spins)


@dataclass(frozen=True)
class Sample:
    raw: float  # wall-clock seconds
    position: int  # spins taken before the call


class OutputMismatch(Exception):
    """Two ops with the same inputs and seed produced different outputs."""


class Tally:
    """Raw timings, failures, and the fingerprint every repeat must match."""

    def __init__(self) -> None:
        self.clock = Clock()
        self.ops: list[Sample] = []  # untraced ops at workers=1
        self.work: list[int] = []  # edges or updates each of those ops did
        self.traced: list[Sample] = []
        self.setups: list[Sample] = []
        self.cold_starts: list[Sample] = []
        self.attempted = 0
        self.failed = 0
        self.fingerprint: str | None = None
        self.quality: dict = {}
        self.words = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"# FAILED {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def accept(self, outcome) -> None:
        if self.fingerprint is None:
            self.fingerprint = outcome.fingerprint
        elif outcome.fingerprint != self.fingerprint:
            raise OutputMismatch("output differs from the first op with the same seed")
        self.quality = outcome.quality
        self.words = outcome.words


def host_profile(kernels) -> dict:
    import numpy

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": usable_cpus(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernels": kernels.active_backend(),
        "commit": commit,
        "reference_spin_ms": REFERENCE_SPIN_MS,
    }


def _cold_start(code: str) -> None:
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
        env={**os.environ, "REPRO_KERNELS": "numpy"},
    )


def time_cold_starts(workload, tally: Tally) -> None:
    """Program start-up in fresh interpreters: imports plus one tiny op."""
    code = (
        f"import sys\nsys.path.insert(0, {str(SRC)!r})\n"
        "from repro import kernels\nkernels.set_backend('numpy')\n" + workload.cold_start
    )
    for _ in range(SETUP_REPEATS):
        _none, sample = tally.clock.time(_cold_start, code)
        tally.cold_starts.append(sample)


def rooted(recorder: SpanRecorder | None, phase: str, fn):
    """``fn`` inside a root span of ``phase``; the spins the clock runs after
    a call stay outside it."""
    if recorder is None:
        return fn

    def call(*args):
        with recorder.span(phase):
            return fn(*args)

    return call


def run_static(workload, seed: int, seconds: float, recorder) -> tuple[Tally, dict]:
    from repro.engine import WorkerPool

    tally = Tally()
    clock = tally.clock
    inp = workload.make_input(seed)
    patches = Patches(recorder) if recorder else None
    time_cold_starts(workload, tally)
    pool = None
    for _ in range(1 if recorder else SETUP_REPEATS):
        if pool is not None:
            pool.close()
        with patches.active() if patches else nullcontext():
            pool, sample = clock.time(rooted(recorder, "setup", WorkerPool), 1)
        tally.setups.append(sample)

    extra: dict = {}
    try:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or tally.attempted < 2:
            # A traced run alternates traced and untraced ops.
            traced = recorder is not None and tally.attempted % 2 == 0
            tally.attempted += 1
            try:
                with patches.active() if traced else nullcontext():
                    op = rooted(recorder if traced else None, "op", workload.op)
                    run, sample = clock.time(op, inp, pool, seed)
                if traced:
                    tally.traced.append(sample)
                else:
                    tally.ops.append(sample)
                    tally.work.append(workload.work(inp))
                tally.accept(workload.check(inp, run))
            except Exception:
                tally.fail(f"{workload.name} op {tally.attempted}")
        if recorder is not None:
            extra = static_speedup(workload, inp, seed, pool, tally)
            extra["engine.respawns"] += pool.stats()["respawns"]
    finally:
        pool.close()
    return tally, extra


def static_speedup(workload, inp, seed, pool, tally: Tally) -> dict:
    """The op on a resident pool of every usable core, against ``pool``."""
    from repro.engine import WorkerPool

    workers = usable_cpus()
    times = {1: [], workers: []}
    with WorkerPool(workers=workers) as wide:
        workload.op(inp, wide, seed)  # spawns the resident workers
        for _ in range(2):
            for used in (wide, pool):
                tally.attempted += 1
                try:
                    run, sample = tally.clock.time(workload.op, inp, used, seed)
                    times[used.workers].append(tally.clock.normalized(sample))
                    tally.accept(workload.check(inp, run))
                except Exception:
                    tally.fail(f"{workload.name} op at workers={used.workers}")
        respawns = wide.stats()["respawns"]
    return {
        "engine.parallel_speedup": median(times[1]) / median(times[workers]),
        "engine.parallel_workers": workers,
        "engine.respawns": respawns,
    }


def run_stream(workload, seed: int, seconds: float, recorder) -> tuple[Tally, dict]:
    tally = Tally()
    clock = tally.clock
    traces = workload.make_input(seed)
    patches = Patches(recorder) if recorder else None
    time_cold_starts(workload, tally)
    counts = dict.fromkeys(
        ("ticks", "served", "deferred", "rebuilds", "flips", "recolors", "updates", "hits", "builds"), 0
    )

    def drain(traced: bool, workers: int = 1) -> list[Sample]:
        """Build the fleet, tick it dry, check it; returns the tick timings."""
        measured = workers == 1 and not traced
        engine = None
        ticks: list[Sample] = []
        work: list[int] = []
        try:
            with patches.active() if traced else nullcontext():
                build = rooted(recorder if traced else None, "setup", workload.build)
                engine, sample = clock.time(build, traces, seed, workers)
                if measured:
                    tally.setups.append(sample)
                words_at_start = workload.words(engine)
                workload.submit(engine, traces)
                tick = rooted(recorder if traced else None, "op", engine.tick)
                while True:
                    report, sample = clock.time(tick)
                    if report is None:
                        break
                    tally.attempted += 1
                    ticks.append(sample)
                    work.append(sum(r.num_updates for r in report.reports.values()))
            if traced:
                tally.traced.extend(ticks)
                counts["ticks"] += len(engine.ticks)
                counts["served"] += sum(t.num_tenants_served for t in engine.ticks)
                counts["deferred"] += sum(t.num_tenants_deferred for t in engine.ticks)
                for service in workload.services(engine):
                    counts["rebuilds"] += service.summary.total_rebuilds
                    counts["flips"] += service.summary.total_flips
                    counts["recolors"] += service.summary.total_recolors
                    counts["updates"] += service.summary.total_updates
                    counts["hits"] += service.dynamic.snapshot_hits
                    counts["builds"] += service.dynamic.snapshot_builds
            elif measured:
                tally.ops.extend(ticks)
                tally.work.extend(work)
            tally.accept(workload.check(traces, engine, words_at_start))
        except Exception:
            tally.attempted += 1
            tally.fail(f"{workload.name} drain at workers={workers}")
        finally:
            if engine is not None:
                engine.close()
        return ticks

    drains = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or drains < (2 if recorder else 1):
        # A traced run alternates traced and untraced drains.
        drain(traced=recorder is not None and drains % 2 == 0)
        drains += 1
    if recorder is None:
        return tally, {}
    workers = usable_cpus()
    wide = drain(traced=False, workers=workers)
    ticks = max(counts["ticks"], 1)
    updates_seen = max(counts["updates"], 1)
    return tally, {
        "engine.parallel_speedup": (
            median([clock.normalized(s) for s in tally.ops])
            / median([clock.normalized(s) for s in wide])
            if wide and tally.ops
            else 0.0
        ),
        "engine.parallel_workers": workers,
        "engine.respawns": 0,
        "stream.rebuilds": counts["rebuilds"] / ticks,
        "stream.flips_per_update": counts["flips"] / updates_seen,
        "stream.recolors_per_update": counts["recolors"] / updates_seen,
        "stream.snapshot_hit_ratio": counts["hits"] / max(counts["hits"] + counts["builds"], 1),
        "sched.served_per_tick": counts["served"] / ticks,
        "sched.deferred_per_tick": counts["deferred"] / ticks,
    }


def end_to_end_values(tally: Tally) -> dict:
    """Every figure of the untraced ops, by metric name.

    Set-up is the median cold start plus the median in-process build.  The
    cold start runs in a child process yet still follows the host's speed:
    between two ten-run sets whose median spin was 22 and 15 ms, the raw
    ``color-forest`` cold start moved from 0.52 to 0.39 s, the scaled one
    from 0.53 to 0.60 s.
    """
    norm = tally.clock.normalized
    raw_ops = [sample.raw for sample in tally.ops]
    ops = [norm(sample) for sample in tally.ops]
    cold_start = median([norm(sample) for sample in tally.cold_starts])
    raw_cold_start = median([sample.raw for sample in tally.cold_starts])
    p90 = tail_percentile(ops, 90)
    return {
        "setup_s": cold_start + median([norm(sample) for sample in tally.setups]),
        "op_p50_ms": median(ops) * 1e3 if ops else 0.0,
        "work_per_s": median([w / t for w, t in zip(tally.work, ops)]) if ops else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mpc_rounds": tally.quality.get("mpc_rounds", 0),
        "outdegree_ratio": tally.quality.get("outdegree_ratio", 0.0),
        "machine_load": tally.quality.get("machine_load", 0.0),
        "colors_ratio": tally.quality.get("colors_ratio", 0.0),
        "op_p90_ms": p90 * 1e3 if p90 is not None else 0.0,
        "op_samples": len(ops),
        "error_rate": tally.failed / max(tally.attempted, 1),
        "host.spin_ms": median(tally.clock.spins) * 1e3,
        "host.raw_op_p50_ms": median(raw_ops) * 1e3 if raw_ops else 0.0,
        "host.raw_setup_s": raw_cold_start + median([sample.raw for sample in tally.setups]),
        "mpc.words": tally.words,
    }


def layer_values(recorder: SpanRecorder, tally: Tally) -> dict:
    """Per-layer self times and counts from the traced run's spans.

    Self times are raw host time scaled by the run's calibration, like every
    other timing.
    """
    totals = layer_totals(recorder.spans)
    ops, setups = totals["op"], totals["setup"]
    scale = tally.clock.scale()

    def per_op(name: str, field: str = "ns") -> float:
        in_ops = ops["layers"].get(name, {}).get(field, 0) / max(ops["roots"], 1)
        in_setups = setups["layers"].get(name, {}).get(field, 0) / max(setups["roots"], 1)
        return (in_ops + in_setups) * (1e-6 * scale if field == "ns" else 1.0)

    values = {f"{name}.ms": per_op(name) for name in LAYER_MS}
    values["mpc.communication_round.calls"] = per_op("mpc.communication_round", "calls")
    kernel_names = {n for n in (*ops["layers"], *setups["layers"]) if n.startswith("kernels.")}
    values["kernels.ms"] = sum(per_op(name) for name in kernel_names)
    values["kernels.calls"] = sum(per_op(name, "calls") for name in kernel_names)
    values["sched.tick_self.ms"] = per_op("sched.tick")
    attributed = sum(entry["ns"] for entry in ops["layers"].values())
    values["trace.coverage"] = attributed / ops["wall_ns"] if ops["wall_ns"] else 0.0
    norm = tally.clock.normalized
    values["trace.overhead_ratio"] = (
        median([norm(s) for s in tally.traced]) / median([norm(s) for s in tally.ops])
        if tally.traced and tally.ops
        else 0.0
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = parser.parse_args(argv)

    kernels = bootstrap()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    profile = host_profile(kernels)
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    recorder = SpanRecorder() if args.trace else None
    runner = run_stream if workload.stream else run_static
    adopt_orphans()
    try:
        tally, extra = runner(workload, args.seed, args.seconds, recorder)
    finally:
        stop_all()
    values = end_to_end_values(tally)
    if recorder is not None:
        # Layers a workload never enters read 0.
        values = {name: 0.0 for name, _unit in PER_LAYER} | values
        values.update(layer_values(recorder, tally))
        values.update(extra)
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json")
    profile["spin_ms"] = values["host.spin_ms"]

    units = dict((*END_TO_END, *PER_LAYER))
    print(f"# host {json.dumps(profile, sort_keys=True)}")
    print(
        f"# {workload.name} seed {args.seed} trace {args.trace}: {tally.attempted} attempted, "
        f"{tally.failed} failed, {len(tally.ops)} untraced timed samples"
    )
    for name in sorted(values):
        print(f"{name:36s} {values[name]:>20.10g} {units.get(name, '')}")
    wanted = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
