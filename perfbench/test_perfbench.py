"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from spans import Patches, SpanRecorder, layer_totals, self_times  # noqa: E402
from stats import median, normalize, relative_spread, tail_percentile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestPercentiles:
    def test_p90_needs_ten_samples_beyond_it(self):
        samples = list(range(1, 101))
        assert tail_percentile(samples, 90) == 90
        assert tail_percentile(samples[:99], 90) is None

    def test_median_rank_follows_the_same_rule(self):
        assert tail_percentile(list(range(20)), 50) == 9
        assert tail_percentile(list(range(19)), 50) is None

    def test_order_of_samples_does_not_matter(self):
        samples = [float(x) for x in range(200)]
        assert tail_percentile(samples[::-1], 90) == tail_percentile(samples, 90) == 179

    def test_percentile_outside_the_open_interval_is_rejected(self):
        with pytest.raises(ValueError):
            tail_percentile([1, 2, 3], 100)

    def test_median_interpolates_even_counts(self):
        assert median([4, 1, 3, 2]) == 2.5
        with pytest.raises(ValueError):
            median([])


class TestNormalization:
    def test_reference_speed_host_is_unchanged(self):
        assert normalize(0.8, spin=0.025, reference_spin=0.025) == pytest.approx(0.8)

    def test_slow_host_is_scaled_down_by_its_spin_ratio(self):
        # The spin ran twice as slow as the reference: the op counts half.
        assert normalize(2.0, spin=0.05, reference_spin=0.025) == pytest.approx(1.0)
        assert normalize(2.0, spin=0.0125, reference_spin=0.025) == pytest.approx(4.0)

    def test_non_positive_spin_is_rejected(self):
        with pytest.raises(ValueError):
            normalize(1.0, spin=0.0, reference_spin=0.025)

    def test_a_call_is_scaled_by_the_spins_around_it(self):
        import run

        clock = run.Clock()
        clock.spins = [0.01] * 3 + [0.02] * 3 + [0.04] * 10
        # Three spins before position 3 and three after it: median 0.015 s.
        sample = run.Sample(raw=1.0, position=3)
        expected = 1.0 * run.REFERENCE_SPIN_MS / 1e3 / 0.015
        assert clock.normalized(sample) == pytest.approx(expected)
        # At the start there is nothing before: the three after decide.
        assert clock.normalized(run.Sample(raw=1.0, position=0)) == pytest.approx(
            run.REFERENCE_SPIN_MS / 1e3 / 0.01
        )

    def test_relative_spread_is_iqr_over_median(self):
        values = [10.0] * 4 + [11.0] * 2 + [12.0] * 4
        # statistics.quantiles(n=4) (exclusive method): q1=10, q2=11, q3=12.
        assert relative_spread(values) == pytest.approx(2.0 / 11.0)


class TestSpans:
    SPANS = [
        ["op", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 20, 30, 1],
        ["a", 50, 90, 0],
        ["setup", 200, 260, -1],
        ["c", 210, 250, 4],
        ["stray", 300, 310, -1],
    ]

    def test_self_time_subtracts_direct_children_only(self):
        assert self_times(self.SPANS) == [30, 20, 10, 40, 20, 40, 10]

    def test_layer_totals_group_by_root_phase(self):
        totals = layer_totals(self.SPANS)
        op = totals["op"]
        assert (op["roots"], op["wall_ns"]) == (1, 100)
        assert op["layers"]["a"] == {"ns": 60, "calls": 2}
        assert op["layers"]["b"] == {"ns": 10, "calls": 1}
        assert totals["setup"]["layers"]["c"] == {"ns": 40, "calls": 1}
        assert "stray" not in op["layers"] and "stray" not in totals["setup"]["layers"]

    def test_recorder_nests_and_write_round_trips(self, tmp_path):
        recorder = SpanRecorder()
        inner = recorder.wrap("inner", lambda x: x + 1)
        with recorder.span("op"):
            assert inner(1) == 2
        assert [s[0] for s in recorder.spans] == ["op", "inner"]
        assert recorder.spans[1][3] == 0
        recorder.write(tmp_path / "spans.json")
        assert json.loads((tmp_path / "spans.json").read_text())["spans"] == recorder.spans

    def test_patches_reach_by_name_imports_and_restore(self):
        import repro.core.coloring as coloring_module
        import repro.core.directed_expo as expo
        from repro.mpc.cluster import MPCCluster

        original_fn = expo.directed_reachability
        original_method = MPCCluster.__dict__["communication_round"]
        patches = Patches(SpanRecorder())
        with patches.active():
            assert coloring_module.directed_reachability is not original_fn
            assert expo.directed_reachability is coloring_module.directed_reachability
            assert MPCCluster.__dict__["communication_round"] is not original_method
        assert coloring_module.directed_reachability is original_fn
        assert expo.directed_reachability is original_fn
        assert MPCCluster.__dict__["communication_round"] is original_method


@pytest.mark.parametrize("name", ["color-forest", "orient-large-lambda", "stream-fleet"])
def test_traced_outputs_are_byte_identical(name):
    import workloads

    workload = workloads.WORKLOADS[name](smoke=True)
    seed = 3
    inp = workload.make_input(seed)
    recorder = SpanRecorder()

    def outcome(traced: bool):
        with Patches(recorder).active() if traced else nullcontext():
            with recorder.span("op") if traced else nullcontext():
                if workload.stream:
                    engine = workload.build(inp, seed)
                    try:
                        start = workload.words(engine)
                        workload.submit(engine, inp)
                        while engine.tick() is not None:
                            pass
                        return workload.check(inp, engine, start)
                    finally:
                        engine.close()
                from repro.engine import WorkerPool

                with WorkerPool(workers=1) as pool:
                    return workload.check(inp, workload.op(inp, pool, seed))

    plain, traced = outcome(False), outcome(True)
    assert traced.fingerprint == plain.fingerprint
    assert traced.quality == plain.quality
    assert len(recorder.spans) > 1


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(name, trace):
    completed = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    if trace:
        assert result["metrics"]["error_rate"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _session_members(sid: int) -> list[int]:
    members = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid:
            members.append(int(entry.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("name", ["orient-large-lambda", "stream-fleet"])
def test_no_process_outlives_a_run(name):
    # The traced run fans out to process workers, whose shared memory starts
    # multiprocessing's resource tracker.
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "2",
         "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, start_new_session=True,
    )
    _out, err = child.communicate(timeout=600)
    assert child.returncode == 0, err
    assert _session_members(child.pid) == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run(tmp_path, "--workload", "color-forest", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
