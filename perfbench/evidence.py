"""Steadiness check: run the benchmark over several seeds and report spreads.

    python3 perfbench/evidence.py --seeds 1-10 --seconds 20 [--workloads a,b] [--out FILE]

For every workload, runs ``run.py --trace 0`` once per seed, one run at a
time, logs every figure of every run to ``.perfbench_out/evidence-runs.jsonl``
and tabulates each figure's median, quartiles and relative spread
(inter-quartile distance over median, as ``statistics.quantiles(n=4)``
gives them).  Host-normalized timings sit next to their raw ``host.*``
twins, so the table shows whether the normalization helps.  An end-to-end
metric other than ``setup_s`` is flagged "(wide)", and the exit code is 1,
when its spread reaches a third of its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from stats import relative_spread  # noqa: E402

# Normalized timing -> its raw wall-clock twin.
RAW_TWINS = {"op_p50_ms": "host.raw_op_p50_ms", "setup_s": "host.raw_setup_s"}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """All figures the run printed, by name, plus its wall time as ``run_wall_s``."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} reported incorrect output:\n{completed.stderr}")
    values = {"run_wall_s": time.perf_counter() - started}
    for line in lines[:-1]:
        if line.startswith("#"):
            continue
        name, value, *_unit = line.split()
        values[name] = float(value)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None, help="append the markdown tables here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report = []
    steady = True
    walls: list[float] = []
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    log = ROOT / ".perfbench_out" / "evidence-runs.jsonl"
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, seconds))
            with open(log, "a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed, **runs[-1]}) + "\n")
        report.append(f"\n### {workload} — seeds {args.seeds}, {seconds:g} s per run\n")
        report.append("| metric | median | q1 | q3 | spread | bound | raw spread |")
        report.append("|---|---|---|---|---|---|---|")
        for name in [*bounds, "host.spin_ms"]:
            values = [run[name] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = relative_spread(values)
            twin = RAW_TWINS.get(name)
            raw = f"{relative_spread([run[twin] for run in runs]):.4f}" if twin else ""
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = " (wide)"
                steady = False
            report.append(
                f"| {name} | {q2:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f}{flag} | "
                f"{bound if bound is not None else ''} | {raw} |"
            )
        walls.append(statistics.median(run["run_wall_s"] for run in runs))
        report.append(f"\nMedian wall time of one run: {walls[-1]:.1f} s")
        print("\n".join(report[-len(bounds) - 5:]), flush=True)
    # 4 + 22 runs per workload: the run count the time budget is set for.
    runs_in_check = 4 + 22 * len(walls)
    report.append(
        f"\nAt these wall times, {runs_in_check} runs take about "
        f"{runs_in_check * statistics.mean(walls):.0f} s."
    )
    print(report[-1], flush=True)
    if args.out:
        with open(args.out, "a") as handle:
            handle.write("\n".join(report) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
