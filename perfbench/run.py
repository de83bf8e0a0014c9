"""Benchmark of the shrinkmean package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {mc-low,mc-high,backtest,all}
        --seed N --seconds S --trace {0,1}

Each workload runs in worker processes (``worker.py``), started one at a
time: one prepares and gates the inputs, then ``--trace 0`` splits
``--seconds`` over ``MEASURE_PROCESSES`` fresh measuring processes, so
set-up samples and calls are spread over the whole run. It reports:

* ``setup_s``: importing shrinkmean and building the inputs, median over
  the measuring processes;
* ``wall_s`` / ``cpu_s``: wall and process CPU time of the measured call,
  median over all the calls made;
* ``peak_rss_mb``: largest peak resident memory of a measuring process;
* ``success_frac``: 1 - failed_frac, the share of estimator evaluations
  that succeeded (failed_frac itself is printed too).

``--trace 1`` reports the per-layer metrics of ``worker.LAYERS`` instead.
Every run checks the outputs (see ``gate.py``); the last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when the outputs are correct, 1 when the gate fails
and 2 when the benchmark cannot run here. Outputs and a ``result.json``
with the environment go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
#: Measuring processes per untraced run; each gives one ``setup_s`` sample.
MEASURE_PROCESSES = 5
#: Wall-clock limit for any one worker process.
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker(mode: str, root: str, workload: str, seed: int, out: str, *extra: str) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        mode,
        "--root", root,
        "--workload", workload,
        "--seed", str(seed),
        "--out", out,
        *extra,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=root, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {mode} timed out after {exc.timeout} s") from None
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise BenchError("no estimator evaluation was attempted")
    return failed / attempted


def end_to_end(root: str, workload: str, seed: int, seconds: float, out: str):
    parts = [
        worker("measure", root, workload, seed, out, "--seconds", str(seconds / MEASURE_PROCESSES))
        for _ in range(MEASURE_PROCESSES)
    ]
    result = {
        "setup_s": [p["setup_s"] for p in parts],
        "wall_s": [w for p in parts for w in p["wall_s"]],
        "cpu_s": [c for p in parts for c in p["cpu_s"]],
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "problems": [x for p in parts for x in p["problems"]],
    }
    frac = failed_frac(result["attempted"], result["failed"])
    metrics = {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "wall_s": (statistics.median(result["wall_s"]), "s"),
        "cpu_s": (statistics.median(result["cpu_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_frac": (1.0 - frac, "frac"),
    }
    lines = [
        f"{name:<12} {metrics[name][0]:.4f} s    median of {len(result[name])} {what}, "
        "quartiles {:.4f}..{:.4f}".format(*quartiles(result[name]))
        for name, what in (("setup_s", "processes"), ("wall_s", "calls"), ("cpu_s", "calls"))
    ]
    lines += [
        f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB",
        f"failed_frac  {frac:.6f} frac ({result['failed']} of {result['attempted']} "
        "evaluations)",
        f"success_frac {metrics['success_frac'][0]:.6f} frac",
    ]
    return result, metrics, lines


def per_layer(root: str, workload: str, seed: int, seconds: float, out: str):
    result = worker("measure", root, workload, seed, out, "--seconds", str(seconds), "--trace", "1")
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"traced iterations: {result['traced_calls']}")
    if result["absent"]:
        lines.append(f"absent functions: {', '.join(result['absent'])}")
    return result, metrics, lines


def run_workload(root: str, workload: str, seed: int, seconds: float, traced: bool) -> bool:
    out = os.path.join(root, ".perfbench_out", f"{workload}-s{seed}-t{int(traced)}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    prepared = worker("prepare", root, workload, seed, out)
    measure = per_layer if traced else end_to_end
    result, metrics, lines = measure(root, workload, seed, seconds, out)
    problems = prepared["problems"] + result["problems"]

    correct = not problems
    print(f"== {workload} seed={seed} trace={int(traced)}")
    print("env " + json.dumps(prepared["env"], sort_keys=True))
    for line in lines + prepared["notes"]:
        print("  " + line)
    for problem in problems:
        print("  GATE FAILED: " + problem)
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as handle:
        json.dump({"metrics": metrics, **prepared, **result, "problems": problems}, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        ),
        flush=True,
    )
    return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "shrinkmean", "__init__.py")):
        print(f"error: {root} holds no src/shrinkmean package to benchmark", file=sys.stderr)
        return 2
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        correct = [
            run_workload(root, name, args.seed, args.seconds, bool(args.trace)) for name in names
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(correct) else 1


if __name__ == "__main__":
    sys.exit(main())
