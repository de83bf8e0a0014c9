"""One benchmark process for one workload; ``run.py`` starts it.

    python3 perfbench/worker.py {prepare|measure} --root DIR
        --workload NAME --seed N --out DIR [--seconds S] [--trace 0|1]

``prepare`` writes the input files of the seed and of the reference seed,
evaluates both once (untimed) and gates their outputs: against the stored
reference where there is one, otherwise by the sanity rules. The outputs
it keeps under ``expected-s<seed>/`` are what every timed call must
reproduce. ``measure`` times importing shrinkmean and building the inputs,
then repeats the measured call for the given seconds. With ``--trace 1``
it alternates untraced and traced calls and reports per-layer metrics
instead. The result is one JSON object on the last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import gate
from tracer import Tracer
from workloads import REFERENCE_SEED, WORKLOADS

#: The functions timed by the traced run, by shrinkmean submodule.
LAYERS = {
    "model": ("generate_sample", "sample_stats", "build_covariance"),
    "linalg": ("spd_factor", "spd_solve", "pseudo_inverse", "sym_sqrt", "haar_orthogonal"),
    "estimators": (
        "bona_fide_intensities",
        "oracle_intensities",
        "limit_intensities",
        "james_stein",
        "js_high_dim",
        "js_positive_part",
        "wang_estimator",
    ),
    "harness": (
        "cell_population",
        "quadratic_loss",
        "write_losses_csv",
        "write_intensities_csv",
    ),
    "finance": ("load_returns_csv", "target_vector", "write_backtest_csv"),
}
#: Functions whose square-matrix argument sizes make up ``linalg.factor_dim3``.
DIM3_KEYS = ("linalg.spd_factor", "linalg.pseudo_inverse", "linalg.sym_sqrt")
#: Sample-matrix factorizations, counted per replication or window-period.
FACTOR_KEYS = ("linalg.spd_factor", "linalg.pseudo_inverse")

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def import_package(root: str):
    """Import shrinkmean from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import shrinkmean

    if os.path.commonpath([os.path.abspath(shrinkmean.__file__), src]) != src:
        raise SystemExit(f"shrinkmean was imported from {shrinkmean.__file__}, not {src}")
    return shrinkmean


def timed_setup(workload, root: str, out: str, seed: int):
    """(seconds to import shrinkmean and build the inputs, inputs)."""
    start = time.perf_counter()
    import_package(root)
    inputs = workload.setup(out, seed)
    return time.perf_counter() - start, inputs


def compare_outputs(workload, actual_dir: str, expected_dir: str) -> list[str]:
    problems = []
    for name in workload.outputs:
        problems += gate.compare_tables(
            os.path.join(actual_dir, name), os.path.join(expected_dir, name)
        )
    return problems


def expected_dir(out: str, seed: int) -> str:
    return os.path.join(out, f"expected-s{seed}")


def prepare(workload, root: str, out: str, seed: int) -> dict:
    """Write the inputs, then evaluate and gate ``seed`` and the reference seed."""
    import_package(root)
    problems, notes = [], []
    for s in sorted({seed, REFERENCE_SEED}):
        workload.prepare(out, s)
        target = expected_dir(out, s)
        os.makedirs(target, exist_ok=True)
        outcome = workload.run(workload.setup(out, s), target)
        problems += workload.sanity(target, outcome)
        reference = os.path.join(REFERENCE_DIR, workload.name, f"seed-{s}")
        if os.path.isdir(reference):
            problems += compare_outputs(workload, target, reference)
            notes.append(
                f"seed {s}: outputs compared with the stored reference "
                f"(relative tolerance {gate.RTOL:g})"
            )
        else:
            notes.append(
                f"seed {s}: no stored reference; checked finiteness and failure counts"
            )
    return {"problems": problems, "notes": notes}


def timed_call(workload, inputs, out_dir: str):
    wall0, cpu0 = time.perf_counter(), time.process_time()
    outcome = workload.run(inputs, out_dir)
    return outcome, time.perf_counter() - wall0, time.process_time() - cpu0


def measure(workload, root: str, out: str, seed: int, seconds: float) -> dict:
    setup_s, inputs = timed_setup(workload, root, out, seed)
    call_dir = os.path.join(out, f"call-{os.getpid()}")
    os.makedirs(call_dir)
    walls, cpus, problems, attempted, failed = [], [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        outcome, wall, cpu = timed_call(workload, inputs, call_dir)
        problems += compare_outputs(workload, call_dir, expected_dir(out, seed))
        walls.append(wall)
        cpus.append(cpu)
        attempted += outcome.attempted
        failed += outcome.failed
    return {
        "setup_s": setup_s,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def traced_iteration(tracer: Tracer, workload, out_dir: str, seed: int, call_dir: str):
    """Set-up plus measured call under the tracer; (outcome, call wall time)."""
    tracer.reset()
    with tracer:
        inputs = workload.setup(out_dir, seed)
        outcome, wall, _ = timed_call(workload, inputs, call_dir)
    return outcome, wall


def layer_metrics(snapshots: list[dict], per_item: dict, dim3: int, absent: list) -> dict:
    """Calls and fails of one traced iteration; median self time over all."""
    metrics = {}
    for key in snapshots[0]:
        first = snapshots[0][key]
        metrics[f"{key}.calls"] = (first["calls"], "count")
        metrics[f"{key}.self_s"] = (
            statistics.median(s[key]["self_s"] for s in snapshots),
            "s",
        )
        metrics[f"{key}.fail"] = (first["fail"], "count")
    metrics["linalg.factor_dim3"] = (dim3, "d3")
    metrics["linalg.factorizations_per_item"] = (per_item["factorizations"], "1/item")
    metrics["model.sample_stats_per_item"] = (per_item["sample_stats"], "1/item")
    metrics["trace.absent_functions"] = (len(absent), "count")
    return metrics


def snapshot(tracer: Tracer) -> dict:
    return {k: {"calls": v.calls, "self_s": v.self_s, "fail": v.fail} for k, v in tracer.stats.items()}


def per_item_counts(full: dict, full_items: int, small: dict, small_items: int) -> dict:
    """Calls per replication or window-period, from the difference between a
    full and a one-item run, so per-cell and per-run calls cancel."""

    def rate(keys):
        extra = sum(full[k]["calls"] - small[k]["calls"] for k in keys)
        return extra / (full_items - small_items)

    return {
        "factorizations": rate(FACTOR_KEYS),
        "sample_stats": rate(("model.sample_stats",)),
    }


def trace(workload, root: str, out: str, seed: int, seconds: float) -> dict:
    _, inputs = timed_setup(workload, root, out, seed)
    call_dir = os.path.join(out, f"call-{os.getpid()}")
    os.makedirs(call_dir)
    tracer = Tracer(LAYERS, dim3_keys=DIM3_KEYS)
    plain, traced, snapshots, problems, outcomes = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        outcome, wall, _ = timed_call(workload, inputs, call_dir)
        problems += compare_outputs(workload, call_dir, expected_dir(out, seed))
        plain.append(wall)
        outcomes.append(outcome)
        outcome, wall = traced_iteration(tracer, workload, out, seed, call_dir)
        problems += compare_outputs(workload, call_dir, expected_dir(out, seed))
        traced.append(wall)
        snapshots.append(snapshot(tracer))
        outcomes.append(outcome)
    dim3, items = tracer.dim3, outcome.items

    small = workload.small()
    small_out = os.path.join(out, "small")
    os.makedirs(small_out, exist_ok=True)
    small.prepare(small_out, seed)
    small_outcome, _ = traced_iteration(tracer, small, small_out, seed, small_out)
    per_item = per_item_counts(snapshots[0], items, snapshot(tracer), small_outcome.items)

    metrics = layer_metrics(snapshots, per_item, dim3, tracer.absent)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0,
        "frac",
    )
    return {
        "metrics": metrics,
        "absent": tracer.absent,
        "traced_calls": len(traced),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "problems": problems,
    }


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob

    import numpy

    libs_dir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(workload, seed: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "reference_seed": REFERENCE_SEED,
        "workload": workload.name,
        "params": workload.params(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "prepare":
        result = prepare(workload, args.root, args.out, args.seed)
        result["env"] = environment(workload, args.seed)
    elif args.trace:
        result = trace(workload, args.root, args.out, args.seed, args.seconds)
    else:
        result = measure(workload, args.root, args.out, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
