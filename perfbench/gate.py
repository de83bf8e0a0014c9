"""Output-correctness gate for the benchmark's CSV outputs.

Tables are compared cell by cell after dropping ``mean_runtime_s``, the
one column that is a measurement rather than a result. Text and integer
cells must match exactly. Numeric cells must agree to

    |a - b| <= RTOL * max(|a|, |b|, column scale)

where the column scale is the median magnitude in that column of the
expected table: a weight near zero (beta ~ 1e-5) is a difference of O(1)
terms, so its rounding error is relative to the column's typical size,
not to itself. (The median, not the maximum: one estimator's loss can be
1e4 times another's in the same column.)

The CSVs print 12 significant digits. Another BLAS reduction order (one
thread instead of two moves mc-low weights by up to 1e-10 of their own
size, but only 7e-12 of the column's: the last printed digit) or a
factorization that agrees to ~1e-14 (the n x n Gram route for p > n)
stays well inside RTOL = 1e-8, while a wrong estimator weight or loss
moves the affected cells by orders of magnitude more. NaN matches only
NaN.
"""

from __future__ import annotations

import csv
import math
import statistics

RTOL = 1e-8
EXCLUDED_COLUMNS = frozenset({"mean_runtime_s"})
#: Differences reported per table; one is enough to fail the gate.
MAX_REPORTED = 5


def read_table(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV, without the excluded columns."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ValueError(f"{path}: empty table")
    keep = [i for i, name in enumerate(rows[0]) if name not in EXCLUDED_COLUMNS]
    return [rows[0][i] for i in keep], [[row[i] for i in keep] for row in rows[1:]]


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def cells_agree(actual: str, expected: str, scale: float = 0.0) -> bool:
    if actual == expected:
        return True
    a, b = _number(actual), _number(expected)
    if a is None or b is None or (_is_int(actual) and _is_int(expected)):
        return False
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def _column_scales(rows: list[list[str]]) -> list[float]:
    scales = []
    for column in zip(*rows):
        values = [abs(v) for v in map(_number, column) if v is not None and math.isfinite(v)]
        scales.append(statistics.median(values) if values else 0.0)
    return scales


def compare_tables(actual_path, expected_path) -> list[str]:
    """Differences between two tables, as at most ``MAX_REPORTED`` messages."""
    head_a, rows_a = read_table(actual_path)
    head_e, rows_e = read_table(expected_path)
    if head_a != head_e:
        return [f"{actual_path}: columns {head_a} differ from {head_e}"]
    if len(rows_a) != len(rows_e):
        return [f"{actual_path}: {len(rows_a)} rows, expected {len(rows_e)}"]
    scales = _column_scales(rows_e)
    problems = []
    for r, (row_a, row_e) in enumerate(zip(rows_a, rows_e), start=2):
        if len(row_a) != len(row_e):
            problems.append(f"{actual_path}: row {r} has {len(row_a)} cells, expected {len(row_e)}")
            continue
        for name, a, e, scale in zip(head_a, row_a, row_e, scales):
            if not cells_agree(a, e, scale):
                problems.append(f"{actual_path}: row {r} {name} = {a}, expected {e}")
                if len(problems) >= MAX_REPORTED:
                    return problems
    return problems


def mc_sanity(out_dir, failures: dict, n_reps: int) -> list[str]:
    """Monte Carlo outputs are finite wherever the counted failures allow.

    A loss mean is finite when some replication succeeded, its standard
    error when two did; weights may be missing only for failed
    replications of the estimator that records them.
    """
    problems = []
    header, rows = read_table(f"{out_dir}/losses.csv")
    col = {name: i for i, name in enumerate(header)}
    for r, row in enumerate(rows, start=2):
        est = row[col["estimator"]]
        used = n_reps - failures.get(est, 0)
        for name, needed in (("mean_loss", 1), ("se", 2)):
            value = float(row[col[name]])
            if math.isfinite(value) != (used >= needed):
                problems.append(
                    f"losses.csv row {r}: {est} {name} = {value} with {used} of "
                    f"{n_reps} replications counted as succeeded"
                )
    header, rows = read_table(f"{out_dir}/intensities.csv")
    col = {name: i for i, name in enumerate(header)}
    recorded_by = {"oracle": "olse-oracle", "bona-fide": "olse"}
    missing: dict[str, int] = {}
    for row in rows:
        kind = row[col["kind"]]
        if not all(math.isfinite(float(row[col[c]])) for c in ("alpha", "beta")):
            missing[kind] = missing.get(kind, 0) + 1
    for kind, count in missing.items():
        allowed = failures.get(recorded_by[kind], 0)
        if count > allowed:
            problems.append(
                f"intensities.csv: {count} {kind} weights missing but only "
                f"{allowed} failures counted"
            )
    return problems


def backtest_sanity(out_dir, periods: int) -> list[str]:
    """Backtest rows are finite and their failure counts are consistent.

    A period counts for a window only when every (estimator, target) pair
    succeeded, so the periods skipped can be no more than the failures
    counted in that window, and a loss is finite when any period counted.
    """
    problems = []
    header, rows = read_table(f"{out_dir}/backtest.csv")
    col = {name: i for i, name in enumerate(header)}
    by_window: dict[str, list[list[str]]] = {}
    for row in rows:
        by_window.setdefault(row[col["window_n"]], []).append(row)
    for window, group in by_window.items():
        evaluated = {int(row[col["windows_evaluated"]]) for row in group}
        failed = sum(int(row[col["failures"]]) for row in group)
        if len(evaluated) != 1:
            problems.append(f"backtest.csv window {window}: unpaired rows {evaluated}")
            continue
        used = evaluated.pop()
        if not 0 <= periods - used <= failed:
            problems.append(
                f"backtest.csv window {window}: {used} of {periods} periods used "
                f"with {failed} failures counted"
            )
        for row in group:
            loss = float(row[col["loss_x1e4"]])
            if math.isfinite(loss) != (used > 0):
                problems.append(
                    f"backtest.csv window {window}: loss {loss} with {used} periods used"
                )
    return problems
