"""The package's one CSV writer.

Every table the package writes, a study's, a backtest's or a returns panel,
goes through :func:`write_rows`.  It is a module of its own, importing only
``csv``, so that the backtester, which writes a table and runs no Monte
Carlo study, loads neither :mod:`.harness` nor its thread pool.
"""

from __future__ import annotations

import csv

__all__ = ["write_rows"]


def write_rows(path, header: list[str] | None, rows) -> None:
    """Write ``rows`` as CSV under ``header`` (no header line for None): the
    package's one CSV writer, with floats to 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([format(v, ".12g") if isinstance(v, float) else v for v in row])
