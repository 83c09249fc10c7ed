"""Shared plumbing for the benchmark harness.

Every bench regenerates one of the paper's tables/figures at a
laptop-sized configuration, records the rendered table under
``benchmarks/results/`` (ignored by git: a run's output, not a
baseline), asserts the paper's qualitative *shape* (who wins, where
crossovers fall) and times the run with :func:`run_once`.  They are
plain pytest tests:

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py -q
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from repro.experiments.results import Row, format_table, rows_to_series

RESULTS_DIR = Path(__file__).parent / "results"
T = TypeVar("T")


def record(name: str, text: str) -> None:
    """Persist a rendered results table under ``RESULTS_DIR``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def record_rows(
    name: str,
    rows: Sequence[Row],
    title: str,
    x_label: str = "eps",
    value_format: str = "{:.3e}",
) -> None:
    """Render + persist a row set."""
    record(name, format_table(rows, title=title, x_label=x_label,
                              value_format=value_format))


def series(rows: Sequence[Row]):
    """Shortcut for rows_to_series."""
    return rows_to_series(rows)


def run_once(fn: Callable[[], T]) -> T:
    """Call ``fn`` once, print the wall time it took (``pytest -s``
    shows it) and return its result."""
    start = time.perf_counter()
    result = fn()
    print(f"{time.perf_counter() - start:.3f} s")
    return result
