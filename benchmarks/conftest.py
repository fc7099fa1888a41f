"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Besides the
pytest-benchmark timing (how long the simulation/experiment harness itself
takes), each benchmark emits the measured-vs-paper rows both to stdout and to
``benchmarks/results/<name>.txt`` (git-ignored), so two checkouts' tables can
be compared with ``diff -r``.

Environment knobs:

* ``REPRO_BENCH_FULL=1`` — run the full paper scale (e.g. data-parallel
  degree 16 = 512 simulated GPUs); default keeps each benchmark under ~1 min.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def full_scale() -> bool:
    """True when the operator asked for paper-scale sweeps."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def emit_table(name: str, text: str) -> Path:
    """Print a results table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}\n[written to {path}]")
    return path


@pytest.fixture
def emit():
    """Fixture handing benchmarks the table emitter."""
    return emit_table
