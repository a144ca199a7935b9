"""Shared configuration for the table/figure reproduction benchmarks.

Environment knobs:

``REPRO_QUICK=1``
    Shrink scenarios and simulation windows so the whole suite runs in a
    few minutes (results are noisier but shape-preserving).
``REPRO_CACHE_DIR``
    Where instrumented-run artifacts persist (default ``.repro_cache``).

Each benchmark writes its rendered table to ``results/<name>.txt`` in
addition to printing it, so the regenerated paper tables survive pytest's
output capture.
"""

import os
from pathlib import Path

import pytest

from repro.experiments import common, table1

QUICK = os.environ.get("REPRO_QUICK", "") == "1"
STEPS = 45 if QUICK else None  # None -> the paper's 90 (30 frames)
SCALE = 0.5 if QUICK else 1.0

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def pytest_report_header(config):
    mode = "QUICK" if QUICK else "full"
    return (f"repro benchmarks: {mode} mode "
            f"(steps={STEPS or 90}, scale={SCALE}); "
            f"tables land in {RESULTS_DIR}")


@pytest.fixture(scope="session")
def emit():
    """Writer for rendered experiment tables."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")

    return _emit


@pytest.fixture(scope="session")
def tuned_precisions():
    """Per-scenario precision registers.

    Prefers measured Table 1 results (the table1 benchmark, or the cache
    it leaves behind); falls back to the committed presets so the other
    benchmarks never trigger the multi-minute search themselves.
    """
    try:
        result = _cached_table1()
    except FileNotFoundError:
        return table1.tuned_precisions()
    return table1.tuned_precisions(result)


def _cached_table1():
    from repro.experiments.runcache import cache_path
    steps = STEPS or 90
    path = cache_path("table1", {"steps": steps, "scale": SCALE})
    if not path.exists():
        raise FileNotFoundError(path)
    return table1.compute_table1(steps=steps, scale=SCALE)


@pytest.fixture(scope="session")
def workloads(tuned_precisions):
    """Per-scenario, per-phase workload characterizations (cached runs)."""
    return common.all_workloads(tuned_map=tuned_precisions, steps=STEPS,
                                scale=SCALE)
