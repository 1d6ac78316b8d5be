"""Shared infrastructure for the benchmark suite.

Experiments are expensive relative to unit tests, so prepared setups
and algorithm runs are memoized per (dataset, scale) for the lifetime of
the benchmark session.  Every bench prints its paper-style table to
stdout (run pytest with ``-s`` to watch) and appends it to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote the
numbers.

Set ``REPRO_BENCH_SCALE=quick`` to run at 1/1024 scale (fast smoke
runs); the default is the 1/256 scale all recorded results use.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, Tuple

from repro.experiments.runner import (
    ExperimentSetup,
    prepare_experiment,
    run_algorithm,
)
from repro.sim.scale import DEFAULT_SCALE, QUICK_SCALE, ScaleConfig

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Datasets every table/figure bench iterates, in paper order.
BENCH_DATASETS = ("NJ", "NY", "DISK1", "DISK4-6", "DISK1-3", "DISK1-6")


def bench_scale() -> ScaleConfig:
    if os.environ.get("REPRO_BENCH_SCALE", "").lower() == "quick":
        return QUICK_SCALE
    return DEFAULT_SCALE


_SETUPS: Dict[Tuple[str, str], ExperimentSetup] = {}
_RUNS: Dict[Tuple[str, str, str], dict] = {}


def get_setup(dataset: str) -> ExperimentSetup:
    scale = bench_scale()
    key = (dataset, scale.name)
    if key not in _SETUPS:
        _SETUPS[key] = prepare_experiment(dataset, scale=scale)
    return _SETUPS[key]


def get_run(dataset: str, algorithm: str) -> dict:
    """Memoized algorithm run (fresh counters inside run_algorithm)."""
    scale = bench_scale()
    key = (dataset, scale.name, algorithm)
    if key not in _RUNS:
        _RUNS[key] = run_algorithm(algorithm, get_setup(dataset))
    return _RUNS[key]


def machine_snapshot(run: dict, machine_index: int) -> dict:
    return run["machines"][machine_index]


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")

