"""Asymptotic gate on simulated ops: complexity class *and* coefficient.

The sweep, one ``pbsm-grid`` overlay and one ``pq-index`` window run
over a ladder of input sizes at constant density (extents shrink with
``1/sqrt(n)``, so output stays linear in ``n`` and the curve is the
kernel's).  A percentage gate cannot see a change of class at small
sizes and a class fit cannot see a constant that grew, so both are
pinned — on op counts, never the clock.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.kernels import (
    resolve_kernel,
    sweep_pairs_batched,
)
from repro.engine import Query, SpatialQueryEngine
from repro.geom.rect import Rect
from repro.sim.env import SimEnv

from tests.conftest import TEST_SCALE, reference_executor

UNIT = Rect(0.0, 1.0, 0.0, 1.0, 0)
SIZES = (1000, 2000, 4000, 8000, 16000)
#: Candidate cost curves, simplest first.
CLASSES = {
    "constant": lambda n: 1.0,
    "logn": math.log2,
    "linear": float,
    "nlogn": lambda n: n * math.log2(n),
    "nsqrtn": lambda n: n * math.sqrt(n),
    "quadratic": lambda n: float(n) * n,
}
#: (worst acceptable class, its fitted coefficient at commit 6c21aab);
#: a curve may cost up to 1.10x that.
SWEEP_LIMIT = ("nsqrtn", 2.865)
OVERLAY_LIMIT = ("nlogn", 10.39)
#: The indexed path, over a window holding a quarter of the universe
#: whatever ``n`` is: total simulated ops and charged page reads, as
#: fitted when its numpy kernel landed (both measure linear).
INDEX_WINDOW = Rect(0.2, 0.7, 0.3, 0.8, 0)
INDEX_OPS_LIMIT = ("nlogn", 1.0799)
INDEX_READS_LIMIT = ("nlogn", 0.00633)


def violations(ns, costs, limit):
    """What of ``limit`` a cost curve breaks, as a list of sentences.

    Each class gets one coefficient, least-squares on *relative* errors
    so every sample counts alike: with ``u = f(n)/cost``,
    ``sum((a*u - 1)^2)`` is least at ``a = sum(u)/sum(u^2)``.  The
    simplest class within 0.05 of the best mean squared error is the
    fit — a steeper class always fits at least as well.
    """
    coefficient, error = {}, {}
    for name, f in CLASSES.items():
        us = [f(n) / c for n, c in zip(ns, costs)]
        a = coefficient[name] = sum(us) / sum(u * u for u in us)
        error[name] = sum((a * u - 1.0) ** 2 for u in us) / len(us)
    names = list(CLASSES)
    fitted = next(name for name in names
                  if error[name] <= min(error.values()) + 0.05)
    worst, ceiling = limit
    out = []
    if names.index(fitted) > names.index(worst):
        out.append(f"class {fitted} is worse than {worst}")
    if coefficient[worst] > 1.10 * ceiling:
        out.append(f"{coefficient[worst]:.3f} ops per {worst} unit "
                   f"exceeds 1.10 x {ceiling}")
    return out


@pytest.fixture(scope="module")
def ladder():
    out = {}
    for n in SIZES:
        rng, side = random.Random(97), 1.2 / math.sqrt(n)
        out[n] = [
            [Rect(x, x + side, y, y + side, base + i) for i, (x, y) in
             enumerate((rng.random(), rng.random()) for _ in range(n))]
            for base in (0, 10 ** 6)
        ]
    return out


def sweep_costs(ladder, sweep):
    envs = [SimEnv(machines=()) for _ in SIZES]
    for n, env in zip(SIZES, envs):
        sweep(*ladder[n], env)
    return [env.cpu_ops for env in envs]


@pytest.fixture(scope="module")
def real_sweep_costs(ladder):
    kernel = resolve_kernel("auto")  # this leg's; parity pins the other
    return sweep_costs(
        ladder, lambda a, b, env: sweep_pairs_batched(kernel, a, b, env))


def test_sweep_stays_in_class_and_under_its_coefficient(real_sweep_costs):
    assert violations(SIZES, real_sweep_costs, SWEEP_LIMIT) == []


def test_overlay_stays_in_class_and_under_its_coefficient(ladder):
    # Total cpu_ops of one query, so distribute is on the curve too.
    sizes, costs = SIZES[:4], []
    for n in sizes:
        with SpatialQueryEngine(scale=TEST_SCALE, workers=2,
                                pool_kind="serial", cache_capacity=0,
                                memory_bytes=64 << 20) as engine:
            engine.register("a", ladder[n][0], universe=UNIT)
            engine.register("b", ladder[n][1], universe=UNIT)
            engine.execute(Query(relations=("a", "b"), force="pbsm-grid",
                                 collect_pairs=False))
            costs.append(engine.env.cpu_ops)
    assert violations(sizes, costs, OVERLAY_LIMIT) == []


@pytest.mark.parametrize("kernel", ("python", "numpy"))
def test_index_window_stays_in_class_and_under_its_coefficients(ladder,
                                                                kernel):
    # The engine and its python reference: the parity shapes are
    # small, and a replay that is exact there must not leave the class
    # here.
    sizes, ops, reads = SIZES[:4], [], []
    for n in sizes:
        with reference_executor(kernel == "python"), SpatialQueryEngine(
            scale=TEST_SCALE, workers=2, pool_kind="serial",
            cache_capacity=0, memory_bytes=64 << 20,
        ) as engine:
            engine.register("a", ladder[n][0], universe=UNIT)
            engine.register("b", ladder[n][1], universe=UNIT)
            engine.prepare()
            engine.env.reset_counters()  # the index builds are set-up
            out = engine.execute(Query(relations=("a", "b"),
                                       window=INDEX_WINDOW,
                                       force="pq-index"))
            assert out.result.detail["kernel"] == kernel
            ops.append(engine.env.cpu_ops)
            reads.append(engine.env.page_reads)
    assert violations(sizes, ops, INDEX_OPS_LIMIT) == []
    assert violations(sizes, reads, INDEX_READS_LIMIT) == []


def test_the_gate_bites(ladder, real_sweep_costs):
    nested_loop = sweep_costs(
        ladder, lambda a, b, env: env.charge("sweep", len(a) * len(b)))
    assert "class quadratic is worse than nsqrtn" in violations(
        SIZES, nested_loop, SWEEP_LIMIT)
    grown = violations(
        SIZES, [1.2 * c for c in real_sweep_costs], SWEEP_LIMIT)
    assert len(grown) == 1 and "exceeds 1.10 x" in grown[0]
