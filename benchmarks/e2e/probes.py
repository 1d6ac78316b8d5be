"""Layer probes: direct calls into single layers, outside any server.

``python probes.py WORKERS`` prints the probe metrics as one JSON object.

They explain the traced numbers rather than add to them: what the two
sweep kernels cost per rectangle at three tile sizes (and where they
cross), what one pool round-trip costs by transport and payload size,
and what columnar encode/decode costs per rectangle.  Every figure is
the minimum of up to ``REPEATS`` timed calls after one warm-up call —
the least-disturbed run of a deterministic computation.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import sys
import time
from typing import Callable, Dict, List

if __name__ == "__main__":  # run.py runs this file as a process
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"))

from repro.core.columnar import ColumnarTile
from repro.core.kernels import sweep_pairs_batched
from repro.engine.executor import sweep_tile_task
from repro.engine.pool import WorkerPool
from repro.geom.rect import Rect

SIZES = (256, 4096, 65536)
REPEATS = 5
#: Wall time after which a probe stops repeating.
PROBE_BUDGET_SECONDS = 2.0
#: Sizes searched for the python/numpy crossover.
LADDER = (64, 128, 256, 512, 1024, 2048, 4096)
PROBE_SEED = 97


class _Ops:
    """The one thing a sweep asks of its environment."""

    def charge(self, category: str, ops: int) -> None:
        pass


def _rects(rng: random.Random, n: int, id_base: int) -> List[Rect]:
    # Side ~ 1/sqrt(n): each rectangle meets a handful of the other
    # set whatever n is, so cost per rectangle compares across sizes.
    side = 1.0 / (n ** 0.5)
    out = []
    for i in range(n):
        x, y = rng.random(), rng.random()
        out.append(Rect(x, x + side * rng.random(),
                        y, y + side * rng.random(), id_base + i))
    return out


def best_of(fn: Callable[..., object],
            before: Callable[[], object] = None) -> float:
    """Seconds of the fastest of ``REPEATS`` calls, after one warm-up.

    A probe stops repeating once it has used ``PROBE_BUDGET_SECONDS``
    (the 65 536-rectangle python sweep takes two seconds a call); a
    first call that alone exceeds the budget is the measurement.
    ``before`` runs untimed ahead of every call and its result is
    passed to ``fn`` (fresh inputs for calls that consume theirs).
    """
    best = float("inf")
    used = 0.0
    for call in range(REPEATS + 1):
        args = (before(),) if before is not None else ()
        t0 = time.perf_counter()
        fn(*args)
        seconds = time.perf_counter() - t0
        used += seconds
        if call > 0 or used > PROBE_BUDGET_SECONDS:
            best = min(best, seconds)
        if used > PROBE_BUDGET_SECONDS:
            break
    return best


def kernel_probes(rng: random.Random) -> Dict[str, float]:
    out: Dict[str, float] = {}
    per_rect: Dict[str, Dict[int, float]] = {"numpy": {}, "python": {}}
    for n in sorted(set(SIZES) | set(LADDER)):
        a, b = _rects(rng, n, 0), _rects(rng, n, 10_000_000)
        for kernel in per_rect:
            seconds = best_of(
                lambda: sweep_pairs_batched(kernel, a, b, _Ops()))
            per_rect[kernel][n] = seconds * 1e6 / (2 * n)
    for kernel, by_size in per_rect.items():
        for n in SIZES:
            out[f"kernels.probe.{kernel}_us_per_rect_n{n}"] = by_size[n]
    # The smallest ladder size from which numpy wins at every larger
    # one; 0 when it never settles inside the ladder.
    crossover = 0
    for n in reversed(LADDER):
        if per_rect["numpy"][n] >= per_rect["python"][n]:
            break
        crossover = n
    out["kernels.probe.crossover_rects"] = float(crossover)
    return out


def pool_probes(rng: random.Random, workers: int) -> Dict[str, float]:
    """One ``sweep_tile_task`` round-trip by transport and tile size.

    The tile's two sides lie at opposite ends of the sweep axis, so the
    task finds nothing and the sweep is as cheap as a sweep of that
    size gets: what varies between the three rows of one size is the
    transport.  ``shm`` packs a fresh tile every call (the cold path);
    a cached tile re-ships by reference for less.
    """
    out: Dict[str, float] = {}
    pool = WorkerPool(max(2, workers), kind="process")
    pool.prestart()
    try:
        for n in SIZES:
            a = [Rect(r.xlo, r.xhi, r.ylo * 0.4, r.yhi * 0.4, r.rid)
                 for r in _rects(rng, n, 0)]
            b = [Rect(r.xlo, r.xhi, 0.6 + r.ylo * 0.4, 0.6 + r.yhi * 0.4,
                      r.rid) for r in _rects(rng, n, 10_000_000)]
            tiles = (ColumnarTile.from_rects(a),
                     ColumnarTile.from_rects(b))

            def payload(side_a, side_b) -> tuple:
                return (0, (0.0, 1.0, 0.0, 1.0, 1, 1), side_a, side_b,
                        False, False, None, "numpy")

            def inline() -> None:
                pool.run_inline(sweep_tile_task, payload(*tiles)).result()

            def pickled() -> None:
                pool.submit(sweep_tile_task, payload(*tiles)).result()

            def fresh_tiles():
                # Packing is cached per tile object; a pickle round
                # trip is the cheapest way to an unpacked copy.
                return pickle.loads(pickle.dumps(tiles))

            def shm(fresh) -> None:
                refs = pool.shm.refs_for(list(fresh))
                names = {ref.segment for ref in refs}
                pool.shm.add_inflight(names)
                try:
                    pool.submit(sweep_tile_task, payload(*refs)).result()
                finally:
                    pool.shm.task_done(names)

            for transport, fn, before in (("inline", inline, None),
                                          ("pickle", pickled, None),
                                          ("shm", shm, fresh_tiles)):
                out[f"pool.probe.roundtrip_us_{transport}_n{n}"] = (
                    best_of(fn, before=before) * 1e6)
    finally:
        pool.shutdown()
    return out


def columnar_probes(rng: random.Random) -> Dict[str, float]:
    n = 4096
    rects = _rects(rng, n, 0)
    tile = ColumnarTile.from_rects(rects)
    return {
        "columnar.probe.encode_us_per_rect":
            best_of(lambda: ColumnarTile.from_rects(rects)) * 1e6 / n,
        "columnar.probe.decode_us_per_rect":
            best_of(tile.decode) * 1e6 / n,
    }


def run_probes(workers: int) -> Dict[str, float]:
    rng = random.Random(PROBE_SEED)
    out = kernel_probes(rng)
    out.update(pool_probes(rng, workers))
    out.update(columnar_probes(rng))
    return out


if __name__ == "__main__":
    from procs import end_with_parent

    end_with_parent()
    print(json.dumps(run_probes(int(sys.argv[1]))))
