"""A yardstick for the host's speed, read beside every block of a run.

On the shared 2-vCPU boxes this benchmark runs on, the host itself
changes speed: for minutes at a time every process — server, workers,
an empty ``for`` loop — needs up to 1.5x the CPU time for the same
instructions (ten back-to-back ``cold_scan`` runs: 34–51 q/s, with
``throughput x CPU-per-query`` constant to 2.5 %).  No run length the
time cap allows averages that out, so the harness measures it instead:
at every block boundary it times a fixed piece of interpreter and numpy
work *in CPU time of its own thread* (waiting for a core does not
count, a slower core does) and divides the block's timings by how much
slower than :data:`REFERENCE_SECONDS` that came out.

The end-to-end timings are therefore "as on a quiet reference box".
A change to the code under test cannot move the yardstick, so it shows
up in full; the raw, un-normalised medians are printed beside them in
a set's report.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import time

import numpy as np

#: CPU seconds one :func:`yardstick` call takes on the quiet reference
#: box (Xeon 2.1 GHz, python 3.11); only ratios to it matter.
REFERENCE_SECONDS = 0.78e-3

_COLUMN = np.random.default_rng(7).random(16_384)
_ROWS = [(i * 0.001, i * 0.001 + 0.01, i % 97, str(i)) for i in range(1200)]
_DOC = {"relations": ["roads", "hydro"], "window": [0.1, 0.2, 0.3, 0.4]}


def yardstick() -> float:
    """CPU seconds this thread needs for the fixed work, right now.

    A little of each kind of work the server does — bytecode
    arithmetic, building and sorting small objects, a dict, JSON and
    pickle round trips, numpy over one column — because a crowded host
    does not slow them all alike.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(6_000):
        acc += i * i
    picked = [(row[2], row[0]) for row in _ROWS if row[1] > 0.3]
    picked.sort()
    index = {}
    for key, value in picked:
        index[key] = value
    for _ in range(8):
        json.loads(json.dumps(_DOC))
    pickle.loads(pickle.dumps(_ROWS[:300]))
    np.sort(_COLUMN)
    np.cumsum(_COLUMN)
    return time.thread_time() - t0


#: Readings kept per block boundary.
READINGS = 3


async def readings() -> list:
    """``READINGS`` yardstick readings, after one that is thrown away.

    The first reading after the generator has been busy runs on cold
    caches and reads about 5 % slow; the ones after it agree.  The
    event loop gets a turn between readings, so a reply arriving on
    another connection waits a millisecond at most.
    """
    yardstick()
    out = []
    for _ in range(READINGS):
        await asyncio.sleep(0)
        out.append(yardstick())
    return out


def speed_factor(before: list, after: list) -> float:
    """How many times slower than the reference the host ran meanwhile.

    The mean of the median reading at either end of the stretch.  A
    median per end, because a single reading can catch a context
    switch; the mean of the two ends, because the host changes speed
    in bursts shorter than a block and an estimate that needed both
    ends to be slow corrected only half of a slow run.
    """
    ends = [sorted(group)[len(group) // 2] for group in (before, after)]
    return sum(ends) / (2 * REFERENCE_SECONDS)
