"""The four workloads: what the server deploys and what the clients send.

Each workload pairs a *deployment* (a plain dict handed to
``server.py``, which builds it from public API only) with a seeded
*request stream* for the load generator.  The seed never reaches the
server — it sees nothing but HTTP bodies.

Window sizes and places are Latin-hypercube stratified: every seed
covers the same range of widths, heights and positions in equal strata
and only their pairing differs, so medians move with the code under
test rather than with the luck of a seed's draw.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.data.datasets import build_dataset
from repro.geom.rect import RECT_BYTES, Rect
from repro.sim.scale import DEFAULT_SCALE

#: Pool workers, and the most connections any workload opens.
WORKERS = CONNECTIONS = min(os.cpu_count() or 1, 4)

SKEW_SEED = 41
SKEW_CLUSTER = 1000
SKEW_SPREAD = 16000

#: Window side as a share of the universe's side.
WINDOW_SIDE = (0.08, 0.25)

Window = Optional[Tuple[float, float, float, float]]


@dataclass(frozen=True)
class Request:
    """One POST /query: the bytes sent and what the oracle needs."""

    body: bytes
    window: Window


def dataset(name: str) -> Tuple[List[Rect], List[Rect], Rect]:
    """``(roads, hydro, universe)`` for ``disk1`` or ``skewed``."""
    if name == "disk1":
        ds = build_dataset("DISK1", DEFAULT_SCALE)
        return list(ds.roads), list(ds.hydro), ds.universe
    if name != "skewed":
        raise ValueError(f"unknown dataset {name!r}")
    # One dense corner cluster (a huge tile) plus a thin uniform spread
    # (many tiny tiles); hydro is every second road, so every hydro
    # rectangle meets at least its twin.
    rng = random.Random(SKEW_SEED)
    roads: List[Rect] = []
    for _ in range(SKEW_CLUSTER):
        x, y = rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.05)
        roads.append(Rect(x, x + 0.008, y, y + 0.008, len(roads)))
    for _ in range(SKEW_SPREAD):
        x, y = rng.uniform(0.0, 0.99), rng.uniform(0.0, 0.99)
        roads.append(Rect(x, x + 0.002, y, y + 0.002, len(roads)))
    hydro = [Rect(r.xlo, r.xhi, r.ylo, r.yhi, 1_000_000 + r.rid)
             for r in roads[::2]]
    return roads, hydro, Rect(0.0, 1.0, 0.0, 1.0, 0)


def data_bytes(roads: List[Rect], hydro: List[Rect]) -> int:
    return (len(roads) + len(hydro)) * RECT_BYTES


def make_request(window: Window, query_class: str = "interactive",
                 relations=("roads", "hydro"),
                 count_only: bool = False) -> Request:
    body: Dict[str, object] = {"relations": list(relations)}
    if window is not None:
        body["window"] = list(window)
    if query_class != "interactive":
        body["class"] = query_class
    if count_only:
        body["count_only"] = True
    return Request(json.dumps(body).encode("ascii"), window)


def stratified_windows(rng: random.Random, universe: Rect,
                       n: int) -> List[Window]:
    """``n`` windows whose width, height, x and y each fill ``n`` strata."""
    columns = []
    for _ in range(4):
        strata = [(i + rng.random()) / n for i in range(n)]
        rng.shuffle(strata)
        columns.append(strata)
    lo, hi = WINDOW_SIDE
    width = universe.xhi - universe.xlo
    height = universe.yhi - universe.ylo
    out: List[Window] = []
    for fw, fh, fx, fy in zip(*columns):
        w = width * (lo + (hi - lo) * fw)
        h = height * (lo + (hi - lo) * fh)
        x = universe.xlo + (width - w) * fx
        y = universe.ylo + (height - h) * fy
        out.append((round(x, 6), round(x + w, 6),
                    round(y, 6), round(y + h, 6)))
    return out


def _fresh_stream(rng: random.Random,
                  universe: Rect) -> Iterator[Request]:
    """Never-repeating blocks of nine windows and one full overlay.

    No query repeats, so the executor's per-plan inline memo cannot
    turn a cold workload warm half-way through a run, and a tenth of
    the requests being overlays puts the 95th percentile in the middle
    of the overlay latencies instead of on the edge between the two
    kinds.
    """
    while True:
        windows = stratified_windows(rng, universe, 90)
        for b in range(10):
            block = [make_request(w) for w in windows[9 * b:9 * b + 9]]
            block.insert(rng.randrange(10), make_request(None))
            yield from block


def _zipf_stream(rng: random.Random,
                 universe: Rect) -> Iterator[Request]:
    """48 distinct queries — fewer than the 64 cache entries — Zipf(1.1).

    The first 48 requests are the distinct queries once each, so the
    warm-up leaves every one of them cached.  The two full overlays
    only count: a hit on an overlay that collects pairs copies a
    13 624-pair list, which times the allocator (0.54–0.76 ms between
    otherwise identical runs) rather than the serving layer this
    workload exists to show.
    """
    distinct = [make_request(w)
                for w in stratified_windows(rng, universe, 46)]
    distinct += [make_request(None, relations=rel, count_only=True)
                 for rel in (("roads", "hydro"), ("hydro", "roads"))]
    rng.shuffle(distinct)
    yield from distinct
    weights = [1.0 / (rank ** 1.1)
               for rank in range(1, len(distinct) + 1)]
    while True:
        yield from rng.choices(distinct, weights, k=1024)


def _cycle_stream(rng: random.Random,
                  universe: Rect) -> Iterator[Request]:
    """100 distinct queries cycled: 90 windows, 10 overlays, 25 batch.

    Like the fresh stream, every ten requests hold one overlay, so
    blocks of ten (or twenty) requests carry the same mix.
    """
    classes = ["batch"] * 25 + ["interactive"] * 75
    rng.shuffle(classes)
    windows = stratified_windows(rng, universe, 90)
    queries: List[Window] = []
    for b in range(10):
        block: List[Window] = list(windows[9 * b:9 * b + 9])
        block.insert(rng.randrange(10), None)
        queries += block
    cycle = [make_request(w, c) for w, c in zip(queries, classes)]
    while True:
        yield from cycle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    deployment: Dict[str, object]
    connections: int
    warmup: int
    #: Replies per block; a run reports medians over its blocks, so a
    #: block should last a few tenths of a second and hold a fair mix.
    block: int
    stream: Callable[[random.Random, Rect], Iterator[Request]]

    @property
    def data(self) -> str:
        return str(self.deployment["data"])


_SINGLE = {"data": "disk1", "shards": 0, "replicas": 1,
           "workers": WORKERS, "memory": "roomy"}

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "cold_scan",
        "caches off, one connection: every query pays plan, scan, "
        "distribute, ship, sweep and gather; caches, shards and "
        "admission do nothing",
        {**_SINGLE, "cache_capacity": 0, "artifact_cache_bytes": 0},
        connections=1, warmup=20, block=10, stream=_fresh_stream,
    ),
    Workload(
        "warm_repeat",
        "48 distinct queries fit the 64-entry result cache: about 100 % "
        "hits, so only HTTP, admission and the cache are timed and "
        "executor or kernel work must not move it",
        {**_SINGLE, "cache_capacity": 64, "artifact_cache_bytes": None},
        connections=CONNECTIONS, warmup=200, block=1000, stream=_zipf_stream,
    ),
    Workload(
        "sharded_skew",
        "skewed grid on 2 shards x 2 replicas sharing one pool, all "
        "connections busy: cached tiles, batches, shm, replica choice, "
        "engine locks and the GIL-bound gather",
        {"data": "skewed", "shards": 2, "replicas": 2,
         "workers": WORKERS, "memory": "roomy",
         "cache_capacity": 0, "artifact_cache_bytes": None},
        connections=CONNECTIONS, warmup=30, block=20,
        stream=_cycle_stream,
    ),
    Workload(
        "tight_spill",
        "cold_scan's engine with a quarter of the data as budget: "
        "partitions spill to disk-backed streams, the paper's "
        "external-memory regime",
        {**_SINGLE, "memory": "tight",
         "cache_capacity": 0, "artifact_cache_bytes": None},
        connections=1, warmup=10, block=10, stream=_fresh_stream,
    ),
)}
