"""One command for the end-to-end benchmark.

Two ways in:

* the driver's — ``run.py --workload W --seed N --seconds S --trace 0|1``
  makes one run of one workload and prints, as the last line, one JSON
  object ``{"correct", "attempted", "failed", "metrics"}`` holding the
  end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``);
* a person's — ``run.py [--seed N] [--workloads a,b] [--repeats R]
  [--traced] [--selfcheck]`` runs a *set*: every workload ``R`` times
  interleaved, the median of the repeats printed with
  ``(max-min)/median`` beside it, every metric by name with its unit.

Every run starts the deployment as a server subprocess, drives it over
loopback HTTP from this one process, and checks each ``200`` body's
``pairs`` against the oracle.  See README.md for what the numbers mean.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import json
import os
import platform
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

import numpy  # noqa: E402

import spans as span_lib  # noqa: E402
from calibration import readings, speed_factor  # noqa: E402
from loadgen import Pass, Sample, scrape, scrape_delta  # noqa: E402
from metric_defs import END_TO_END, PER_LAYER  # noqa: E402
from oracle import Oracle  # noqa: E402
from procs import adopt_orphans, reap_group  # noqa: E402
from stats import median, percentile, spread  # noqa: E402
from workloads import WORKERS, WORKLOADS, Workload, dataset  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 3
DEFAULT_SECONDS = 12.0
#: Fewest timed requests in a run: the 95th percentile needs ten
#: samples beyond it.  ``sim.*`` counts and the peak RSS are read at
#: the first block boundary past this many replies, so they do not
#: depend on how long the pass went on.
MIN_REQUESTS = 200
READY_TIMEOUT = 60.0
#: A pass may take this many times its expected wall before the
#: watchdog calls it hung.
WATCHDOG_FACTOR = 4.0
PROBES_TIMEOUT = 120.0


def run_probes(workers: int) -> Dict[str, float]:
    """The layer probes (probes.py), in a process group of their own.

    They start a worker pool, and with it a resource tracker that would
    outlive this process if it were this process's.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probes.py"), str(workers)],
        stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=PROBES_TIMEOUT)
    except BaseException:
        proc.kill()
        proc.wait()
        reap_group(proc.pid, grace=0.0)
        raise
    reap_group(proc.pid)
    if proc.returncode:
        raise RuntimeError(f"probes.py exited with {proc.returncode}")
    return json.loads(out)


# -- the server process --------------------------------------------------------


class Server:
    """One ``server.py`` subprocess and the ``/proc`` view of its tree."""

    def __init__(self, deployment: dict, tag: str,
                 traced: bool = False) -> None:
        os.makedirs(OUT_DIR, exist_ok=True)
        self.tag = tag
        self._tree: Optional[List[int]] = None
        self.stderr_path = os.path.join(OUT_DIR, f"server-{tag}.stderr")
        argv = [sys.executable, os.path.join(HERE, "server.py"),
                json.dumps(deployment)]
        if traced:
            argv += ["--spans", OUT_DIR, tag]
        self._stderr = open(self.stderr_path, "w")
        self.t_spawn = time.monotonic()
        # Its own session: one killpg reaches the pool workers too.
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=self._stderr,
            start_new_session=True)
        self.pid = self.proc.pid
        try:
            self.ready = self._read_ready()
        except BaseException:
            self.kill()
            raise
        self.port = int(self.ready["port"])

    def _read_ready(self) -> dict:
        fd = self.proc.stdout.fileno()
        if not select.select([fd], [], [], READY_TIMEOUT)[0]:
            raise RuntimeError(
                f"server not ready in {READY_TIMEOUT:g}s; stacks in "
                f"{self.stderr_path}")
        line = self.proc.stdout.readline()
        if not line:
            self._stderr.flush()
            with open(self.stderr_path) as fh:
                raise RuntimeError("server died during set-up:\n"
                                   + fh.read()[-2000:])
        return json.loads(line)

    def phases(self) -> Dict[str, float]:
        """Seconds each set-up phase took, spawn to listening."""
        r = self.ready
        return {
            "setup.spawn_import_s": r["t_imported"] - self.t_spawn,
            "setup.data_s": r["t_data"] - r["t_imported"],
            "setup.register_s": r["t_registered"] - r["t_data"],
            "setup.prepare_s": r["t_prepared"] - r["t_registered"],
        }

    def tree(self) -> List[int]:
        """The server's pid and every descendant's."""
        pids, frontier = [], [self.pid]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            for path in glob.glob(f"/proc/{pid}/task/*/children"):
                try:
                    with open(path) as fh:
                        frontier.extend(int(p) for p in fh.read().split())
                except OSError:
                    pass
        return pids

    def cpu_seconds(self) -> float:
        """User + system CPU of the process tree so far, to the nanosecond.

        Reads each process's CPU-time clock (the clock id Linux derives
        from a pid); ``/proc/<pid>/stat`` counts in 10 ms ticks, too
        coarse for a block of ten queries.  The tree is walked once:
        the pool is prestarted, so it does not change after set-up.
        """
        if self._tree is None:
            self._tree = self.tree()
        total = 0.0
        for pid in self._tree:
            try:
                total += time.clock_gettime((~pid << 3) | 2)
            except OSError:
                pass  # exited
        return total

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the process tree."""
        kib = 0
        for pid in self.tree():
            try:
                with open(f"/proc/{pid}/status") as fh:
                    for line in fh:
                        if line.startswith("VmHWM:"):
                            kib += int(line.split()[1])
            except OSError:
                pass
        return kib / 1024.0

    def stop(self) -> None:
        """SIGTERM, so the server closes its pool and writes its spans."""
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.kill()
        else:
            self._finish()

    def kill(self) -> str:
        """Dump all stacks (SIGUSR1), kill the tree; returns the stacks."""
        if self.proc.poll() is None:
            os.kill(self.pid, signal.SIGUSR1)
            time.sleep(0.5)
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self._finish()
        try:
            with open(self.stderr_path) as fh:
                return fh.read()
        except FileNotFoundError:
            return ""  # killed before it wrote anything

    def _finish(self) -> None:
        """The server has ended: wait for the rest of its tree, tidy up."""
        reap_group(self.pid)
        self.proc.stdout.close()
        self._stderr.close()
        if os.path.getsize(self.stderr_path) == 0:
            os.unlink(self.stderr_path)
        # A killed server cannot unlink its shared-memory segments.
        for path in glob.glob(f"/dev/shm/repro-{self.pid}-*"):
            try:
                os.unlink(path)
            except OSError:
                pass


# -- one run -------------------------------------------------------------------


@dataclass
class Run:
    """What one run of one workload measured."""

    attempted: int = 0
    failed: int = 0
    hung: bool = False
    stacks: str = ""
    end_to_end: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)  # un-normalised
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.hung


def environment() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "-C", HERE, "rev-parse", "HEAD"], text=True,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "workers": WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit,
    }


class Harness:
    """Runs workloads; keeps what is the same for every run of a set."""

    def __init__(self) -> None:
        self._oracles: Dict[str, Tuple[Oracle, object]] = {}
        self._probes: Optional[Dict[str, float]] = None
        self._servers = 0

    def _data(self, wl: Workload):
        """The workload's oracle and universe, built once per dataset."""
        if wl.data not in self._oracles:
            roads, hydro, universe = dataset(wl.data)
            self._oracles[wl.data] = (Oracle(roads, hydro), universe)
        return self._oracles[wl.data]

    def _start(self, wl: Workload, seed: int, traced: bool = False):
        self._servers += 1
        tag = f"{wl.name}-{seed}-{os.getpid()}-{self._servers}"
        return Server(wl.deployment, tag, traced)

    # -- one server, one timed pass ------------------------------------------

    async def _set_up(self, wl: Workload, seed: int, traced: bool = False):
        """Spawn a server and warm it up: ``(server, stream, Setup)``.

        The stream is returned because the timed pass carries on where
        the warm-up stopped.
        """
        _, universe = self._data(wl)
        stream = wl.stream(random.Random(seed), universe)
        before = await readings()
        server = self._start(wl, seed, traced)
        try:
            warm = Pass()
            await asyncio.wait_for(
                warm.run(server.port, stream, wl.connections,
                         lambda n, _t: n < wl.warmup),
                READY_TIMEOUT)
            if any(s.status != 200 for s in warm.samples):
                raise RuntimeError("a warm-up request failed")
        except BaseException:
            server.kill()
            raise
        seconds = time.monotonic() - server.t_spawn
        return server, stream, Setup(
            seconds, speed_factor(before, await readings()))

    async def _serve_pass(self, wl: Workload, seed: int, run: Run, more,
                          expected: float,
                          traced: bool = False) -> Optional["Served"]:
        """Start a server, warm it up, time one pass, check every reply.

        The pass runs under the watchdog.  ``/metrics`` is scraped at
        both ends and at the first block boundary past ``MIN_REQUESTS``
        replies, where the tree's peak RSS is read too: a count of
        requests every run reaches, so neither depends on how fast the
        host happened to be.  Returns None — with ``run.hung`` set and
        the server's stacks in ``run.stacks`` — when the watchdog fired.
        """
        oracle, _ = self._data(wl)
        server, stream, setup = await self._set_up(wl, seed, traced)
        timed = Pass()
        early: Dict[str, float] = {}
        rss: List[float] = []
        marks: List[Mark] = []

        async def mark(replies: int) -> None:
            t_in, cpu_in = time.perf_counter(), server.cpu_seconds()
            if not early and replies >= MIN_REQUESTS:
                early.update(await scrape(server.port))
                rss.append(server.peak_rss_mb())
            yard = await readings()
            marks.append(Mark(replies, t_in, cpu_in, time.perf_counter(),
                              server.cpu_seconds(), yard))

        try:
            before = await scrape(server.port)
            await mark(0)
            try:
                await asyncio.wait_for(
                    timed.run(server.port, stream, wl.connections, more,
                              every=(wl.block, mark)),
                    WATCHDOG_FACTOR * expected)
            except asyncio.TimeoutError:
                run.hung = True
                run.stacks = server.kill()
            else:
                after = await scrape(server.port)
        finally:
            if not run.hung:
                server.stop()
        good = [s for s in timed.samples
                if s.status == 200 and s.reply.get("pairs")
                == oracle.expected(s.request.window)]
        run.attempted += len(timed.samples) + timed.outstanding
        run.failed += len(timed.samples) - len(good) + timed.outstanding
        if run.hung:
            return None
        layers = counted_metrics(
            scrape_delta(before, after), scrape_delta(before, early),
            after, good, timed)
        layers.update(server.phases())
        layers["setup.warmup_s"] = setup.seconds - (
            server.ready["t_listening"] - server.t_spawn)
        ok = {id(s) for s in good}
        blocks = []
        for start, end in zip(marks, marks[1:]):
            members = [s for s in timed.samples[start.replies:end.replies]
                       if id(s) in ok]
            blocks.append(Block(
                wall=end.t_in - start.t_out,
                cpu=end.cpu_in - start.cpu_out,
                replies=len(members),
                # A reply that came in while the generator was busy at
                # the boundary (other connections carry on meanwhile)
                # waited for the generator, not for the server.
                latencies_ms=[s.latency * 1e3 for s in members
                              if s.t_received > start.t_out],
                factor=speed_factor(start.yard, end.yard)))
        return Served(server, setup, timed, good, blocks, rss[0], layers)

    # -- the two kinds of run --------------------------------------------------

    def run(self, wl: Workload, seed: int, seconds: float) -> Run:
        """Set up ``SETUPS`` times, time one pass on the last server.

        (Sharing the seconds between the servers and pooling their
        blocks was tried: a four-second-old server is measurably slower
        than a twelve-second-old one, and the spread did not shrink.)
        """
        return asyncio.run(self._run(wl, seed, seconds))

    async def _run(self, wl: Workload, seed: int, seconds: float) -> Run:
        run = Run()
        setups = []
        for _ in range(SETUPS - 1):
            server, _, setup = await self._set_up(wl, seed)
            server.stop()
            setups.append(setup)
        served = await self._serve_pass(
            wl, seed, run, lambda n, t: t < seconds or n < MIN_REQUESTS,
            expected=seconds)
        if served is None:
            return run
        setups.append(served.setup)
        run.end_to_end = end_to_end(setups, served, normalise=True)
        run.raw = end_to_end(setups, served, normalise=False)
        run.layers = served.layers
        return run

    def run_traced(self, wl: Workload, seed: int, seconds: float) -> Run:
        """An untraced pass, the same requests traced, then the probes.

        The untraced pass supplies the exact counts and the wall the
        tracing overhead is measured against.  Neither pass's timings
        are end-to-end numbers (one set-up, tracing on) and none is
        reported as one.
        """
        return asyncio.run(self._run_traced(wl, seed, seconds))

    async def _run_traced(self, wl: Workload, seed: int,
                          seconds: float) -> Run:
        run = Run()
        plain = await self._serve_pass(
            wl, seed, run, lambda n, t: t < seconds or n < MIN_REQUESTS,
            expected=seconds)
        if plain is None:
            return run
        n = len(plain.timed.samples)
        traced = await self._serve_pass(
            wl, seed, run, lambda issued, _t: issued < n,
            expected=2 * plain.timed.wall, traced=True)
        if traced is None:
            return run
        run.layers = plain.layers
        run.layers.update(span_lib.trace_metrics(
            span_lib.load(OUT_DIR, traced.server.tag),
            traced.timed.t0, traced.timed.t1, WORKERS))
        # Each pass's wall in reference-box seconds, so that a host that
        # changed speed between the two does not pass for overhead.
        walls = [sum(b.wall / b.factor for b in s.blocks)
                 for s in (plain, traced)]
        run.layers["trace.overhead_share"] = (walls[1] - walls[0]) / walls[0]
        run.layers["trace.accounted_share"] = (
            blocking_chain_ms(run.layers, traced.good)
            / percentile([s.latency * 1e3 for s in traced.good], 0.5))
        if self._probes is None:
            self._probes = run_probes(WORKERS)
        run.layers.update(self._probes)
        return run


@dataclass
class Setup:
    seconds: float  # spawn to warm-up finished
    factor: float  # host speed meanwhile, see calibration.py


@dataclass
class Mark:
    """A block boundary of a timed pass.

    The clock and the server's CPU on the way in, and again on the way
    out: a scrape and the yardstick readings happen in between and
    belong to neither block.
    """

    replies: int
    t_in: float
    cpu_in: float
    t_out: float
    cpu_out: float
    yard: List[float]


@dataclass
class Block:
    """``Workload.block`` consecutive replies of a timed pass."""

    wall: float  # seconds
    cpu: float  # server process tree, user + system seconds
    replies: int  # correct ones
    latencies_ms: List[float]  # of those the generator read at once
    factor: float  # host speed meanwhile, see calibration.py


@dataclass
class Served:
    """One server's timed pass, checked and counted."""

    server: Server
    setup: Setup
    timed: Pass
    good: List[Sample]
    blocks: List[Block]
    rss: float
    layers: Dict[str, float]


def end_to_end(setups: List[Setup], served: Served,
               normalise: bool) -> Dict[str, float]:
    """The end-to-end metrics of one run.

    With ``normalise`` every timing is divided by the host's speed
    factor at the time (see calibration.py); without, it is as the
    clock read it.  Throughput and CPU are medians over the blocks;
    the latency percentiles are over all correct replies, each scaled
    by its own block's factor.
    """

    def f(x) -> float:
        return x.factor if normalise else 1.0

    blocks = [b for b in served.blocks if b.replies]
    latencies = [ms / f(b) for b in blocks for ms in b.latencies_ms]
    return {
        "setup_s": median([s.seconds / f(s) for s in setups]),
        "throughput_qps": median(
            [b.replies / b.wall * f(b) for b in blocks]),
        "latency_p50_ms": percentile(latencies, 0.50),
        "latency_p95_ms": percentile(latencies, 0.95),
        "cpu_ms_per_query": median(
            [b.cpu * 1e3 / b.replies / f(b) for b in blocks]),
        "peak_rss_mb": served.rss,
    }


def counted_metrics(delta: Dict[str, float], early: Dict[str, float],
                    after: Dict[str, float], good: List[Sample],
                    timed: Pass) -> Dict[str, float]:
    """Layer metrics from scrape deltas (S), reply bodies (R), harness (H)."""
    p = "repro_engine_"

    def d(name: str) -> float:
        return delta.get(p + name, 0.0)

    def labelled(source: Dict[str, float], name: str) -> Dict[str, float]:
        prefix = p + name + "{"
        return {k: v for k, v in source.items() if k.startswith(prefix)}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    queries = d("serve_submitted")
    strategies = labelled(delta, "per_strategy")
    overhead = [s.latency * 1e3 - s.reply["wall_ms"] for s in good]
    early_queries = early.get(p + "serve_submitted", 0.0)
    return {
        "serve.http_overhead_ms_p50":
            percentile(overhead, 0.5, strict=False),
        "serve.queue_wait_ms_p95":
            percentile([s.reply["queue_ms"] for s in good], 0.95,
                       strict=False),
        "serve.in_flight_high_water":
            after.get(p + "serve_in_flight_high_water", 0.0),
        "serve.not_ok_share": ratio(
            d("serve_shed") + d("serve_expired") + d("serve_rejected")
            + d("serve_errors"), queries),
        "cache.result_hit_rate": ratio(
            d("result_cache_hits"),
            d("result_cache_hits") + d("result_cache_misses")),
        "cache.artifact_hit_rate": ratio(
            d("artifact_cache_hits"),
            d("artifact_cache_hits") + d("artifact_cache_misses")),
        "cache.artifact_bytes": after.get(p + "artifact_cache_bytes", 0.0),
        "cache.artifact_evictions": d("artifact_cache_evictions"),
        "optimizer.index_plan_share": ratio(
            sum(v for k, v in strategies.items() if "pbsm-grid" not in k),
            sum(strategies.values())),
        "pool.tasks_per_query": ratio(
            d("worker_pool_tasks_dispatched"), queries),
        "pool.tiles_per_task": ratio(
            d("worker_pool_tiles_dispatched"),
            d("worker_pool_tasks_dispatched")),
        "pool.inline_tile_share": ratio(
            d("worker_pool_tiles_inline"),
            d("worker_pool_tiles_inline")
            + d("worker_pool_tiles_dispatched")),
        "pool.shm_bytes_per_query": ratio(
            d("worker_pool_shm_bytes_packed"), queries),
        "pool.shm_refs_reused_per_query": ratio(
            d("worker_pool_shm_tile_refs_reused"), queries),
        "pool.fallbacks": d("worker_pool_fallbacks"),
        "pool.demotions": d("worker_pool_demotions"),
        "pool.tasks_cancelled": d("worker_pool_pool_tasks_cancelled"),
        "shard.subqueries_per_query": ratio(
            sum(labelled(delta, "per_shard_queries_served").values()),
            queries),
        "shard.pruned_per_query": ratio(d("shards_pruned_total"), queries),
        "shard.duplicate_share": ratio(
            d("duplicates_eliminated"),
            d("duplicates_eliminated") + d("pairs_returned")),
        "shard.failovers": d("failovers"),
        "shard.retries": d("retries"),
        "shard.weighted_reroutes": d("weighted_reroutes"),
        "storage.pages_read_per_query": ratio(d("pages_read"), queries),
        "storage.bytes_written_per_query":
            ratio(d("bytes_written"), queries),
        "storage.spilled_rects_per_query":
            ratio(d("spilled_rects"), queries),
        "resources.budget_high_water_mb":
            after.get(p + "budget_high_water_bytes", 0.0) / 1e6,
        "resources.budget_overcommits": d("budget_overcommits"),
        "sim.wall_ms_per_query": ratio(
            early.get(p + "sim_wall_seconds", 0.0) * 1e3, early_queries),
        "sim.cpu_ops_per_query": ratio(
            early.get(p + "cpu_ops", 0.0), early_queries),
        "loadgen.cpu_share": timed.cpu / timed.wall,
    }


def blocking_chain_ms(layers: Dict[str, float],
                      good: List[Sample]) -> float:
    """Sum of the layer medians along the steps that block a reply.

    HTTP overhead is taken from the traced pass's own bodies, the rest
    from its spans.  Medians of different layers need not come from the
    same request, so the sum only approximates the median latency; a
    share far from 1 means a boundary is missing or a layer's typical
    case is not the request's.
    """
    overhead = percentile(
        [s.latency * 1e3 - s.reply["wall_ms"] for s in good],
        0.5, strict=False)
    return overhead + sum(
        layers[name] for name in (
            "serve.submit_self_ms_p50", "shard.self_ms_p50",
            "engine.self_ms_p50", "optimizer.compile_ms_p50",
            "executor.execute_ms_p50")
    ) + 1e-3 * (layers["cache.result_get_us_p50"]
                + layers["cache.result_put_us_p50"])


# -- invariants ------------------------------------------------------------------


def invariant_failures(workload: str,
                       layers: Dict[str, float]) -> List[str]:
    """What the workload was designed to show and does not."""

    def need(ok: bool, text: str) -> None:
        if not ok:
            broken.append(f"{workload}: {text}")

    broken: List[str] = []
    g = layers.get
    hit = g("cache.result_hit_rate", 0.0)
    if workload == "warm_repeat":
        need(hit >= 0.99, f"cache.result_hit_rate {hit:.3f} < 0.99")
    else:
        need(hit == 0.0, f"cache.result_hit_rate {hit:.3f} != 0")
        need(g("loadgen.cpu_share", 0.0) < 0.6,
             "loadgen.cpu_share >= 0.6: the generator is the bottleneck")
    spilled = g("storage.spilled_rects_per_query", 0.0)
    need((spilled > 0) == (workload == "tight_spill"),
         f"storage.spilled_rects_per_query = {spilled:g}")
    if workload == "sharded_skew":
        need(g("pool.tiles_per_task", 0.0) > 1, "pool.tiles_per_task <= 1")
        need(0 < g("pool.inline_tile_share", 0.0) < 1,
             "pool.inline_tile_share not strictly between 0 and 1")
        need(g("pool.shm_refs_reused_per_query", 0.0) > 0,
             "pool.shm_refs_reused_per_query = 0")
        need(g("cache.artifact_hit_rate", 0.0) >= 0.9,
             "cache.artifact_hit_rate < 0.9")
    if workload == "cold_scan":
        need(g("optimizer.index_plan_share", 0.0) > 0,
             "optimizer.index_plan_share = 0")
        need(g("pool.shm_bytes_per_query", 0.0) > 0,
             "pool.shm_bytes_per_query = 0")
    return broken


# -- a set of runs ---------------------------------------------------------------


def run_set(harness: Harness, names: List[str], seed: int, repeats: int,
            seconds: float, traced: bool) -> Dict[str, dict]:
    """Every workload ``repeats`` times, interleaved A B C D A B C D."""
    runs: Dict[str, List[Run]] = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            print(f"  running {name} ...", file=sys.stderr, flush=True)
            runs[name].append(harness.run(WORKLOADS[name], seed, seconds))
    out = {}
    for name, done in runs.items():
        done_ok = [r for r in done if not r.hung]
        layers = dict(done_ok[-1].layers) if done_ok else {}
        if traced:
            print(f"  tracing {name} ...", file=sys.stderr, flush=True)
            layers = harness.run_traced(
                WORKLOADS[name], seed, seconds).layers
        out[name] = {
            "attempted": sum(r.attempted for r in done),
            "failed": sum(r.failed for r in done),
            "hung": any(r.hung for r in done),
            "stacks": "".join(r.stacks for r in done),
            "end_to_end": {
                metric: {"median": median(values), "spread": spread(values),
                         "values": values,
                         "raw_median": median(
                             [r.raw[metric] for r in done_ok])}
                for metric, *_ in END_TO_END
                for values in [[r.end_to_end[metric] for r in done_ok]]
                if values
            },
            "layers": layers,
            "invariants": invariant_failures(name, layers),
        }
    return out


def print_set(result: Dict[str, dict]) -> None:
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    for name, res in result.items():
        print(f"\n== {name}: {res['attempted']} requests, "
              f"{res['failed']} failed"
              + (", HUNG" if res["hung"] else ""))
        if res["stacks"]:
            print(res["stacks"])
        for metric, row in res["end_to_end"].items():
            print(f"  {metric:<34} {row['median']:>14.4f} {units[metric]:<6}"
                  f" (max-min)/median {row['spread']:.3f}"
                  f"   as the clock read it {row['raw_median']:.4f}")
        for metric, *_ in PER_LAYER:
            if metric in res["layers"]:
                print(f"  {metric:<44} {res['layers'][metric]:>14.4f} "
                      f"{units[metric]}")
        for line in res["invariants"]:
            print(f"  WARNING {line}")


def selfcheck(first: Dict[str, dict], second: Dict[str, dict]) -> List[str]:
    """Two sets of one checkout must agree; returns what does not."""
    problems: List[str] = []
    print("\n== selfcheck: set 1 median, set 2 median, "
          "relative difference, bound")
    for name in first:
        for metric, _unit, _better, bound in END_TO_END:
            a = first[name]["end_to_end"].get(metric)
            b = second[name]["end_to_end"].get(metric)
            if a is None or b is None:  # every repeat of a set hung
                problems.append(f"{name}: no {metric} to compare")
                continue
            diff = abs(b["median"] - a["median"]) / a["median"]
            verdict = "ok" if diff <= bound else "EXCEEDS"
            print(f"  {name:<13} {metric:<18} {a['median']:>12.4f} "
                  f"(spread {a['spread']:.3f}) {b['median']:>12.4f} "
                  f"(spread {b['spread']:.3f}) {diff:>7.3f} "
                  f"{bound:>5.2f} {verdict}")
            if diff > bound:
                problems.append(f"{name}: {metric} differs by {diff:.3f}")
        if WORKLOADS[name].connections == 1:
            for metric in ("sim.wall_ms_per_query", "sim.cpu_ops_per_query"):
                a = first[name]["layers"][metric]
                b = second[name]["layers"][metric]
                print(f"  {name:<13} {metric:<24} {a!r} {b!r} "
                      f"{'identical' if a == b else 'DIFFERS'}")
                if a != b:
                    problems.append(f"{name}: {metric} {a!r} != {b!r}")
        for res in (first[name], second[name]):
            problems.extend(res["invariants"])
            if res["failed"] or res["hung"]:
                problems.append(f"{name}: {res['failed']} failed"
                                + (", hung" if res["hung"] else ""))
    return problems


# -- command line ----------------------------------------------------------------


def driver_line(run: Run, traced: bool) -> str:
    """The driver's last line: every metric of the asked-for kind."""
    if traced:
        metrics = {name: {"value": run.layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": run.end_to_end[name], "unit": unit}
                   for name, unit, *_ in END_TO_END}
    return json.dumps({"correct": run.correct, "attempted": run.attempted,
                       "failed": run.failed, "metrics": metrics})


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one run of one workload (the driver's form)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    adopt_orphans()
    # A terminated harness unwinds like an interrupted one: every
    # ``finally`` that stops a server runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    harness = Harness()

    if args.workload:
        wl = WORKLOADS[args.workload]
        run = (harness.run_traced(wl, args.seed, args.seconds)
               if args.trace else harness.run(wl, args.seed, args.seconds))
        if run.hung:
            print(f"{wl.name}: pass hung; server stacks:\n{run.stacks}",
                  file=sys.stderr)
            return 1
        for line in invariant_failures(wl.name, run.layers):
            print(f"WARNING {line}", file=sys.stderr)
        if run.raw:
            print("as the clock read them: " + json.dumps(run.raw),
                  file=sys.stderr)
        print(driver_line(run, bool(args.trace)))
        return 0

    names = [n for n in args.workloads.split(",") if n]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workloads: {unknown}")
    env = {**environment(), "seed": args.seed, "seconds": args.seconds,
           "repeats": args.repeats,
           "connections": {n: WORKLOADS[n].connections for n in names}}
    print(json.dumps(env))
    sets = []
    for i in range(2 if args.selfcheck else 1):
        print(f"set {i + 1}:", file=sys.stderr)
        sets.append(run_set(harness, names, args.seed, args.repeats,
                            args.seconds, args.traced))
        print_set(sets[-1])
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"environment": env, "sets": sets}, fh, indent=1)
    print(f"\nresult written to {path}")
    if args.selfcheck:
        problems = selfcheck(*sets)
        for line in problems:
            print(f"SELFCHECK FAILED {line}")
        return 1 if problems else 0
    return 1 if any(r["failed"] or r["hung"]
                    for r in sets[0].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
