"""Unit tests for the benchmark harness itself (no server process, < 3 s)."""

from __future__ import annotations

import asyncio
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import loadgen  # noqa: E402
import metric_defs  # noqa: E402
import oracle  # noqa: E402
import procs  # noqa: E402
import run as harness  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.core.brute import brute_force_pairs  # noqa: E402
from repro.engine import render_prometheus, serve_http  # noqa: E402
from repro.engine import validate_prometheus  # noqa: E402
from repro.geom.rect import Rect, intersection  # noqa: E402


# -- percentile rule -----------------------------------------------------------


def test_p95_is_refused_under_200_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(range(199), 0.95)
    assert stats.percentile(range(200), 0.95) == 189
    assert stats.min_samples(0.95) == 200
    assert stats.min_samples(0.5) == 20


def test_percentile_is_nearest_rank_and_lenient_for_layers():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(values, 0.5, strict=False) == 3.0
    assert stats.percentile(values, 0.95, strict=False) == 5.0
    assert stats.percentile([], 0.5, strict=False) == 0.0
    assert stats.median([1.0, 2.0, 3.0, 10.0]) == 2.5
    assert stats.spread([9.0, 10.0, 12.0]) == pytest.approx(0.3)


# -- the yardstick -------------------------------------------------------------


def test_speed_factor_is_the_mean_of_the_two_ends_medians():
    ref = calibration.REFERENCE_SECONDS
    quiet, slow = [ref, 1.3 * ref, 0.99 * ref], [1.4 * ref] * 3
    # One stray reading at an end does not move that end's median...
    assert calibration.speed_factor(quiet, quiet) == pytest.approx(1.0)
    # ...and a slowdown seen at one end counts for half the stretch.
    assert calibration.speed_factor(quiet, slow) == pytest.approx(1.2)
    assert calibration.speed_factor(slow, slow) == pytest.approx(1.4)
    assert len(asyncio.run(calibration.readings())) == 3


def test_end_to_end_divides_each_block_by_its_own_factor():
    def block(factor):
        # Ten replies a block; on a host running `factor` times slower
        # the same work takes `factor` times the wall, CPU and latency.
        return harness.Block(
            wall=0.5 * factor, cpu=0.2 * factor, replies=10,
            latencies_ms=[ms * factor for ms in [10.0] * 9 + [100.0]],
            factor=factor)

    served = harness.Served(
        server=None, setup=harness.Setup(3.0, 1.5), timed=None, good=[],
        blocks=[block(1.0)] * 8 + [block(1.5)] * 12, rss=150.0, layers={})
    setups = [harness.Setup(2.0, 1.0), harness.Setup(2.1, 1.0),
              served.setup]
    quiet = harness.end_to_end(setups, served, normalise=True)
    assert quiet == pytest.approx({
        "setup_s": 2.0, "throughput_qps": 20.0, "latency_p50_ms": 10.0,
        "latency_p95_ms": 100.0, "cpu_ms_per_query": 20.0,
        "peak_rss_mb": 150.0})
    raw = harness.end_to_end(setups, served, normalise=False)
    assert raw["throughput_qps"] == pytest.approx(20.0 / 1.5)
    assert raw["latency_p50_ms"] == pytest.approx(15.0)
    assert raw["setup_s"] == pytest.approx(2.1)


def test_driver_line_carries_exactly_the_listed_metrics():
    run = harness.Run(attempted=300, failed=0)
    run.end_to_end = {name: 1.5 for name, *_ in metric_defs.END_TO_END}
    run.layers = {name: 0.5 for name, *_ in metric_defs.PER_LAYER}
    for traced, listed in ((False, metric_defs.END_TO_END),
                           (True, metric_defs.PER_LAYER)):
        line = json.loads(harness.driver_line(run, traced))
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["attempted"] == 300
        assert list(line["metrics"]) == [name for name, *_ in listed]
        assert all(sorted(m) == ["unit", "value"]
                   for m in line["metrics"].values())


def test_invariants_name_what_a_workload_failed_to_show():
    good = {"cache.result_hit_rate": 1.0, "loadgen.cpu_share": 0.3}
    assert harness.invariant_failures("warm_repeat", good) == []
    broken = harness.invariant_failures(
        "cold_scan", {"cache.result_hit_rate": 0.2,
                      "storage.spilled_rects_per_query": 5.0,
                      "loadgen.cpu_share": 0.7})
    assert len(broken) == 5  # hit rate, loadgen, spill, index plans, shm
    assert all(line.startswith("cold_scan: ") for line in broken)


# -- spans ---------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = spans.Span(1, None, 1, "executor.execute", 0.0, 10.0)
    kids = [
        spans.Span(2, 1, 1, "pool.roundtrip", 1.0, 4.0),
        spans.Span(3, 1, 1, "pool.roundtrip", 3.0, 6.0),   # overlaps 2
        spans.Span(4, 1, 1, "pool.roundtrip", 8.0, 12.0),  # runs past
    ]
    # Covered: [1, 6] and [8, 10] -> 7 of 10 seconds.
    assert spans.self_seconds(parent, kids) == pytest.approx(3.0)
    assert spans.self_seconds(parent, []) == pytest.approx(10.0)
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_recorder_links_spans_across_threads_by_handed_over_object(tmp_path):
    rec = spans.Recorder(str(tmp_path), "t")
    token = object()

    def keys(args, kwargs):
        return [id(kwargs["cancel"])]

    def inner(cancel=None):
        return "done"

    def replica(cancel=None):
        return wrapped_inner(cancel=cancel)

    def shard(cancel=None):
        threads = [threading.Thread(target=wrapped_replica,
                                    kwargs={"cancel": cancel})
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5)

    wrapped_inner = rec.wrap("inner", inner, keys)
    wrapped_replica = rec.wrap("replica", replica, keys)
    rec.wrap("shard", shard, keys)(cancel=token)

    by_name = {}
    for row in rec.spans:
        by_name.setdefault(row[3], []).append(spans.Span(*row))
    (root,) = by_name["shard"]
    assert root.parent is None and root.rid == root.sid
    replicas = by_name["replica"]
    assert len(replicas) == 2
    # Both replicas hang under the shard span, not under each other...
    assert {s.parent for s in replicas} == {root.sid}
    # ...and same-thread nesting goes through the stack.
    assert {s.parent for s in by_name["inner"]} == {s.sid for s in replicas}
    assert {s.rid for s in by_name["inner"]} == {root.sid}
    assert not rec._handoff  # every key handed back


def test_trace_metrics_layers_from_a_hand_built_request(tmp_path):
    ms = 1e-3
    rows = [
        spans.Span(1, None, 1, "serve.submit", 0, 20 * ms),
        spans.Span(2, 1, 1, "engine.execute", 1 * ms, 19 * ms,
                   {"distribute": 4 * ms, "sweep": 6 * ms}),
        spans.Span(3, 2, 1, "cache.result_get", 1 * ms, 2 * ms),
        spans.Span(4, 2, 1, "optimizer.compile", 2 * ms, 4 * ms),
        spans.Span(5, 2, 1, "executor.execute", 4 * ms, 18 * ms),
        spans.Span(6, 5, 1, "pool.roundtrip", 5 * ms, 15 * ms),
        spans.Span(7, 6, 1, "kernels.task", 7 * ms, 13 * ms,
                   {"rects": 600}),
        spans.Span(8, None, 8, "serve.submit", 100.0, 101.0),  # outside
    ]
    m = spans.trace_metrics(rows, 0.0, 1.0, workers=2)
    assert m["serve.submit_self_ms_p50"] == pytest.approx(2.0)
    assert m["engine.self_ms_p50"] == pytest.approx(1.0)
    assert m["executor.coordinator_ms_p50"] == pytest.approx(4.0)
    assert m["pool.queue_wait_ms_p50"] == pytest.approx(4.0)
    assert m["kernels.task_ms_p50"] == pytest.approx(6.0)
    assert m["kernels.rects_per_busy_s"] == pytest.approx(100_000)
    assert m["pool.worker_busy_share"] == pytest.approx(0.003)
    assert m["executor.phase.distribute_ms_p50"] == pytest.approx(4.0)
    assert m["shard.execute_ms_p50"] == 0.0  # layer never reached


# -- /metrics ------------------------------------------------------------------


def test_scrape_delta_parses_what_validate_prometheus_accepts():
    before = render_prometheus({
        "queries_served": 3, "latency_avg_seconds": 0.25,
        "per_strategy": {"pbsm-grid": 2, "pq-index": 1},
        "serve": {"submitted": 3, "shed": 0},
    })
    after = render_prometheus({
        "queries_served": 10, "latency_avg_seconds": 0.5,
        "per_strategy": {"pbsm-grid": 6, "pq-index": 3, "sssj": 1},
        "serve": {"submitted": 11, "shed": 1},
    })
    assert validate_prometheus(before) == []
    assert validate_prometheus(after) == []
    delta = loadgen.scrape_delta(loadgen.parse_prometheus(before),
                                 loadgen.parse_prometheus(after))
    assert delta["repro_engine_queries_served"] == 7
    assert delta["repro_engine_serve_submitted"] == 8
    assert delta["repro_engine_serve_shed"] == 1
    assert delta['repro_engine_per_strategy{strategy="pbsm-grid"}'] == 4
    # A label that first appears in the second scrape counts from zero.
    assert delta['repro_engine_per_strategy{strategy="sssj"}'] == 1
    with pytest.raises(ValueError):
        loadgen.parse_prometheus("not a sample line at all {")


# -- the keep-alive client -----------------------------------------------------


def test_client_survives_the_hundredth_request_connection_close():
    async def drive():
        server = await serve_http(None, port=0)  # /healthz needs no engine
        port = server.sockets[0].getsockname()[1]
        conn = loadgen.Connection(port)
        try:
            statuses = [(await conn.request("GET", "/healthz"))[0]
                        for _ in range(250)]
        finally:
            await conn.close()
            server.close()
            await server.wait_closed()
        return statuses, conn.opened

    statuses, opened = asyncio.run(asyncio.wait_for(drive(), 10))
    assert statuses == [200] * 250
    assert opened == 3  # 100 + 100 + 50


# -- the oracle ----------------------------------------------------------------


def _uniform(rng, n, base):
    out = []
    for i in range(n):
        x, y = rng.random(), rng.random()
        out.append(Rect(x, min(1.0, x + rng.random() * 0.08),
                        y, min(1.0, y + rng.random() * 0.08), base + i))
    return out


def _clustered(rng, n, base):
    out = []
    for i in range(n):
        x = min(0.95, abs(rng.gauss(0.3, 0.05)))
        y = min(0.95, abs(rng.gauss(0.6, 0.05)))
        out.append(Rect(x, x + rng.random() * 0.03,
                        y, y + rng.random() * 0.03, base + i))
    return out


def _degenerate(rng, n, base):
    out = []
    for i in range(n):
        x, y = round(rng.random(), 1), round(rng.random(), 1)
        if i % 3 == 0:
            out.append(Rect(x, x, y, y, base + i))  # a point
        elif i % 3 == 1:
            out.append(Rect(0.0, 1.0, y, y, base + i))  # a full-width line
        else:
            out.append(Rect(x, x + 0.1, y, y + 0.1, base + i))  # touching
    return out


@pytest.mark.parametrize("make", [_uniform, _clustered, _degenerate])
@pytest.mark.parametrize("window", [
    None, (0.2, 0.5, 0.3, 0.7), (0.3, 0.3, 0.0, 1.0), (2.0, 3.0, 2.0, 3.0),
])
def test_oracle_agrees_with_brute_force(make, window, monkeypatch):
    # Small chunks, so the chunked path runs on small inputs too.
    monkeypatch.setattr(oracle, "CHUNK_CELLS", 1000)
    rng = random.Random(11)
    a, b = make(rng, 150, 0), make(rng, 90, 10_000)
    pairs = brute_force_pairs(a, b)
    if window is not None:
        win = Rect(*window, 0)
        by_a = {r.rid: r for r in a}
        by_b = {r.rid: r for r in b}
        pairs = {
            (x, y) for x, y in pairs
            if intersection(by_a[x], by_b[y]).intersects(win)
        }
    got = oracle.Oracle(a, b)
    assert got.expected(window) == len(pairs)
    assert got.expected(window) == len(pairs)  # the cached answer too


# -- workloads and the manifest ------------------------------------------------


def test_streams_repeat_for_a_seed_and_stay_inside_the_universe():
    universe = Rect(-83.0, -66.0, 33.0, 48.0, 0)
    for wl in workloads.WORKLOADS.values():
        first = wl.stream(random.Random(4), universe)
        again = wl.stream(random.Random(4), universe)
        other = wl.stream(random.Random(5), universe)
        bodies = [next(first).body for _ in range(300)]
        assert bodies == [next(again).body for _ in range(300)]
        assert bodies != [next(other).body for _ in range(300)]
        for body in bodies:
            w = json.loads(body).get("window")
            if w is not None:
                assert universe.xlo <= w[0] < w[1] <= universe.xhi
                assert universe.ylo <= w[2] < w[3] <= universe.yhi
        # One overlay in every block of ten, on the blocked streams.
        if wl.name != "warm_repeat":
            for i in range(0, 300, 10):
                overlays = [b for b in bodies[i:i + 10] if b"window" not in b]
                assert len(overlays) == 1


def test_benchmark_json_lists_what_the_code_prints():
    path = os.path.join(HERE, "..", "..", "BENCHMARK.json")
    with open(path) as fh:
        manifest = json.load(fh)
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in manifest["end_to_end"]] == metric_defs.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == metric_defs.PER_LAYER
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])


# -- nothing left running --------------------------------------------------------


def orphaning_leader(seconds: float) -> int:
    """A session leader that has ended and left a ``sleep`` behind."""
    proc = subprocess.Popen(["sh", "-c", f"sleep {seconds} & exit 0"],
                            start_new_session=True)
    proc.wait()
    assert procs.group_members(proc.pid)
    return proc.pid


def test_reap_group_waits_for_what_the_leader_left_behind():
    pgid = orphaning_leader(0.3)
    procs.reap_group(pgid)
    assert procs.group_members(pgid) == []


def test_reap_group_kills_what_outstays_the_grace():
    pgid = orphaning_leader(30)
    t0 = time.monotonic()
    procs.reap_group(pgid, grace=0.1)
    assert procs.group_members(pgid) == []
    assert time.monotonic() - t0 < 5
