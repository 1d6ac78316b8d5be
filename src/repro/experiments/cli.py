"""Command-line experiment runner.

Reproduce any cell of the paper's evaluation from a shell::

    python -m repro.experiments --dataset NY --algorithms SSSJ PQ ST
    python -m repro.experiments --dataset DISK1-6 --scale quick
    python -m repro.experiments --all --json

Prints the per-machine observed/estimated costs and the page-request
accounting for each run; ``--json`` emits one JSON object per
algorithm x machine row instead, so results diff mechanically
(``tests/golden/experiments_quick.jsonl`` pins ``--all --scale quick``
in tier-1).

Two subcommands build one deployment from the same arguments
(dataset, workers, shards, replicas, memory budget, faults, ...):
``serve-bench`` replays a seeded query mix against it serially, in
process, and prints the report; ``serve`` puts it behind the admission
front-end on an HTTP port (scrape ``GET /metrics``)::

    python -m repro.experiments serve-bench --dataset NY --queries 40 \
        --workers 4 --scale quick --json
    python -m repro.experiments serve --dataset NY --workers 4 --port 8642

Load comes from ``benchmarks/e2e/``, which drives a server process over
a socket; nothing here generates concurrent traffic.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

from repro.data.datasets import DATASET_ORDER
from repro.experiments.report import fmt_seconds, format_table
from repro.experiments.runner import (
    ALGORITHMS,
    prepare_experiment,
    run_algorithm,
)
from repro.sim.scale import DEFAULT_SCALE, QUICK_SCALE, ScaleConfig


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=(
            "Run the paper's spatial-join experiments on the simulated "
            "machine trio."
        ),
    )
    parser.add_argument(
        "--dataset", choices=DATASET_ORDER, default=None,
        help="one Table 2 dataset (default: NY; see also --all)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="run every Table 2 dataset",
    )
    parser.add_argument(
        "--algorithms", nargs="+", choices=ALGORITHMS,
        default=list(ALGORITHMS), metavar="ALGO",
        help=f"subset of {', '.join(ALGORITHMS)} (default: all four)",
    )
    parser.add_argument(
        "--scale", choices=("default", "quick"), default="default",
        help="1/256 of the paper's sizes (default) or 1/1024 (quick)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit one JSON object per algorithm x machine row",
    )
    return parser.parse_args(argv)


def _parse_serve_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve-bench",
        description=(
            "Replay a seeded mixed query workload serially, in process, "
            "against the deployment the arguments describe."
        ),
    )
    _add_engine_args(parser)
    parser.add_argument(
        "--queries", type=int, default=30,
        help="workload length (default: 30)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="workload seed (default: 7)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the serving report as one JSON object",
    )
    return _parse_deployment(parser, argv)


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The deployment serve-bench and the serve endpoint both build."""
    parser.add_argument(
        "--dataset", choices=DATASET_ORDER, default="NJ",
        help="Table 2 dataset registered as roads/hydro (default: NJ)",
    )
    parser.add_argument(
        "--scale", choices=("default", "quick"), default="default",
        help="1/256 of the paper's sizes (default) or 1/1024 (quick)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="executor worker-pool size (default: 1)",
    )
    parser.add_argument(
        "--shards", type=int, default=1,
        help=(
            "catalog shards served scatter/gather-style; >1 partitions "
            "each relation across this many engines sharing one worker "
            "pool (default: 1, a single engine)"
        ),
    )
    parser.add_argument(
        "--replicas", type=int, default=1,
        help=(
            "replica engines per shard (sharded runs only); the first "
            "healthy one serves and scatter fails over to the "
            "survivors when it dies mid-query (default: 1)"
        ),
    )
    parser.add_argument(
        "--pool-kind", choices=("process", "serial"),
        default="process",
        help=(
            "where partitioned plans sweep their tiles: process (the "
            "default), a persistent process pool shared by all "
            "queries, or serial, on the coordinator"
        ),
    )
    parser.add_argument(
        "--memory-bytes", type=int, default=None,
        help=(
            "engine memory budget in bytes (default: the scaled paper "
            "budget); small budgets force partitioned tiles to spill"
        ),
    )
    parser.add_argument(
        "--trace", action="store_true",
        help=(
            "record a span tree per query (plan -> scatter -> worker "
            "tasks -> gather) and keep the slowest eight; serve-bench "
            "--json reports the last tree under 'trace' and the kept "
            "ones under 'slow_queries'"
        ),
    )
    parser.add_argument(
        "--faults", default=None, metavar="JSON",
        help=(
            "fault-injection plan: a JSON list of rule objects "
            '(e.g. \'[{"site": "pool.task", "kind": "crash"}]\'); '
            "see repro.engine.faults.FaultPlan.from_json"
        ),
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for probabilistic fault rules (default: 0)",
    )


def _parse_deployment(parser: argparse.ArgumentParser,
                      argv: List[str]) -> argparse.Namespace:
    """Parse, refusing a deployment flag the engine built from these
    arguments would silently drop for want of its prerequisite."""
    args = parser.parse_args(argv)
    if args.replicas != 1 and args.shards <= 1:
        parser.error("--replicas needs --shards > 1")
    return args


def _parse_http_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments serve",
        description=(
            "Serve the engine over HTTP through the concurrent "
            "admission front-end (POST /query, GET /metrics, "
            "GET /healthz)."
        ),
    )
    _add_engine_args(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="listen port (default: 8642; 0 picks a free port)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=None,
        help=(
            "admission queue bound; past it the front-end load-sheds "
            "oldest-batch-first (default: 64)"
        ),
    )
    parser.add_argument(
        "--admission-bytes", type=int, default=None,
        help=(
            "serve-level admission budget in bytes; per-class grants "
            "are taken from it and queries park when none are free "
            "(default: 8 MiB)"
        ),
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help=(
            "per-query deadline; expired queries free their grant and "
            "pool slots at the next cancellation checkpoint "
            "(default: none)"
        ),
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=None,
        help=(
            "threads executing admitted queries on the engine "
            "(default: 8)"
        ),
    )
    parser.add_argument(
        "--aging-seconds", type=float, default=None,
        help=(
            "queue age after which a parked batch query is promoted "
            "and no longer load-shed ahead of interactive work; 0 "
            "disables aging (default: 0.5)"
        ),
    )
    return _parse_deployment(parser, argv)


def _scale(name: str) -> ScaleConfig:
    return QUICK_SCALE if name == "quick" else DEFAULT_SCALE


def _collect(name: str, algorithms: List[str], scale: ScaleConfig):
    """Run the experiment once; return (setup, per-row dicts)."""
    setup = prepare_experiment(name, scale=scale)
    rows = []
    for algo in algorithms:
        out = run_algorithm(algo, setup)
        res = out["result"]
        for snap in out["machines"]:
            rows.append({
                "dataset": name,
                "scale": scale.name,
                "algorithm": algo,
                "machine": snap["machine"].split("(")[0].strip(),
                "observed_seconds": snap["observed_seconds"],
                "cpu_seconds": snap["cpu_seconds"],
                "io_seconds": snap["io_seconds"],
                "estimated_seconds": snap["estimated_seconds"],
                "page_reads": out["page_reads"],
                "pairs": res.n_pairs,
            })
    return setup, rows


def dataset_rows(name: str, algorithms: List[str],
                 scale: ScaleConfig) -> List[Dict]:
    """Machine-readable rows: one dict per algorithm x machine."""
    return _collect(name, algorithms, scale)[1]


def run_dataset(name: str, algorithms: List[str],
                scale: ScaleConfig) -> str:
    setup, rows = _collect(name, algorithms, scale)
    table_rows = [
        [
            r["algorithm"],
            r["machine"],
            fmt_seconds(r["observed_seconds"]),
            fmt_seconds(r["cpu_seconds"]),
            fmt_seconds(r["io_seconds"]),
            fmt_seconds(r["estimated_seconds"]),
            r["page_reads"],
            r["pairs"],
        ]
        for r in rows
    ]
    ds = setup.dataset
    title = (
        f"{name} (scale {scale.name}): {len(ds.roads):,} roads x "
        f"{len(ds.hydro):,} hydro, indexes "
        f"{setup.lower_bound_pages:,} pages"
    )
    return format_table(
        ["Algorithm", "Machine", "Observed s", "CPU s", "I/O s",
         "Estimated s", "Page reads", "Pairs"],
        table_rows,
        title=title,
    )


def _build_engine(args: argparse.Namespace):
    """The engine ``_add_engine_args`` describes (a front-end built on
    it joins its fault plan)."""
    # Imported here so the classic experiment path stays importable
    # even if the engine package is being bisected.
    from repro.engine.faults import FaultPlan
    from repro.engine.workload import engine_for_dataset

    faults = None
    if args.faults:
        try:
            faults = FaultPlan.from_json(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}")
    # ``replicas`` is a ShardedEngine parameter; unsharded,
    # _parse_deployment refused any value but the default.
    sharded = ({"replicas": max(1, args.replicas)}
               if args.shards > 1 else {})
    return engine_for_dataset(
        args.dataset, _scale(args.scale), shards=args.shards,
        workers=max(1, args.workers), pool_kind=args.pool_kind,
        faults=faults, memory_bytes=args.memory_bytes, trace=args.trace,
        **sharded,
    )


def serve_bench(args: argparse.Namespace) -> int:
    from repro.engine.workload import make_workload, run_workload

    with _build_engine(args) as engine:
        report = run_workload(engine, make_workload(
            engine.universe_of("roads"), args.queries, seed=args.seed,
        ))
    if args.json:
        print(json.dumps(report, default=str, sort_keys=True))
        return 0
    m = report["metrics"]
    rows = [
        ["queries served", report["queries"]],
        ["pairs returned", report["pairs_returned"]],
        ["cache hits", m["cache_hits"]],
        ["cache hit rate", f"{m['cache_hit_rate']:.0%}"],
        ["pages read", m["pages_read"]],
        ["wall seconds", fmt_seconds(report["wall_seconds"])],
        ["simulated seconds", fmt_seconds(report["sim_wall_seconds"])],
        ["queries/s (wall)", f"{report['queries_per_sec_wall']:.1f}"],
        ["queries/s (simulated)", f"{report['queries_per_sec_sim']:.1f}"],
        ["latency p50 / p95", (
            f"{fmt_seconds(report['latency_p50_seconds'])} / "
            f"{fmt_seconds(report['latency_p95_seconds'])}"
        )],
        ["worker pool", (
            f"{report['pool']['kind']} x{report['pool']['workers']}, "
            f"{report['pool']['tasks_dispatched']} shipped / "
            f"{report['pool']['tasks_inline']} inline"
        )],
        ["shm", (
            f"{report['pool']['shm']['segments_created']} segments "
            f"(+{report['pool']['shm']['segments_recycled']} recycled), "
            f"{report['pool']['shm']['tile_refs_reused']} tile refs "
            f"reused"
        )],
        ["artifact cache", (
            f"{report['artifacts']['hits']} hits, "
            f"{report['artifacts']['entries']} entries, "
            f"{report['artifacts']['bytes']} B"
        )],
        ["strategies", ", ".join(
            f"{k}x{v}" for k, v in sorted(m["per_strategy"].items())
        )],
    ]
    if args.shards > 1:
        rows.append(["shards", (
            f"{m['shards']}, "
            f"{m['duplicates_eliminated']} boundary dups removed, "
            f"{m['shards_pruned_total']} shard-queries pruned"
        )])
        rows.append(["replicas", (
            f"{m['replicas']} per shard, "
            f"{m['failovers']} failovers, "
            f"{m['retries']} retries, "
            f"{m['unhealthy_replicas']} unhealthy"
        )])
    budget = report["budget"]
    rows += [
        ["budget total bytes", budget["total_bytes"]],
        ["budget high-water bytes", budget["high_water_bytes"]],
        ["budget overcommits", budget["overcommits"]],
        ["spilled rects", m["spilled_rects"]],
        ["spilled bytes", m["spilled_bytes"]],
        ["queries that spilled", m["spill_queries"]],
        ["queries rejected", m["queries_rejected"]],
        ["result cache bytes", m["result_cache_bytes"]],
    ]
    title = (
        f"serve-bench {args.dataset} (scale {engine.scale.name}): "
        f"{args.queries} queries, {max(1, args.workers)} workers"
        + (f", {args.shards} shards" if args.shards > 1 else "")
    )
    print(format_table(["Metric", "Value"], rows, title=title))
    return 0


def serve_cmd(args: argparse.Namespace) -> int:
    """Run the HTTP serving endpoint until interrupted or terminated."""
    import asyncio
    import signal

    from repro.engine.serve import ServingFrontend, serve_http

    engine = _build_engine(args)
    fe_kwargs = {}
    if args.queue_depth is not None:
        fe_kwargs["queue_depth"] = args.queue_depth
    if args.admission_bytes is not None:
        fe_kwargs["admission_bytes"] = args.admission_bytes
    if args.max_concurrency is not None:
        fe_kwargs["max_concurrency"] = args.max_concurrency
    if args.deadline_ms is not None:
        fe_kwargs["default_deadline_seconds"] = args.deadline_ms / 1e3
    if args.aging_seconds is not None:
        fe_kwargs["aging_seconds"] = args.aging_seconds
    frontend = ServingFrontend(engine, **fe_kwargs)

    async def run() -> None:
        server = await serve_http(frontend, args.host, args.port)
        addr = server.sockets[0].getsockname()
        print(f"serving {args.dataset} on http://{addr[0]}:{addr[1]} "
              f"(POST /query, GET /metrics, GET /healthz)", flush=True)
        # SIGTERM (systemd, docker stop, a CI runner) ends the serve
        # the way Ctrl-C does, so the finally below stops the pool
        # workers instead of orphaning them.  The listener is closed
        # without waiting for idle keep-alive connections: their
        # handlers are cancelled with the loop.
        stop = asyncio.Event()
        try:
            asyncio.get_running_loop().add_signal_handler(
                signal.SIGTERM, stop.set
            )
        except NotImplementedError:  # no loop signal handlers here
            pass
        try:
            await stop.wait()
        finally:
            server.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        frontend.close()
        engine.close()
    return 0


def main(argv: List[str] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve-bench":
        return serve_bench(_parse_serve_args(argv[1:]))
    if argv and argv[0] == "serve":
        return serve_cmd(_parse_http_args(argv[1:]))
    args = _parse_args(argv)
    scale = _scale(args.scale)
    datasets = (
        list(DATASET_ORDER) if args.all
        else [args.dataset or "NY"]
    )
    for name in datasets:
        if args.json:
            for row in dataset_rows(name, args.algorithms, scale):
                print(json.dumps(row, sort_keys=True))
        else:
            print(run_dataset(name, args.algorithms, scale))
            print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
