"""Command-line experiment runner.

Reproduce any cell of the paper's evaluation from a shell::

    python -m repro.experiments --dataset NY --algorithms SSSJ PQ ST
    python -m repro.experiments --dataset DISK1-6 --scale quick
    python -m repro.experiments --all --json

Prints the per-machine observed/estimated costs and the page-request
accounting for each run; ``--json`` emits one JSON object per
algorithm x machine row instead, so CI and the throughput bench can
diff results mechanically.

The ``serve-bench`` subcommand replays a mixed query workload against
the persistent :class:`~repro.engine.engine.SpatialQueryEngine`::

    python -m repro.experiments serve-bench --dataset NY --queries 40 \
        --workers 4 --scale quick --json
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
            "Replay a mixed query workload against the persistent "
            "spatial query engine."
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
        "--memory-bytes", type=int, default=None,
        help=(
            "engine memory budget in bytes (default: the scaled paper "
            "budget); small budgets force partitioned tiles to spill"
        ),
    )
    parser.add_argument(
        "--no-artifact-cache", action="store_true",
        help="disable artifact reuse (distributions and sorted runs)",
    )
    parser.add_argument(
        "--kernel", choices=("auto", "numpy", "python"), default="auto",
        help=(
            "sweep kernel: 'numpy' (vectorized, errors if numpy is "
            "missing), 'python' (pure-python reference), or 'auto' "
            "(numpy when importable; default)"
        ),
    )
    parser.add_argument(
        "--spill-report", action="store_true",
        help="append budget/spill/cache-bytes rows to the report table",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help=(
            "record a span tree per query (admission -> plan -> "
            "scatter -> worker tasks -> gather); the last query's tree "
            "lands in the JSON report under 'trace'"
        ),
    )
    parser.add_argument(
        "--slow-log", type=int, default=None, metavar="N",
        help=(
            "keep the N slowest queries (with traces when --trace); "
            "they land in the JSON report under 'slow_queries'"
        ),
    )
    parser.add_argument(
        "--slow-threshold-ms", type=float, default=0.0,
        help="ignore queries faster than this for the slow log",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help=(
            "also write the metrics snapshot to PATH — Prometheus "
            "text exposition format, or structured JSON when PATH "
            "ends in .json"
        ),
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the serving report as one JSON object",
    )
    _add_serve_args(parser)
    parser.add_argument(
        "--clients", type=int, default=1,
        help=(
            "concurrent closed-loop clients driving the workload "
            "through the admission front-end (default: 1, the classic "
            "serial driver with no front-end)"
        ),
    )
    parser.add_argument(
        "--open-loop-qps", type=float, default=None,
        help=(
            "drive the workload open-loop at this arrival rate instead "
            "of closed-loop clients (saturation testing; implies the "
            "concurrent front-end)"
        ),
    )
    parser.add_argument(
        "--batch-share", type=float, default=0.25,
        help=(
            "share of queries submitted in the 'batch' class "
            "(concurrent driver only; default: 0.25)"
        ),
    )
    return parser.parse_args(argv)


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
        "--pool-kind", choices=("process", "thread", "serial"),
        default="process",
        help=(
            "worker pool flavour for partitioned plans (default: "
            "process — a persistent process pool shared by all queries)"
        ),
    )
    parser.add_argument(
        "--artifact-dir", default=None,
        help=(
            "persist artifacts to this directory (content-keyed "
            "sidecar); a restart pointed at the same directory "
            "restores its warm state lazily; with --shards the root "
            "holds per-shard/per-replica subdirectories plus a shared "
            "result store"
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


def _add_serve_args(parser: argparse.ArgumentParser) -> None:
    """Front-end knobs shared by serve-bench and the serve endpoint."""
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
            "(default: the client count for serve-bench, 8 for serve)"
        ),
    )
    parser.add_argument(
        "--result-store-bytes", type=int, default=None,
        help=(
            "byte cap per shard result store (with --shards and "
            "--artifact-dir); oldest entries evict LRU past it "
            "(default: unbounded)"
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
    _add_serve_args(parser)
    return parser.parse_args(argv)


def _parse_metrics_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments metrics",
        description=(
            "Re-render a serve-bench JSON report (or raw metrics "
            "snapshot) as Prometheus text or structured JSON."
        ),
    )
    parser.add_argument(
        "--from", dest="source", default="-", metavar="FILE",
        help="serve-bench --json output or a bare snapshot ('-': stdin)",
    )
    parser.add_argument(
        "--format", choices=("prometheus", "json"), default="prometheus",
        help="output format (default: prometheus)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write here instead of stdout",
    )
    return parser.parse_args(argv)


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


def _build_engine(args: argparse.Namespace, **extra):
    """The engine ``_add_engine_args`` describes (a front-end built on
    it joins its fault plan); ``extra`` are constructor keywords only
    one subcommand has flags for."""
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
    if args.shards > 1:
        extra["replicas"] = max(1, args.replicas)
        extra["result_store_bytes"] = args.result_store_bytes
    return engine_for_dataset(
        args.dataset, _scale(args.scale), shards=args.shards,
        workers=max(1, args.workers), pool_kind=args.pool_kind,
        artifact_dir=args.artifact_dir, faults=faults, **extra,
    )


def serve_bench(args: argparse.Namespace) -> int:
    from repro.engine.workload import (
        make_workload,
        run_concurrent_workload,
        run_workload,
    )

    engine = _build_engine(
        args,
        memory_bytes=args.memory_bytes,
        artifact_cache_bytes=0 if args.no_artifact_cache else None,
        trace=args.trace,
        slow_log_capacity=args.slow_log,
        slow_threshold_seconds=args.slow_threshold_ms / 1000.0,
        kernel=args.kernel,
    )
    queries = make_workload(
        engine.universe_of("roads"), args.queries, seed=args.seed,
    )
    concurrent = args.clients > 1 or args.open_loop_qps is not None
    if concurrent:
        report = run_concurrent_workload(
            engine, queries,
            clients=max(1, args.clients),
            batch_share=args.batch_share,
            deadline_seconds=(
                args.deadline_ms / 1e3
                if args.deadline_ms is not None else None
            ),
            open_loop_qps=args.open_loop_qps,
            queue_depth=args.queue_depth,
            admission_bytes=args.admission_bytes,
            max_concurrency=args.max_concurrency,
            aging_seconds=args.aging_seconds,
        )
    else:
        report = run_workload(engine, queries)
    engine.close()
    if args.metrics_out:
        _write_metrics(report["metrics"], args.metrics_out)
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
        ["kernel / shm", (
            f"{m.get('kernel', 'python')}, "
            f"{report['pool']['shm']['segments_created']} segments "
            f"(+{report['pool']['shm']['segments_recycled']} recycled), "
            f"{report['pool']['shm']['tile_refs_reused']} tile refs "
            f"reused"
        )],
        ["artifact cache", (
            f"{report['artifacts']['hits']} hits, "
            f"{report['artifacts']['entries']} entries, "
            f"{report['artifacts']['bytes']} B, "
            f"{report['artifacts']['disk_restores']} disk restores"
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
        if m.get("result_store") is not None:
            rows.append(["result store", (
                f"{m['result_disk_restores']} disk restores, "
                f"{m['result_store']['saves']} saves, "
                f"{m['result_store']['corrupt_drops']} corrupt dropped"
            )])
    if "serve" in report:
        s = report["serve"]
        rows.append(["front-end", (
            f"{report['clients']} clients"
            + (f" (open loop {report['open_loop_qps']:g} q/s)"
               if report.get("open_loop_qps") else "")
            + f", {s['queued_total']} queued "
            f"(peak {s['queue_high_water']}), {s['shed']} shed, "
            f"{s['expired']} expired, {s['rejected']} rejected, "
            f"{s['errors']} errors, {s['served_degraded']} degraded"
        )])
        rows.append(["admission", (
            f"{s['admission']['in_use_bytes']} B in use of "
            f"{s['admission']['total_bytes']} B, "
            f"{s['admission']['grants_issued']} grants issued"
        )])
        ages = s.get("queue_age_max_seconds", {})
        rows.append(["queue aging", (
            f"{s.get('aged_promotions', 0)} batch promotions, "
            "max queue age "
            + "/".join(f"{ages.get(c, 0.0) * 1e3:.0f}ms"
                       for c in ("interactive", "batch"))
            + " (interactive/batch)"
        )])
    if args.spill_report:
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
    """Run the HTTP serving endpoint until interrupted."""
    import asyncio

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
              f"(POST /query, GET /metrics, GET /healthz)")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    finally:
        frontend.close()
        engine.close()
    return 0


def _write_metrics(snapshot: Dict, path: str) -> None:
    """Export one metrics snapshot to ``path`` (format by extension)."""
    from repro.engine.obs import render_json, render_prometheus

    if path.endswith(".json"):
        text = render_json(snapshot)
    else:
        text = render_prometheus(snapshot)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def metrics_cmd(args: argparse.Namespace) -> int:
    """Re-render a saved report/snapshot as Prometheus text or JSON."""
    from repro.engine.obs import render_json, render_prometheus

    if args.source == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    # Accept either a full serve-bench report (snapshot under
    # "metrics") or a bare snapshot dict.
    snapshot = data.get("metrics", data) if isinstance(data, dict) else data
    if not isinstance(snapshot, dict):
        print("metrics: input is not a report or snapshot object",
              file=sys.stderr)
        return 2
    text = (render_json(snapshot) if args.format == "json"
            else render_prometheus(snapshot))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv: List[str] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "serve-bench":
        return serve_bench(_parse_serve_args(argv[1:]))
    if argv and argv[0] == "serve":
        return serve_cmd(_parse_http_args(argv[1:]))
    if argv and argv[0] == "metrics":
        return metrics_cmd(_parse_metrics_args(argv[1:]))
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
