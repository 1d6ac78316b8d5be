"""Replay one workload's request stream in process, query by query.

``python benchmarks/replay.py --workload W --seed N --queries K
--warmup K [--workers N] [--force S] [--json] [--profile]`` builds the
deployment of ``benchmarks/e2e``'s workload ``W`` with the bench's own
``server.build_engine`` (``--workers`` overrides its worker count),
registers the bench's dataset, and sends the seeded stream the load
generator would send straight to ``engine.execute``, one query at a
time: no HTTP, no front-end, no concurrency.  ``--force`` runs every
query under one strategy instead of the optimizer's choice.

It prints, for each (window or overlay, strategy served), the count
and the median wall time of ``execute``, then the total wall time and
a digest of the per-query pair counts in stream order: two commits
that answer alike print the same digest.  ``--json`` prints the same
as one JSON object.  ``--profile`` runs ``cProfile`` over the timed
queries (not the warm-up) and prints its top entries by cumulative
time after the table (to stderr with ``--json``).  It profiles this
process only: what pool workers run shows as the coordinator's wait
for them.

The wall times are one process on one box, meant for finding where a
plan loses time and for checking answers; they are not a controlled
comparison of two commits (alternate ``benchmarks/e2e/run.py`` runs of
each for that).  ``benchmarks/e2e/`` is imported read-only.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import hashlib
import io
import json
import pathlib
import pstats
import random
import statistics
import sys
import time
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

from repro.engine.query import FORCEABLE  # noqa: E402
from repro.engine.serve import parse_query_body  # noqa: E402


def served_strategy(out) -> str:
    """The plan a reply was served by; a sharded reply names its
    shards' strategies."""
    if out.plan is not None:
        return out.plan.strategy
    per_shard = out.result.detail.get("shard_strategies", {})
    return "+".join(sorted(set(per_shard.values()))) or "?"


#: How many entries ``--profile`` prints.
PROFILE_ENTRIES = 30


def replay(workload: str, seed: int, queries: int, warmup: int,
           workers=None, force=None, profile=None) -> dict:
    """Replay the stream; ``profile``, a ``cProfile.Profile``, is
    enabled around each timed ``execute``."""
    import server
    from workloads import WORKLOADS, dataset

    wl = WORKLOADS[workload]
    deployment = dict(wl.deployment)
    if workers is not None:
        deployment["workers"] = workers
    roads, hydro, universe = dataset(wl.data)
    engine = server.build_engine(deployment, roads, hydro, False)
    walls = defaultdict(list)
    counts = []
    try:
        engine.register("roads", roads, universe=universe)
        engine.register("hydro", hydro, universe=universe)
        engine.prepare()
        stream = wl.stream(random.Random(seed), universe)
        for n in range(warmup + queries):
            query = parse_query_body(next(stream).body)["query"]
            if force is not None:
                query = dataclasses.replace(query, force=force)
            timed = n >= warmup
            if timed and profile is not None:
                profile.enable()
            t0 = time.perf_counter()
            out = engine.execute(query)
            wall = time.perf_counter() - t0
            if timed and profile is not None:
                profile.disable()
            if not timed:
                continue
            kind = "overlay" if query.window is None else "window"
            walls[kind, served_strategy(out)].append(wall)
            counts.append(out.result.n_pairs)
    finally:
        engine.close()
    rows = [
        {"kind": kind, "strategy": strategy, "count": len(w),
         "median_ms": round(1e3 * statistics.median(w), 3)}
        for (kind, strategy), w in sorted(walls.items())
    ]
    return {
        "workload": workload, "seed": seed, "queries": queries,
        "warmup": warmup, "workers": deployment["workers"], "force": force,
        "rows": rows,
        "total_wall_s": round(sum(sum(w) for w in walls.values()), 4),
        "pairs_digest": hashlib.sha256(
            json.dumps(counts).encode()).hexdigest()[:16],
    }


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--queries", type=int, required=True)
    ap.add_argument("--warmup", type=int, required=True)
    ap.add_argument("--workers", type=int, default=None,
                    help="pool workers (default: the workload's own)")
    ap.add_argument("--force", choices=FORCEABLE, default=None)
    ap.add_argument("--json", action="store_true")
    ap.add_argument("--profile", action="store_true",
                    help="cProfile the timed queries; print the top "
                         f"{PROFILE_ENTRIES} entries by cumulative time")
    args = ap.parse_args(argv)
    if args.queries < 1 or args.warmup < 0 or (
            args.workers is not None and args.workers < 1):
        ap.error("--queries and --workers must be at least 1, "
                 "--warmup at least 0")
    profile = cProfile.Profile() if args.profile else None
    out = replay(args.workload, args.seed, args.queries, args.warmup,
                 args.workers, args.force, profile)
    if args.json:
        print(json.dumps(out))
        if profile is not None:
            print(profile_report(profile), file=sys.stderr)
        return 0
    print(f"{out['workload']} seed {out['seed']}, {out['workers']} "
          f"workers, {out['queries']} queries after {out['warmup']} "
          f"warm-up" + (f", forced {out['force']}" if out["force"] else ""))
    print(f"{'kind':<8} {'strategy':<12} {'count':>5} {'median ms':>10}")
    for row in out["rows"]:
        print(f"{row['kind']:<8} {row['strategy']:<12} {row['count']:>5} "
              f"{row['median_ms']:>10.2f}")
    print(f"total wall {out['total_wall_s']:.3f} s; "
          f"pair-count digest {out['pairs_digest']}")
    if profile is not None:
        print(profile_report(profile))
    return 0


def profile_report(profile: cProfile.Profile) -> str:
    """The top :data:`PROFILE_ENTRIES` entries by cumulative time."""
    buf = io.StringIO()
    pstats.Stats(profile, stream=buf).sort_stats(
        "cumulative").print_stats(PROFILE_ENTRIES)
    return buf.getvalue()


if __name__ == "__main__":
    sys.exit(main())
