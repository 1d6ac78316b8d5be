"""The spatial query engine: register once, query forever.

Every earlier example rebuilds streams and indexes per call.  This one
shows the serving layer: two relations are registered **once** with the
engine's catalog, then several distinct queries run against them — a
dense nationwide overlay, a localized window join (the planner switches
to the index path), and a refined GIS query — and finally a repeat of
the first query is answered straight from the result cache, visible in
the engine's metrics as a cache hit with zero extra pages read.

Run:  python examples/query_engine.py
"""

from repro.data import make_hydro, make_roads
from repro.engine import Query, SpatialQueryEngine
from repro.geom import Rect

US = Rect(-125.0, -66.0, 30.0, 48.0)
TWIN_CITIES = Rect(-93.8, -92.6, 44.5, 45.4)


def main() -> None:
    # The context manager closes the engine: the worker pool stops and
    # its shared-memory segments are unlinked when the block ends.
    with SpatialQueryEngine(workers=4, cache_capacity=32) as engine:
        serve(engine)


def serve(engine: SpatialQueryEngine) -> None:
    # -- register once ---------------------------------------------------
    roads = make_roads(40_000, US, seed=11, layout_seed=11)
    hydro = make_hydro(8_000, US, seed=12, layout_seed=11,
                       id_base=1_000_000)
    engine.register("roads", roads, universe=US)
    engine.register("hydro", hydro, universe=US)
    engine.prepare()
    print(f"catalog: {engine.catalog.names()}, "
          f"{engine.catalog.indexes_built} indexes built\n")

    # -- query 1: dense nationwide overlay -------------------------------
    overlay = Query(relations=("roads", "hydro"))
    out = engine.execute(overlay)
    print(f"[1] overlay        : {out.result.n_pairs:,} pairs via "
          f"{out.result.detail['strategy']} "
          f"(sim {out.sim_wall_seconds:.3f}s)")

    # -- query 2: localized window join ----------------------------------
    localized = Query(relations=("roads", "hydro"), window=TWIN_CITIES)
    print("\n" + engine.explain(localized) + "\n")
    out = engine.execute(localized)
    print(f"[2] window join    : {out.result.n_pairs:,} pairs via "
          f"{out.result.detail['strategy']} "
          f"(sim {out.sim_wall_seconds:.3f}s)")

    # -- query 3: forced-strategy ablation -------------------------------
    forced = Query(relations=("roads", "hydro"), window=TWIN_CITIES,
                   force="sssj")
    out = engine.execute(forced)
    print(f"[3] forced sssj    : {out.result.n_pairs:,} pairs via "
          f"{out.result.detail['strategy']} "
          f"(sim {out.sim_wall_seconds:.3f}s — the planner was right)")

    # -- query 4: warm-cache repeat of query 1 ---------------------------
    before = engine.metrics_snapshot()
    out = engine.execute(overlay)
    after = engine.metrics_snapshot()
    assert out.from_cache, "repeat query must come from the result cache"
    print(f"[4] overlay repeat : {out.result.n_pairs:,} pairs from cache "
          f"(pages read delta: "
          f"{after['pages_read'] - before['pages_read']})")

    # -- the serving story ----------------------------------------------
    snap = engine.metrics_snapshot()
    print(
        f"\nengine metrics: {snap['queries_served']} served, "
        f"{snap['cache_hits']} cache hits "
        f"(rate {snap['cache_hit_rate']:.0%}), "
        f"{snap['pages_read']:,} pages read, "
        f"sim {snap['sim_wall_seconds']:.3f}s "
        f"(I/O {snap['sim_io_seconds']:.3f}s + "
        f"CPU {snap['sim_cpu_seconds']:.3f}s), "
        f"strategies {snap['per_strategy']}"
    )


if __name__ == "__main__":
    main()
