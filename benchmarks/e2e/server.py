"""The deployment under test, as its own process.

``python server.py '<deployment json>' [--spans DIR TAG]`` builds the
deployment from public API only (``build_dataset``,
``SpatialQueryEngine``/``ShardedEngine``, ``ServingFrontend``,
``serve_http`` on port 0), prints one JSON line — the port plus the
monotonic time at which each set-up phase finished — and serves until
SIGTERM.  SIGUSR1 dumps every thread's stack to stderr, which is how
the harness's watchdog turns a hang into evidence.

With ``--spans`` the timing wrappers of :mod:`spans` are installed
before the pool forks, the engines are built with ``trace=True``, and
the spans are written to ``DIR`` on shutdown.
"""

from __future__ import annotations

import asyncio
import faulthandler
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)


def build_engine(deployment: dict, roads, hydro, trace: bool):
    from repro.engine import ShardedEngine, SpatialQueryEngine
    from repro.sim.scale import DEFAULT_SCALE
    from workloads import data_bytes

    nbytes = data_bytes(roads, hydro)
    memory = (nbytes // 4 if deployment["memory"] == "tight"
              else 8 * nbytes + DEFAULT_SCALE.buffer_pool_bytes)
    common = dict(
        workers=deployment["workers"],
        cache_capacity=deployment["cache_capacity"],
        artifact_cache_bytes=deployment["artifact_cache_bytes"],
        trace=trace,
    )
    if deployment["shards"]:
        return ShardedEngine(
            shards=deployment["shards"],
            replicas=deployment["replicas"],
            memory_bytes=memory * deployment["shards"], **common,
        )
    return SpatialQueryEngine(memory_bytes=memory, **common)


async def serve(frontend, ready: dict) -> None:
    from repro.engine import serve_http

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    server = await serve_http(frontend, port=0)
    ready["port"] = server.sockets[0].getsockname()[1]
    ready["t_listening"] = time.monotonic()
    print(json.dumps(ready), flush=True)
    await stop.wait()
    server.close()
    await server.wait_closed()


def main(argv) -> int:
    from procs import end_with_parent

    end_with_parent()
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    deployment = json.loads(argv[1])
    recorder = None
    if len(argv) > 2:
        if argv[2] != "--spans" or len(argv) != 5:
            raise SystemExit("usage: server.py JSON [--spans DIR TAG]")
        import spans
        recorder = spans.Recorder(argv[3], argv[4])

    from repro.engine import ServingFrontend
    from workloads import dataset

    ready = {"pid": os.getpid(), "t_imported": time.monotonic()}
    roads, hydro, universe = dataset(deployment["data"])
    ready["t_data"] = time.monotonic()
    engine = build_engine(deployment, roads, hydro, recorder is not None)
    engine.register("roads", roads, universe=universe)
    engine.register("hydro", hydro, universe=universe)
    ready["t_registered"] = time.monotonic()
    if recorder is not None:
        recorder.install()  # before prepare(): the pool forks there
    engine.prepare()
    ready["t_prepared"] = time.monotonic()
    frontend = ServingFrontend(engine)
    try:
        asyncio.run(serve(frontend, ready))
    finally:
        frontend.close()
        engine.close()
        if recorder is not None:
            recorder.dump()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
