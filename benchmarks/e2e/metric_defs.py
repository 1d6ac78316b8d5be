"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root repeats these lists for the
driver; ``test_harness.py`` keeps the two from drifting apart.  The
names are fixed: later issues cite them verbatim.
"""

from __future__ import annotations

from typing import List, Tuple

#: ``(name, unit, better, bound)`` — ``bound`` is the share of the
#: parent's median by which the metric may worsen before it is a
#: regression.  The timing bounds are twice the issue's 10/10/15/10 %:
#: README.md records the spreads measured on the builder's box that
#: forced them.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_qps", "1/s", "higher", 0.20),
    ("latency_p50_ms", "ms", "lower", 0.20),
    ("latency_p95_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

#: ``(name, unit, better)``.  Source of each: S = ``/metrics`` scrape
#: delta over the untraced timed pass, R = response bodies, T = spans
#: of the traced pass, P = layer probes, H = the harness itself.
PER_LAYER: List[Tuple[str, str, str]] = [
    # serve
    ("serve.http_overhead_ms_p50", "ms", "lower"),          # R
    ("serve.submit_self_ms_p50", "ms", "lower"),            # T
    ("serve.parse_us_p50", "us", "lower"),                  # T
    ("serve.queue_wait_ms_p95", "ms", "lower"),             # R
    ("serve.in_flight_high_water", "count", "lower"),       # S
    ("serve.not_ok_share", "ratio", "lower"),               # S
    # engine
    ("engine.execute_ms_p50", "ms", "lower"),               # T
    ("engine.self_ms_p50", "ms", "lower"),                  # T
    # cache
    ("cache.result_hit_rate", "ratio", "higher"),           # S
    ("cache.result_get_us_p50", "us", "lower"),             # T
    ("cache.result_put_us_p50", "us", "lower"),             # T
    ("cache.artifact_hit_rate", "ratio", "higher"),         # S
    ("cache.artifact_bytes", "B", "lower"),                 # S
    ("cache.artifact_evictions", "count", "lower"),         # S
    # optimizer
    ("optimizer.compile_ms_p50", "ms", "lower"),            # T
    ("optimizer.index_plan_share", "ratio", "higher"),      # S
    # executor
    ("executor.execute_ms_p50", "ms", "lower"),             # T
    ("executor.execute_ms_p95", "ms", "lower"),             # T
    ("executor.coordinator_ms_p50", "ms", "lower"),         # T
    ("executor.phase.distribute_ms_p50", "ms", "lower"),    # T
    ("executor.phase.sweep_ms_p50", "ms", "lower"),         # T
    ("executor.phase.gather_ms_p50", "ms", "lower"),        # T
    # pool
    ("pool.tasks_per_query", "count", "lower"),             # S
    ("pool.tiles_per_task", "count", "higher"),             # S
    ("pool.inline_tile_share", "ratio", "lower"),           # S
    ("pool.shm_bytes_per_query", "B", "lower"),             # S
    ("pool.shm_refs_reused_per_query", "count", "higher"),  # S
    ("pool.roundtrip_ms_p50", "ms", "lower"),               # T
    ("pool.queue_wait_ms_p50", "ms", "lower"),              # T
    ("pool.worker_busy_share", "ratio", "higher"),          # T
    ("pool.fallbacks", "count", "lower"),                   # S
    ("pool.demotions", "count", "lower"),                   # S
    ("pool.tasks_cancelled", "count", "lower"),             # S
    # kernels
    ("kernels.task_ms_p50", "ms", "lower"),                 # T
    ("kernels.task_ms_p95", "ms", "lower"),                 # T
    ("kernels.rects_per_busy_s", "1/s", "higher"),          # T
    ("kernels.probe.numpy_us_per_rect_n256", "us", "lower"),     # P
    ("kernels.probe.numpy_us_per_rect_n4096", "us", "lower"),
    ("kernels.probe.numpy_us_per_rect_n65536", "us", "lower"),
    ("kernels.probe.python_us_per_rect_n256", "us", "lower"),
    ("kernels.probe.python_us_per_rect_n4096", "us", "lower"),
    ("kernels.probe.python_us_per_rect_n65536", "us", "lower"),
    ("kernels.probe.crossover_rects", "count", "lower"),
    ("pool.probe.roundtrip_us_inline_n256", "us", "lower"),      # P
    ("pool.probe.roundtrip_us_inline_n4096", "us", "lower"),
    ("pool.probe.roundtrip_us_inline_n65536", "us", "lower"),
    ("pool.probe.roundtrip_us_pickle_n256", "us", "lower"),
    ("pool.probe.roundtrip_us_pickle_n4096", "us", "lower"),
    ("pool.probe.roundtrip_us_pickle_n65536", "us", "lower"),
    ("pool.probe.roundtrip_us_shm_n256", "us", "lower"),
    ("pool.probe.roundtrip_us_shm_n4096", "us", "lower"),
    ("pool.probe.roundtrip_us_shm_n65536", "us", "lower"),
    ("columnar.probe.encode_us_per_rect", "us", "lower"),        # P
    ("columnar.probe.decode_us_per_rect", "us", "lower"),
    # shard
    ("shard.execute_ms_p50", "ms", "lower"),                # T
    ("shard.self_ms_p50", "ms", "lower"),                   # T
    ("shard.scatter_wait_ms_p50", "ms", "lower"),           # T
    ("shard.subqueries_per_query", "count", "lower"),       # S
    ("shard.pruned_per_query", "count", "higher"),          # S
    ("shard.duplicate_share", "ratio", "lower"),            # S
    ("shard.failovers", "count", "lower"),                  # S
    ("shard.retries", "count", "lower"),                    # S
    ("shard.weighted_reroutes", "count", "lower"),          # S
    # storage / resources
    ("storage.pages_read_per_query", "count", "lower"),     # S
    ("storage.bytes_written_per_query", "B", "lower"),      # S
    ("storage.spilled_rects_per_query", "count", "lower"),  # S
    ("resources.budget_high_water_mb", "MB", "lower"),      # S
    ("resources.budget_overcommits", "count", "lower"),     # S
    # sim: exact counts up to the first block boundary past MIN_REQUESTS
    ("sim.wall_ms_per_query", "ms", "lower"),               # S
    ("sim.cpu_ops_per_query", "count", "lower"),            # S
    # set-up phases (catalog / rtree / data)
    ("setup.spawn_import_s", "s", "lower"),                 # H
    ("setup.data_s", "s", "lower"),                         # H
    ("setup.register_s", "s", "lower"),                     # H
    ("setup.prepare_s", "s", "lower"),                      # H
    ("setup.warmup_s", "s", "lower"),                       # H
    # harness validity
    ("loadgen.cpu_share", "ratio", "lower"),                # H
    ("trace.overhead_share", "ratio", "lower"),             # H
    ("trace.accounted_share", "ratio", "higher"),           # H
]
