"""repro.engine — the persistent spatial query serving layer.

The paper's algorithms (and :mod:`repro.core.planner`'s cost-based
choice between them) are one-shot functions; this package wraps them in
the subsystem a production deployment needs:

* :class:`~repro.engine.catalog.Catalog` — register relations once;
  streams, R-trees and histograms are built lazily and reused;
* :class:`~repro.engine.query.Query` — declarative pairwise/multiway
  join requests with optional window and refinement;
* :class:`~repro.engine.optimizer.Optimizer` — explainable physical
  plans priced by the paper's :class:`~repro.core.cost_model.CostModel`;
* :class:`~repro.engine.executor.Executor` — plan execution, including
  PBSM-style tile-partitioned parallel joins on a worker pool;
* :class:`~repro.engine.cache.ResultCache` — size-aware LRU result
  cache keyed by canonical query + catalog versions, and
  :class:`~repro.engine.cache.ArtifactCache` — the budget-charged LRU
  of distributed tiles;
* :class:`~repro.engine.resources.ResourceBudget` — the enforced
  internal-memory contract shared by every layer (grants, spill,
  admission control, high-water accounting);
* :class:`~repro.engine.engine.SpatialQueryEngine` — the facade tying
  it together, with serving metrics;
* :class:`~repro.engine.shard.ShardedEngine` — scatter/gather serving
  over N engine shards (spatial-strip partitioning with boundary
  replication) sharing one ref-counted
  :class:`~repro.engine.pool.WorkerPool`, with R replica engines per
  shard and health-scored failover between them;
* :class:`~repro.engine.faults.FaultPlan` — deterministic fault
  injection (worker crashes, task exceptions, slow tasks, pool
  breakage, replica outages, admission/deadline faults) threaded
  through the pool, the scatter layer and the serving front-end;
* :class:`~repro.engine.serve.ServingFrontend` — the concurrent
  admission layer: per-class budget grants with a bounded parking
  queue, oldest-batch-first load shedding, per-query deadlines with
  cooperative cancellation, and a stdlib HTTP endpoint
  (:func:`~repro.engine.serve.serve_http`).

Quick start::

    from repro.engine import Query, SpatialQueryEngine

    engine = SpatialQueryEngine(workers=4)
    engine.register("roads", road_rects)
    engine.register("hydro", hydro_rects)
    out = engine.execute(Query(relations=("roads", "hydro")))
    print(out.result.n_pairs, engine.metrics_snapshot())
"""

from repro.engine.cache import (
    ArtifactCache,
    ResultCache,
)
from repro.engine.catalog import Catalog, CatalogEntry
from repro.engine.engine import EngineResult, SpatialQueryEngine
from repro.engine.executor import Executor, lpt_makespan
from repro.engine.faults import (
    FaultPlan,
    FaultRule,
    InjectedCrash,
    InjectedFault,
)
from repro.engine.metrics import (
    EngineMetrics,
    LatencyTracker,
    merge_snapshots,
)
from repro.engine.obs import (
    SlowQueryLog,
    render_prometheus,
    validate_prometheus,
    validate_trace,
)
from repro.engine.optimizer import Optimizer, PhysicalPlan, PlanActuals
from repro.engine.pool import PoolClient, WorkerPool
from repro.engine.query import Query
from repro.engine.resources import (
    AdmissionError,
    ResourceBudget,
    ResourceGrant,
)
from repro.engine.serve import (
    DeadlineExceeded,
    ServeResponse,
    ServingFrontend,
    serve_http,
)
from repro.engine.shard import ShardedEngine
from repro.engine.trace import EnvMeter, Span, span_meter

__all__ = [
    "AdmissionError",
    "ArtifactCache",
    "Catalog",
    "CatalogEntry",
    "DeadlineExceeded",
    "EngineMetrics",
    "EngineResult",
    "EnvMeter",
    "Executor",
    "FaultPlan",
    "FaultRule",
    "InjectedCrash",
    "InjectedFault",
    "LatencyTracker",
    "Optimizer",
    "PhysicalPlan",
    "PlanActuals",
    "PoolClient",
    "Query",
    "SlowQueryLog",
    "Span",
    "WorkerPool",
    "ResourceBudget",
    "ResourceGrant",
    "ResultCache",
    "ServeResponse",
    "ServingFrontend",
    "ShardedEngine",
    "SpatialQueryEngine",
    "lpt_makespan",
    "merge_snapshots",
    "render_prometheus",
    "serve_http",
    "span_meter",
    "validate_prometheus",
    "validate_trace",
]
