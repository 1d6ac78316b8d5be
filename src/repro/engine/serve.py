"""Concurrent serving front-end: admission queueing, deadlines, shedding.

The engines below this layer answer one blocking call at a time and
protect themselves with a hard gate: a query whose minimum grant cannot
fit raises :class:`~repro.engine.resources.AdmissionError`.  That is
the right contract for a library call and the wrong one for a server —
under a traffic burst, "refuse anything that does not fit right now"
rejects work the deployment could have served a few milliseconds later.

:class:`ServingFrontend` turns the blocking engine into a bounded
concurrent service with three production behaviours:

**Admission queue with priority aging.**  Every query declares a class
(``interactive`` or ``batch``) and is admitted by taking a per-class
byte grant from a serve-level
:class:`~repro.engine.resources.ResourceBudget` via ``try_acquire`` —
the refusal-capable sibling of ``acquire``; grant sizes are the static
per-class table (``grant_bytes``).  When the grant is not
free the query *parks* in a FIFO queue instead of failing; each
released grant pumps the queue head.  The queue is bounded: past
``queue_depth`` the front-end load-sheds, evicting the **oldest
un-aged batch** waiter first (batch traffic absorbs overload so
dashboards stay up).  A batch waiter parked longer than
``aging_seconds`` is *promoted* — it accrues interactive-equivalent
priority and sheds only under the oldest-first rule that governs
interactive waiters — so oldest-batch-first shedding can never become
batch starvation under sustained interactive pressure
(``aged_promotions`` counts the promotions;
``queue_age_max_seconds`` bounds the starvation story per class).

**Deadlines, propagated into the pool.**  A query may carry a
deadline.  While parked it expires via the queue future's timeout;
once running, its :class:`~repro.engine.pool.CancelToken` is threaded
through ``ShardedEngine.execute`` into every replica's partitioned
executor and — riding inside each shipped pool payload — down to the
workers themselves: not-yet-started pool tasks are dropped
(``pool_tasks_cancelled`` counts the reclaimed CPU) and in-flight ones
stop at tile boundaries.  Expiry never corrupts shared state —
checkpoints fire only between whole units of work.

**Graceful degradation.**  Overload produces ``shed`` and ``expired``
responses with correct counters, never unbounded queue growth and never
a surprise ``AdmissionError`` (oversized singletons still get a clean
``rejected``).  Every outcome is a first-class state in
:meth:`ServingFrontend.snapshot`, which rides the engine's metrics
snapshot into the Prometheus exporter unchanged, and every submitted
query meets exactly one: a caller cancelled while its query is parked
or running (its own timeout, a disconnect, shutdown) counts as
``expired``, takes its waiter or its grant with it and flags the
query's token, so nothing is granted to, or run for, nobody.

**Cache hits on the loop.**  A query that may block (a miss, or a hit
behind a busy engine lock) runs on a serve thread.  A result-cache hit
does not block, so once a query is admitted and past its dispatch
deadline check the loop asks the engine for a cached reply
(``cached_reply``, which acquires the engine's lock only without
waiting) and answers it on the spot; ``served_on_loop`` counts those.

The fault plan participates: ``serve.queue`` rules fire at admission
(``exception`` fails the admission, ``slow`` delays the grant attempt)
and ``serve.deadline`` rules fire at dispatch (``exception`` forces the
deadline-expired path, ``slow`` burns queue-to-dispatch time), so chaos
tests cover the queue and deadline paths the same way they cover
replica failover.

:func:`serve_http` exposes the front-end over a thin stdlib HTTP
endpoint (``POST /query``, ``GET /metrics``, ``GET /healthz``) — no
framework dependency.  Connections are persistent by default
(HTTP/1.1 keep-alive with sequential pipelined request handling);
``Connection:`` headers are honoured and per-connection request and
concurrent-connection limits bound the exposure.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.engine.engine import EngineResult
from repro.engine.faults import FaultPlan, InjectedFault
from repro.engine.pool import CancelToken, DeadlineExceeded
from repro.engine.query import Query
from repro.engine.resources import AdmissionError, ResourceBudget
from repro.geom.rect import Rect

__all__ = [
    "CancelToken",
    "DeadlineExceeded",
    "ServeResponse",
    "ServingFrontend",
    "parse_query_body",
    "serve_http",
]

QUERY_CLASSES = ("interactive", "batch")

#: Admission charge per in-flight query, by class.  Batch queries are
#: billed more: they tend to be full overlays, and a bigger charge
#: means fewer of them run concurrently — the budget itself becomes
#: the concurrency limiter for heavy traffic.
DEFAULT_GRANT_BYTES = {
    "interactive": 1 << 20,
    "batch": 4 << 20,
}

#: Default admission budget: eight interactive grants' worth.
DEFAULT_ADMISSION_BYTES = 8 << 20

DEFAULT_QUEUE_DEPTH = 64

#: Threads executing engine calls that may block (the true in-flight
#: cap; a cache hit answered on the event loop takes none).
DEFAULT_MAX_CONCURRENCY = 8

#: A batch waiter parked at least this long is promoted to
#: interactive-equivalent shed priority (see ``_shed_for``).  ``<= 0``
#: disables aging (the pre-aging oldest-batch-first behaviour).
DEFAULT_AGING_SECONDS = 0.5


@dataclass
class ServeResponse:
    """One query's fate at the front-end.

    ``status`` is one of ``ok`` (served; ``degraded`` marks a reply
    that needed replica failover), ``shed`` (evicted from a full
    queue), ``expired`` (deadline passed while queued or running),
    ``rejected`` (could never be admitted — grant larger than the
    whole budget), or ``error`` (the engine or an injected fault
    raised).
    """

    status: str
    query_class: str
    wall_seconds: float
    queue_seconds: float
    pairs: Optional[int] = None
    degraded: bool = False
    error: Optional[str] = None
    result: Optional[EngineResult] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        body: Dict[str, object] = {
            "status": self.status,
            "class": self.query_class,
            "wall_ms": round(self.wall_seconds * 1e3, 3),
            "queue_ms": round(self.queue_seconds * 1e3, 3),
        }
        if self.pairs is not None:
            body["pairs"] = self.pairs
        if self.degraded:
            body["degraded"] = True
        if self.error is not None:
            body["error"] = self.error
        return body


class _Waiter:
    """One parked query: its class and the future its grant arrives on."""

    __slots__ = ("query_class", "nbytes", "future", "enqueued_at",
                 "promoted")

    def __init__(self, query_class: str, nbytes: int,
                 future: "asyncio.Future", enqueued_at: float) -> None:
        self.query_class = query_class
        self.nbytes = nbytes
        self.future = future
        self.enqueued_at = enqueued_at
        #: Aged past ``aging_seconds``: this batch waiter now sheds
        #: under interactive rules instead of batch-first.
        self.promoted = False


class ServingFrontend:
    """Bounded concurrent admission over one (sharded) engine.

    All queue and counter state is owned by the event loop — `submit`
    is a coroutine and every mutation happens between awaits, so no
    lock is needed.  A result-cache hit is answered on the loop when
    the engine's lock is free (``engine.cached_reply``, which never
    waits); every other query runs on a dedicated thread pool of
    ``max_concurrency`` workers.  The admission budget decides how many
    queries may *hold grants* at once, the thread pool how many
    execute.

    The front-end calls either engine the same way and takes no engine
    lock of its own: a ``SpatialQueryEngine`` serializes its ``execute``
    on its own lock (concurrency still overlaps admission, queueing and
    deadlines, and the lock wait counts against a query's deadline),
    and a ``ShardedEngine`` overlaps queries wherever they land on
    different replica engines, each of which serializes itself.
    """

    def __init__(self, engine, *,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 admission_bytes: int = DEFAULT_ADMISSION_BYTES,
                 grant_bytes: Optional[Dict[str, int]] = None,
                 default_deadline_seconds: Optional[float] = None,
                 max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
                 aging_seconds: float = DEFAULT_AGING_SECONDS,
                 faults: Optional[FaultPlan] = None) -> None:
        if queue_depth < 1:
            raise ValueError("queue depth must be at least 1")
        if max_concurrency < 1:
            raise ValueError("max concurrency must be at least 1")
        self.engine = engine
        self.queue_depth = queue_depth
        self.admission = ResourceBudget(admission_bytes)
        self.grant_bytes = dict(DEFAULT_GRANT_BYTES)
        if grant_bytes:
            unknown = set(grant_bytes) - set(QUERY_CLASSES)
            if unknown:
                raise ValueError(
                    f"unknown query classes: {sorted(unknown)}"
                )
            self.grant_bytes.update(grant_bytes)
        self.default_deadline_seconds = default_deadline_seconds
        self.aging_seconds = aging_seconds
        # One plan governs the deployment: absent an explicit plan the
        # front-end joins the engine's, so serve.* rules in an engine
        # fault plan reach the admission/deadline sites.
        if faults is None:
            faults = getattr(engine, "faults", None)
        self.faults = faults
        self._queue: list = []  # FIFO of _Waiter (small; O(n) ops fine)
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="serve"
        )
        self.max_concurrency = max_concurrency
        # -- counters (event-loop owned) -----------------------------------
        self.submitted = 0
        self.served_ok = 0
        self.served_degraded = 0
        #: Replies answered from the result cache on the event loop,
        #: without a serve thread (a subset of ``served_ok``).
        self.served_on_loop = 0
        self.queued_total = 0
        self.shed = 0
        self.expired = 0
        self.rejected = 0
        self.errors = 0
        self.in_flight = 0
        self.in_flight_high_water = 0
        self.queue_high_water = 0
        self.queue_wait_seconds = 0.0
        #: Batch waiters promoted by queue age (the anti-starvation
        #: counter the starvation gate watches).
        self.aged_promotions = 0
        #: Longest time any waiter of each class spent parked before
        #: its fate resolved (grant, shed, expiry, or close).
        self.queue_age_max_seconds: Dict[str, float] = {
            c: 0.0 for c in QUERY_CLASSES
        }
        self.per_class: Dict[str, Dict[str, int]] = {
            c: {"submitted": 0, "ok": 0, "shed": 0, "expired": 0,
                "rejected": 0, "errors": 0}
            for c in QUERY_CLASSES
        }

    # -- admission ---------------------------------------------------------

    def _age_queue(self) -> None:
        """Promote batch waiters that out-waited ``aging_seconds``."""
        if self.aging_seconds <= 0:
            return
        cutoff = time.monotonic() - self.aging_seconds
        for waiter in self._queue:
            if (waiter.query_class == "batch" and not waiter.promoted
                    and waiter.enqueued_at <= cutoff):
                waiter.promoted = True
                self.aged_promotions += 1

    def _note_dequeue(self, waiter: _Waiter) -> None:
        """Fold one resolved waiter's queue age into the per-class max."""
        age = time.monotonic() - waiter.enqueued_at
        if age > self.queue_age_max_seconds[waiter.query_class]:
            self.queue_age_max_seconds[waiter.query_class] = age

    def _shed_for(self, incoming_class: str) -> bool:
        """Make room in a full queue; False if *incoming* must shed.

        Oldest-batch-first, with priority aging: *un-aged* batch
        waiters absorb overload before anything else is touched, but a
        batch waiter parked past ``aging_seconds`` is promoted first
        and then sheds only under the oldest-first rule that governs
        interactive waiters — sustained interactive pressure can no
        longer starve a parked batch query indefinitely.  A batch
        arrival into a queue of interactive (or promoted) waiters
        sheds itself — it must not evict higher-priority work.
        """
        self._age_queue()
        for i, waiter in enumerate(self._queue):
            if waiter.query_class == "batch" and not waiter.promoted:
                self._resolve_shed(i)
                return True
        if incoming_class == "batch":
            return False
        if self._queue:  # interactive/promoted only: oldest one sheds
            self._resolve_shed(0)
            return True
        return False

    def _resolve_shed(self, index: int) -> None:
        waiter = self._queue.pop(index)
        self._note_dequeue(waiter)
        if not waiter.future.done():
            waiter.future.set_result(None)

    def _pump(self) -> None:
        """Grant queue heads while the admission budget has room."""
        while self._queue:
            waiter = self._queue[0]
            if waiter.future.done():  # expired while parked
                self._note_dequeue(self._queue.pop(0))
                continue
            grant = self.admission.try_acquire(
                waiter.query_class, waiter.nbytes
            )
            if grant is None:
                return
            self._note_dequeue(self._queue.pop(0))
            waiter.future.set_result(grant)

    async def _admit(self, query_class: str, nbytes: int,
                     deadline: Optional[float], t0: float):
        """A grant for this query, or None when it shed/expired.

        Raises :class:`AdmissionError` for queries that could never be
        admitted and :class:`InjectedFault` when a ``serve.queue``
        chaos rule fires.
        """
        if nbytes > self.admission.total_bytes:
            raise AdmissionError(
                f"a {query_class} grant of {nbytes} bytes exceeds the "
                f"admission budget of {self.admission.total_bytes}"
            )
        if self.faults is not None:
            rule = self.faults.fire("serve.queue",
                                    query_class=query_class)
            if rule is not None:
                if rule.kind == "exception":
                    raise InjectedFault(
                        "injected admission failure (serve.queue)"
                    )
                await asyncio.sleep(rule.delay_seconds)
        # FIFO fairness: nobody barges past parked waiters.
        if not self._queue:
            grant = self.admission.try_acquire(query_class, nbytes)
            if grant is not None:
                return grant
        if len(self._queue) >= self.queue_depth:
            if not self._shed_for(query_class):
                return None  # incoming query sheds itself
        future = asyncio.get_running_loop().create_future()
        waiter = _Waiter(query_class, nbytes, future, t0)
        self._queue.append(waiter)
        self.queued_total += 1
        self.queue_high_water = max(
            self.queue_high_water, len(self._queue)
        )
        timeout = (deadline - time.monotonic()
                   if deadline is not None else None)
        try:
            grant = await asyncio.wait_for(
                asyncio.shield(future), timeout
            )
        except (asyncio.TimeoutError, asyncio.CancelledError) as gave_up:
            # Expired while parked, or the caller was cancelled there
            # (its own timeout, a disconnect, shutdown) — the shield
            # keeps the queue's future alive either way, so it is let
            # go of here.  Whatever fate won the race, the time this
            # waiter spent queued is queue wait.
            cancelled = isinstance(gave_up, asyncio.CancelledError)
            self.queue_wait_seconds += (
                time.monotonic() - waiter.enqueued_at
            )
            self._note_dequeue(waiter)
            if future.done():
                resolved = future.result()
                if resolved is not None:
                    # The pump granted concurrently — hand it straight
                    # back.
                    resolved.release()
                    self._pump()
                elif not cancelled:
                    # Shed in the same tick the deadline fired: the
                    # shed decision already removed the waiter and
                    # charged nothing — report it as shed.
                    return None
            else:
                future.cancel()
            if waiter in self._queue:
                self._queue.remove(waiter)
            if cancelled:
                raise
            raise DeadlineExceeded("deadline passed while queued")
        self.queue_wait_seconds += time.monotonic() - waiter.enqueued_at
        return grant  # a ResourceGrant, or None when shed

    # -- serving -----------------------------------------------------------

    def _caller_gone(self, query_class: str, token: CancelToken) -> None:
        """``submit`` was cancelled (the caller's own timeout, a client
        disconnect, shutdown): nobody will read this query's fate, so
        it counts with the expired, and an engine thread already
        running it stops at its next checkpoint."""
        token.cancel()
        self.expired += 1
        self.per_class[query_class]["expired"] += 1

    async def submit(self, query: Query,
                     query_class: str = "interactive",
                     deadline_seconds: Optional[float] = None,
                     ) -> ServeResponse:
        """Serve one query through admission, returning its fate."""
        if query_class not in QUERY_CLASSES:
            raise ValueError(
                f"unknown query class {query_class!r}; expected one "
                f"of {QUERY_CLASSES}"
            )
        t0 = time.monotonic()
        self.submitted += 1
        self.per_class[query_class]["submitted"] += 1
        if deadline_seconds is None:
            deadline_seconds = self.default_deadline_seconds
        deadline = (t0 + deadline_seconds
                    if deadline_seconds is not None else None)
        nbytes = self.grant_bytes[query_class]

        def finish(status: str, queue_seconds: float,
                   **kw) -> ServeResponse:
            return ServeResponse(
                status=status, query_class=query_class,
                wall_seconds=time.monotonic() - t0,
                queue_seconds=queue_seconds, **kw,
            )

        # The token is both the engine's cooperative checkpoint and —
        # because it pickles — the per-payload cancellation flag pool
        # workers check at tile boundaries.  An absolute monotonic
        # deadline travels exactly across fork.
        token = CancelToken(deadline)

        try:
            grant = await self._admit(query_class, nbytes, deadline, t0)
        except DeadlineExceeded:
            self.expired += 1
            self.per_class[query_class]["expired"] += 1
            return finish("expired", time.monotonic() - t0,
                          error="deadline passed while queued")
        except asyncio.CancelledError:
            self._caller_gone(query_class, token)
            raise
        except AdmissionError as exc:
            self.rejected += 1
            self.per_class[query_class]["rejected"] += 1
            return finish("rejected", 0.0, error=str(exc))
        except InjectedFault as exc:
            self.errors += 1
            self.per_class[query_class]["errors"] += 1
            return finish("error", 0.0, error=str(exc))
        if grant is None:
            self.shed += 1
            self.per_class[query_class]["shed"] += 1
            return finish("shed", time.monotonic() - t0,
                          error="load shed: admission queue full")
        queue_seconds = time.monotonic() - t0
        try:
            if self.faults is not None:
                rule = self.faults.fire("serve.deadline",
                                        query_class=query_class)
                if rule is not None:
                    if rule.kind == "exception":
                        raise DeadlineExceeded(
                            "injected deadline expiry (serve.deadline)"
                        )
                    await asyncio.sleep(rule.delay_seconds)
            if deadline is not None and time.monotonic() > deadline:
                raise DeadlineExceeded(
                    "deadline passed before dispatch"
                )

            # A result-cache hit never blocks: it is answered here, on
            # the loop, unless the engine's lock is busy.
            out = self.engine.cached_reply(query, token)
            if out is not None:
                self.served_on_loop += 1
            else:
                self.in_flight += 1
                self.in_flight_high_water = max(
                    self.in_flight_high_water, self.in_flight
                )
                try:
                    out = await asyncio.get_running_loop().run_in_executor(
                        self._executor,
                        lambda: self.engine.execute(query, cancel=token),
                    )
                finally:
                    self.in_flight -= 1
            degraded = bool(out.result.detail.get("degraded"))
            self.served_ok += 1
            if degraded:
                self.served_degraded += 1
            self.per_class[query_class]["ok"] += 1
            return finish("ok", queue_seconds,
                          pairs=out.result.n_pairs, degraded=degraded,
                          result=out)
        except DeadlineExceeded as exc:
            self.expired += 1
            self.per_class[query_class]["expired"] += 1
            return finish("expired", queue_seconds, error=str(exc))
        except asyncio.CancelledError:
            self._caller_gone(query_class, token)
            raise
        except AdmissionError as exc:
            # The engine's own gate (a per-query grant below this
            # layer): surfaced as a rejection, not an exception.
            self.rejected += 1
            self.per_class[query_class]["rejected"] += 1
            return finish("rejected", queue_seconds, error=str(exc))
        except Exception as exc:  # noqa: BLE001 — fate, not crash
            self.errors += 1
            self.per_class[query_class]["errors"] += 1
            return finish("error", queue_seconds,
                          error=f"{type(exc).__name__}: {exc}")
        finally:
            grant.release()
            self._pump()

    # -- observability / lifecycle -----------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "served_ok": self.served_ok,
            "served_degraded": self.served_degraded,
            "served_on_loop": self.served_on_loop,
            "queued_total": self.queued_total,
            "queue_length": len(self._queue),
            "queue_depth": self.queue_depth,
            "queue_high_water": self.queue_high_water,
            "queue_wait_seconds": self.queue_wait_seconds,
            "shed": self.shed,
            "expired": self.expired,
            "rejected": self.rejected,
            "errors": self.errors,
            "in_flight": self.in_flight,
            "in_flight_high_water": self.in_flight_high_water,
            "max_concurrency": self.max_concurrency,
            "aged_promotions": self.aged_promotions,
            "queue_age_max_seconds": dict(self.queue_age_max_seconds),
            "grant_bytes": dict(self.grant_bytes),
            "admission": self.admission.snapshot(),
            "per_class": {
                c: dict(v) for c, v in self.per_class.items()
            },
        }

    def metrics_snapshot(self) -> Dict[str, object]:
        """The engine's snapshot with the serve layer nested under it.

        The Prometheus walker flattens unknown nested dicts under the
        exporter's ``repro_engine`` namespace, so every serve counter
        lands in the scrape as ``repro_engine_serve_*`` with no
        exporter changes (``validate_prometheus``'s ``prefix``
        argument pins exactly this).
        """
        snap = self.engine.metrics_snapshot()
        snap["serve"] = self.snapshot()
        return snap

    def close(self) -> None:
        # Resolve parked waiters as shed first: a submit coroutine
        # still awaiting its queue future must not hang forever when
        # close() is called from inside a live event loop.
        while self._queue:
            waiter = self._queue.pop(0)
            self._note_dequeue(waiter)
            if not waiter.future.done():
                try:
                    waiter.future.set_result(None)
                except RuntimeError:
                    # The future's loop already closed (close() after
                    # asyncio.run): nobody is waiting on it anymore.
                    pass
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- HTTP endpoint ---------------------------------------------------------

_STATUS_HTTP = {
    "ok": 200,
    "shed": 503,
    "expired": 504,
    "rejected": 413,
    "error": 500,
}

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable",
            504: "Gateway Timeout"}


def _http_response(code: int, body: bytes,
                   content_type: str = "application/json",
                   keep_alive: bool = False) -> bytes:
    reason = _REASONS.get(code, "OK")
    conn = "keep-alive" if keep_alive else "close"
    head = (f"HTTP/1.1 {code} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {conn}\r\n\r\n")
    return head.encode("ascii") + body


def _finite_number(value: object) -> bool:
    """A JSON number usable as a coordinate or a duration: not the
    NaN, Infinity, boolean or too-big-for-a-float ``json.loads`` allows."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def parse_query_body(body: bytes) -> Dict[str, object]:
    """Decode one POST /query body into ``submit`` keyword arguments.

    Accepted JSON keys: ``relations`` (list of names, required),
    ``window`` (``[xlo, xhi, ylo, yhi]``), ``count_only`` (bool),
    ``class`` (``interactive``/``batch``), ``deadline_ms`` (number).
    Raises ``ValueError`` on anything malformed — the endpoint turns
    that into a 400, never a served query.
    """
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"invalid JSON body: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("query body must be a JSON object")
    allowed = {"relations", "window", "count_only", "class",
               "deadline_ms"}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown query keys: {sorted(unknown)}")
    relations = data.get("relations")
    if (not isinstance(relations, list) or len(relations) < 2
            or not all(isinstance(r, str) for r in relations)):
        raise ValueError(
            "relations must be a list of at least two names"
        )
    window = None
    if data.get("window") is not None:
        w = data["window"]
        if (not isinstance(w, list) or len(w) != 4
                or not all(_finite_number(v) for v in w)
                or w[0] > w[1] or w[2] > w[3]):
            raise ValueError(
                "window must be [xlo, xhi, ylo, yhi]: finite numbers "
                "with xlo <= xhi and ylo <= yhi"
            )
        window = Rect(float(w[0]), float(w[1]),
                      float(w[2]), float(w[3]), 0)
    query_class = data.get("class", "interactive")
    if query_class not in QUERY_CLASSES:
        raise ValueError(
            f"class must be one of {list(QUERY_CLASSES)}"
        )
    deadline_seconds = None
    if data.get("deadline_ms") is not None:
        ms = data["deadline_ms"]
        if not _finite_number(ms) or ms <= 0:
            raise ValueError("deadline_ms must be a positive number")
        deadline_seconds = float(ms) / 1e3
    count_only = data.get("count_only", False)
    if not isinstance(count_only, bool):
        raise ValueError("count_only must be a boolean")
    query = Query(
        relations=tuple(relations), window=window,
        collect_pairs=not count_only,
    )
    return {"query": query, "query_class": query_class,
            "deadline_seconds": deadline_seconds}


#: Largest request body the endpoint will buffer.  Query bodies are a
#: few hundred bytes; anything near the cap is abuse or a bug, and an
#: unbounded Content-Length must not let one connection claim
#: arbitrary memory.
MAX_BODY_BYTES = 1 << 20

#: Largest declared body the endpoint will *drain* (discard without
#: buffering) to keep a persistent connection usable after a 413.
#: Beyond this, draining costs more than the connection is worth and
#: the response forces ``Connection: close`` instead.
MAX_DRAIN_BYTES = 8 << 20

#: Requests served on one connection before the endpoint closes it —
#: persistent connections must not pin server tasks forever.
MAX_REQUESTS_PER_CONNECTION = 100

#: Concurrent connections the endpoint handles; beyond this an
#: immediate 503 tells load balancers to back off without the request
#: ever reaching the admission queue.
MAX_CONNECTIONS = 256


async def _read_request(reader) -> Optional[Dict[str, object]]:
    """Parse one request; returns None at clean EOF.

    The returned dict always carries ``keep_alive`` (whether the
    *client* allows reuse: HTTP/1.1 defaults on, HTTP/1.0 defaults
    off, an explicit ``Connection:`` header wins either way) and has
    consumed the declared body from the stream on every path —
    including 413s up to :data:`MAX_DRAIN_BYTES` and bodies attached
    to GETs — so the next request on a persistent connection starts at
    a request line, never mid-body.  A head that does not say where
    its body ends (``Content-Length`` not one non-negative integer, any
    ``Transfer-Encoding``) sets ``bad_framing`` and clears ``keep_alive``.
    """
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) < 2:
        return None
    method, path = parts[0].upper(), parts[1]
    version = parts[2].upper() if len(parts) > 2 else "HTTP/1.0"
    keep_alive = version == "HTTP/1.1"
    length: Optional[int] = None
    bad_framing = False
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            digits = value.strip()
            if (digits.isascii() and digits.isdigit()
                    and length in (None, int(digits))):
                length = int(digits)
            else:
                bad_framing = True
        elif name == "transfer-encoding":
            bad_framing = True
        elif name == "connection":
            tokens = {t.strip().lower() for t in value.split(",")}
            if "close" in tokens:
                keep_alive = False
            elif "keep-alive" in tokens:
                keep_alive = True
    if bad_framing:
        return {"method": method, "path": path, "body": b"",
                "bad_framing": True, "keep_alive": False}
    length = length or 0
    if length > MAX_BODY_BYTES:
        # Refuse to buffer, but drain what's reasonable so the
        # connection stays usable; past the drain cap, force close.
        if length <= MAX_DRAIN_BYTES:
            remaining = length
            while remaining > 0:
                chunk = await reader.read(min(remaining, 1 << 16))
                if not chunk:
                    raise asyncio.IncompleteReadError(b"", remaining)
                remaining -= len(chunk)
        else:
            keep_alive = False
        return {"method": method, "path": path, "body": b"",
                "too_large": True, "keep_alive": keep_alive}
    body = await reader.readexactly(length) if length else b""
    return {"method": method, "path": path, "body": body,
            "keep_alive": keep_alive}


async def serve_http(frontend: ServingFrontend,
                     host: str = "127.0.0.1", port: int = 0,
                     max_connections: int = MAX_CONNECTIONS):
    """Serve the front-end over HTTP; returns the asyncio server.

    ``POST /query`` runs a query (JSON body, see
    :func:`parse_query_body`); ``GET /metrics`` renders the merged
    engine+serve snapshot in Prometheus exposition format;
    ``GET /healthz`` answers liveness probes.

    Connections are persistent (HTTP/1.1 keep-alive) by default:
    requests are handled back-to-back on one connection until the
    client sends ``Connection: close``, EOF, or
    :data:`MAX_REQUESTS_PER_CONNECTION` is reached — so a load driver
    reuses one socket instead of paying a handshake per query.
    Requests already buffered behind the current one are naturally
    served in arrival order (pipelining).  At most ``max_connections``
    connections are handled concurrently; beyond that the endpoint
    answers an immediate 503 and closes.
    """
    from repro.engine.obs import render_prometheus

    active = 0

    async def respond(req) -> Tuple[bytes, bool]:
        keep = bool(req.get("keep_alive"))
        if req.get("bad_framing"):
            return _http_response(
                400, b'{"error": "bad Content-Length or '
                b'Transfer-Encoding"}\n'), False
        if req.get("too_large"):
            return _http_response(
                413, b'{"error": "request body too large"}\n',
                keep_alive=keep,
            ), keep
        if req["path"] == "/healthz" and req["method"] == "GET":
            return _http_response(200, b'{"status": "ok"}\n',
                                  keep_alive=keep), keep
        if req["path"] == "/metrics" and req["method"] == "GET":
            text = render_prometheus(frontend.metrics_snapshot())
            return _http_response(
                200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4",
                keep_alive=keep,
            ), keep
        if req["path"] == "/query":
            if req["method"] != "POST":
                return _http_response(
                    405, b'{"error": "use POST"}\n', keep_alive=keep
                ), keep
            try:
                kwargs = parse_query_body(req["body"])
                # A name the catalog does not hold is the client's
                # mistake: answered here, before it takes a grant.
                for name in kwargs["query"].relations:
                    frontend.engine.universe_of(name)
            except (ValueError, KeyError) as exc:
                # args[0], not str(): a KeyError's str is a repr.
                return _http_response(
                    400,
                    json.dumps({"error": exc.args[0]}).encode("utf-8")
                    + b"\n",
                    keep_alive=keep,
                ), keep
            resp = await frontend.submit(**kwargs)
            return _http_response(
                _STATUS_HTTP[resp.status],
                json.dumps(resp.to_dict()).encode("utf-8") + b"\n",
                keep_alive=keep,
            ), keep
        return _http_response(404, b'{"error": "not found"}\n',
                              keep_alive=keep), keep

    async def handle(reader, writer) -> None:
        nonlocal active
        if active >= max_connections:
            try:
                writer.write(_http_response(
                    503, b'{"error": "too many connections"}\n'
                ))
                await writer.drain()
            except ConnectionError:
                pass
            finally:
                writer.close()
            return
        active += 1
        served = 0
        try:
            while served < MAX_REQUESTS_PER_CONNECTION:
                req = await _read_request(reader)
                if req is None:
                    return
                served += 1
                if served >= MAX_REQUESTS_PER_CONNECTION:
                    req["keep_alive"] = False
                out, keep = await respond(req)
                writer.write(out)
                await writer.drain()
                if not keep:
                    return
        except (ConnectionError, asyncio.IncompleteReadError,
                ValueError):
            # ValueError covers malformed reads (e.g. readexactly on a
            # bogus length): drop the connection rather than the task.
            pass
        except asyncio.CancelledError:
            # Shutdown while parked between requests on a persistent
            # connection: a normal fate for a keep-alive handler, not
            # an error to propagate out of the dying loop.
            pass
        finally:
            active -= 1
            writer.close()

    return await asyncio.start_server(handle, host, port)
