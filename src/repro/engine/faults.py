"""Deterministic fault injection for chaos-testing the serving stack.

A replicated sharded engine only earns its availability story if the
failure paths actually run — and they never run in a healthy test
environment.  :class:`FaultPlan` makes failure a first-class, *seeded*
input: a list of :class:`FaultRule` triggers ("the 3rd task on this
pool raises", "the first sub-query on shard 1 fails") that the
:class:`~repro.engine.pool.WorkerPool`,
:class:`~repro.engine.shard.ShardedEngine` and the serving front-end
consult at well-defined **sites**.  The plan is plain state + an
optional seeded RNG, so the same plan object replays the same fault
schedule — chaos runs are reproducible in tests and CI, not flaky.

Sites and the fault kinds they honour:

``pool.task``
    Wraps a submitted task.  ``exception`` raises
    :class:`InjectedFault` from the task body (propagates to the
    caller like any worker bug — a replicated scatter fails over);
    ``crash`` kills the worker process (``os._exit``) on a real
    process pool, or raises :class:`InjectedCrash` — a
    ``BrokenExecutor`` — when the task runs on the coordinator (a
    serial or demoted pool), exercising the broken-pool recovery path
    either way; ``slow`` sleeps ``delay_seconds`` before running the
    task unchanged.
``pool.submit``
    ``break`` makes the submission behave as if the executor were
    found broken: the pool demotes itself to ``serial``, stops its
    workers and recomputes the task inline (the exact degraded path a dead
    worker triggers at submit time).
``shard.execute``
    ``exception`` raises :class:`InjectedFault` *before* the chosen
    replica runs the sub-query — a whole-replica outage from the
    scatter layer's point of view; ``slow`` sleeps first (tripping the
    replica-timeout health penalty) and then runs normally.
``serve.queue``
    Consulted when the serving front-end admits one query.
    ``exception`` fails the admission (the caller sees an error
    response, never a hang); ``slow`` delays the grant attempt, which
    under load turns into real queueing pressure.
``serve.deadline``
    Consulted when a granted query is about to dispatch.  ``exception``
    forces the deadline-expired path (grant released, query never
    reaches the engine); ``slow`` burns queue-to-dispatch time first,
    the way a stalled event loop would.

Rules fire deterministically: each rule counts the calls that reach
its site (``seen``), skips the first ``after`` of them, then fires up
to ``times`` times (``times=None`` fires forever).  ``probability``
below 1.0 draws from the plan's seeded RNG — still reproducible for a
fixed seed and call order.  ``match`` restricts a rule to calls whose
attributes contain a substring (e.g. ``match="shard=1"`` faults only
shard 1's replicas), which is how a test kills *one specific replica*.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence

FAULT_SITES = (
    "pool.task",
    "pool.submit",
    "shard.execute",
    "serve.queue",
    "serve.deadline",
)

FAULT_KINDS = ("exception", "crash", "slow", "break")

#: Which kinds make sense where; ``FaultPlan`` rejects the rest up
#: front so a typo'd plan fails at construction, not silently.
_SITE_KINDS = {
    "pool.task": ("exception", "crash", "slow"),
    "pool.submit": ("break",),
    "shard.execute": ("exception", "slow"),
    "serve.queue": ("exception", "slow"),
    "serve.deadline": ("exception", "slow"),
}


class InjectedFault(RuntimeError):
    """A deliberate task/replica failure raised by a fault rule."""


class InjectedCrash(BrokenExecutor):
    """A deliberate worker 'crash' for pools with no process to kill.

    Subclasses :class:`concurrent.futures.BrokenExecutor` so the
    executor's gather treats it exactly like a real dead worker:
    broken-pool demotion plus inline recovery of the lost task.
    """


@dataclass
class FaultRule:
    """One trigger: at ``site``, inject ``kind`` on selected calls."""

    site: str
    kind: str
    #: How many times to fire (None = every matching call forever).
    times: Optional[int] = 1
    #: Matching calls to let pass before the first firing.
    after: int = 0
    #: Firing probability once eligible (1.0 = deterministic).
    probability: float = 1.0
    #: Sleep injected by ``slow`` kinds, seconds.
    delay_seconds: float = 0.05
    #: Substring that must appear in the call's rendered attributes
    #: (``"key=value"`` tokens) for the rule to consider the call.
    match: Optional[str] = None
    # -- runtime state (owned by the plan's lock) ----------------------
    seen: int = field(default=0, compare=False)
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; "
                f"expected one of {FAULT_SITES}"
            )
        if self.kind not in _SITE_KINDS[self.site]:
            raise ValueError(
                f"fault kind {self.kind!r} is not valid at "
                f"{self.site!r}; expected one of "
                f"{_SITE_KINDS[self.site]}"
            )
        if self.times is not None and self.times < 0:
            raise ValueError("times must be >= 0 or None")
        if self.after < 0:
            raise ValueError("after must be >= 0")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def snapshot(self) -> Dict[str, object]:
        return {
            "site": self.site,
            "kind": self.kind,
            "times": self.times,
            "after": self.after,
            "probability": self.probability,
            "match": self.match,
            "seen": self.seen,
            "fired": self.fired,
        }


class FaultPlan:
    """A seeded schedule of fault rules, consulted at injection sites.

    Thread-safe: a shared worker pool consults the plan from several
    coordinator threads, and rule counters must not race.  The plan is
    intended to be shared by every component of one deployment (pool,
    scatter layer, front-end), so one plan describes one chaos scenario.
    """

    def __init__(self, rules: Sequence[FaultRule] = (),
                 seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self._rng = Random(seed)
        self._lock = threading.Lock()
        #: ``"site:kind" -> count`` of faults actually injected.
        self.injected: Dict[str, int] = {}

    @classmethod
    def from_json(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from a JSON list of rule objects.

        The CLI surface: ``--faults '[{"site": "pool.task", "kind":
        "crash"}]'``.  Unknown keys are rejected so a misspelled field
        cannot silently disable a rule.
        """
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("fault plan JSON must be a list of rules")
        allowed = {"site", "kind", "times", "after", "probability",
                   "delay_seconds", "match"}
        rules = []
        for obj in data:
            if not isinstance(obj, dict):
                raise ValueError("each fault rule must be an object")
            unknown = set(obj) - allowed
            if unknown:
                raise ValueError(
                    f"unknown fault rule keys: {sorted(unknown)}"
                )
            rules.append(FaultRule(**obj))
        return cls(rules, seed=seed)

    def fire(self, site: str, **attrs) -> Optional[FaultRule]:
        """The rule injecting at this call, or None to proceed cleanly.

        At most one rule fires per call (first declared wins), so a
        plan listing several rules for one site spreads them over
        successive calls via their ``after``/``times`` windows.
        """
        if not self.rules:
            return None
        rendered = None
        with self._lock:
            for rule in self.rules:
                if rule.site != site:
                    continue
                if rule.match is not None:
                    if rendered is None:
                        rendered = " ".join(
                            f"{k}={v}" for k, v in sorted(attrs.items())
                        )
                    if rule.match not in rendered:
                        continue
                rule.seen += 1
                if rule.seen <= rule.after:
                    continue
                if rule.times is not None and rule.fired >= rule.times:
                    continue
                if (rule.probability < 1.0
                        and self._rng.random() >= rule.probability):
                    continue
                rule.fired += 1
                key = f"{site}:{rule.kind}"
                self.injected[key] = self.injected.get(key, 0) + 1
                return rule
        return None

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "seed": self.seed,
                "rules": [r.snapshot() for r in self.rules],
                "injected": dict(self.injected),
            }
