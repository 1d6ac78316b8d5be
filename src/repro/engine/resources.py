"""The engine's internal-memory contract: one budget, many consumers.

The paper runs every algorithm under an explicit internal-memory grant
(Section 5.1: 24 MB for the stream algorithms, a 22 MB LRU pool for the
tree join), and its cost arguments only hold because nothing quietly
exceeds that grant.  :class:`ResourceBudget` turns the simulated budget
(:data:`repro.sim.scale.ScaleConfig.memory_bytes`) into an *enforced*
runtime contract shared by every layer of the serving engine:

* the storage layer's :func:`~repro.storage.sort.external_sort` sizes
  its run-formation chunks to what the budget can actually grant (and
  a :class:`~repro.storage.buffer_pool.BufferPool` given the budget
  charges its resident pages);
* the core layer's :class:`~repro.core.pbsm.SpillablePartition` holds
  tiles in memory up to its allowance and overflows to disk;
* the engine layer acquires per-query grants for partitioned tiles and
  rejects queries whose minimum grant can never fit (admission
  control).  (Result-cache memory is deliberately *not* charged here —
  it is governed by the cache's own byte bound, so cached results can
  never starve execution grants.)

The budget is pure accounting plus advisory granting: ``acquire``
returns a :class:`ResourceGrant` for *up to* the requested bytes (never
less than the caller's stated minimum — an overcommit, which is
counted), and consumers adapt (smaller sort chunks, spilled tiles)
rather than fail.  ``high_water_bytes`` records the worst case actually
reached, per category and overall — the number the paper's Table 3
memory rows report.

Grants may be charged and released from executor worker threads, so all
mutation happens under one lock.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class AdmissionError(RuntimeError):
    """Raised when a query's minimum memory grant exceeds the budget.

    Admission control protects a serving engine: a query that could not
    run even with maximal spilling is refused up front instead of
    degrading every other query on the engine.
    """


class ResourceGrant:
    """A lease on budget bytes, held by one consumer.

    ``held`` is what the grant currently charges to the budget; it
    starts at the granted amount and moves via :meth:`charge` /
    :meth:`release`.  Grants are context managers — leaving the block
    releases whatever is still held.
    """

    __slots__ = ("budget", "category", "granted", "held", "_closed")

    def __init__(self, budget: "ResourceBudget", category: str,
                 granted: int) -> None:
        self.budget = budget
        self.category = category
        self.granted = granted
        self.held = granted
        self._closed = False

    @property
    def bytes(self) -> int:
        """The advisory allowance this grant was issued for."""
        return self.granted

    def charge(self, nbytes: int) -> None:
        """Grow the held amount by ``nbytes`` (accounting, not refusal)."""
        if nbytes <= 0 or self._closed:
            return
        self.held += nbytes
        self.budget._charge(self.category, nbytes)

    def try_extend(self, nbytes: int) -> bool:
        """Grow the grant by ``nbytes`` only if the budget has them free.

        The refusal-capable sibling of :meth:`charge`: consumers that
        can degrade gracefully (spill, shrink) ask before taking more,
        so they never push the budget past its total.
        """
        if nbytes <= 0 or self._closed:
            return False
        if not self.budget._try_charge(self.category, nbytes):
            return False
        self.held += nbytes
        self.granted += nbytes
        return True

    def release(self, nbytes: Optional[int] = None) -> None:
        """Return bytes to the budget.

        ``release(n)`` gives back up to ``n`` held bytes and keeps the
        grant alive (a long-lived consumer like the buffer pool shrinks
        and regrows).  ``release()`` gives back everything and closes
        the grant for good.
        """
        if self._closed:
            return
        if nbytes is None:
            nbytes = self.held
            self._closed = True
        else:
            nbytes = min(nbytes, self.held)
        if nbytes > 0:
            self.held -= nbytes
            self.budget._release(self.category, nbytes)

    def __enter__(self) -> "ResourceGrant":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class ResourceBudget:
    """Byte-granular memory budget with per-category accounting."""

    def __init__(self, total_bytes: int) -> None:
        if total_bytes <= 0:
            raise ValueError("a resource budget needs at least one byte")
        self.total_bytes = total_bytes
        self._lock = threading.Lock()
        self._in_use = 0
        self._by_category: Dict[str, int] = {}
        self.high_water_bytes = 0
        self.high_water_by_category: Dict[str, int] = {}
        self.grants_issued = 0
        self.overcommits = 0

    # -- granting --------------------------------------------------------

    def acquire(self, category: str, nbytes: int,
                minimum: int = 0) -> ResourceGrant:
        """Grant up to ``nbytes`` from what is currently free.

        The grant is clamped to the free budget but never below
        ``minimum``: a consumer that cannot function below some floor
        (a sort needs at least one sortable chunk) is overcommitted
        rather than refused, and the overcommit is counted — admission
        control exists to keep genuinely impossible requests out before
        they reach this point.
        """
        if nbytes < 0 or minimum < 0:
            raise ValueError("grant sizes cannot be negative")
        with self._lock:
            free = self.total_bytes - self._in_use
            granted = min(nbytes, max(free, 0))
            if granted < minimum:
                granted = minimum
                self.overcommits += 1
            self.grants_issued += 1
            self._charge_locked(category, granted)
        return ResourceGrant(self, category, granted)

    def try_acquire(self, category: str,
                    nbytes: int) -> Optional[ResourceGrant]:
        """Grant exactly ``nbytes``, or None when they are not free.

        The refusal-capable sibling of :meth:`acquire`: no clamping, no
        overcommit.  An admission *queue* uses this to decide whether a
        query can run now or must park until a grant is released —
        parking replaces both the overcommit (which would let load melt
        the budget) and the hard :class:`AdmissionError` (which would
        refuse serveable work).
        """
        if nbytes < 0:
            raise ValueError("grant sizes cannot be negative")
        with self._lock:
            if nbytes > self.total_bytes - self._in_use:
                return None
            self.grants_issued += 1
            self._charge_locked(category, nbytes)
        return ResourceGrant(self, category, nbytes)

    # -- reading ---------------------------------------------------------

    @property
    def in_use_bytes(self) -> int:
        return self._in_use

    @property
    def available_bytes(self) -> int:
        return max(0, self.total_bytes - self._in_use)

    def used_by(self, category: str) -> int:
        return self._by_category.get(category, 0)

    def would_fit(self, nbytes: int) -> bool:
        return nbytes <= self.available_bytes

    def snapshot(self) -> Dict[str, object]:
        """One dict of totals, per-category usage and high-water marks."""
        with self._lock:
            return {
                "total_bytes": self.total_bytes,
                "in_use_bytes": self._in_use,
                "high_water_bytes": self.high_water_bytes,
                "by_category": dict(self._by_category),
                "high_water_by_category": dict(self.high_water_by_category),
                "grants_issued": self.grants_issued,
                "overcommits": self.overcommits,
            }

    # -- internals (called by ResourceGrant) -----------------------------

    def _charge(self, category: str, nbytes: int) -> None:
        with self._lock:
            self._charge_locked(category, nbytes)

    def _try_charge(self, category: str, nbytes: int) -> bool:
        with self._lock:
            if nbytes > self.total_bytes - self._in_use:
                return False
            self._charge_locked(category, nbytes)
            return True

    def _charge_locked(self, category: str, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self._in_use += nbytes
        used = self._by_category.get(category, 0) + nbytes
        self._by_category[category] = used
        if self._in_use > self.high_water_bytes:
            self.high_water_bytes = self._in_use
        if used > self.high_water_by_category.get(category, 0):
            self.high_water_by_category[category] = used

    def _release(self, category: str, nbytes: int) -> None:
        if nbytes <= 0:
            return
        with self._lock:
            self._in_use = max(0, self._in_use - nbytes)
            left = self._by_category.get(category, 0) - nbytes
            if left > 0:
                self._by_category[category] = left
            else:
                self._by_category.pop(category, None)
