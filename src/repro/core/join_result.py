"""The result record every join algorithm returns."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple


@dataclass
class JoinResult:
    """Outcome of one spatial join (filter step).

    Attributes
    ----------
    algorithm:
        Short name ("SSSJ", "PBSM", "ST", "PQ", ...).
    n_pairs:
        Number of intersecting MBR pairs reported.
    pairs:
        The (left id, right id) pairs themselves — id tuples of the
        join's arity for a multiway join — present only when the
        caller asked to collect them (large experiments count only).
        Read it as an immutable sequence of tuples: the algorithms
        return a list, a numpy engine returns
        :class:`~repro.core.columnar.PairColumns` (one int64 array that
        builds tuples as they are read) and shares it with its result
        cache, so it compares equal to the list it replaces but cannot
        be written to.
    max_memory_bytes:
        High-water mark of the algorithm's internal-memory structures
        (sweep actives + queues/partitions), the Table 3 measure.
    detail:
        Algorithm-specific metrics: page requests, partition counts,
        queue sizes, buffer-pool hit rates, ...
    """

    algorithm: str
    n_pairs: int
    pairs: Optional[Sequence[Tuple[int, ...]]] = None
    max_memory_bytes: int = 0
    detail: Dict[str, float] = field(default_factory=dict)

    def pair_set(self) -> set:
        """The result as a set, for equivalence checks between algorithms."""
        if self.pairs is None:
            raise ValueError(
                f"{self.algorithm} ran in count-only mode; "
                "re-run with collect_pairs=True"
            )
        return set(self.pairs)
