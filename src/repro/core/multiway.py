"""Multi-way intersection joins by cascading PQ (end of Section 4).

"A 3-way intersection join can be performed by feeding the output of a
two-way join directly into another join with a third (indexed or
non-indexed) input."  The piece that makes this work is an invariant of
the sweep: a pair is discovered when the later of its two rectangles
arrives, so the intersection rectangles of the output stream are
themselves sorted by lower y-coordinate and need no re-sort before
entering the next sweep.

``multiway_join`` folds any number of inputs left-to-right.  Result
tuples carry one object id per input relation; an id tuple is reported
once per distinct combination of objects whose MBRs have a common
intersection... more precisely, whose left-fold of pairwise
intersections is non-empty — which for axis-parallel rectangles is
exactly the n-way common-intersection predicate, since
``(a ∩ b) ∩ c = a ∩ b ∩ c``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.join_result import JoinResult
from repro.core.pq_join import JoinInput, PQConfig, _as_source, _bounding_box
from repro.core.sources import JoinSource, SortedSource
from repro.core.sweep import structure_factory, sweep_join_iter
from repro.geom.rect import Rect, union_mbr
from repro.storage.disk import Disk


def multiway_join(
    inputs: Sequence[JoinInput],
    disk: Disk,
    universe: Optional[Rect] = None,
    config: PQConfig = PQConfig(),
    collect_tuples: bool = False,
) -> JoinResult:
    """N-way intersection join over any mix of representations.

    Returns a :class:`JoinResult` whose ``pairs`` field (when collected)
    holds n-ary id tuples rather than 2-tuples.
    """
    if len(inputs) < 2:
        raise ValueError("multiway_join needs at least two inputs")
    env = disk.env

    if universe is None:
        boxes = [b for b in (_bounding_box(i) for i in inputs) if b]
        if boxes:
            acc = boxes[0]
            for b in boxes[1:]:
                acc = union_mbr(acc, b)
            universe = acc

    factory = structure_factory(config.structure, config.nstrips, universe)

    # Intersection rectangles flowing between stages carry synthetic
    # ids; this table maps them back to the tuple of original ids.
    provenance: Dict[int, Tuple[int, ...]] = {}
    next_synth = [1]

    def tag(rect: Rect, ids: Tuple[int, ...]) -> Rect:
        synth = next_synth[0]
        next_synth[0] += 1
        provenance[synth] = ids
        return Rect(rect.xlo, rect.xhi, rect.ylo, rect.yhi, synth)

    current: SortedSource = _as_source(inputs[0], disk, None, tag="mw0")
    stage = 0
    for nxt_input in inputs[1:]:
        stage += 1
        nxt = _as_source(nxt_input, disk, None, tag=f"mw{stage}")
        pair_iter = sweep_join_iter(
            iter(current), iter(nxt), factory, env
        )

        def tagged_intersections(pi=pair_iter, first=(stage == 1)):
            from repro.geom.rect import intersection

            for ra, rb in pi:
                inter = intersection(ra, rb)
                if inter is None:  # pragma: no cover
                    continue
                if first:
                    ids = (ra.rid, rb.rid)
                else:
                    # An intermediate rectangle can pair with several
                    # rectangles of the next input, so its provenance is
                    # read (not popped) here.
                    ids = provenance[ra.rid] + (rb.rid,)
                yield tag(inter, ids)

        current = _GenSource(tagged_intersections())

    tuples: Optional[List[Tuple[int, ...]]] = [] if collect_tuples else None
    n = 0
    max_id_width = stage + 1
    for rect in current:
        n += 1
        if tuples is not None:
            tuples.append(provenance[rect.rid])
    return JoinResult(
        algorithm=f"PQ-{max_id_width}way",
        n_pairs=n,
        pairs=tuples,
        max_memory_bytes=0,
        detail={"ways": max_id_width},
    )


class _GenSource(SortedSource):
    """Adapter: a generator of y-sorted rectangles as a SortedSource."""

    def __init__(self, gen) -> None:
        self.gen = gen
        self.max_memory_bytes = 0

    def __iter__(self):
        return self.gen
