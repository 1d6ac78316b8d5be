"""The engine's relation catalog: register once, query many times.

The one-shot planner of :mod:`repro.core.planner` rebuilds streams,
indexes and histograms for every call.  A serving engine registers each
relation **once**; the catalog materializes the expensive
representations lazily, on first use, and keeps them:

* the base :class:`~repro.storage.stream.Stream` (written on
  registration — the relation's ground truth on disk);
* the R-tree (bulk-loaded on first demand, or loaded from a persisted
  index file via :mod:`repro.rtree.persist`);
* the grid :class:`~repro.core.histogram.SpatialHistogram` feeding the
  optimizer's selectivity fractions;
* the :class:`~repro.core.kernels.np_distribute.ColumnImage` the cold
  path distributes and post-filters from.

Every entry carries a monotonically increasing ``version``;
re-registering a name bumps it, which is what invalidates cached query
results (the result cache folds entry versions into its keys).

Registration admits only what every join path models — finite
rectangles with ``lo <= hi`` on both axes, inside a finite universe
(:func:`check_rects`) — so no kernel meets an input it declines and
no R-tree bulk load meets a non-finite coordinate.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.histogram import DEFAULT_GRID, SpatialHistogram
from repro.core.planner import Relation
from repro.geom.rect import Rect, mbr_of
from repro.rtree.bulk_load import bulk_load
from repro.rtree.persist import load_rtree, save_rtree
from repro.rtree.rtree import RTree
from repro.storage.disk import Disk
from repro.storage.pages import PageStore
from repro.storage.stream import Stream

#: Geometry payload: object id -> polyline (sequence of (x, y) points).
GeometryMap = Dict[int, Sequence[Tuple[float, float]]]


def check_rects(name: str, rects: Sequence[Rect],
                universe: Optional[Rect] = None) -> None:
    """Raise ``ValueError`` naming relation ``name`` and its first bad
    rectangle unless every one, and ``universe`` if given, is finite
    with ``lo <= hi`` on both axes (one chained comparison an axis:
    false for NaN, infinities and inverted intervals alike)."""
    inf = math.inf
    for r in chain(rects, () if universe is None else (universe,)):
        xlo, xhi, ylo, yhi, rid = r
        if not (-inf < xlo <= xhi < inf and -inf < ylo <= yhi < inf):
            what = "universe" if r is universe else f"rectangle rid={rid}"
            raise ValueError(f"relation {name!r}: {what} {tuple(r[:4])} "
                             "is not finite with lo <= hi on both axes")


class CatalogEntry:
    """One registered relation and its lazily-built representations."""

    def __init__(
        self,
        catalog: "Catalog",
        name: str,
        rects: List[Rect],
        universe: Optional[Rect],
        geometries: Optional[GeometryMap],
        version: int,
    ) -> None:
        self.catalog = catalog
        self.name = name
        self.rects = rects
        self.universe = universe if universe is not None else mbr_of(rects)
        self.geometries = geometries
        self.version = version
        self._stream: Optional[Stream] = None
        self._tree: Optional[RTree] = None
        self._histogram: Optional[SpatialHistogram] = None
        self._columns = None

    # -- lazy representations -------------------------------------------

    @property
    def stream(self) -> Stream:
        """The relation as a closed on-disk stream (built on first use)."""
        if self._stream is None:
            self._stream = Stream.from_rects(
                self.catalog.disk, self.rects, name=self.name
            )
        return self._stream

    @property
    def tree(self) -> RTree:
        """The relation's R-tree, bulk-loaded on first use."""
        if self._tree is None:
            self._tree = bulk_load(
                self.catalog.store, self.rects, name=self.name
            )
            self.catalog.indexes_built += 1
        return self._tree

    @property
    def histogram(self) -> SpatialHistogram:
        if self._histogram is None:
            self._histogram = SpatialHistogram.build(
                self.rects, self.universe, grid=self.catalog.histogram_grid
            )
        return self._histogram

    @property
    def columns(self):
        """The base stream as a column image.

        Same rectangles, same order as :attr:`stream`; ~56 bytes per
        rectangle with the id index.  Like ``rects`` it
        is a host-side copy of what the simulated disk already holds,
        so it is not charged to the memory budget.  It lives on the
        entry: re-registering the name replaces the entry and the
        image with it.
        """
        if self._columns is None:
            from repro.core.kernels.np_distribute import ColumnImage

            self._columns = ColumnImage(self.rects)
        return self._columns

    @property
    def has_tree(self) -> bool:
        return self._tree is not None

    def relation(self, universe: Optional[Rect] = None) -> Relation:
        """A planner view of this entry, with both representations.

        ``universe`` overrides the relation's extent (the optimizer
        passes the window-clipped region so selectivity fractions see
        the restricted query).  The first view bulk-loads the R-tree;
        a strategy's row decides which representation a join reads.
        """
        return Relation(
            name=self.name,
            stream=self.stream,
            tree=self.tree,
            universe=universe if universe is not None else self.universe,
            histogram=self.histogram,
        )

    def __len__(self) -> int:
        return len(self.rects)


class Catalog:
    """Name -> :class:`CatalogEntry` registry on one simulated disk."""

    def __init__(self, disk: Disk, store: PageStore,
                 histogram_grid: int = DEFAULT_GRID) -> None:
        self.disk = disk
        self.store = store
        self.histogram_grid = histogram_grid
        self.entries: Dict[str, CatalogEntry] = {}
        self.indexes_built = 0
        self._next_version = 1

    def register(
        self,
        name: str,
        rects: Sequence[Rect],
        universe: Optional[Rect] = None,
        geometries: Optional[GeometryMap] = None,
    ) -> CatalogEntry:
        """(Re-)register a relation; returns the fresh entry.

        Re-registering an existing name replaces the entry under a new
        version, so previously cached results for it become unreachable.
        An empty relation, a non-finite or inverted rectangle and a
        non-finite universe are refused (:func:`check_rects`) before
        anything changes.
        """
        rect_list = list(rects)
        if not rect_list:
            raise ValueError(f"relation {name!r} has no rectangles")
        check_rects(name, rect_list, universe)
        entry = CatalogEntry(
            self, name, rect_list, universe, geometries, self._next_version
        )
        self._next_version += 1
        self.entries[name] = entry
        return entry

    def get(self, name: str) -> CatalogEntry:
        try:
            return self.entries[name]
        except KeyError:
            known = ", ".join(sorted(self.entries)) or "<empty catalog>"
            raise KeyError(
                f"unknown relation {name!r}; registered: {known}"
            ) from None

    def drop(self, name: str) -> None:
        self.get(name)
        del self.entries[name]

    def names(self) -> List[str]:
        return sorted(self.entries)

    def versions_of(self, names: Sequence[str]) -> Tuple[Tuple[str, int], ...]:
        """(name, version) pairs — the catalog part of a cache key."""
        return tuple((n, self.get(n).version) for n in names)

    # -- index persistence ----------------------------------------------

    def save_index(self, name: str, path: str) -> None:
        """Persist a relation's R-tree (building it first if needed)."""
        save_rtree(self.get(name).tree, path)

    def load_index(self, name: str, path: str) -> RTree:
        """Attach a persisted R-tree to a registered relation.

        Skips the lazy bulk load: the pages land in the catalog's store
        via :func:`repro.rtree.persist.load_rtree`.
        """
        entry = self.get(name)
        entry._tree = load_rtree(self.store, path, name=name)
        return entry._tree
