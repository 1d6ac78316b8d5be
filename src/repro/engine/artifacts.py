"""Disk persistence for execution artifacts (the spill-directory sidecar).

The in-memory :class:`~repro.engine.cache.ArtifactCache` dies with the
engine process, even though the catalog already persists its R-trees
(:mod:`repro.rtree.persist`).  :class:`ArtifactStore` closes that gap:
partition distributions and sorted runs serialize through the existing
columnar codec into real files under a caller-chosen directory, with a
JSON manifest recording what each file holds (kind, relation names,
logical bytes, checksum).  A restarted engine pointed at the same
directory repopulates its cache *lazily*: the first query that misses
in memory probes the manifest, restores the payload, verifies its
checksum, and re-inserts it under the budget — counted as a
``disk_restore``, and priced on the simulated disk as one sequential
read of the artifact's logical bytes (the load replaces the scan or
sort pass the query would otherwise have paid; see the executor).
First touch is the only restore path: reading ahead at startup
measured 11 ms saved per restart (three artifacts, DISK1), which does
not pay for a staging thread.  Saves, like R-tree persistence, are
uncharged — persistence is not part of any measured experiment.

Artifacts are **content-addressed**: tokens are derived from relation
*fingerprints* (a CRC over the registered rectangles, see
:attr:`~repro.engine.catalog.CatalogEntry.fingerprint`) rather than
catalog versions, which are process-local counters.  Re-registering the
same data after a restart therefore reuses the persisted artifacts,
while changed data produces a different token and simply never matches
— stale files are unreachable by construction and are only reclaimed by
:meth:`ArtifactStore.clear` (or deleting the directory).

File layout (one artifact per file, ``<token>.art``)::

    header:  one UTF-8 JSON line — {"kind", "byteorder",
             "entries": [{"part": id|null, "a": n_rects,
                          "b": n_rects|null}, ...]}
    body:    per entry, tile A's five columns then (when present)
             tile B's, each as the raw bytes of the corresponding
             array ('d' x4, then 'q')

The body's CRC32 lives in the manifest, not the file, so a truncated
or bit-flipped artifact is detected before any of it is decoded.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import zlib
from array import array
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnarTile, PairColumns
from repro.core.join_result import JoinResult
from repro.engine.cache import (
    PARTITION_KIND,
    SORTED_RUN_KIND,
    canonical_token,
)
from repro.engine.faults import FaultPlan, corrupt_file
from repro.geom.rect import RECT_BYTES

_MANIFEST = "manifest.json"
_COLUMNS = ("xlo", "xhi", "ylo", "yhi", "rid")

#: Per-shard artifact subdirectories of a sharded ``--artifact-dir``
#: are named ``shard-XX/replica-YY`` — the marker the layout guards
#: below use to tell a sharded root from a single-engine one.
SHARD_DIR_PREFIX = "shard-"


def _sharded_subdirs(root: str) -> List[str]:
    try:
        return sorted(
            d for d in os.listdir(root)
            if d.startswith(SHARD_DIR_PREFIX)
            and os.path.isdir(os.path.join(root, d))
        )
    except OSError:
        return []


def check_store_layout(root: str, sharded: bool) -> None:
    """Refuse a genuinely conflicting on-disk artifact layout.

    A sharded deployment keys each replica's store under
    ``root/shard-XX/replica-YY``; a single engine writes its manifest
    at ``root`` directly.  Pointing one at the other's directory would
    silently run cold forever (tokens never match across layouts) —
    worse, a single engine would start interleaving its files with the
    sharded tree.  Both mistakes are caught here with a clear error;
    an empty or same-layout directory passes.
    """
    manifest_here = os.path.isfile(os.path.join(root, _MANIFEST))
    shard_dirs = _sharded_subdirs(root)
    if sharded and manifest_here:
        raise ValueError(
            f"artifact dir {root!r} holds a single-engine store "
            f"(top-level {_MANIFEST}); pick a fresh directory for a "
            "sharded engine or point a single engine at it"
        )
    if not sharded and shard_dirs and not manifest_here:
        raise ValueError(
            f"artifact dir {root!r} holds a sharded store "
            f"({shard_dirs[0]}/...); pick a fresh directory for a "
            "single engine or point a sharded engine at it"
        )


class ArtifactStore:
    """A directory of persisted artifacts plus its manifest.

    The store is deliberately dumb: it maps tokens to checksummed
    payload files and knows nothing about budgets, versions or plan
    keys — :class:`~repro.engine.cache.ArtifactCache`, which it is
    attached to, owns memory, the key/token translation and the probe
    order; the executor prices the restore.  All counters are
    cumulative for the store object's lifetime.
    """

    def __init__(self, root: str,
                 faults: Optional[FaultPlan] = None) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        #: Optional chaos schedule (sites ``artifact.save`` /
        #: ``artifact.load``); None in production.
        self.faults = faults
        self._manifest: Dict[str, dict] = {}
        # An engine is single-caller, so queries reach its store one at
        # a time — but a metrics scrape reads it from another thread;
        # one lock guards the manifest and the counters.
        self._lock = threading.Lock()
        self.saves = 0
        self.save_bytes = 0
        self.save_wall_seconds = 0.0
        self.restores = 0
        self.restore_bytes = 0
        self.restore_wall_seconds = 0.0
        self.corrupt_drops = 0
        self._load_manifest()

    # -- queries ---------------------------------------------------------

    def has(self, token: str) -> bool:
        return token in self._manifest

    def peek(self, token: str) -> Optional[dict]:
        """The manifest entry (no payload I/O): restorable plans are
        priced from its ``logical_bytes``."""
        return self._manifest.get(token)

    def __len__(self) -> int:
        return len(self._manifest)

    # -- writes ----------------------------------------------------------

    def save(self, token: str, kind: str, value,
             relations: Sequence[str]) -> bool:
        """Persist one artifact; idempotent per token.

        ``value`` is the cache's representation: a task list for
        ``"partition"`` artifacts, a single tile for ``"sorted-run"``.
        Returns False when the payload contains non-columnar tiles
        (nothing to serialize) — the caller encodes first.
        """
        if token in self._manifest:
            return True
        t0 = time.perf_counter()
        entries, blobs, n_rects = _encode(kind, value)
        if entries is None:
            return False
        header = json.dumps({
            "kind": kind,
            "byteorder": sys.byteorder,
            "entries": entries,
        }, sort_keys=True).encode("utf-8") + b"\n"
        body = b"".join(blobs)
        path = os.path.join(self.root, f"{token}.art")
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(body)
        os.replace(tmp, path)
        if self.faults is not None and self.faults.fire(
            "artifact.save", token=token, kind=kind,
        ) is not None:
            corrupt_file(path)
        with self._lock:
            self._manifest[token] = {
                "kind": kind,
                "file": os.path.basename(path),
                "relations": list(relations),
                "logical_bytes": n_rects * RECT_BYTES,
                "file_bytes": len(header) + len(body),
                "crc32": zlib.crc32(body),
            }
            self._write_manifest()
            self.saves += 1
            self.save_bytes += len(body)
            self.save_wall_seconds += time.perf_counter() - t0
        return True

    def clear(self) -> None:
        """Drop every artifact and its file (manual housekeeping)."""
        with self._lock:
            for token in list(self._manifest):
                self._drop(token)
            self._write_manifest()

    # -- reads -----------------------------------------------------------

    def load(self, token: str):
        """Restore one artifact: ``(kind, value, logical_bytes)`` or None.

        A missing file, checksum mismatch, foreign byte order or
        malformed header drops the manifest entry (counted under
        ``corrupt_drops``) and reports a miss — a damaged sidecar must
        degrade to a cold run, never a wrong answer.
        """
        with self._lock:
            meta = self._manifest.get(token)
            if meta is None:
                return None
            path = os.path.join(self.root, meta["file"])
            crc = meta["crc32"]
            kind = meta["kind"]
            logical_bytes = meta["logical_bytes"]
        t0 = time.perf_counter()
        if self.faults is not None and self.faults.fire(
            "artifact.load", token=token, kind=kind,
        ) is not None:
            corrupt_file(path)
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline().decode("utf-8"))
                body = fh.read()
            if (zlib.crc32(body) != crc
                    or header.get("byteorder") != sys.byteorder
                    or header.get("kind") != kind):
                raise ValueError("artifact payload failed verification")
            value = _decode(header["kind"], header["entries"], body)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            with self._lock:
                # Two readers can detect the same damage concurrently;
                # only the one that actually removes the entry counts
                # the drop — and only the entry it read: the other may
                # already have re-saved a healthy artifact under this
                # token.
                if self._manifest.get(token) is meta and self._drop(token):
                    self._write_manifest()
                    self.corrupt_drops += 1
            return None
        with self._lock:
            self.restores += 1
            self.restore_bytes += logical_bytes
            self.restore_wall_seconds += time.perf_counter() - t0
        return (kind, value, logical_bytes)

    # -- internals -------------------------------------------------------

    def _drop(self, token: str) -> bool:
        meta = self._manifest.pop(token, None)
        if meta is None:
            return False
        try:
            os.remove(os.path.join(self.root, meta["file"]))
        except OSError:
            pass
        return True

    def _manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST)

    def _load_manifest(self) -> None:
        try:
            with open(self._manifest_path(), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            self._manifest = dict(data.get("artifacts", {}))
        except (OSError, ValueError):
            self._manifest = {}

    def _write_manifest(self) -> None:
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"version": 1, "artifacts": self._manifest}, fh,
                      sort_keys=True, indent=1)
        os.replace(tmp, self._manifest_path())

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._manifest),
                "saves": self.saves,
                "save_bytes": self.save_bytes,
                "save_wall_seconds": self.save_wall_seconds,
                "restores": self.restores,
                "restore_bytes": self.restore_bytes,
                "restore_wall_seconds": self.restore_wall_seconds,
                "corrupt_drops": self.corrupt_drops,
            }


def charge_restore(disk, logical_bytes: int) -> None:
    """Price one artifact restore on the simulated disk.

    A restore replaces the scan or sort pass the query would otherwise
    have paid, so it must not be free: it is charged as one sequential
    read of the artifact's *logical* bytes (records x ``RECT_BYTES`` —
    the simulated disk stores 20-byte records; the sidecar file's own
    byte count is a codec detail).  The read lands on a fresh extent so
    the machine observers see it as sequential, like any other stream
    pass.
    """
    if logical_bytes <= 0:
        return
    offset = disk.allocate(logical_bytes)
    disk.env.io_read(offset, logical_bytes)


def result_token(fingerprints: Sequence[Tuple[str, int]],
                 canonical_query) -> str:
    """Sidecar token of one persisted query result.

    Content-addressed like every other artifact: relation content
    fingerprints plus the query's canonical form, so a restarted
    engine serving the same query over the same data finds the entry,
    while any data change makes the old entry unreachable — no
    invalidation protocol needed.
    """
    return canonical_token("result", fingerprints, canonical_query)


class ResultStore:
    """Persisted result-cache entries (one JSON file per result).

    The scatter layer's top-level :class:`~repro.engine.cache.ResultCache`
    is the hottest state a sharded deployment has — a dashboard's
    repeat queries never touch a shard — and it used to die with the
    process.  This store writes each cached result as a checksummed
    JSON file under its own subdirectory of the artifact root, keyed
    by :func:`result_token`; a restarted engine probes it on a memory
    miss and serves the persisted pairs without scattering at all.

    JSON keeps the payload inspectable; rid pairs survive the
    round-trip exactly (ints), while ``detail``'s integer dict keys
    become strings — provenance, not answers, so gather-identical
    results are preserved where it matters.  A corrupt or truncated
    file is dropped and the query re-executes (``corrupt_drops``).

    ``max_bytes`` bounds the store on disk: each save past the cap
    evicts the least-recently-used entries (restores count as use, and
    bump the file mtime so recency survives a restart — the init scan
    rebuilds the LRU order from mtimes).  An entry larger than the
    whole cap is refused outright (``rejections``).  Eviction only ever
    costs a re-execute on some future restart; it can never lose an
    answer.
    """

    def __init__(self, root: str,
                 faults: Optional[FaultPlan] = None,
                 max_bytes: Optional[int] = None) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.faults = faults
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self.saves = 0
        self.save_bytes = 0
        self.restores = 0
        self.corrupt_drops = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.rejections = 0
        #: token -> file bytes, least-recently-used first.  Rebuilt
        #: from the directory at init (mtime order), maintained live
        #: afterwards.
        self._index: "OrderedDict[str, int]" = OrderedDict()
        self._total_bytes = 0
        self._scan()

    def _scan(self) -> None:
        entries = []
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if not name.endswith(".res.json"):
                continue
            path = os.path.join(self.root, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            entries.append((st.st_mtime, name[:-len(".res.json")],
                            st.st_size))
        for _, token, size in sorted(entries):
            self._index[token] = size
            self._total_bytes += size

    def _path(self, token: str) -> str:
        return os.path.join(self.root, f"{token}.res.json")

    @property
    def bytes(self) -> int:
        return self._total_bytes

    def _touch_locked(self, token: str) -> None:
        if token in self._index:
            self._index.move_to_end(token)
            try:
                os.utime(self._path(token))
            except OSError:
                pass

    def _evict_locked(self, keep: Optional[str] = None) -> None:
        if self.max_bytes is None:
            return
        while self._total_bytes > self.max_bytes and self._index:
            victim = next(iter(self._index))
            if victim == keep:
                if len(self._index) == 1:
                    break
                self._index.move_to_end(victim)
                continue
            size = self._index.pop(victim)
            self._total_bytes -= size
            try:
                os.remove(self._path(victim))
            except OSError:
                pass
            self.evictions += 1
            self.evicted_bytes += size

    def __len__(self) -> int:
        try:
            return sum(
                1 for f in os.listdir(self.root)
                if f.endswith(".res.json")
            )
        except OSError:
            return 0

    def save(self, token: str, result: JoinResult) -> bool:
        """Persist one result; idempotent per token.

        Safe under concurrent saves of the same token (two identical
        queries scattered to one shard): each writer uses its own tmp
        file, ``os.replace`` makes the publish atomic, and the index
        update is delta-based, so duplicate writers can never corrupt
        the file or double-count ``_total_bytes``.
        """
        path = self._path(token)
        if os.path.exists(path):
            with self._lock:
                self._touch_locked(token)
            return True
        # Per-writer tmp name: two threads saving the same token must
        # not interleave writes into one tmp file.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        pairs = result.pairs
        if isinstance(pairs, PairColumns):
            pairs = pairs.ids.tolist()
        elif pairs is not None:
            pairs = [list(p) for p in pairs]
        try:
            payload = json.dumps({
                "algorithm": result.algorithm,
                "n_pairs": result.n_pairs,
                "pairs": pairs,
                "detail": result.detail,
            }, sort_keys=True)
            body = json.dumps({
                "version": 1,
                "crc32": zlib.crc32(payload.encode("utf-8")),
                "result": payload,
            })
        except (TypeError, ValueError):
            # Unserializable detail must never fail the query — the
            # result simply is not persisted.
            return False
        if self.max_bytes is not None and len(body) > self.max_bytes:
            # Larger than the whole store: saving it would evict
            # everything and then be evicted itself on the next save.
            with self._lock:
                self.rejections += 1
            return False
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(body)
            os.replace(tmp, path)
        except OSError:
            # A full disk must never fail the query either.
            try:
                os.remove(tmp)
            except OSError:
                pass
            return False
        if self.faults is not None and self.faults.fire(
            "result.save", token=token,
        ) is not None:
            corrupt_file(path)
        with self._lock:
            self.saves += 1
            self.save_bytes += len(body)
            # Delta-based: a concurrent duplicate save replaces the
            # index entry instead of inflating the byte total (which
            # would trigger premature LRU evictions forever after).
            prior = self._index.pop(token, 0)
            self._index[token] = len(body)
            self._total_bytes += len(body) - prior
            self._evict_locked(keep=token)
        return True

    def load(self, token: str) -> Optional[JoinResult]:
        """Restore one result, or None (missing/corrupt -> re-execute)."""
        path = self._path(token)
        if not os.path.exists(path):
            return None
        if self.faults is not None and self.faults.fire(
            "result.load", token=token,
        ) is not None:
            corrupt_file(path)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                wrapper = json.load(fh)
            payload = wrapper["result"]
            if zlib.crc32(payload.encode("utf-8")) != wrapper["crc32"]:
                raise ValueError("result payload failed verification")
            data = json.loads(payload)
            pairs = (
                [tuple(p) for p in data["pairs"]]
                if data["pairs"] is not None else None
            )
            result = JoinResult(
                algorithm=data["algorithm"],
                n_pairs=int(data["n_pairs"]),
                pairs=pairs,
                detail=dict(data["detail"]),
            )
        except (OSError, ValueError, KeyError, TypeError,
                json.JSONDecodeError):
            try:
                os.remove(path)
            except OSError:
                pass
            with self._lock:
                self.corrupt_drops += 1
                size = self._index.pop(token, 0)
                self._total_bytes -= size
            return None
        with self._lock:
            self.restores += 1
            self._touch_locked(token)
        return result

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "entries": len(self),
                "bytes": self._total_bytes,
                "max_bytes": self.max_bytes,
                "saves": self.saves,
                "save_bytes": self.save_bytes,
                "restores": self.restores,
                "corrupt_drops": self.corrupt_drops,
                "evictions": self.evictions,
                "evicted_bytes": self.evicted_bytes,
                "rejections": self.rejections,
            }


# -- codec -------------------------------------------------------------------


def _encode(kind: str, value):
    """Flatten a cache value into (header entries, column blobs, rects)."""
    entries: List[dict] = []
    blobs: List[bytes] = []
    n_rects = 0
    if kind == SORTED_RUN_KIND:
        tiles = [(None, value, None)]
    elif kind == PARTITION_KIND:
        tiles = value
    else:
        return None, None, 0
    for part_id, tile_a, tile_b in tiles:
        if not isinstance(tile_a, ColumnarTile) or not (
            tile_b is None or isinstance(tile_b, ColumnarTile)
        ):
            return None, None, 0
        entries.append({
            "part": part_id,
            "a": len(tile_a),
            "b": None if tile_b is None else len(tile_b),
        })
        blobs.extend(_tile_blobs(tile_a))
        n_rects += len(tile_a)
        if tile_b is not None:
            blobs.extend(_tile_blobs(tile_b))
            n_rects += len(tile_b)
    return entries, blobs, n_rects


def _tile_blobs(tile: ColumnarTile) -> List[bytes]:
    return [getattr(tile, col).tobytes() for col in _COLUMNS]


def _decode(kind: str, entries: List[dict], body: bytes):
    offset = 0
    tasks = []
    for entry in entries:
        tile_a, offset = _read_tile(body, offset, int(entry["a"]))
        tile_b = None
        if entry["b"] is not None:
            tile_b, offset = _read_tile(body, offset, int(entry["b"]))
        tasks.append((entry["part"], tile_a, tile_b))
    if offset != len(body):
        raise ValueError("trailing bytes in artifact payload")
    if kind == SORTED_RUN_KIND:
        if len(tasks) != 1:
            raise ValueError("sorted-run artifact must hold one tile")
        return tasks[0][1]
    return tasks


def _read_tile(body: bytes, offset: int, n: int):
    tile = ColumnarTile()
    for col, typecode in zip(_COLUMNS, "ddddq"):
        arr = array(typecode)
        nbytes = n * arr.itemsize
        if offset + nbytes > len(body):
            raise ValueError("truncated artifact payload")
        arr.frombytes(body[offset:offset + nbytes])
        offset += nbytes
        setattr(tile, col, arr)
    return tile, offset
