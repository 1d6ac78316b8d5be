"""Observability surfaces: slow-query log and metrics exporters.

Three small tools that turn the engine's internal state into things an
operator can actually consume:

* :class:`SlowQueryLog` — a bounded keep-the-worst log of served
  queries (with their trace trees when tracing is on), dumpable as
  JSON.  The N worst queries by wall latency are retained however long
  the engine lives; a threshold filters out the noise floor.
* :func:`render_prometheus` — any engine/sharded metrics snapshot as
  Prometheus text exposition format.  The renderer is generic over the
  snapshot's shape: numeric leaves become gauges, well-known dicts
  (per-strategy counts, budget categories) become
  labelled series, per-shard/per-client lists become indexed series.
  A counter added to the snapshot shows up in the scrape without
  touching this module — which is how the availability counters
  (``failovers``, ``retries``, ``replica_failures``) reached the
  exposition without new code here.
* :func:`validate_prometheus` / :func:`validate_trace` — structural
  validators for the two exported formats (the test suite pins the
  schemas with them; a live deployment is scraped at ``GET /metrics``).
"""

from __future__ import annotations

import heapq
import json
import re
from typing import Dict, List, Optional, Tuple

from repro.engine.trace import SPAN_METRIC_FIELDS, Span

#: Dict-valued snapshot keys whose *keys* are label values, with the
#: Prometheus label name to use.  Their values are numbers (one series
#: per key) or nested numeric dicts (one series per inner counter).
_LABELLED_DICTS = {
    "per_strategy": "strategy",
    "estimate_errors": "strategy",
    "high_water_by_category": "category",
    "budget_high_water_by_category": "category",
    "shard_pairs": "shard",
    "shard_strategies": "shard",
    "shard_replicas": "shard",
}

#: List-of-dict snapshot keys rendered as indexed series.
_LABELLED_LISTS = {
    "per_shard": "shard",
    "per_client": "client",
}

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: One exposition line: ``name{labels} value`` (labels optional).
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf)$"
)


class SlowQueryLog:
    """Keep the N worst served queries by wall latency.

    A min-heap of ``(wall_seconds, seq, entry)`` keeps eviction O(log
    N): once full, a new query displaces the current *fastest* logged
    entry only if it is slower.  ``threshold_seconds`` drops queries
    below the noise floor before they ever touch the heap.  Entries
    carry the query description, latencies, and the trace tree as a
    JSON-ready dict when the engine traced the query.
    """

    def __init__(self, capacity: int = 8,
                 threshold_seconds: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("slow-query log capacity must be positive")
        self.capacity = capacity
        self.threshold_seconds = threshold_seconds
        self.offered = 0
        self.admitted = 0
        self._seq = 0
        self._heap: List[Tuple[float, int, Dict[str, object]]] = []

    def offer(self, query: str, wall_seconds: float,
              sim_wall_seconds: float = 0.0,
              trace: Optional[Span] = None,
              from_cache: bool = False) -> bool:
        """Consider one served query; returns True when retained."""
        self.offered += 1
        if wall_seconds < self.threshold_seconds:
            return False
        if (len(self._heap) >= self.capacity
                and wall_seconds <= self._heap[0][0]):
            return False
        entry = {
            "query": query,
            "wall_seconds": wall_seconds,
            "sim_wall_seconds": sim_wall_seconds,
            "from_cache": from_cache,
            "trace": trace.to_dict() if trace is not None else None,
        }
        self._seq += 1
        heapq.heappush(self._heap, (wall_seconds, self._seq, entry))
        if len(self._heap) > self.capacity:
            heapq.heappop(self._heap)
        self.admitted += 1
        return True

    def entries(self) -> List[Dict[str, object]]:
        """Logged queries, worst first."""
        return [
            entry for _, _, entry in
            sorted(self._heap, key=lambda item: (-item[0], item[1]))
        ]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.entries(), indent=indent, default=str)

    def snapshot(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "threshold_seconds": self.threshold_seconds,
            "offered": self.offered,
            "admitted": self.admitted,
            "entries": len(self._heap),
        }

    def __len__(self) -> int:
        return len(self._heap)


# -- Prometheus exposition ---------------------------------------------------


def _sanitize(name: str) -> str:
    return _NAME_RE.sub("_", name)


def _fmt_value(value) -> Optional[str]:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN has no useful gauge form
            return None
        if value == float("inf"):
            return "+Inf"
        if value == float("-inf"):
            return "-Inf"
        return repr(value)
    return None


def prometheus_lines(snapshot: Dict[str, object],
                     prefix: str = "repro_engine") -> List[str]:
    """Flatten one metrics snapshot into exposition-format lines.

    Strings are skipped (Prometheus has no string samples; they stay in
    the JSON export), unknown dicts flatten with ``_``-joined names,
    and the well-known label shapes (:data:`_LABELLED_DICTS`,
    :data:`_LABELLED_LISTS`) become labelled series.
    """
    lines: List[str] = []
    typed: set = set()

    def emit(name: str, labels: List[Tuple[str, str]], value) -> None:
        rendered = _fmt_value(value)
        if rendered is None:
            return
        name = _sanitize(name)
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} gauge")
        label_s = ""
        if labels:
            inner = ",".join(
                f'{_sanitize(k)}="{v}"' for k, v in labels
            )
            label_s = "{" + inner + "}"
        lines.append(f"{name}{label_s} {rendered}")

    def walk_labelled(name: str, label: str, mapping: Dict,
                      labels: List[Tuple[str, str]]) -> None:
        for key, value in mapping.items():
            tagged = labels + [(label, str(key))]
            if isinstance(value, dict):
                for inner, iv in value.items():
                    emit(f"{name}_{inner}", tagged, iv)
            else:
                emit(name, tagged, value)

    def walk(name: str, value, labels: List[Tuple[str, str]],
             leaf: str) -> None:
        if isinstance(value, dict):
            if leaf in _LABELLED_DICTS:
                walk_labelled(name, _LABELLED_DICTS[leaf], value, labels)
                return
            for key, inner in value.items():
                walk(f"{name}_{key}", inner, labels, str(key))
        elif isinstance(value, list):
            if leaf in _LABELLED_LISTS:
                label = _LABELLED_LISTS[leaf]
                for idx, item in enumerate(value):
                    if isinstance(item, dict):
                        for key, inner in item.items():
                            emit(f"{name}_{key}",
                                 labels + [(label, str(idx))], inner)
            # Other lists (relation names, shard cuts) stay JSON-only.
        else:
            emit(name, labels, value)

    for key, value in snapshot.items():
        walk(f"{prefix}_{key}", value, [], key)
    return lines


def render_prometheus(snapshot: Dict[str, object],
                      prefix: str = "repro_engine") -> str:
    """One snapshot as Prometheus text format (trailing newline)."""
    return "\n".join(prometheus_lines(snapshot, prefix)) + "\n"


def validate_prometheus(text: str,
                        prefix: Optional[str] = None) -> List[str]:
    """Structural errors in exposition-format ``text`` (empty == valid).

    With ``prefix`` given, every sample name must start with
    ``<prefix>_`` — pinning the namespace an exporter actually emits
    (the engine's is ``repro_engine``, so serve counters surface as
    ``repro_engine_serve_*``), so documentation claims about metric
    names are checkable instead of aspirational.
    """
    errors: List[str] = []
    seen_samples = 0
    for n, line in enumerate(text.splitlines(), start=1):
        if not line:
            errors.append(f"line {n}: empty line inside exposition")
            continue
        if line.startswith("#"):
            if not (line.startswith("# TYPE ")
                    or line.startswith("# HELP ")):
                errors.append(f"line {n}: unknown comment form: {line!r}")
            continue
        if not _SAMPLE_RE.match(line):
            errors.append(f"line {n}: malformed sample: {line!r}")
            continue
        if prefix is not None and not line.startswith(prefix + "_"):
            errors.append(
                f"line {n}: sample outside the {prefix!r} namespace: "
                f"{line!r}"
            )
            continue
        seen_samples += 1
    if seen_samples == 0:
        errors.append("no samples found")
    return errors


# -- trace JSON schema -------------------------------------------------------


#: Counts the ``join`` span of a pairwise plan carries beside
#: ``strategy`` and ``kernel``.
JOIN_SPAN_COUNTS = ("pages_read", "rects_a", "rects_b", "pairs")


def validate_trace(span: Dict[str, object],
                   path: str = "$") -> List[str]:
    """Structural errors in one trace dict (empty list == valid).

    Checks the shape :meth:`repro.engine.trace.Span.to_dict` promises:
    a ``name`` string, every metric field numeric and non-negative, an
    ``attrs`` dict, and ``children`` recursively valid — and that the
    ``join`` span of a pairwise plan says what it joined
    (:data:`JOIN_SPAN_COUNTS` and which ``kernel`` ran) and every
    ``sweep-task`` span how many rectangles it swept (``rects``).
    """
    errors: List[str] = []
    if not isinstance(span, dict):
        return [f"{path}: span is not an object"]
    if not isinstance(span.get("name"), str) or not span.get("name"):
        errors.append(f"{path}: missing or empty span name")
    for f in SPAN_METRIC_FIELDS:
        v = span.get(f)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            errors.append(f"{path}: field {f!r} is not a number")
        elif v != v or v < 0:
            errors.append(f"{path}: field {f!r} is negative or NaN")
    attrs = span.get("attrs")
    if not isinstance(attrs, dict):
        errors.append(f"{path}: attrs is not an object")
    elif span.get("name") == "join" and attrs.get("strategy") != "multiway":
        if attrs.get("kernel") not in ("numpy", "python"):
            errors.append(f"{path}: join span names no kernel")
        for key in JOIN_SPAN_COUNTS:
            if not _is_count(attrs.get(key)):
                errors.append(f"{path}: join attr {key!r} is not a count")
    elif span.get("name") == "sweep-task" and not _is_count(
        attrs.get("rects")
    ):
        errors.append(f"{path}: sweep-task attr 'rects' is not a count")
    children = span.get("children")
    if not isinstance(children, list):
        errors.append(f"{path}: children is not a list")
    else:
        for i, c in enumerate(children):
            errors.extend(
                validate_trace(c, path=f"{path}.children[{i}]")
            )
    return errors


def _is_count(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0
