"""Live telemetry: exposition, the trace ring, and trace stitching.

Three small, dependency-free pieces behind ``repro.obs.live``:

* :func:`prometheus_text` renders a :class:`MetricsRegistry` snapshot
  in the Prometheus text exposition format (stable name ordering,
  escaped help strings, power-of-two histogram buckets as cumulative
  ``le`` series) — the payload behind the serve ``GET /v1/metrics``
  endpoint.
* :class:`TraceRing` is a bounded map of finished request traces: a
  single writer (the serve event loop) publishes them, readers copy
  entries under the GIL.  Memory is bounded by construction.
* :func:`stitch_spans` reconstructs logical span trees from the
  meta-only trace/span/parent links that :func:`repro.obs.session.
  adopt_context` stamps on buffer roots, reporting orphans — the gate
  that a merged serve/fleet run directory yields one connected tree
  per request/wave.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .metrics import KIND_COUNTER, KIND_GAUGE, KIND_HISTOGRAM

#: Every exposition name is prefixed so scrapes from mixed fleets
#: never collide with other exporters.
PROM_PREFIX = "repro_"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = PROM_PREFIX) -> str:
    """Sanitize a slash-namespaced metric name for the exposition
    (``runner/proof_bits`` → ``repro_runner_proof_bits``)."""
    sanitized = _NAME_RE.sub("_", name)
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return prefix + sanitized


def escape_help(text: str) -> str:
    """Escape a HELP string per the text-format rules."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if value is None:
        return "NaN"
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def prometheus_text(snapshot: Dict[str, Dict[str, Any]],
                    extra_gauges: Optional[Dict[str, Any]] = None,
                    prefix: str = PROM_PREFIX) -> str:
    """Render a registry snapshot (plus optional service-level gauges)
    as Prometheus text exposition, deterministically ordered."""
    merged: List[Tuple[str, str, Dict[str, Any]]] = []
    for name in sorted(snapshot):
        merged.append((prometheus_name(name, prefix), name,
                       snapshot[name]))
    for name in sorted(extra_gauges or {}):
        merged.append((prometheus_name(name, prefix), name,
                       {"kind": KIND_GAUGE, "deterministic": False,
                        "value": extra_gauges[name]}))
    merged.sort(key=lambda item: (item[0], item[1]))

    lines: List[str] = []
    for prom, original, snap in merged:
        kind = snap["kind"]
        lines.append(f"# HELP {prom} {escape_help(original)}")
        if kind == KIND_COUNTER:
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_format_value(snap['value'])}")
        elif kind == KIND_GAUGE:
            lines.append(f"# TYPE {prom} gauge")
            if snap["value"] is not None:
                lines.append(f"{prom} {_format_value(snap['value'])}")
        elif kind == KIND_HISTOGRAM:
            lines.append(f"# TYPE {prom} histogram")
            cumulative = 0
            for bucket, count in sorted(
                    (int(b), c) for b, c in snap["buckets"].items()):
                cumulative += count
                edge = _format_value(2.0 ** bucket)
                lines.append(f'{prom}_bucket{{le="{edge}"}} '
                             f"{cumulative}")
            lines.append(f'{prom}_bucket{{le="+Inf"}} {snap["count"]}')
            lines.append(f"{prom}_sum {_format_value(snap['total'])}")
            lines.append(f"{prom}_count {snap['count']}")
        else:  # pragma: no cover - snapshots are library-produced
            raise ValueError(f"unknown metric kind {kind!r}")
    return "\n".join(lines) + "\n" if lines else ""


# -- trace ring ----------------------------------------------------------


class TraceRing:
    """A bounded insertion-ordered map of finished span trees, keyed
    by trace id with request-id aliases — the store behind the serve
    ``GET /v1/trace/<id>`` endpoint."""

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = max(1, capacity)
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._aliases: Dict[str, str] = {}
        self._order: List[str] = []

    def push(self, key: str, tree: Dict[str, Any],
             aliases: Iterable[str] = ()) -> None:
        if key in self._entries:
            self._order.remove(key)
        self._entries[key] = {"trace": key, "span": tree,
                              "aliases": sorted(set(aliases))}
        self._order.append(key)
        for alias in aliases:
            self._aliases[alias] = key
        while len(self._order) > self.capacity:
            evicted = self._order.pop(0)
            entry = self._entries.pop(evicted)
            for alias in entry["aliases"]:
                if self._aliases.get(alias) == evicted:
                    del self._aliases[alias]

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        primary = self._aliases.get(key, key)
        return self._entries.get(primary)

    def keys(self) -> List[str]:
        return list(self._order)

    def __len__(self) -> int:
        return len(self._entries)


# -- stitching -----------------------------------------------------------


def stitch_spans(roots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reconstruct logical traces from meta links in a span forest.

    Walks exported (nested) span dicts; every span with a
    ``meta.span`` id is indexed, physical children inherit their
    parent's trace id, and a physical root carrying
    ``meta.parent_span`` is *linked* when the parent id resolves
    anywhere in the forest — otherwise it is an **orphan**.  Returns::

        {"traces": {trace_id: {"spans": int, "roots": [names],
                               "linked": int}},
         "orphans": [{"name", "trace", "parent_span"}],
         "connected": bool}

    ``connected`` means every trace has exactly one true root and no
    orphans — the acceptance shape for serve requests / fleet waves.
    """
    index: Dict[str, Dict[str, Any]] = {}

    def index_walk(span: Dict[str, Any]) -> None:
        span_id = span.get("meta", {}).get("span")
        if span_id is not None:
            index[span_id] = span
        for child in span.get("children", ()):
            index_walk(child)

    for root in roots:
        index_walk(root)

    traces: Dict[str, Dict[str, Any]] = {}
    orphans: List[Dict[str, Any]] = []

    def trace_of(span: Dict[str, Any], inherited: Optional[str]) -> str:
        return span.get("meta", {}).get("trace") or inherited or "-"

    def tally(span: Dict[str, Any], inherited: Optional[str]) -> None:
        trace_id = trace_of(span, inherited)
        bucket = traces.setdefault(
            trace_id, {"spans": 0, "roots": [], "linked": 0})
        bucket["spans"] += 1
        for child in span.get("children", ()):
            tally(child, trace_id)

    for root in roots:
        meta = root.get("meta", {})
        trace_id = trace_of(root, None)
        parent = meta.get("parent_span")
        tally(root, None)
        if parent is None:
            traces[trace_id]["roots"].append(root.get("name"))
        elif parent in index:
            traces[trace_id]["linked"] += 1
        else:
            orphans.append({"name": root.get("name"),
                            "trace": trace_id, "parent_span": parent})
            traces[trace_id]["roots"].append(root.get("name"))

    connected = not orphans and all(
        len(bucket["roots"]) == 1 for bucket in traces.values())
    return {"traces": traces, "orphans": orphans,
            "connected": connected}


# -- small read-side helpers (tail / dash) ------------------------------


def metric_scalar(snap: Dict[str, Any]) -> Optional[float]:
    """One comparable number per metric: counter/gauge value,
    histogram observation count."""
    if snap["kind"] == KIND_HISTOGRAM:
        return snap["count"]
    return snap["value"]


def snapshot_deltas(older: Dict[str, Dict[str, Any]],
                    newer: Dict[str, Dict[str, Any]]
                    ) -> List[Tuple[str, Optional[float],
                                    Optional[float]]]:
    """(name, old, new) for every metric whose scalar changed, sorted
    by name — the ``obs tail`` line source."""
    deltas = []
    for name in sorted(set(older) | set(newer)):
        old = metric_scalar(older[name]) if name in older else None
        new = metric_scalar(newer[name]) if name in newer else None
        if old != new:
            deltas.append((name, old, new))
    return deltas


def histogram_quantile(snap: Dict[str, Any],
                       quantile: float) -> Optional[float]:
    """Upper-edge quantile estimate from the power-of-two buckets."""
    count = snap.get("count", 0)
    if not count:
        return None
    target = quantile * count
    cumulative = 0
    edge = None
    for bucket, bucket_count in sorted(
            (int(b), c) for b, c in snap["buckets"].items()):
        cumulative += bucket_count
        edge = 2.0 ** bucket
        if cumulative >= target:
            return edge
    return edge
