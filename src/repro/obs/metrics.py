"""Metrics registry: counters, gauges, fixed-bucket histograms.

One schema replaces the serving tier's eleven divergent ``stats()``
dict shapes.  A snapshot is::

    {
      "schema": "repro.obs/v1",
      "counters":   [{"name", "labels", "value"}, ...],
      "gauges":     [{"name", "labels", "value"}, ...],
      "histograms": [{"name", "labels", "le", "counts",
                      "sum", "count"}, ...],
    }

Series are sorted by ``(name, labels)`` so snapshots are stable, and
``le``/``counts`` are per-bucket (not cumulative) with an implicit
``+Inf`` overflow bucket as the last entry of ``counts``.

Components integrate two ways: hot paths call :meth:`MetricsRegistry.
inc`/:meth:`observe` directly, while component ``stats()`` dicts are
adapted via :meth:`counter_fn`/:meth:`gauge_fn` providers that are
evaluated lazily at snapshot time — **outside** the registry lock, so
the registry lock stays a leaf and never orders against component
locks.  :func:`merge_snapshots` merges snapshots across shards and
:func:`render_prometheus` emits the text exposition format served by
``/v1/metrics``.  ``/v1/stats`` is a view of the same snapshot:
:func:`stats_view` reads each of its fields from one metric family
(:data:`STATS_SECTIONS`), and :func:`latency_digest` gives the
per-endpoint percentiles both surfaces report, so the two can never
disagree.

Metric values are observational-only: nothing here flows back into
results, seeds, or routing (asserted by the bit-identity tests).
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable, Optional, Sequence

__all__ = [
    "METRICS_SCHEMA",
    "DEFAULT_BUCKETS_MS",
    "MetricsRegistry",
    "STATS_SECTIONS",
    "merge_snapshots",
    "latency_digest",
    "stats_view",
    "render_prometheus",
    "histogram_percentile",
]

METRICS_SCHEMA = "repro.obs/v1"

#: request-latency bucket bounds in milliseconds (sub-ms cache hits
#: through multi-second cold GA runs), +Inf implicit
DEFAULT_BUCKETS_MS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 30000.0,
)


def _label_key(labels: dict) -> str:
    return json.dumps(labels, sort_keys=True, separators=(",", ":"))


class _Histogram:
    __slots__ = ("le", "counts", "total", "count")

    def __init__(self, le: Sequence[float]) -> None:
        self.le = tuple(float(b) for b in le)
        self.counts = [0] * (len(self.le) + 1)  # +Inf overflow last
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        idx = len(self.le)
        for i, bound in enumerate(self.le):
            if value <= bound:
                idx = i
                break
        self.counts[idx] += 1
        self.total += value
        self.count += 1


class MetricsRegistry:
    """Thread-safe metric store; ``_lock`` is a leaf lock (plain dict
    mutation only — provider functions run outside it)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._hists: dict = {}
        self._providers: list = []

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            entry = self._counters.get(key)
            self._counters[key] = (
                (labels, value) if entry is None
                else (entry[0], entry[1] + value)
            )

    def set_gauge(self, name: str, value: float, **labels) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = (labels, float(value))

    def observe(
        self,
        name: str,
        value: float,
        buckets: Sequence[float] = DEFAULT_BUCKETS_MS,
        **labels,
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            hist = self._hists.get(key)
            if hist is None:
                hist = self._hists[key] = (labels, _Histogram(buckets))
            hist[1].observe(float(value))

    def counter_fn(self, name: str, fn: Callable[[], Sequence]) -> None:
        """Register a lazy counter provider: ``fn() -> [(labels, value),
        ...]``, evaluated at snapshot time outside the registry lock."""
        self._providers.append(("counter", name, fn))

    def gauge_fn(self, name: str, fn: Callable[[], Sequence]) -> None:
        self._providers.append(("gauge", name, fn))

    def provide(self, name: str, fn: Callable[[], Sequence]) -> None:
        """A counter provider when ``name`` ends in ``_total``, else a
        gauge provider."""
        kind = "counter" if name.endswith("_total") else "gauge"
        self._providers.append((kind, name, fn))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        # evaluate providers first, with no lock held: they call into
        # component stats() methods that take their own locks
        provided: list = []
        for kind, name, fn in list(self._providers):
            try:
                series = list(fn())
            except (RuntimeError, ValueError, KeyError, AttributeError):
                # a provider backed by a component torn down mid-close
                # must not take /v1/metrics with it
                continue
            for labels, value in series:
                provided.append((kind, name, dict(labels), float(value)))
        with self._lock:
            counters = {
                key: (dict(labels), float(value))
                for key, (labels, value) in self._counters.items()
            }
            gauges = {
                key: (dict(labels), float(value))
                for key, (labels, value) in self._gauges.items()
            }
            hists = [
                {
                    "name": key[0],
                    "labels": dict(labels),
                    "le": list(hist.le),
                    "counts": list(hist.counts),
                    "sum": hist.total,
                    "count": hist.count,
                }
                for key, (labels, hist) in self._hists.items()
            ]
        for kind, name, labels, value in provided:
            key = (name, _label_key(labels))
            target = counters if kind == "counter" else gauges
            target[key] = (labels, value)
        return {
            "schema": METRICS_SCHEMA,
            "counters": _series(counters),
            "gauges": _series(gauges),
            "histograms": sorted(
                hists, key=lambda h: (h["name"], _label_key(h["labels"]))
            ),
        }


def _series(entries: dict) -> list:
    return [
        {"name": key[0], "labels": labels, "value": value}
        for key, (labels, value) in sorted(
            entries.items(), key=lambda item: item[0]
        )
    ]


def merge_snapshots(snapshots: Sequence[dict]) -> dict:
    """Merge snapshots across shards: counters, gauges, and histogram
    bucket counts add, except that a gauge whose name ends in ``_max``
    (``repro_session_epoch_max``) takes the largest value, since a sum
    of maxima is not a maximum.  Histograms with mismatched bounds are
    kept side-by-side under distinct labels rather than silently
    dropped."""
    counters: dict = {}
    gauges: dict = {}
    hists: dict = {}
    for snap in snapshots:
        if not isinstance(snap, dict):
            continue
        for section, target in (("counters", counters), ("gauges", gauges)):
            for row in snap.get(section, ()):
                key = (row["name"], _label_key(row["labels"]))
                value = float(row["value"])
                if key not in target:
                    target[key] = (dict(row["labels"]), value)
                elif section == "gauges" and row["name"].endswith("_max"):
                    target[key] = (target[key][0], max(target[key][1], value))
                else:
                    target[key] = (target[key][0], target[key][1] + value)
        for row in snap.get("histograms", ()):
            key = (row["name"], _label_key(row["labels"]),
                   tuple(row.get("le", ())))
            if key in hists:
                merged = hists[key]
                merged["counts"] = [
                    a + b for a, b in zip(merged["counts"], row["counts"])
                ]
                merged["sum"] += float(row["sum"])
                merged["count"] += int(row["count"])
            else:
                hists[key] = {
                    "name": row["name"],
                    "labels": dict(row["labels"]),
                    "le": list(row.get("le", ())),
                    "counts": list(row["counts"]),
                    "sum": float(row["sum"]),
                    "count": int(row["count"]),
                }
    return {
        "schema": METRICS_SCHEMA,
        "counters": _series(counters),
        "gauges": _series(gauges),
        "histograms": sorted(
            hists.values(), key=lambda h: (h["name"], _label_key(h["labels"]))
        ),
    }


def histogram_percentile(hist: dict, quantile: float) -> Optional[float]:
    """Estimate a percentile from one snapshot histogram row by linear
    interpolation within the containing bucket (Prometheus-style)."""
    count = int(hist.get("count", 0))
    if count <= 0:
        return None
    target = max(0.0, min(1.0, float(quantile))) * count
    le = list(hist.get("le", ()))
    counts = list(hist.get("counts", ()))
    seen = 0
    lower = 0.0
    for i, n in enumerate(counts):
        upper = le[i] if i < len(le) else (le[-1] if le else lower)
        if seen + n >= target:
            if n <= 0 or i >= len(le):
                return float(upper)
            frac = (target - seen) / n
            return float(lower + (upper - lower) * frac)
        seen += n
        lower = upper
    return float(le[-1]) if le else None


def _digest(hist: dict) -> dict:
    out = {"count": int(hist["count"])}
    if out["count"]:
        for q in (50, 95, 99):
            out[f"p{q}_ms"] = round(histogram_percentile(hist, q / 100), 3)
    return out


def latency_digest(snapshot: dict) -> dict:
    """``{endpoint: {count, p50_ms, p95_ms, p99_ms}}`` of a snapshot's
    ``repro_request_latency_ms`` histograms (the ``latency_ms`` key of
    ``/v1/metrics``)."""
    return {
        hist["labels"].get("endpoint", ""): _digest(hist)
        for hist in snapshot["histograms"]
        if hist["name"] == "repro_request_latency_ms"
    }


#: The ``/v1/stats`` sections: each field reads one metric family
#: (``_total`` families are counters, the others gauges), and services
#: register their component ``stats()`` fields under these names.
#: ``cache`` fields are read once per ``cache`` label (results, graphs).
STATS_SECTIONS = {
    "cache": (
        ("hits", "repro_cache_hits_total"),
        ("misses", "repro_cache_misses_total"),
        ("evictions", "repro_cache_evictions_total"),
        ("entries", "repro_cache_entries"),
        ("bytes", "repro_cache_bytes"),
        ("max_bytes", "repro_cache_capacity_bytes"),
    ),
    "scheduler": (
        ("jobs_executed", "repro_jobs_executed_total"),
        ("jobs_joined", "repro_jobs_joined_total"),
        ("jobs_process", "repro_jobs_process_total"),
        ("groups_executed", "repro_groups_executed_total"),
        ("group_members", "repro_group_members_total"),
    ),
    "sessions": (
        ("open", "repro_sessions_open"),
        ("opened", "repro_sessions_opened_total"),
        ("closed", "repro_sessions_closed_total"),
        ("restored", "repro_sessions_restored_total"),
        ("updates", "repro_session_updates_total"),
    ),
    "persistence": (
        ("snapshots_written", "repro_snapshots_written_total"),
        ("write_failures", "repro_snapshots_write_failures_total"),
        ("restored", "repro_snapshots_restored_total"),
        ("restore_failures", "repro_snapshots_restore_failures_total"),
    ),
    "write_behind": (
        ("records_written", "repro_writebehind_records_total"),
        ("write_failures", "repro_writebehind_failures_total"),
        ("compactions", "repro_writebehind_compactions_total"),
        ("results_warmed", "repro_results_warmed_total"),
    ),
}

#: endpoints of the ``latency`` and ``session_latency`` digests
_STATS_LATENCY = {
    "latency": ("partition", "refine"),
    "session_latency": ("open_session", "update_session"),
}


def stats_view(snapshot: dict) -> dict:
    """The ``/v1/stats`` sections, read from one (possibly merged)
    snapshot: ``cache.{results,graphs}``, ``scheduler`` and
    ``sessions`` always, ``persistence`` and ``write_behind`` when the
    snapshot holds their families, with counts as integers.
    ``latency`` and ``session_latency`` digest the request-latency
    histograms of their endpoints summed bucket by bucket (every
    service observes them with :data:`DEFAULT_BUCKETS_MS`)."""
    values = {
        (row["name"], _label_key(row["labels"])): row["value"]
        for kind in ("counters", "gauges")
        for row in snapshot[kind]
    }
    names = {name for name, _ in values}

    def section(name: str, **labels) -> dict:
        key = _label_key(labels)
        return {
            field: int(values.get((family, key), 0))
            for field, family in STATS_SECTIONS[name]
        }

    out: dict = {
        "cache": {
            cache: section("cache", cache=cache)
            for cache in ("results", "graphs")
        },
    }
    out["cache"]["graphs"]["warm_seeds"] = int(
        values.get(("repro_warm_seeds", _label_key({})), 0)
    )
    out.update(scheduler=section("scheduler"), sessions=section("sessions"))
    for name in ("persistence", "write_behind"):
        if any(family in names for _, family in STATS_SECTIONS[name]):
            out[name] = section(name)
    for name, endpoints in _STATS_LATENCY.items():
        rows = [
            hist for hist in snapshot["histograms"]
            if hist["name"] == "repro_request_latency_ms"
            and hist["labels"].get("endpoint") in endpoints
        ]
        out[name] = _digest({
            "le": rows[0]["le"] if rows else [],
            "counts": [sum(c) for c in zip(*(r["counts"] for r in rows))],
            "count": sum(r["count"] for r in rows),
        })
    return out


_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        _LABEL_RE.sub("_", str(k))
        + "="
        + '"' + str(v).replace("\\", "\\\\").replace('"', '\\"') + '"'
        for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def render_prometheus(snapshot: dict) -> str:
    """Snapshot → Prometheus text exposition format (version 0.0.4)."""
    lines: list = []
    typed: set = set()

    def header(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for row in snapshot.get("counters", ()):
        name = _NAME_RE.sub("_", row["name"])
        header(name, "counter")
        lines.append(f"{name}{_prom_labels(row['labels'])} {row['value']:g}")
    for row in snapshot.get("gauges", ()):
        name = _NAME_RE.sub("_", row["name"])
        header(name, "gauge")
        lines.append(f"{name}{_prom_labels(row['labels'])} {row['value']:g}")
    for row in snapshot.get("histograms", ()):
        name = _NAME_RE.sub("_", row["name"])
        header(name, "histogram")
        cumulative = 0
        for i, n in enumerate(row["counts"]):
            cumulative += n
            bound = (
                f"{row['le'][i]:g}" if i < len(row["le"]) else "+Inf"
            )
            lines.append(
                f"{name}_bucket"
                f"{_prom_labels(row['labels'], {'le': bound})} {cumulative}"
            )
        lines.append(
            f"{name}_sum{_prom_labels(row['labels'])} {row['sum']:g}"
        )
        lines.append(
            f"{name}_count{_prom_labels(row['labels'])} {row['count']}"
        )
    return "\n".join(lines) + "\n"
