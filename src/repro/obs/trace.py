"""Explicit-context distributed tracing for the serving stack.

A :class:`Span` is one timed region of a request: it carries a
``trace_id`` shared by every span of the request, its own ``span_id``,
and the ``parent_id`` that stitches it into the tree.  Durations come
from the monotonic clock (``time.perf_counter``); the wall-clock stamp
exists only so JSONL sinks can be correlated with external logs.
Trace data is observational-only — nothing in this module feeds
results, seeds, or routing, and the bit-identity suite asserts that.

Context is **explicit**: there is no thread-local "current span".  The
service threads a parent — a :class:`Span` or its wire form
``{"trace_id", "span_id"}`` (:meth:`Span.context`) — through call
sites, which is what lets one tree span threads, processes, and
sockets without ambient state.

The :class:`Tracer` is the per-process sink: a bounded in-memory ring
buffer (for ``/v1/metrics``-style introspection and tests) plus an
optional JSONL file.  Origination is gated by ``enabled`` and a
deterministic hash-based sample rate; *continuation* of a remote
context is always recorded — the origin already made the sampling
decision.  Spans started from a wire context collect their whole
subtree (:meth:`Span.collected`) so a shard can ship its spans back
inside the reply payload.
"""

from __future__ import annotations

import json
import operator
import secrets
import threading
import time
from collections import deque
from typing import Optional, Union

__all__ = ["Span", "NULL_SPAN", "Tracer", "span_tree"]


def _attr_value(value):
    """Coerce a span attribute to a JSON-safe scalar (numpy ints and
    floats arrive from the GA hooks; they must cross JSON wire lanes)."""
    if value is None or isinstance(value, (bool, str, float)):
        return value
    if isinstance(value, int):
        return value
    try:
        return operator.index(value)  # np.int64 and friends
    except TypeError:
        pass
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


class Span:
    """One timed region of one request; see the module docstring."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attrs",
        "start_s", "wall_s", "duration_s", "_tracer", "_bucket", "_done",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        parent_id: Optional[str],
        attrs: Optional[dict] = None,
        bucket: Optional[list] = None,
    ) -> None:
        self.name = str(name)
        self.trace_id = trace_id
        self.span_id = secrets.token_hex(4)
        self.parent_id = parent_id
        self.attrs = {}
        if attrs:
            self.set(**attrs)
        self.start_s = time.perf_counter()
        self.wall_s = time.time()
        self.duration_s: Optional[float] = None
        self._tracer = tracer
        self._bucket = bucket
        self._done = False

    # ------------------------------------------------------------------
    def context(self) -> dict:
        """Wire form of this span: the parent context a child on the
        other side of a process/socket boundary continues from."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    def set(self, **attrs) -> "Span":
        for key, value in attrs.items():
            self.attrs[str(key)] = _attr_value(value)
        return self

    def fail(self, error: Union[str, BaseException]) -> "Span":
        self.attrs["error"] = (
            f"{type(error).__name__}: {error}"
            if isinstance(error, BaseException)
            else str(error)
        )
        return self

    def child(self, name: str, attrs: Optional[dict] = None) -> "Span":
        return self._tracer.start(name, parent=self, attrs=attrs)

    def collected(self) -> list:
        """Finished records of this span's collection bucket (only
        remote-rooted spans collect; close the span before harvesting)."""
        return list(self._bucket) if self._bucket is not None else []

    def to_record(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "wall_s": round(self.wall_s, 6),
            "duration_s": round(self.duration_s or 0.0, 9),
            "attrs": dict(self.attrs),
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._done:
            return
        self._done = True
        if self.duration_s is None:
            self.duration_s = time.perf_counter() - self.start_s
        record = self.to_record()
        if self._bucket is not None:
            self._bucket.append(record)
        self._tracer._record(record)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.fail(exc)
        self.close()

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, trace={self.trace_id}, "
            f"span={self.span_id}, parent={self.parent_id})"
        )


class _NullSpan:
    """The no-op span: tracing off costs attribute lookups, not writes."""

    __slots__ = ()
    trace_id = None
    span_id = None
    parent_id = None
    name = ""
    attrs: dict = {}

    def context(self) -> None:
        return None

    def set(self, **attrs) -> "_NullSpan":
        return self

    def fail(self, error) -> "_NullSpan":
        return self

    def child(self, name, attrs=None) -> "_NullSpan":
        return self

    def collected(self) -> list:
        return []

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class Tracer:
    """Per-process span sink: bounded ring buffer + optional JSONL file.

    Lock discipline: ``_lock`` and ``_sink_lock`` are leaf locks — the
    ring append and the file write happen under them and nothing else
    does, so they can never participate in a lock-order cycle.
    """

    def __init__(
        self,
        enabled: bool = False,
        ring_size: int = 2048,
        jsonl_path: Optional[str] = None,
        sample_rate: float = 1.0,
    ) -> None:
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self.jsonl_path = jsonl_path
        self._ring: deque = deque(maxlen=max(1, int(ring_size)))
        self._lock = threading.Lock()
        self._sink_lock = threading.Lock()
        self._sink = None
        self.recorded = 0
        self.ingested = 0
        self.sink_errors = 0

    # ------------------------------------------------------------------
    def start(
        self,
        name: str,
        parent: Union[Span, _NullSpan, dict, None] = None,
        attrs: Optional[dict] = None,
    ) -> Union[Span, _NullSpan]:
        """Start a span.  ``parent`` is a live :class:`Span`, a wire
        context dict from another process, or ``None`` to originate a
        new trace (subject to ``enabled`` and sampling)."""
        if isinstance(parent, _NullSpan):
            return NULL_SPAN
        if isinstance(parent, Span):
            return Span(
                self, name, parent.trace_id, parent.span_id,
                attrs=attrs, bucket=parent._bucket,
            )
        if isinstance(parent, dict):
            trace_id = str(parent.get("trace_id") or "")
            parent_id = str(parent.get("span_id") or "") or None
            if not trace_id:
                return NULL_SPAN
            # remote continuation: always recorded (origin sampled it),
            # and collected so the subtree can ride back in the reply
            return Span(self, name, trace_id, parent_id,
                        attrs=attrs, bucket=[])
        if not self.enabled:
            return NULL_SPAN
        trace_id = secrets.token_hex(8)
        if not self._sampled(trace_id):
            return NULL_SPAN
        return Span(self, name, trace_id, None, attrs=attrs)

    def emit(
        self,
        name: str,
        parent: Union[Span, _NullSpan, dict, None] = None,
        duration_s: float = 0.0,
        attrs: Optional[dict] = None,
    ) -> Union[Span, _NullSpan]:
        """Record an already-measured region as a finished span (the GA
        hooks time generations themselves)."""
        span = self.start(name, parent=parent, attrs=attrs)
        if isinstance(span, Span):
            span.duration_s = float(duration_s)
            span.close()
        return span

    def ingest(self, records) -> int:
        """Adopt finished span records produced by another process (a
        shard reply); returns how many were kept."""
        kept = []
        for record in records or ():
            if isinstance(record, dict) and record.get("trace_id"):
                kept.append(record)
        if not kept:
            return 0
        with self._lock:
            self._ring.extend(kept)
            self.ingested += len(kept)
        for record in kept:
            self._write_sink(record)
        return len(kept)

    # ------------------------------------------------------------------
    def records(self, trace_id: Optional[str] = None) -> list:
        with self._lock:
            out = list(self._ring)
        if trace_id is not None:
            out = [r for r in out if r.get("trace_id") == trace_id]
        return out

    def trace_ids(self) -> list:
        seen: dict = {}
        for record in self.records():
            seen.setdefault(record.get("trace_id"), None)
        return list(seen)

    def counters(self) -> dict:
        with self._lock:
            return {
                "spans_recorded": self.recorded,
                "spans_ingested": self.ingested,
                "ring_len": len(self._ring),
                "sink_errors": self.sink_errors,
            }

    def close(self) -> None:
        with self._sink_lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
                self._sink = None

    # ------------------------------------------------------------------
    def _sampled(self, trace_id: str) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        # deterministic: the id's own entropy decides, no RNG draw
        return int(trace_id[:8], 16) / 0xFFFFFFFF < self.sample_rate

    def _record(self, record: dict) -> None:
        with self._lock:
            self._ring.append(record)
            self.recorded += 1
        self._write_sink(record)

    def _write_sink(self, record: dict) -> None:
        if self.jsonl_path is None:
            return
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self._sink_lock:
            try:
                if self._sink is None:
                    self._sink = open(self.jsonl_path, "a", encoding="utf-8")
                self._sink.write(line)
                self._sink.flush()
            except OSError:
                self.sink_errors += 1
                self.jsonl_path = None  # sink is gone; stop retrying


def span_tree(records, trace_id: Optional[str] = None) -> list:
    """Nest span records into parent→children trees (test/debug view).

    Returns the root records (parent absent from the set), each with a
    ``"children"`` list, sorted by wall stamp for stability."""
    if trace_id is not None:
        records = [r for r in records if r.get("trace_id") == trace_id]
    by_id = {r["span_id"]: dict(r, children=[]) for r in records}
    roots = []
    for record in sorted(
        by_id.values(), key=lambda r: (r.get("wall_s", 0.0), r["span_id"])
    ):
        parent = by_id.get(record.get("parent_id"))
        if parent is not None:
            parent["children"].append(record)
        else:
            roots.append(record)
    return roots
