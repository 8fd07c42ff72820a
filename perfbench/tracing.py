"""Layer spans for the traced benchmark run.

The benchmark measures where a request's time goes without changing the
program: it wraps each layer's public entry points from outside,
records one span per call, and keeps the spans in memory until the
process ends, when :meth:`SpanLog.dump` writes them out.  Every process
of the topology records: the benchmark's client, the HTTP front, and
the shard workers, which the front forks after :func:`install` ran and
which therefore inherit the wrappers.

Timestamps are ``time.perf_counter_ns()``, which on Linux reads
``CLOCK_MONOTONIC`` -- one clock for every process on the host, so
spans recorded in different processes line up.

A span's parent is the enclosing span on the same thread.  A span that
opens a thread's stack (the front's HTTP worker, a shard's request
thread, a pinned GA worker, a pipe reader) gets its parent in
:func:`self_times` by interval containment among the layers that can
cause it (:data:`CROSS_PARENTS`), one child of each kind per parent.
Self time is a span's duration minus the union of its children's
intervals.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Optional

#: the program's layers, outermost first; each reports ``<layer>.calls``
#: and ``<layer>.self_ms``
LAYERS = (
    "service.client",
    "service.models",
    "service.http",
    "service.sharding",
    "service.transport",
    "service.core",
    "service.cache",
    "service.scheduler",
    "service.persistence",
    "incremental",
    "ga.engine",
    "ga.batch_climb",
    "partition.metrics",
)

#: layers of the benchmark's own process (the client side)
CLIENT_LAYERS = ("service.client", "service.models")

#: which layers can cause a span that opens its thread's stack, and
#: whether the cause runs in the same process.  Everything not listed
#: runs on a shard's pinned worker thread, caused by the scheduler
#: (one-shot jobs) or the service core (session opens and updates).
CROSS_PARENTS = {
    "service.http": (("service.client",), False),
    "service.core": (("service.sharding",), False),
    "service.transport": (("service.sharding",), False),
}
WORKER_PARENTS = (("service.scheduler", "service.core"), True)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------

class SpanLog:
    """The spans of one process, in memory until :meth:`dump`."""

    def __init__(self, role: str) -> None:
        self.reset(role)

    def reset(self, role: str) -> None:
        """Start an empty log (also the fork hook of a shard worker)."""
        self.role = role
        self.pid = os.getpid()
        self.records: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, layer: str, fn: Callable, probe: Optional[Callable] = None):
        """``fn`` recording one span per call; ``probe(args, kwargs,
        out)`` returns the span's counters after a successful call."""
        log = self
        name = getattr(fn, "__name__", "call")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(log._local, "stack", None)
            if stack is None:
                stack = log._local.stack = []
            sid = next(log._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            extra = None
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                if probe is not None:
                    extra = probe(args, kwargs, out)
                return out
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                log.records.append(
                    (sid, parent, layer, name, threading.get_ident(), t0, t1,
                     extra)
                )

        return traced

    def dump(self, directory: Path) -> Path:
        path = Path(directory) / f"spans-{self.role}-{self.pid}.json"
        with open(path, "w") as fh:
            json.dump(
                {"pid": self.pid, "role": self.role, "records": self.records},
                fh,
            )
        return path


def load_spans(directory: Path) -> list[dict]:
    """Every span file in ``directory`` as ``{"pid", "role", "records"}``."""
    out = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        with open(path) as fh:
            out.append(json.load(fh))
    return out


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------

def _replace_everywhere(original, replacement) -> int:
    """Rebind ``original`` to ``replacement`` in every loaded ``repro``
    module -- wherever callers look the name up."""
    n = 0
    for modname, module in list(sys.modules.items()):
        if module is None or not (
            modname == "repro" or modname.startswith("repro.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                n += 1
    return n


def _patch_method(log: SpanLog, layer: str, cls, name: str, probe=None) -> None:
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(log.wrap(layer, raw.__func__, probe)))
    else:
        setattr(cls, name, log.wrap(layer, raw, probe))


def _http_probe(args, kwargs, out):
    body = args[3] if len(args) > 3 else kwargs.get("body", b"")
    return {"bytes": len(body or b"") + len(out[2])}


def _shard_latency_probe(args, kwargs, out):
    latency = getattr(out, "latency_s", None)
    return None if latency is None else {"shard_s": float(latency)}


def _lookup_probe(args, kwargs, out):
    return {"hit": out is not None}


def _joined_probe(args, kwargs, out):
    return {"joined": bool(getattr(out, "coalesced", False))}


def _engine_probe(args, kwargs, out):
    return {
        "generations": int(out.generations),
        "evaluations": int(out.history.n_evaluations),
    }


def _climb_probe(args, kwargs, out):
    import numpy as np

    population = args[2] if len(args) > 2 else kwargs["population"]
    before = np.asarray(population)
    return {
        "changed": int(np.count_nonzero(out != before)),
        "scanned": int(out.size),
    }


def _frame_probe(args, kwargs, out):
    return {"bytes": sum(len(memoryview(seg).cast("B")) for seg in out)}


def _pickle_probe(args, kwargs, out):
    return {"bytes": len(out)}


def install(
    log: SpanLog, layers: Iterable[str] = LAYERS, dump_dir: Optional[Path] = None
) -> None:
    """Wrap the public entry points of ``layers`` in this process.

    Call it before the fleet forks its shard workers: they inherit the
    wrappers and start an empty log of their own (role ``shard``),
    written to ``dump_dir`` when their service closes.
    """
    import multiprocessing.connection as mpconn

    from repro.ga import batch_climb, engine
    from repro.incremental import partitioner
    from repro.partition import metrics
    from repro.service import (
        cache, client, core, http, models, persistence, scheduler, sharding,
        transport,
    )

    layers = set(layers)
    functions = [
        ("service.models", models, "graph_to_wire", None),
        ("service.models", models, "graph_from_wire", None),
        ("service.http", http, "dispatch_request", _http_probe),
        ("service.transport", transport, "encode_frame_binary", _frame_probe),
        ("service.transport", transport, "decode_frame_binary", None),
        ("ga.batch_climb", batch_climb, "climb_batch", _climb_probe),
        ("partition.metrics", metrics, "batch_part_loads", None),
        ("partition.metrics", metrics, "batch_part_cuts", None),
        ("partition.metrics", metrics, "batch_cut_size", None),
    ]
    verbs = ("open_session", "update_session", "close_session")
    methods = [
        *(("service.client", client.HTTPServiceClient, verb, None)
          for verb in ("partition", *verbs)),
        ("service.models", models.JobResult, "to_payload", None),
        ("service.models", models.JobResult, "from_payload", None),
        *(("service.sharding", sharding.ShardedPartitionService, verb,
           _shard_latency_probe) for verb in ("submit", *verbs)),
        *(("service.core", core.PartitionService, verb, None)
          for verb in ("submit", *verbs)),
        ("service.cache", cache.GraphStore, "intern", None),
        ("service.cache", cache.ContentStore, "lookup_result", _lookup_probe),
        ("service.cache", cache.ContentStore, "store_result", None),
        ("service.scheduler", scheduler.CoalescingScheduler, "run",
         _joined_probe),
        ("service.persistence", persistence.SessionPersistence, "commit",
         None),
        ("incremental", partitioner.IncrementalGAPartitioner, "run_pending",
         None),
        ("ga.engine", engine.GAEngine, "run", _engine_probe),
    ]
    for layer, module, name, probe in functions:
        if layer in layers:
            original = getattr(module, name)
            _replace_everywhere(original, log.wrap(layer, original, probe))
    for layer, cls, name, probe in methods:
        if layer in layers:
            _patch_method(log, layer, cls, name, probe)

    if "service.transport" in layers:
        # the local pipe lane pickles each shard message inside
        # multiprocessing's Connection.send/recv: time the codec, not the
        # blocking pipe read around it
        base = mpconn._ForkingPickler

        class _TracedPickler:
            dumps = staticmethod(log.wrap(
                "service.transport", base.dumps, _pickle_probe
            ))
            loads = staticmethod(log.wrap("service.transport", base.loads))

        mpconn._ForkingPickler = _TracedPickler

    if dump_dir is None:
        return
    # a forked shard worker starts its own log and writes it when its
    # service closes (the shard's last act before it exits)
    os.register_at_fork(after_in_child=lambda: log.reset("shard"))
    close = core.PartitionService.close

    def close_and_dump(self):
        close(self)
        if log.role == "shard":
            log.dump(dump_dir)

    core.PartitionService.close = close_and_dump


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------

class Span:
    __slots__ = (
        "key", "parent", "layer", "name", "pid", "tid", "t0", "t1", "extra",
        "children",
    )

    def __init__(self, pid, record) -> None:
        sid, parent, layer, name, tid, t0, t1, extra = record
        self.key = (pid, sid)
        self.parent = (pid, parent) if parent else None
        self.layer = layer
        self.name = name
        self.pid = pid
        self.tid = tid
        self.t0 = t0
        self.t1 = t1
        self.extra = extra
        self.children: list = []


def covered(intervals: list) -> int:
    """Length of the union of ``(start, end)`` intervals."""
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: list) -> dict:
    """``{span key: self time in ns}`` after linking every span to its
    parent (same thread first, then :data:`CROSS_PARENTS`)."""
    by_key = {s.key: s for s in spans}
    by_layer: dict = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    for group in by_layer.values():
        group.sort(key=lambda s: s.t0)
    starts = {layer: [s.t0 for s in group] for layer, group in by_layer.items()}

    taken: set = set()

    def cross_parent(child):
        """A span of the first listed layer that contains ``child`` and
        has no child of its kind yet, ending earliest: a shard hop has
        one service call, a scheduler job one GA run.  Taking children
        by end time and parents by earliest end matches concurrent
        requests one to one, whichever way they interleave."""
        layers, same_pid = CROSS_PARENTS.get(child.layer, WORKER_PARENTS)
        fallback = None
        for layer in layers:
            group = by_layer.get(layer, ())
            i = bisect.bisect_right(starts.get(layer, ()), child.t0) - 1
            best = None
            while i >= 0:
                cand = group[i]
                i -= 1
                if child.t0 - cand.t0 > max_span[layer]:
                    break
                if (cand.pid, cand.tid) == (child.pid, child.tid):
                    continue
                if same_pid and cand.pid != child.pid:
                    continue
                if cand.t1 < child.t1:
                    continue
                if fallback is None or cand.t1 < fallback.t1:
                    fallback = cand
                slot = (cand.key, child.layer, child.name, cand.pid == child.pid)
                if slot not in taken and (best is None or cand.t1 < best.t1):
                    best = cand
            if best is not None:
                taken.add(
                    (best.key, child.layer, child.name, best.pid == child.pid)
                )
                return best
        return fallback

    max_span = {
        layer: max(s.t1 - s.t0 for s in group)
        for layer, group in by_layer.items()
    }
    for s in sorted(spans, key=lambda s: s.t1):
        parent = by_key.get(s.parent) if s.parent else None
        if parent is None and s.layer != "service.client":
            parent = cross_parent(s)
        if parent is not None:
            parent.children.append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.t0, s.t0), min(c.t1, s.t1))
            for c in s.children
            if c.t1 > s.t0 and c.t0 < s.t1
        ]
        out[s.key] = (s.t1 - s.t0) - covered(clipped)
    return out


def layer_metrics(span_files: list, window: tuple, n_requests: int) -> dict:
    """Per-layer metrics of the spans recorded inside ``window``
    (``(t0_ns, t1_ns)``), normalised per end-to-end request."""
    w0, w1 = window
    roles = {f["pid"]: f["role"] for f in span_files}
    spans = [
        Span(f["pid"], r)
        for f in span_files
        for r in f["records"]
        if r[5] >= w0 and r[6] <= w1
    ]
    selfs = self_times(spans)
    n = max(n_requests, 1)
    out: dict = {}
    for layer in LAYERS:
        mine = [s for s in spans if s.layer == layer]
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.self_ms"] = (
            sum(selfs[s.key] for s in mine) / 1e6 / n, "ms"
        )

    def extras(layer, field):
        return [
            s.extra[field] for s in spans
            if s.layer == layer and s.extra and field in s.extra
        ]

    def ratio(num, den):
        return num / den if den else 0.0

    out["service.models.bytes"] = (
        sum(extras("service.http", "bytes")) / n, "B"
    )
    transport_bytes = sum(extras("service.transport", "bytes"))
    out["service.transport.bytes"] = (transport_bytes / n, "B")
    hops = [
        (s.t1 - s.t0) / 1e6 - s.extra["shard_s"] * 1e3
        for s in spans
        if s.layer == "service.sharding" and s.extra
    ]
    out["service.sharding.hop_ms"] = (ratio(sum(hops), len(hops)), "ms")
    busy = {pid: 0 for pid, role in roles.items() if role == "shard"}
    for s in spans:
        if s.layer == "service.core" and s.pid in busy:
            busy[s.pid] += s.t1 - s.t0
    loads = list(busy.values()) or [0]
    mean_busy = sum(loads) / len(loads)
    out["service.sharding.busy_imbalance"] = (
        ratio(max(loads), mean_busy), "ratio"
    )
    hits = extras("service.cache", "hit")
    out["service.cache.hit_ratio"] = (ratio(sum(hits), len(hits)), "ratio")
    sched = [s for s in spans if s.layer == "service.scheduler"]
    out["service.scheduler.wait_ms"] = (
        ratio(sum(selfs[s.key] for s in sched) / 1e6, len(sched)), "ms"
    )
    joined = extras("service.scheduler", "joined")
    out["service.scheduler.joined_ratio"] = (
        ratio(sum(joined), len(joined)), "ratio"
    )
    gens = extras("ga.engine", "generations")
    out["ga.engine.generations"] = (ratio(sum(gens), len(gens)), "count")
    evals = extras("ga.engine", "evaluations")
    out["ga.engine.evaluations"] = (ratio(sum(evals), len(evals)), "count")
    out["ga.batch_climb.moved_ratio"] = (
        ratio(
            sum(extras("ga.batch_climb", "changed")),
            sum(extras("ga.batch_climb", "scanned")),
        ),
        "ratio",
    )
    client = [s for s in spans if s.layer == "service.client"]
    out["_client_span_ms"] = sum(s.t1 - s.t0 for s in client) / 1e6
    return out
