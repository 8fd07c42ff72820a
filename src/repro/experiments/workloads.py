"""The canonical workload suite behind Tables 1–6.

The paper's graph sizes compose exactly: every size it evaluates is
either a *base* mesh or a base mesh plus one of the incremental
insertions of Tables 3/6 (88 = 78+10, 98 = 78+20, 139 = 118+21,
213 = 183+30, 243 = 183+60, 279 = 249+30, 309 = 249+60).  We mirror
that structure: base meshes come from :func:`repro.graphs.meshes.paper_mesh`
and derived sizes are produced by the *same* deterministic incremental
update used in the incremental experiments, so for example the
"213 node" graph of Tables 2/5 *is* the "183 plus 30" graph of
Tables 3/6, exactly as in the paper.

The only size not derivable this way is 159 (= 118+41, a Table 3 case
that never appears as a standalone graph) and the stand-alone bases
144/167 of Tables 1/4.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import ExperimentError
from ..graphs.csr import CSRGraph
from ..graphs.meshes import paper_mesh
from ..incremental.updates import IncrementalUpdate, insert_local_nodes

__all__ = [
    "BASE_SIZES",
    "DERIVED_SIZES",
    "INCREMENTAL_PAIRS",
    "workload",
    "incremental_case",
    "workload_names",
    "service_trace",
    "replay_trace",
    "TRACE_GA_DEFAULTS",
]

#: sizes generated directly as meshes
BASE_SIZES: tuple[int, ...] = (78, 118, 144, 167, 183, 249)

#: composite size -> (base size, nodes added)
DERIVED_SIZES: dict[int, tuple[int, int]] = {
    88: (78, 10),
    98: (78, 20),
    139: (118, 21),
    159: (118, 41),
    213: (183, 30),
    243: (183, 60),
    279: (249, 30),
    309: (249, 60),
}

#: every (base, added) incremental case in Tables 3 and 6
INCREMENTAL_PAIRS: tuple[tuple[int, int], ...] = (
    (78, 10),
    (78, 20),
    (118, 21),
    (118, 41),
    (183, 30),
    (183, 60),
    (249, 30),
    (249, 60),
)

#: deterministic seed namespace for the insertions
_UPDATE_SEED_BASE = 19941115  # SC'94 conference week

#: one mesh per base size, shared by :func:`workload` and
#: :func:`incremental_case` (graphs are immutable)
_base_mesh = lru_cache(maxsize=None)(paper_mesh)


@lru_cache(maxsize=None)
def incremental_case(base: int, added: int) -> tuple[CSRGraph, IncrementalUpdate]:
    """The canonical ``base + added`` update: ``(base_graph, update)``.

    Deterministic: the same pair always produces the identical base
    graph and insertion, across processes and library versions.
    """
    if added < 1:
        raise ExperimentError(f"added must be >= 1, got {added}")
    base_graph = _base_mesh(base)
    update = insert_local_nodes(
        base_graph, added, seed=_UPDATE_SEED_BASE + base * 1000 + added
    )
    return base_graph, update


@lru_cache(maxsize=None)
def workload(size: int) -> CSRGraph:
    """The canonical graph of a given node count.

    Base sizes are plain paper meshes; composite sizes are built through
    their incremental derivation so standalone and incremental tables
    agree on what, e.g., "213 nodes" means.
    """
    if size in DERIVED_SIZES:
        base, added = DERIVED_SIZES[size]
        _, update = incremental_case(base, added)
        return update.graph
    return _base_mesh(size)


def workload_names() -> list[str]:
    """All canonical workload labels, base then derived."""
    return [str(s) for s in BASE_SIZES] + [
        f"{b}+{a}" for b, a in INCREMENTAL_PAIRS
    ]


# ----------------------------------------------------------------------
# Replayable service traffic
# ----------------------------------------------------------------------

#: compact GA budget for replayed traffic — traces exist to exercise the
#: *serving* layer (caching, coalescing, sessions), not to reproduce
#: table-quality cuts, so each GA leg is deliberately small
TRACE_GA_DEFAULTS: dict = dict(
    population_size=24,
    max_generations=15,
    patience=5,
    hill_climb="all",
    hill_climb_passes=1,
)


def service_trace(
    n_requests: int = 20,
    seed: int = 0,
    n_parts: int = 4,
    repeat_fraction: float = 0.4,
    ga: "dict | None" = None,
) -> list[dict]:
    """Deterministic mixed service traffic derived from the workloads.

    The trace interleaves the three traffic shapes the paper's
    experiments imply: **one-shot** partitions of the base meshes
    (Tables 1/2-style), **repeated** requests (the same graph and seed
    arriving again — production's cache-hit traffic), and
    **incremental sessions** replaying the Tables 3/6 pattern (open on
    the base mesh, send the canonical insertion as an update, close).

    Returns a list of JSON-able op dicts (``op`` ∈ ``partition | open |
    update | close``) that :func:`replay_trace` executes against either
    service client.  The same ``(n_requests, seed)`` always produces
    the identical trace.
    """
    if n_requests < 1:
        raise ExperimentError(f"n_requests must be >= 1, got {n_requests}")
    if not 0.0 <= repeat_fraction <= 1.0:
        raise ExperimentError(
            f"repeat_fraction must be in [0, 1], got {repeat_fraction}"
        )
    ga = dict(TRACE_GA_DEFAULTS) if ga is None else dict(ga)
    rng = np.random.default_rng(seed)
    trace: list[dict] = []
    fresh: list[dict] = []  # issued one-shots eligible for repetition
    session_cycle = 0

    while len(trace) < n_requests:
        roll = rng.random()
        if fresh and roll < repeat_fraction:
            # repeat an earlier one-shot verbatim (cache-hit traffic)
            trace.append(dict(fresh[int(rng.integers(len(fresh)))]))
        elif roll < repeat_fraction + 0.3:
            size = int(BASE_SIZES[int(rng.integers(len(BASE_SIZES)))])
            op = {
                "op": "partition",
                "size": size,
                "n_parts": int(n_parts),
                "seed": int(rng.integers(3)),
                "ga": ga,
            }
            trace.append(op)
            fresh.append(op)
        else:
            # an incremental session: open → update → close (3 ops)
            base, added = INCREMENTAL_PAIRS[
                session_cycle % len(INCREMENTAL_PAIRS)
            ]
            alias = f"sess-{base}+{added}-{session_cycle}"
            session_cycle += 1
            trace.append(
                {
                    "op": "open",
                    "session": alias,
                    "base": int(base),
                    "added": int(added),
                    "n_parts": int(n_parts),
                    "seed": int(rng.integers(3)),
                    "ga": ga,
                }
            )
            trace.append(
                {"op": "update", "session": alias, "base": int(base),
                 "added": int(added)}
            )
            trace.append({"op": "close", "session": alias})
    return trace[:n_requests]


def replay_trace(client, trace: list[dict]) -> list[tuple[dict, object]]:
    """Execute a :func:`service_trace` against a service client.

    ``client`` is any object with the shared client verbs
    (:class:`repro.service.client.ServiceClient` or
    :class:`~repro.service.client.HTTPServiceClient`).  Returns
    ``[(op, result), ...]`` in trace order; ``close`` ops whose
    ``open``/``update`` was truncated off the end of the trace are
    answered with ``None``.
    """
    results: list[tuple[dict, object]] = []
    session_ids: dict[str, str] = {}
    for op in trace:
        kind = op["op"]
        if kind == "partition":
            result = client.partition(
                workload(op["size"]),
                op["n_parts"],
                seed=op["seed"],
                ga=op.get("ga"),
            )
        elif kind == "open":
            base_graph, _ = incremental_case(op["base"], op["added"])
            result = client.open_session(
                base_graph, op["n_parts"], seed=op["seed"], ga=op.get("ga")
            )
            session_ids[op["session"]] = result.session_id
        elif kind == "update":
            sid = session_ids.get(op["session"])
            if sid is None:
                result = None  # truncated trace: open fell off the end
            else:
                _, update = incremental_case(op["base"], op["added"])
                result = client.update_session(sid, update.graph)
        elif kind == "close":
            sid = session_ids.pop(op["session"], None)
            result = None if sid is None else client.close_session(sid)
        else:
            raise ExperimentError(f"unknown trace op {kind!r}")
        results.append((op, result))
    return results
