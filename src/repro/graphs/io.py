"""Graph serialization: METIS ``.graph`` format, edge lists, and JSON.

The METIS ``chaco/metis`` text format is the lingua franca of the graph
partitioning community, so graphs built here can be exchanged with other
partitioning tools and vice versa.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..errors import GraphFormatError
from .csr import CSRGraph

__all__ = [
    "write_metis",
    "read_metis",
    "parse_metis",
    "write_edge_list",
    "read_edge_list",
    "write_json",
    "read_json",
    "graph_to_payload",
    "graph_from_payload",
]

PathLike = Union[str, Path]


def write_metis(graph: CSRGraph, path: PathLike) -> None:
    """Write a graph in METIS format (1-based adjacency lists).

    Header flags: ``fmt=11`` when both node and edge weights are present,
    ``fmt=1`` for edge weights only, ``fmt=10`` for node weights only,
    no flag when all weights are 1.  Integer weights are required by the
    format; non-integer weights raise :class:`GraphFormatError`.
    """
    has_nw = not np.all(graph.node_weights == 1)
    has_ew = not np.all(graph.edge_weights == 1)
    for arr, what in ((graph.node_weights, "node"), (graph.edge_weights, "edge")):
        if not np.allclose(arr, np.round(arr)):
            raise GraphFormatError(f"METIS format requires integer {what} weights")
    lines = []
    fmt = f"{int(has_nw)}{int(has_ew)}"
    header = f"{graph.n_nodes} {graph.n_edges}"
    if fmt != "00":
        header += f" {fmt}"
    lines.append(header)
    for node in range(graph.n_nodes):
        parts: list[str] = []
        if has_nw:
            parts.append(str(int(graph.node_weights[node])))
        lo, hi = graph.indptr[node], graph.indptr[node + 1]
        for nbr, w in zip(graph.indices[lo:hi], graph.adj_weights[lo:hi]):
            parts.append(str(int(nbr) + 1))
            if has_ew:
                parts.append(str(int(w)))
        lines.append(" ".join(parts))
    Path(path).write_text("\n".join(lines) + "\n")


def _metis_int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: {what} must be an integer, got {token!r}"
        ) from None


def _metis_number(token: str, lineno: int, what: str) -> float:
    """Parse a weight token: finite and non-negative, or a clear error.

    ``float()`` happily accepts ``nan``/``inf``, which would silently
    poison every downstream cut/fitness comparison — untrusted bytes
    must fail here, with the line number, instead."""
    try:
        value = float(token)
    except ValueError:
        raise GraphFormatError(
            f"line {lineno}: {what} must be a number, got {token!r}"
        ) from None
    if not np.isfinite(value) or value < 0:
        raise GraphFormatError(
            f"line {lineno}: {what} must be finite and non-negative, "
            f"got {token!r}"
        )
    return value


def parse_metis(text: str) -> CSRGraph:
    """Parse METIS ``.graph`` text into a :class:`CSRGraph`.

    This is the strict form used for untrusted bytes (e.g. graphs
    arriving over the service endpoint): every malformed construct —
    non-numeric tokens, a truncated file, trailing garbage, out-of-range
    neighbors — raises :class:`GraphFormatError` naming the offending
    1-based line.  ``%`` comment lines are skipped; a *blank* line is a
    vertex with an empty adjacency list (an isolated node), per the
    METIS format.
    """
    # (lineno, tokens) for every non-comment line; blank lines kept so
    # isolated vertices parse and truncation errors point at real lines
    rows: list[tuple[int, list[str]]] = []
    header: Optional[tuple[int, list[str]]] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("%"):
            continue
        if header is None:
            if not line.strip():
                continue  # leading blank lines before the header
            header = (lineno, line.split())
        else:
            rows.append((lineno, line.split()))
    if header is None:
        raise GraphFormatError("empty METIS file")
    hline, htok = header
    if len(htok) < 2 or len(htok) > 4:
        raise GraphFormatError(
            f"line {hline}: METIS header needs 2-4 fields "
            f"(nodes, edges[, fmt[, ncon]]), got {len(htok)}"
        )
    n_nodes = _metis_int(htok[0], hline, "node count")
    n_edges = _metis_int(htok[1], hline, "edge count")
    if n_nodes < 0 or n_edges < 0:
        raise GraphFormatError(
            f"line {hline}: node/edge counts must be non-negative"
        )
    fmt = htok[2] if len(htok) > 2 else "0"
    if not fmt.isdigit():
        raise GraphFormatError(
            f"line {hline}: METIS fmt flag must be digits, got {fmt!r}"
        )
    # fmt is up to 3 digits: vertex-sizes / node-weights / edge-weights.
    # Vertex sizes and multi-constraint weights (ncon > 1) are not
    # implemented here — accepting them would silently misparse the
    # body, so the strict parser refuses instead.
    fmt = fmt.zfill(2)
    if len(fmt) > 2 and fmt[:-2].strip("0"):
        raise GraphFormatError(
            f"line {hline}: METIS vertex sizes (fmt={fmt!r}) are not supported"
        )
    if len(htok) == 4:
        ncon = _metis_int(htok[3], hline, "constraint count (ncon)")
        if ncon > 1:
            raise GraphFormatError(
                f"line {hline}: multi-constraint node weights "
                f"(ncon={ncon}) are not supported"
            )
    has_nw, has_ew = fmt[-2] == "1", fmt[-1] == "1"

    # trailing blank lines are tolerated; blank lines *among* the first
    # n_nodes rows are genuine empty adjacency lists
    while len(rows) > n_nodes and not rows[-1][1]:
        rows.pop()
    if len(rows) < n_nodes:
        last = rows[-1][0] if rows else hline
        raise GraphFormatError(
            f"truncated METIS file: header (line {hline}) declares "
            f"{n_nodes} nodes but the file ends after line {last} with "
            f"only {len(rows)} vertex lines"
        )
    if len(rows) > n_nodes:
        raise GraphFormatError(
            f"line {rows[n_nodes][0]}: unexpected extra line — header "
            f"(line {hline}) declares only {n_nodes} nodes"
        )

    us, vs, ws = [], [], []
    node_w = np.ones(n_nodes)
    for node, (lineno, tokens) in enumerate(rows):
        pos = 0
        if has_nw:
            if not tokens:
                raise GraphFormatError(
                    f"line {lineno}: node {node + 1} is missing its weight"
                )
            node_w[node] = _metis_number(
                tokens[0], lineno, f"node {node + 1} weight"
            )
            pos = 1
        step = 2 if has_ew else 1
        rest = tokens[pos:]
        if len(rest) % step:
            raise GraphFormatError(
                f"line {lineno}: node {node + 1} has a ragged adjacency "
                "list (odd token count with edge weights enabled)"
                if has_ew
                else f"line {lineno}: node {node + 1} has a ragged adjacency list"
            )
        for i in range(0, len(rest), step):
            nbr = _metis_int(rest[i], lineno, f"node {node + 1} neighbor") - 1
            if not 0 <= nbr < n_nodes:
                raise GraphFormatError(
                    f"line {lineno}: node {node + 1} lists neighbor "
                    f"{nbr + 1}, outside 1..{n_nodes}"
                )
            if nbr == node:
                raise GraphFormatError(
                    f"line {lineno}: node {node + 1} lists itself as a neighbor"
                )
            if nbr > node:  # each undirected edge listed from both sides
                us.append(node)
                vs.append(nbr)
                ws.append(
                    _metis_number(
                        rest[i + 1], lineno, f"node {node + 1} edge weight"
                    )
                    if has_ew
                    else 1.0
                )
    g = CSRGraph(n_nodes, us, vs, ws, node_w)
    if g.n_edges != n_edges:
        raise GraphFormatError(
            f"METIS header declares {n_edges} edges but adjacency lists give {g.n_edges}"
        )
    return g


def read_metis(path: PathLike) -> CSRGraph:
    """Read a METIS-format graph file (see :func:`parse_metis`)."""
    return parse_metis(Path(path).read_text())


def write_edge_list(graph: CSRGraph, path: PathLike) -> None:
    """Write ``u v weight`` lines (0-based) preceded by a ``# nodes`` header."""
    lines = [f"# nodes {graph.n_nodes}"]
    lines += [f"{u} {v} {w:g}" for u, v, w in graph.iter_edges()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_edge_list(path: PathLike) -> CSRGraph:
    """Read the edge-list format produced by :func:`write_edge_list`."""
    n_nodes: Optional[int] = None
    us, vs, ws = [], [], []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            tokens = line[1:].split()
            if len(tokens) == 2 and tokens[0] == "nodes":
                n_nodes = int(tokens[1])
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise GraphFormatError(f"bad edge line: {raw!r}")
        us.append(int(tokens[0]))
        vs.append(int(tokens[1]))
        ws.append(float(tokens[2]) if len(tokens) == 3 else 1.0)
    if n_nodes is None:
        n_nodes = (max(max(us, default=-1), max(vs, default=-1)) + 1) if us else 0
    return CSRGraph(n_nodes, us, vs, ws)


def graph_to_payload(graph: CSRGraph) -> dict:
    """JSON-serializable dict form of a graph (weights + coordinates).

    This is both the on-disk format of :func:`write_json` and the wire
    format graphs travel in over the partition service.
    """
    return {
        "n_nodes": graph.n_nodes,
        "edges_u": graph.edges_u.tolist(),
        "edges_v": graph.edges_v.tolist(),
        "edge_weights": graph.edge_weights.tolist(),
        "node_weights": graph.node_weights.tolist(),
        "coords": None if graph.coords is None else graph.coords.tolist(),
    }


def graph_from_payload(payload: dict) -> CSRGraph:
    """Rebuild a graph from :func:`graph_to_payload` output.

    Malformed payloads (missing keys, wrong types, invalid structure)
    raise :class:`GraphFormatError` — the payload may come from
    untrusted bytes on the service endpoint.
    """
    if not isinstance(payload, dict):
        raise GraphFormatError(
            f"graph payload must be an object, got {type(payload).__name__}"
        )
    try:
        coords = payload.get("coords")
        node_weights = payload["node_weights"]
        # a copy, as for coords: CSRGraph keeps node weights as given,
        # and a binary shard frame decodes them as a view that would pin
        # the whole received frame for the graph's lifetime
        graph = CSRGraph(
            payload["n_nodes"],
            payload["edges_u"],
            payload["edges_v"],
            payload["edge_weights"],
            None if node_weights is None
            else np.array(node_weights, dtype=np.float64),
            coords=None if coords is None else np.array(coords, dtype=np.float64),
        )
    except KeyError as exc:
        raise GraphFormatError(f"graph payload missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise GraphFormatError(f"bad graph payload: {exc}") from exc
    # json.loads accepts NaN/Infinity literals, and CSRGraph's own
    # negativity checks pass NaN through (nan < 0 is False) — reject
    # non-finite weights here so wire payloads cannot poison cut math
    if not (
        np.all(np.isfinite(graph.edge_weights))
        and np.all(np.isfinite(graph.node_weights))
    ):
        raise GraphFormatError("graph payload weights must be finite")
    return graph


def write_json(graph: CSRGraph, path: PathLike) -> None:
    """Write the full graph (weights + coordinates) as JSON."""
    Path(path).write_text(json.dumps(graph_to_payload(graph)))


def read_json(path: PathLike) -> CSRGraph:
    """Read a graph produced by :func:`write_json`."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"bad JSON graph file: {exc}") from exc
    return graph_from_payload(payload)
