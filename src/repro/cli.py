"""Command-line interface.

::

    repro-partition partition GRAPH.metis -k 8 [--method dknux|rsb|ibp|...]
    repro-partition experiment table1 [--mode quick|full] [--seed N]
    repro-partition workloads
    repro-partition info GRAPH.metis
    repro-partition serve [--host H] [--port P] [--workers N]
                          [--shards S]
                          [--attach-shard HOST:PORT ...] [--snapshot-dir D]
                          [--trace] [--trace-sample R] [--trace-jsonl F]
                          [--log-json]
    repro-partition serve --shard-listen HOST:PORT  (remote shard worker)
    repro-partition submit GRAPH.metis -k 8 [--url http://127.0.0.1:8157]
    repro-partition ring status|resize|eject|readmit
                         [--url U] [-n N] [--shard I]

``python -m repro`` is an alias for the same entry point.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]

METHODS = ("dknux", "rsb", "ibp", "rcb", "rgb", "kl", "greedy", "random", "mlga")

#: methods the service endpoint accepts (see repro.service.models)
SERVICE_CLI_METHODS = (
    "dknux", "greedy", "rgb", "kl", "random", "rsb", "portfolio",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-partition",
        description=(
            "Graph partitioning with genetic algorithms (SC'94 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="partition a METIS-format graph")
    p_part.add_argument("graph", help="path to a METIS .graph file")
    p_part.add_argument("-k", "--parts", type=int, required=True)
    p_part.add_argument("--method", choices=METHODS, default="dknux")
    p_part.add_argument(
        "--fitness", choices=("fitness1", "fitness2"), default="fitness1"
    )
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument(
        "--output", help="write the assignment (one label per line) here"
    )

    p_exp = sub.add_parser("experiment", help="run a paper table")
    p_exp.add_argument(
        "table", help="table id (table1..table6) or 'all'"
    )
    p_exp.add_argument("--mode", choices=("quick", "full"), default="quick")
    p_exp.add_argument("--seed", type=int, default=0)

    p_conv = sub.add_parser(
        "convergence", help="regenerate the operator-convergence figure"
    )
    p_conv.add_argument("--size", type=int, default=144)
    p_conv.add_argument("-k", "--parts", type=int, default=4)
    p_conv.add_argument("--runs", type=int, default=3)
    p_conv.add_argument("--generations", type=int, default=60)
    p_conv.add_argument("--seed", type=int, default=0)

    sub.add_parser("workloads", help="list the canonical workload graphs")

    p_info = sub.add_parser("info", help="print statistics of a graph file")
    p_info.add_argument("graph", help="path to a METIS .graph file")

    p_serve = sub.add_parser(
        "serve", help="run the partition service HTTP endpoint"
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8157)
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="pinned worker threads executing jobs (per shard)",
    )
    p_serve.add_argument(
        "--cache-mb", type=int, default=64,
        help="byte budget of the content-addressed caches (per shard)",
    )
    p_serve.add_argument(
        "--shards", type=int, default=0,
        help="digest-sharded multi-process serving: N worker service "
             "processes, the way to use N cores (0 = single process)",
    )
    p_serve.add_argument(
        "--racing-portfolio", action="store_true",
        help="race portfolio legs concurrently, cancelling losers",
    )
    p_serve.add_argument(
        "--shard-listen", metavar="HOST:PORT", default=None,
        help="run a standalone shard worker serving the shard RPC on "
             "this address instead of an HTTP endpoint (fronts attach "
             "it with --attach-shard)",
    )
    p_serve.add_argument(
        "--attach-shard", metavar="HOST:PORT", action="append", default=[],
        help="attach a running --shard-listen worker as one shard "
             "(repeatable; replaces --shards; the fleet width is the "
             "number of attached addresses)",
    )
    p_serve.add_argument(
        "--snapshot-dir", default=None,
        help="durable directory for session failover snapshots (default: "
             "a private temporary store for local shards)",
    )
    p_serve.add_argument(
        "--snapshot-interval", type=float, default=0.0,
        help="seconds between periodic session snapshot passes on top "
             "of the on-commit writes (0 = on-commit only)",
    )
    p_serve.add_argument(
        "--probe-interval", type=float, default=0.0,
        help="seconds between front-driven shard health probes; a dead "
             "remote shard is ejected from the hash ring and re-admitted "
             "when it answers again (0 = no probing; sharded fronts only)",
    )
    p_serve.add_argument(
        "--trace", action="store_true",
        help="record request spans (see README 'Observability'); on a "
             "sharded front this traces end-to-end across shards",
    )
    p_serve.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of new traces to record (deterministic by "
             "trace id; propagated contexts are always recorded)",
    )
    p_serve.add_argument(
        "--trace-jsonl", default=None,
        help="append finished spans as JSON lines to this file",
    )
    p_serve.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON log records for shard lifecycle "
             "events (restarts, fail-fast, snapshot writes) on stderr",
    )

    p_ring = sub.add_parser(
        "ring",
        help="administer the hash ring of a running sharded service",
    )
    p_ring.add_argument(
        "action", choices=("status", "resize", "eject", "readmit"),
        help="status: ring description + per-shard health; resize: grow "
             "or shrink the fleet to -n shards (sessions and warm results "
             "move); eject/readmit: reversibly take --shard out of / back "
             "into the ring",
    )
    p_ring.add_argument(
        "--url", default="http://127.0.0.1:8157",
        help="base URL of a running `repro-partition serve --shards N`",
    )
    p_ring.add_argument(
        "-n", "--shards", type=int, default=None,
        help="target fleet width (resize only)",
    )
    p_ring.add_argument(
        "--shard", type=int, default=None,
        help="shard index (eject/readmit only)",
    )

    p_sub = sub.add_parser(
        "submit", help="submit a graph to a running partition service"
    )
    p_sub.add_argument("graph", help="path to a METIS .graph or .json file")
    p_sub.add_argument("-k", "--parts", type=int, required=True)
    p_sub.add_argument(
        "--method", choices=SERVICE_CLI_METHODS, default="dknux"
    )
    p_sub.add_argument(
        "--fitness", choices=("fitness1", "fitness2"), default="fitness1"
    )
    p_sub.add_argument("--seed", type=int, default=0)
    p_sub.add_argument(
        "--url", default="http://127.0.0.1:8157",
        help="base URL of a running `repro-partition serve`",
    )
    p_sub.add_argument(
        "--time-budget", type=float, default=None,
        help="seconds for --method portfolio",
    )
    p_sub.add_argument(
        "--output", help="write the assignment (one label per line) here"
    )

    return parser


def _load_graph(path: str):
    """Load METIS (default) or JSON (``.json``, carries coordinates)."""
    from .graphs.io import read_json, read_metis

    if str(path).endswith(".json"):
        return read_json(path)
    return read_metis(path)


def _run_partition(args: argparse.Namespace) -> int:
    from . import partition_graph
    from .baselines import (
        greedy_partition,
        ibp_partition,
        random_partition,
        rcb_partition,
        recursive_kl_partition,
        rgb_partition,
        rsb_partition,
    )
    from .multilevel import multilevel_ga_partition

    from .errors import GraphError

    graph = _load_graph(args.graph)
    k = args.parts
    if args.method in ("ibp", "rcb") and graph.coords is None:
        print(
            f"error: method {args.method!r} needs vertex coordinates; "
            "use a .json graph file (write_json) instead of METIS",
            file=sys.stderr,
        )
        return 1
    if args.method == "dknux":
        part = partition_graph(
            graph, k, fitness_kind=args.fitness, seed=args.seed
        )
    elif args.method == "rsb":
        part = rsb_partition(graph, k)
    elif args.method == "ibp":
        part = ibp_partition(graph, k)
    elif args.method == "rcb":
        part = rcb_partition(graph, k)
    elif args.method == "rgb":
        part = rgb_partition(graph, k)
    elif args.method == "kl":
        part = recursive_kl_partition(graph, k, seed=args.seed)
    elif args.method == "greedy":
        part = greedy_partition(graph, k, seed=args.seed)
    elif args.method == "mlga":
        part = multilevel_ga_partition(
            graph, k, fitness_kind=args.fitness, seed=args.seed
        )
    else:
        part = random_partition(graph, k, seed=args.seed)
    print(
        f"method={args.method} k={k} cut={part.cut_size:g} "
        f"worst_cut={part.max_part_cut:g} balance={part.balance_ratio:.3f} "
        f"sizes={part.part_sizes.tolist()}"
    )
    if args.output:
        np.savetxt(args.output, part.assignment, fmt="%d")
        print(f"assignment written to {args.output}")
    return 0


def _run_experiment(args: argparse.Namespace) -> int:
    from .experiments import format_table, get_spec, list_specs, run_table

    tables = list_specs() if args.table == "all" else [args.table]
    for table_id in tables:
        result = run_table(get_spec(table_id), mode=args.mode, seed=args.seed)
        print(format_table(result))
        print()
    return 0


def _run_convergence(args: argparse.Namespace) -> int:
    from .experiments import format_convergence, run_convergence

    result = run_convergence(
        size=args.size,
        n_parts=args.parts,
        n_runs=args.runs,
        generations=args.generations,
        seed=args.seed,
    )
    print(format_convergence(result))
    return 0


def _run_workloads() -> int:
    from .experiments import workload, workload_names

    print(f"{'name':>10} {'nodes':>6} {'edges':>6}")
    for name in workload_names():
        if "+" in name:
            base, added = name.split("+")
            size = int(base) + int(added)
        else:
            size = int(name)
        g = workload(size)
        print(f"{name:>10} {g.n_nodes:>6} {g.n_edges:>6}")
    return 0


def _run_info(args: argparse.Namespace) -> int:
    from .graphs.ops import connected_components, degree_histogram

    graph = _load_graph(args.graph)
    comps = int(connected_components(graph).max()) + 1 if graph.n_nodes else 0
    hist = degree_histogram(graph)
    degrees = graph.degree()
    print(f"nodes      : {graph.n_nodes}")
    print(f"edges      : {graph.n_edges}")
    print(f"components : {comps}")
    if graph.n_nodes:
        print(f"degree     : min={degrees.min()} mean={degrees.mean():.2f} max={degrees.max()}")
    print(f"node weight: total={graph.total_node_weight():g}")
    print(f"edge weight: total={graph.total_edge_weight():g}")
    print(f"degree histogram: {hist.tolist()}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:  # pragma: no cover - blocking
    from .service import serve

    if args.log_json:
        from .obs.logs import configure_logging

        configure_logging()

    # front-local observability/supervision knobs: these survive the
    # attach-mode reset below because they configure the front itself
    # (see ServiceConfig.OBSERVABILITY_FIELDS), never a shard worker
    front_kwargs = dict(
        trace_enabled=args.trace,
        trace_sample=args.trace_sample,
        trace_jsonl=args.trace_jsonl,
        probe_interval_s=args.probe_interval,
    )
    kwargs = dict(
        n_workers=args.workers,
        cache_bytes=args.cache_mb << 20,
        racing_portfolio=args.racing_portfolio,
        snapshot_interval_s=args.snapshot_interval,
        **front_kwargs,
    )
    if args.snapshot_dir is not None:
        kwargs["snapshot_dir"] = args.snapshot_dir
    elif args.snapshot_interval > 0 and not args.shards:
        # a sharded front provisions per-shard stores itself; every
        # other serve role persists only into an explicit directory —
        # an interval with nowhere to write would be a silent no-op
        print(
            "error: --snapshot-interval needs --snapshot-dir "
            "(only --shards N provisions a snapshot store on its own)",
            file=sys.stderr,
        )
        return 1

    if args.shard_listen:
        # standalone shard worker: serves the shard RPC over a socket,
        # to be attached by a front running with --attach-shard
        from .service.sharding import ShardServer
        from .service.transport import parse_address

        if args.shards or args.attach_shard:
            print(
                "error: --shard-listen is a worker role; it cannot be "
                "combined with --shards or --attach-shard",
                file=sys.stderr,
            )
            return 1
        host, port = parse_address(args.shard_listen)
        server = ShardServer(host=host, port=port, **kwargs)
        print(
            f"repro shard worker on {server.address} "
            f"({args.workers} workers, {args.cache_mb} MiB cache) — "
            "Ctrl-C stops"
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
        return 0

    if args.shards and args.attach_shard:
        print(
            "error: pass either --shards N (local workers) or "
            "--attach-shard (remote workers), not both",
            file=sys.stderr,
        )
        return 1
    if args.attach_shard and args.snapshot_dir is not None:
        # an attach front holds no sessions itself; persistence lives on
        # the workers — silently accepting the flag would let the
        # operator believe sessions are durable when nothing is written
        print(
            "error: --snapshot-dir belongs on the shard workers; pass it "
            "to each `serve --shard-listen`, not to the attach front",
            file=sys.stderr,
        )
        return 1
    if args.attach_shard:
        # service knobs configure workers, and attached workers are
        # configured where they run — reject instead of ignoring
        if (
            args.workers != 2 or args.cache_mb != 64
            or args.racing_portfolio or args.snapshot_interval > 0
        ):
            print(
                "error: service options (--workers, --cache-mb, ...) "
                "configure shard workers; pass them to each "
                "`serve --shard-listen`, not to the attach front",
                file=sys.stderr,
            )
            return 1
        # tracing and probing are front-local (the attach-check ignores
        # them), so the flags survive the reset stripping worker knobs
        kwargs = dict(front_kwargs)
    if args.attach_shard:
        layout = f"{len(args.attach_shard)} attached shards"
    elif args.shards:
        layout = f"{args.shards} shards × {args.workers} workers"
    else:
        layout = f"{args.workers} workers"
    print(
        f"repro partition service on http://{args.host}:{args.port} "
        f"({layout}, {args.cache_mb} MiB cache) — Ctrl-C stops"
    )
    serve(
        host=args.host,
        port=args.port,
        shards=args.shards,
        attach_shards=args.attach_shard or None,
        **kwargs,
    )
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .service import HTTPServiceClient

    graph = _load_graph(args.graph)
    try:
        with HTTPServiceClient(args.url) as client:
            result = client.partition(
                graph,
                args.parts,
                method=args.method,
                fitness_kind=args.fitness,
                seed=args.seed,
                time_budget=args.time_budget,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    flags = "".join(
        f" {name}" for name, on in (
            ("cache-hit", result.cache_hit), ("coalesced", result.coalesced)
        ) if on
    )
    print(
        f"method={result.method} k={result.n_parts} cut={result.cut_size:g} "
        f"worst_cut={result.max_part_cut:g} "
        f"balance={result.balance_ratio:.3f} "
        f"latency={result.latency_s * 1e3:.1f}ms{flags}"
    )
    if result.portfolio:
        for leg in result.portfolio:
            if "skipped" in leg:
                print(f"  {leg['method']:>8}: skipped ({leg['skipped']})")
            else:
                print(
                    f"  {leg['method']:>8}: cut={leg['cut_size']:g} "
                    f"t={leg['seconds'] * 1e3:.1f}ms"
                )
    if args.output:
        np.savetxt(args.output, result.assignment, fmt="%d")
        print(f"assignment written to {args.output}")
    return 0


def _run_ring(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError
    from .service import HTTPServiceClient

    client = HTTPServiceClient(args.url)
    try:
        if args.action == "status":
            answer = client.ring_status()
        elif args.action == "resize":
            if args.shards is None:
                print("error: resize needs -n/--shards", file=sys.stderr)
                return 1
            answer = client.ring_resize(args.shards)
        else:  # eject / readmit
            if args.shard is None:
                print(
                    f"error: {args.action} needs --shard", file=sys.stderr
                )
                return 1
            if args.action == "eject":
                answer = client.ring_eject(args.shard)
            else:
                answer = client.ring_readmit(args.shard)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    ring = answer.get("ring", {})
    if ring:
        print(
            f"ring: epoch={ring.get('epoch')} width={ring.get('n_slots')} "
            f"members={ring.get('members')}"
        )
    for row in answer.get("health", []):
        probe = row.get("probe_ok")
        probe_s = "-" if probe is None else ("ok" if probe else "FAIL")
        print(
            f"  shard {row['shard']}: {row['state']:>10} "
            f"in_ring={row['in_ring']} probe={probe_s} "
            f"probe_failures={row['probe_failures']}"
        )
    extra = {
        k: v for k, v in answer.items() if k not in ("ring", "health")
    }
    if extra:
        print(json.dumps(extra, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "partition":
        return _run_partition(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "convergence":
        return _run_convergence(args)
    if args.command == "workloads":
        return _run_workloads()
    if args.command == "info":
        return _run_info(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "ring":
        return _run_ring(args)
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
