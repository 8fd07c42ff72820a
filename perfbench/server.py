"""The benchmark's service topology, as ``repro-partition serve --shards N``
builds it: the event-loop HTTP front over N local pipe shards.

Run by ``run.py`` as a child process::

    python3 perfbench/server.py --shards 2 --scratch DIR [--trace]

It prints one JSON line ``{"port": P, "pid": PID}`` once the front
listens, serves until its standard input closes, then shuts the fleet
down.  With ``--trace`` it wraps every layer before the shards fork and
writes the front's and each shard's spans into ``DIR``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    log = None
    if args.trace:
        import tracing

        log = tracing.SpanLog("front")
        tracing.install(log, dump_dir=args.scratch)

    from repro.service.http import make_server

    # the sharded front keeps session snapshots on disk; keep them in
    # the run's scratch directory rather than the system temp dir
    server = make_server(
        "127.0.0.1", 0, shards=args.shards,
        snapshot_dir=str(args.scratch / "snapshots"),
    )
    loop = threading.Thread(target=server.serve_forever, name="front")
    loop.start()
    print(
        json.dumps({"port": server.server_address[1], "pid": os.getpid()}),
        flush=True,
    )
    try:
        sys.stdin.read()  # the benchmark closes our stdin to stop us
    finally:
        server.shutdown()
        loop.join(timeout=30)
        server.service.close()
        server.server_close()
        if log is not None:
            log.dump(args.scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
