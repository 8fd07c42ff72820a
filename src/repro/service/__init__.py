"""repro.service — partition-as-a-service over the GA kernels.

The serving subsystem the ROADMAP's production north star builds on:
typed requests with a JSON wire format (:mod:`.models`), one config
surface (:mod:`.config`), content-addressed caching of
graphs/results/warm seeds (:mod:`.cache`), a coalescing scheduler over
pinned worker threads (:mod:`.scheduler`), consistent-hash shard
addressing with epoch-numbered ring versions (:mod:`.ring`),
digest-sharded multi-process serving with supervision/auto-restart and
elastic resize (:mod:`.sharding`, ``serve --shards N``,
``repro-partition ring``) over one binary-frame socket transport
(:mod:`.transport`: a socketpair to a local shard, TCP to ``serve
--shard-listen`` / ``--attach-shard``), session failover
snapshots (:mod:`.persistence`), streaming incremental sessions
(:mod:`.sessions`), a method portfolio racer (:mod:`.portfolio`), and
two frontends — a stdlib HTTP endpoint (:mod:`.http` routing, served
by the :mod:`.eventloop` selectors front with keep-alive and
pipelining; ``repro-partition serve``) and programmatic clients
(:mod:`.client`).  Shards are the one way to use more cores: each is a
whole service process behind the hash ring.  Observability —
distributed request tracing, the unified metrics registry behind
``/v1/metrics``, and structured shard lifecycle logs — lives in
:mod:`repro.obs` and is threaded through every layer here.
"""

from .models import (
    FITNESS_KINDS,
    SERVICE_METHODS,
    JobResult,
    PartitionRequest,
    RefineRequest,
    UpdateRequest,
    graph_from_wire,
    graph_to_wire,
    result_from_partition,
)
from .cache import ContentStore, GraphStore, LRUBytesCache, graph_digest, request_key
from .config import ServiceConfig
from .ring import (
    DEFAULT_RING_REPLICAS,
    RING_PROTOCOL_VERSION,
    HashRing,
    RingVersion,
)
from .scheduler import CoalescingScheduler
from .sessions import SESSION_GA_DEFAULTS, Session, SessionManager
from .persistence import (
    ResultWriteBehind,
    SessionPersistence,
    SnapshotStore,
    iter_result_entries,
)
from .portfolio import PORTFOLIO_GA_DEFAULTS, run_portfolio
from .core import DEFAULT_GA_OVERRIDES, PartitionService
from .transport import (
    ShardListener,
    SocketTransport,
    connect_shard,
    parse_address,
)
from .sharding import ShardServer, ShardedPartitionService
from .client import HTTPServiceClient, ServiceClient
from .http import dispatch_request, make_server, serve
from .eventloop import EventLoopHTTPServer

__all__ = [
    "ServiceConfig",
    "ShardedPartitionService",
    "ShardServer",
    "SocketTransport",
    "ShardListener",
    "connect_shard",
    "parse_address",
    "SessionPersistence",
    "SnapshotStore",
    "ResultWriteBehind",
    "iter_result_entries",
    "HashRing",
    "RingVersion",
    "RING_PROTOCOL_VERSION",
    "DEFAULT_RING_REPLICAS",
    "FITNESS_KINDS",
    "SERVICE_METHODS",
    "JobResult",
    "PartitionRequest",
    "RefineRequest",
    "UpdateRequest",
    "graph_from_wire",
    "graph_to_wire",
    "result_from_partition",
    "ContentStore",
    "GraphStore",
    "LRUBytesCache",
    "graph_digest",
    "request_key",
    "CoalescingScheduler",
    "SESSION_GA_DEFAULTS",
    "Session",
    "SessionManager",
    "PORTFOLIO_GA_DEFAULTS",
    "run_portfolio",
    "DEFAULT_GA_OVERRIDES",
    "PartitionService",
    "HTTPServiceClient",
    "ServiceClient",
    "EventLoopHTTPServer",
    "dispatch_request",
    "make_server",
    "serve",
]
