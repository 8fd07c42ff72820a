"""Service-level configuration.

:class:`ServiceConfig` is the single knob surface of the serving tier:
one frozen, picklable object that a :class:`~repro.service.core.
PartitionService` is built from, that ``serve --shards N`` ships to
every shard worker process, and that benchmarks record alongside their
numbers.  Everything that changes *how* the service executes — worker
counts, cache budgets, persistence, tracing, health probes — lives
here; everything that changes *what* a request answers lives in the
request itself.  The shard wire encoding is not a knob: each transport
lane has exactly one codec (see :mod:`repro.service.transport`).  Nor
is the use of more cores: that is the shard count (``serve --shards
N``, or more ``serve --shard-listen`` servers), not a field here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import ServiceError

__all__ = [
    "ServiceConfig",
    "OBSERVABILITY_FIELDS",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of one :class:`PartitionService` (or shard).

    Attributes
    ----------
    n_workers:
        Pinned worker *threads* executing jobs (numpy kernels release
        the GIL, so threads overlap; Python-level GA bookkeeping does
        not — more cores take more shards).
    cache_bytes:
        Byte budget of the content-addressed caches (half results,
        half interned graphs).
    max_sessions:
        Open incremental-session limit.
    snapshot_dir:
        Directory for session failover snapshots (see
        :mod:`repro.service.persistence`).  When set, the service
        snapshots each session's resumable state on every commit,
        restores all readable snapshots at construction, and a
        restarted shard therefore resumes its sessions bit-identically
        at the last committed epoch.  ``None`` (default) disables
        persistence for a bare :class:`PartitionService`; the sharded
        front always provisions per-shard directories (a private
        temporary one unless this is set).
    trace_enabled:
        Originate request trace spans (:mod:`repro.obs.trace`).
        Observability settings never change answers — requests carrying
        a remote trace context are stitched regardless of this flag.
    trace_sample:
        Fraction of *originated* traces recorded (deterministic,
        hash-of-trace-id based; ``1.0`` traces everything).
    trace_jsonl:
        Optional path appended with one JSON span record per line.
    probe_interval_s:
        ``> 0`` makes a sharded front probe every shard at this cadence
        (see :mod:`repro.service.sharding`): a shard that stops
        answering is ejected from the consistent-hash ring (degraded
        serving at N−1 under a new ring epoch) and re-admitted when a
        probe sees it answer again — an attached remote shard is
        reconnected by the probe instead of lazily on the next call.
        ``0`` (default) disables probing; membership then changes only
        through the admin endpoint.  Front-local: like the tracing
        flags, it never ships to shard workers' execution paths and is
        allowed in attach mode.
    """

    n_workers: int = 2
    cache_bytes: int = 64 << 20
    max_sessions: int = 1024
    snapshot_dir: Optional[str] = None
    trace_enabled: bool = False
    trace_sample: float = 1.0
    trace_jsonl: Optional[str] = None
    probe_interval_s: float = 0.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ServiceError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.cache_bytes < 0:
            raise ServiceError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}"
            )
        if self.max_sessions < 1:
            raise ServiceError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ServiceError(
                f"trace_sample must be in [0, 1], got {self.trace_sample}"
            )
        if self.probe_interval_s < 0:
            raise ServiceError(
                f"probe_interval_s must be >= 0, got {self.probe_interval_s}"
            )

    def with_updates(self, **kwargs) -> "ServiceConfig":
        """Functional update (the dataclass is frozen)."""
        return replace(self, **kwargs)

    def without_observability(self) -> "ServiceConfig":
        """Copy with the front-local fields at their defaults.  Tracing
        and health probing configure the *front* (never a shard worker's
        execution) and never change answers, so equality checks that
        guard *execution* settings (e.g. attach-mode validation) compare
        through this."""
        return replace(
            self,
            **{name: getattr(_DEFAULTS, name) for name in OBSERVABILITY_FIELDS},
        )


#: the ServiceConfig fields that only affect the front's observability
#: and supervision, never a shard's execution (attach mode allows them)
OBSERVABILITY_FIELDS = (
    "trace_enabled", "trace_sample", "trace_jsonl", "probe_interval_s",
)

_DEFAULTS = ServiceConfig()
