"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors (``TypeError`` etc. propagate unchanged).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "GraphFormatError",
    "PartitionError",
    "ConfigError",
    "ConvergenceError",
    "ExperimentError",
    "ServiceError",
    "ShardDiedError",
    "NeedsGraph",
    "UnknownSession",
]


class ReproError(Exception):
    """Base class for all library errors."""


class GraphError(ReproError):
    """Invalid graph structure or an operation unsupported for a graph."""


class GraphFormatError(GraphError):
    """Malformed external graph representation (file parsing, etc.)."""


class PartitionError(ReproError):
    """Invalid partition (wrong length, bad labels, unsatisfiable balance)."""


class ConfigError(ReproError):
    """Invalid configuration value for an algorithm."""


class ConvergenceError(ReproError):
    """A numerical routine (e.g. the Fiedler eigensolver) failed to converge."""


class ExperimentError(ReproError):
    """An experiment specification or run is invalid."""


class ServiceError(ReproError):
    """Invalid request to, or failed operation of, the partition service."""


class ShardDiedError(ServiceError):
    """A shard worker died (process exit, lost socket) while the request
    was in flight or before it could be sent.  The request was *not*
    completed; idempotent requests may be retried once the shard is
    restarted or reattached."""


class NeedsGraph(ServiceError):
    """A request named its graph by digest alone, and the service holds
    neither the answer nor the graph.  Nothing was computed; the caller
    resends the same request with the graph attached (HTTP 409)."""


class UnknownSession(ServiceError):
    """A session verb named a session id that no shard or service holds
    (never opened, already closed, or lost with a shard that had no
    snapshot).  Nothing changed; HTTP answers 404."""
