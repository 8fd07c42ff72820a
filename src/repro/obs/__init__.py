"""`repro.obs` — stdlib-first observability for the serving stack.

Three pillars, all observational-only (nothing here may flow into
results, seeds, or routing — the bit-identity tests assert it):

* :mod:`repro.obs.trace` — explicit-context spans with
  ``trace_id``/``span_id``/``parent_id``, monotonic durations, a
  bounded ring buffer, and an optional JSONL sink.  Trace context
  rides the JSON request payloads (``models.py``), the pipe/socket
  shard frames (``transport.py``), and process-pool job shipping
  (``procexec.py``), so one front-side tree stitches in worker spans
  across process and socket boundaries.
* :mod:`repro.obs.metrics` — a registry of counters, gauges, and
  fixed-bucket histograms under one documented snapshot schema
  (:data:`~repro.obs.metrics.METRICS_SCHEMA`), served as JSON and
  Prometheus text by ``/v1/metrics`` and merged across shards by the
  sharded front.
* :mod:`repro.obs.hooks` — thread-scoped GA progress and kernel
  probes: per-generation best-cut/evaluation spans from
  :class:`~repro.ga.engine.GAEngine` and wall-time histograms around
  the bincount kernels and ``climb_batch``, gated to a single integer
  check when off.

:mod:`repro.obs.logs` adds structured JSON log records for shard
lifecycle events (restart, death, re-attach, snapshot write/restore),
carrying ``trace_id`` when in a request context.

The metric families the service layer exports, one per row (the
only metrics contract: ``/v1/stats`` is a view of these):

========================================  =========  =========
name                                      type       labels
========================================  =========  =========
repro_requests_total                      counter    endpoint
repro_request_latency_ms                  histogram  endpoint
repro_cache_hits_total                    counter    cache
repro_cache_misses_total                  counter    cache
repro_cache_evictions_total               counter    cache
repro_cache_entries                       gauge      cache
repro_cache_bytes                         gauge      cache
repro_cache_capacity_bytes                gauge      cache
repro_warm_seeds                          gauge      —
repro_jobs_executed_total                 counter    —
repro_jobs_joined_total                   counter    —
repro_jobs_process_total                  counter    —
repro_groups_executed_total               counter    —
repro_group_members_total                 counter    —
repro_inflight_jobs                       gauge      —
repro_sessions_open                       gauge      —
repro_sessions_opened_total               counter    —
repro_sessions_closed_total               counter    —
repro_sessions_restored_total             counter    —
repro_session_updates_total               counter    —
repro_session_epoch_max                   gauge      —
repro_snapshots_written_total             counter    —
repro_snapshots_write_failures_total      counter    —
repro_snapshots_restored_total            counter    —
repro_snapshots_restore_failures_total    counter    —
repro_writebehind_records_total           counter    —
repro_writebehind_failures_total          counter    —
repro_writebehind_compactions_total       counter    —
repro_results_warmed_total                counter    —
repro_ga_generations_total                counter    —
repro_kernel_ms                           histogram  kernel
repro_trace_spans_total                   counter    —
repro_trace_spans_ingested_total          counter    —
repro_trace_sink_errors_total             counter    —
repro_shard_up                            gauge      shard
repro_shard_deaths_total                  counter    shard
repro_shard_restarts_total                counter    shard
repro_shard_reattach_total                counter    shard
repro_shard_inflight                      gauge      shard
repro_shard_ejections_total               counter    shard
repro_shard_readmissions_total            counter    shard
repro_shard_probe_failures_total          counter    shard
repro_placements_total                    counter    placement
repro_ring_epoch                          gauge      —
repro_ring_members                        gauge      —
repro_ring_ownership_ratio                gauge      shard
repro_ring_changes_total                  counter    —
repro_sessions_routed_total               counter    —
repro_sessions_handed_off_total           counter    —
repro_http_connections_total              counter    —
repro_http_connections_open               gauge      —
repro_http_inflight_requests              gauge      —
repro_http_pipeline_depth                 histogram  —
========================================  =========  =========

Behind a sharded front, a repeat the front answers from its own cache
never reaches a shard: the front's registry counts it in
``repro_requests_total``, ``repro_request_latency_ms`` and
``repro_cache_hits_total{cache="results"}``, and registers its answer
cache's evictions, entries, bytes and capacity under the same label.
The shards count every request they see, so the merged snapshot counts
each request once.  The merge adds every series, except that gauges
whose name ends in ``_max`` take the largest value.
"""

from .hooks import (
    ExecRecorder,
    active_recorder,
    emit_generation,
    kernel_probe,
    recording,
)
from .logs import JsonLogFormatter, configure_logging, get_logger
from .metrics import (
    DEFAULT_BUCKETS_MS,
    METRICS_SCHEMA,
    MetricsRegistry,
    histogram_percentile,
    latency_digest,
    merge_snapshots,
    render_prometheus,
    stats_view,
)
from .trace import NULL_SPAN, Span, Tracer, span_tree

__all__ = [
    "Span",
    "NULL_SPAN",
    "Tracer",
    "span_tree",
    "METRICS_SCHEMA",
    "DEFAULT_BUCKETS_MS",
    "MetricsRegistry",
    "merge_snapshots",
    "latency_digest",
    "stats_view",
    "render_prometheus",
    "histogram_percentile",
    "ExecRecorder",
    "recording",
    "emit_generation",
    "kernel_probe",
    "active_recorder",
    "JsonLogFormatter",
    "get_logger",
    "configure_logging",
]
