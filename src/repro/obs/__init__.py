"""``repro.obs`` — zero-dependency observability: metrics, spans, exporters.

The cross-cutting measurement layer for the whole reproduction (see
``docs/observability.md``):

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges and labelled histograms, off by default (enable with
  ``REPRO_OBS=1``, :func:`set_enabled`, or the CLI's ``--metrics-out``);
* :mod:`repro.obs.spans` — nested ``span("simx.run", attrs=...)`` timing
  scopes recorded in completion order;
* :mod:`repro.obs.export` — a Prometheus text exporter, the JSONL
  snapshot format behind ``--metrics-out`` / ``repro stats``, and the
  drain/merge shuttle that ships worker-process metrics back to the
  engine parent;
* :mod:`repro.obs.gcstats` — :func:`watching_gc`, per-generation
  garbage-collection counts and seconds for CLI commands, ``serve`` and
  engine workers.

Instrumented layers: the simulator (per-run op/burst/cycle accounting),
the engine scheduler and worker pools (unit latency, queue depth, event
counters), the sweep cache tiers (hit/miss rates) and the experiment
drivers (per-figure wall time).  Everything is a no-op costing one
branch while disabled — enforced by ``tests/obs/test_overhead.py`` and
``benchmarks/test_obs_overhead.py``.
"""

from repro.obs.export import (
    drain,
    merge_delta,
    read_jsonl,
    render_prometheus,
    render_stats,
    write_jsonl,
)
from repro.obs.gcstats import watching_gc
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    counter,
    enabled,
    gauge,
    histogram,
    merge_snapshot,
    reset,
    set_enabled,
    snapshot,
)
from repro.obs.spans import RECORDER, Span, SpanRecorder, span, span_summary

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "RECORDER",
    "REGISTRY",
    "Span",
    "SpanRecorder",
    "counter",
    "drain",
    "enabled",
    "gauge",
    "histogram",
    "merge_delta",
    "merge_snapshot",
    "read_jsonl",
    "render_prometheus",
    "render_stats",
    "reset",
    "set_enabled",
    "snapshot",
    "span",
    "span_summary",
    "watching_gc",
    "write_jsonl",
]
