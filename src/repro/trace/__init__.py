"""End-to-end observability: structured tracing, counters, exporters.

The paper's claims are quantitative — which bound each schedule hits,
where serving latency goes, how faults degrade efficiency — and this
package makes those numbers visible *during* a run instead of only as
final aggregates:

* :mod:`repro.trace.span` — span-based tracing on explicit virtual
  timestamps (:class:`Tracer`), with a zero-cost :class:`NullTracer`
  default.  The serving engine stamps spans from its virtual clock; the
  compiler stamps them from a monotonic step counter.  Wall clock is
  never read (``tests/test_no_wall_clock.py`` enforces it).
* :mod:`repro.trace.metrics` — labeled counters, gauges, and fixed-
  bucket histograms in a :class:`MetricsRegistry`.
* :mod:`repro.trace.export` — a ``chrome://tracing`` JSON exporter and
  a Prometheus text exporter, both byte-deterministic for golden
  diffing.

Instrumented layers: the compiler search (:mod:`repro.compiler.search`,
:mod:`repro.compiler.cache`, :mod:`repro.compiler.hwsearch`), the
serving loop (:mod:`repro.cluster.engine`, which also traces board
health transitions), and fault generation (:mod:`repro.faults.schedule`).
All of it is observation-only: running with tracing on reproduces the
exact schedules, latencies, and metrics of a run with tracing off.
"""

from repro.trace.export import chrome_trace, chrome_trace_json, prometheus_text
from repro.trace.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
    as_metrics,
)
from repro.trace.span import (
    Instant,
    NULL_TRACER,
    NullTracer,
    Span,
    SpanEvent,
    Tracer,
    as_tracer,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NullMetricsRegistry",
    "NullTracer",
    "Span",
    "SpanEvent",
    "Tracer",
    "as_metrics",
    "as_tracer",
    "chrome_trace",
    "chrome_trace_json",
    "prometheus_text",
]
