"""Observability layer: structured telemetry and numerical profiling.

The paper's whole evaluation is measurement — trivialization and memo
hit rates (Table 4), the per-step energy delta against the 10 %
believability threshold (Section 4.1), and the precision the dynamic
controller actually ran at (Section 4.2).  ``repro.obs`` puts those
signals on one timeline:

* :class:`MetricsRegistry` — counters, gauges, fixed-bucket histograms;
* :class:`JsonlWriter` / :func:`read_events` — process-safe JSONL event
  streaming (append-atomic, torn-line tolerant);
* :class:`Tracer` — the observer object the instrumented subsystems
  (``World.step`` phase boundaries, ``PrecisionController.observe``,
  the recovery ladder's :class:`~repro.robustness.IncidentLog`, and
  the serve layer's front ends) stream through;
* :mod:`~repro.obs.schema` — the versioned event schema + validator;
* :func:`summarize_file` / :func:`render_summary` — the offline
  ``repro trace --summarize`` report.

Tracing is strictly opt-in: every hook is an ``observer`` attribute that
defaults to ``None``, and ``repro bench`` asserts the enabled overhead
stays under 10 % of step throughput.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .schema import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    validate_event,
    validate_events,
)
from .summarize import render as render_summary
from .summarize import summarize, summarize_file
from .trace import JsonlWriter, NullSink, read_events
from .tracer import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "validate_event",
    "validate_events",
    "summarize",
    "summarize_file",
    "render_summary",
    "JsonlWriter",
    "NullSink",
    "read_events",
    "Tracer",
]
