"""Unified observability layer (tracing · metrics · reporting).

Everything the repository measures flows through this package:

* :mod:`repro.obs.tracing` — nested wall-time spans (``with span("optimize.
  rectangular"): ...``) with optional peak-RSS capture, wrapped around every
  pipeline phase (lowering, classification, optimization, codegen,
  simulation);
* :mod:`repro.obs.metrics` — the process registry of named counters /
  gauges / histograms behind the service's ``/metrics``;
* :mod:`repro.obs.report` — a versioned, machine-readable JSON run report
  joining the paper's analytic prediction (:class:`~repro.core.cost.
  TrafficEstimate`) with the measured simulator counts, read from the
  simulated machine's own ints, including prediction-error ratios;
* :mod:`repro.obs.export` — a sampled per-access JSONL event trace;
* :mod:`repro.obs.flight` — the per-request flight recorder behind the
  service's ``/debug`` endpoints, with cross-process trace stitching;
* :mod:`repro.obs.log` — the ``repro`` stdlib-logging hierarchy.

The package is dependency-free (stdlib only) so it can never constrain
where the analysis or simulator code runs.
"""

from .log import configure_logging, get_logger
from .metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    get_registry,
)
from .flight import FlightRecord, FlightRecorder, format_span_tree, stitch_trace
from .report import (
    CHECK_REPORT_SCHEMA,
    CHECK_REPORT_VERSION,
    build_check_report,
    validate_check_report,
    REPORT_SCHEMA,
    REPORT_VERSION,
    ReportError,
    build_report,
    dump_report,
    load_report,
    validate_report,
)
from .export import EventTraceWriter
from .tracing import Span, Tracer, get_tracer, span

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "get_registry",
    "FlightRecord",
    "FlightRecorder",
    "format_span_tree",
    "stitch_trace",
    "Span",
    "Tracer",
    "get_tracer",
    "span",
    "REPORT_SCHEMA",
    "REPORT_VERSION",
    "ReportError",
    "build_report",
    "CHECK_REPORT_SCHEMA",
    "CHECK_REPORT_VERSION",
    "build_check_report",
    "validate_check_report",
    "dump_report",
    "load_report",
    "validate_report",
    "EventTraceWriter",
    "configure_logging",
    "get_logger",
]
