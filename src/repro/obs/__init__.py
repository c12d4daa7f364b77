"""``repro.obs``: dependency-free pipeline telemetry.

The paper's entire evaluation (Section VI) is a cost story — blocking
time versus SMC allowance spent versus recall — so the pipeline carries a
uniform instrumentation layer instead of ad-hoc timers:

- **Spans** — nestable context-manager timers with attributes, recorded
  into a per-run trace tree (:meth:`Telemetry.span`).
- **Metrics** — a registry of named counters, gauges and histograms
  (:class:`MetricsRegistry`): pairs labeled M/N/U at blocking, class
  pairs scored per heuristic, SMC record-pair and attribute comparisons,
  Paillier operation counts, bytes through the SMC channel and the chunk
  count of the blocking kernel.
- **Run reports** — a versioned JSON document combining the span tree
  and final metric values (:func:`build_report`), with a schema
  validator and a human-readable summary printer (:mod:`repro.obs.report`,
  also runnable as ``python -m repro.obs.report report.json``).
- **Exports** — any run report renders to a Chrome ``trace_event``
  document (chrome://tracing / Perfetto) or a flat JSONL structured
  event log (:mod:`repro.obs.export`, also runnable as
  ``python -m repro.obs.export report.json --format chrome``).
- **Progress** — live phase-advancement events from the blocking
  kernels, heuristic selection and the SMC loop, rendered as a TTY
  status bar or throttled log lines (:mod:`repro.obs.progress`; the
  ``--progress`` flag of ``repro-link`` / ``repro-bench``).
- **Comparison** — a JSONL bench-history store and a per-phase /
  per-counter regression comparator with tolerance semantics
  (:mod:`repro.obs.compare`, runnable as ``python -m repro.obs.compare
  baseline.json current.json --tolerance 25%`` — CI's perf gate).

One :class:`Telemetry` object threads through
:class:`~repro.linkage.hybrid.LinkageConfig` /
:class:`~repro.bench.config.BenchConfig` into blocking, heuristics,
strategies, the SMC oracles and the crypto channel. The default is
:data:`NOOP_TELEMETRY`, whose spans only read the clock (so
``elapsed_seconds`` fields keep working) and whose instruments discard
everything — linkage output is identical with telemetry on or off.
"""

from repro.obs.progress import (
    NULL_PROGRESS,
    CollectingProgress,
    ProgressEvent,
    ProgressRenderer,
    ProgressSink,
)
from repro.obs.telemetry import (
    HISTOGRAM_PERCENTILES,
    HISTOGRAM_RESERVOIR_SIZE,
    NOOP_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NoopTelemetry,
    NullSpan,
    Span,
    Telemetry,
)

# The report/export/compare submodules double as ``python -m`` CLIs, so
# they are re-exported lazily (PEP 562): importing the package must not
# pre-import the module runpy is about to execute as ``__main__``.
_LAZY_EXPORTS = {
    "RUN_REPORT_KIND": "repro.obs.report",
    "RUN_REPORT_MINOR_VERSION": "repro.obs.report",
    "RUN_REPORT_SCHEMA": "repro.obs.report",
    "RUN_REPORT_VERSION": "repro.obs.report",
    "build_report": "repro.obs.report",
    "render_report": "repro.obs.report",
    "validate_report": "repro.obs.report",
    "validation_errors": "repro.obs.report",
    "event_log_errors": "repro.obs.export",
    "to_chrome_trace": "repro.obs.export",
    "to_event_log": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_event_log": "repro.obs.export",
    "Delta": "repro.obs.compare",
    "Metric": "repro.obs.compare",
    "append_history": "repro.obs.compare",
    "compare_metrics": "repro.obs.compare",
    "extract_metrics": "repro.obs.compare",
    "history_record": "repro.obs.compare",
    "parse_tolerance": "repro.obs.compare",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "CollectingProgress",
    "Counter",
    "Delta",
    "Gauge",
    "HISTOGRAM_PERCENTILES",
    "HISTOGRAM_RESERVOIR_SIZE",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NOOP_TELEMETRY",
    "NULL_PROGRESS",
    "NoopTelemetry",
    "NullSpan",
    "ProgressEvent",
    "ProgressRenderer",
    "ProgressSink",
    "RUN_REPORT_KIND",
    "RUN_REPORT_MINOR_VERSION",
    "RUN_REPORT_SCHEMA",
    "RUN_REPORT_VERSION",
    "Span",
    "Telemetry",
    "append_history",
    "build_report",
    "compare_metrics",
    "event_log_errors",
    "extract_metrics",
    "history_record",
    "parse_tolerance",
    "render_report",
    "to_chrome_trace",
    "to_event_log",
    "validate_report",
    "validation_errors",
    "write_chrome_trace",
    "write_event_log",
]
