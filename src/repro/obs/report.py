"""The structured run report: builder, schema, validator, printer.

A run report is one JSON document per pipeline run that captures the full
span tree plus the final metric values — the machine-readable companion
to the paper's Section VI cost accounting. Producers:
:meth:`repro.obs.Telemetry.run_report`, ``repro-link --metrics-out``,
``repro-bench --metrics-out`` and the micro-benchmark harness.

The document is versioned (:data:`RUN_REPORT_VERSION`); its shape is
described by :data:`RUN_REPORT_SCHEMA` (JSON-Schema flavored, for human
readers and external validators) and enforced by the dependency-free
:func:`validate_report`, which also requires every span to lie within its
parent's time (up to :data:`NESTING_TOLERANCE_SECONDS`).
``python -m repro.obs.report report.json`` validates a file and prints the
human-readable summary — CI runs exactly that against the quick-scale
smoke report and the networked run's report.
"""

from __future__ import annotations

import json
import math
import sys

RUN_REPORT_KIND = "repro.obs.run-report"
RUN_REPORT_VERSION = 1
#: Backwards-compatible schema revision within major version 1. Minor 1
#: added histogram percentiles (p50/p95/p99) and the ``minor_version``
#: field itself; the validator accepts v1.0 documents (no
#: ``minor_version``, no percentile keys) unchanged.
RUN_REPORT_MINOR_VERSION = 1

_SCALAR_TYPES = (bool, int, float, str)
_PERCENTILE_KEYS = ("p50", "p95", "p99")

#: Seconds a child span may start before its parent, or end after it,
#: and still count as nested. Starts are differences of
#: ``time.perf_counter()`` readings against one origin and durations
#: differences of two more, so a truly nested child can overshoot only by
#: the rounding of those sums: far below a nanosecond for runs of hours.
NESTING_TOLERANCE_SECONDS = 1e-9

#: JSON-Schema rendering of the report shape (documentation-grade; the
#: executable contract is :func:`validate_report`, which checks the same
#: constraints without a jsonschema dependency).
RUN_REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro.obs run report",
    "type": "object",
    "required": ["report", "version", "context", "trace", "metrics"],
    "properties": {
        "report": {"const": RUN_REPORT_KIND},
        "version": {"const": RUN_REPORT_VERSION},
        "minor_version": {"type": "integer", "minimum": 0},
        "context": {"type": "object"},
        "trace": {"type": "array", "items": {"$ref": "#/$defs/span"}},
        "metrics": {
            "type": "object",
            "required": ["counters", "gauges", "histograms"],
            "properties": {
                "counters": {
                    "type": "object",
                    "additionalProperties": {"type": "integer", "minimum": 0},
                },
                "gauges": {
                    "type": "object",
                    "additionalProperties": {
                        "type": ["boolean", "integer", "number", "string"]
                    },
                },
                "histograms": {
                    "type": "object",
                    "additionalProperties": {"$ref": "#/$defs/histogram"},
                },
            },
        },
    },
    "$defs": {
        "span": {
            "type": "object",
            "required": ["name", "start", "duration_seconds", "attributes", "children"],
            "properties": {
                "name": {"type": "string", "minLength": 1},
                "start": {"type": "number", "minimum": 0},
                "duration_seconds": {"type": "number", "minimum": 0},
                "attributes": {
                    "type": "object",
                    "additionalProperties": {
                        "type": ["boolean", "integer", "number", "string"]
                    },
                },
                "children": {
                    "type": "array",
                    "items": {"$ref": "#/$defs/span"},
                },
            },
        },
        "histogram": {
            "type": "object",
            "required": ["count", "total", "mean", "min", "max"],
            "properties": {
                "count": {"type": "integer", "minimum": 0},
                "total": {"type": "number"},
                "mean": {"type": "number"},
                "min": {"type": ["number", "null"]},
                "max": {"type": ["number", "null"]},
                # v1.1 additions; absent from v1.0 documents.
                "p50": {"type": ["number", "null"]},
                "p95": {"type": ["number", "null"]},
                "p99": {"type": ["number", "null"]},
            },
        },
    },
}


def build_report(telemetry, context: dict | None = None) -> dict:
    """Assemble the run-report document from a live :class:`Telemetry`."""
    return {
        "report": RUN_REPORT_KIND,
        "version": RUN_REPORT_VERSION,
        "minor_version": RUN_REPORT_MINOR_VERSION,
        "context": dict(context or {}),
        "trace": telemetry.trace(),
        "metrics": telemetry.metrics.snapshot(),
    }


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _check_span(span, path: str, errors: list[str], parent=None) -> None:
    """Check *span* and its children; *parent* is the enclosing span."""
    if not isinstance(span, dict):
        errors.append(f"{path}: span must be an object")
        return
    name = span.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{path}.name: must be a non-empty string")
    for key in ("start", "duration_seconds"):
        value = span.get(key)
        if not _is_number(value) or value < 0:
            errors.append(f"{path}.{key}: must be a finite number >= 0")
    attributes = span.get("attributes")
    if not isinstance(attributes, dict):
        errors.append(f"{path}.attributes: must be an object")
    else:
        for key, value in attributes.items():
            if not isinstance(value, _SCALAR_TYPES):
                errors.append(
                    f"{path}.attributes[{key!r}]: must be a JSON scalar"
                )
    if parent is not None:
        _check_nesting(span, parent, path, errors)
    children = span.get("children")
    if not isinstance(children, list):
        errors.append(f"{path}.children: must be an array")
    else:
        for index, child in enumerate(children):
            _check_span(child, f"{path}.children[{index}]", errors, span)


def _check_nesting(span: dict, parent: dict, path: str, errors: list[str]) -> None:
    """Flag *span* if it starts before or ends after its *parent*.

    Spans whose times are malformed are already reported by
    :func:`_check_span`; they are skipped here.
    """
    times = [
        item.get(key)
        for item in (span, parent)
        for key in ("start", "duration_seconds")
    ]
    if not all(_is_number(value) for value in times):
        return
    start, duration, parent_start, parent_duration = times
    if start < parent_start - NESTING_TOLERANCE_SECONDS:
        errors.append(
            f"{path}: starts {parent_start - start:.3g} s before its parent"
        )
    overrun = (start + duration) - (parent_start + parent_duration)
    if overrun > NESTING_TOLERANCE_SECONDS:
        errors.append(f"{path}: ends {overrun:.3g} s after its parent")


def _check_metrics(metrics, errors: list[str]) -> None:
    if not isinstance(metrics, dict):
        errors.append("metrics: must be an object")
        return
    counters = metrics.get("counters")
    if not isinstance(counters, dict):
        errors.append("metrics.counters: must be an object")
    else:
        for name, value in counters.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                errors.append(
                    f"metrics.counters[{name!r}]: must be an integer >= 0"
                )
    gauges = metrics.get("gauges")
    if not isinstance(gauges, dict):
        errors.append("metrics.gauges: must be an object")
    else:
        for name, value in gauges.items():
            if not isinstance(value, _SCALAR_TYPES):
                errors.append(f"metrics.gauges[{name!r}]: must be a JSON scalar")
    histograms = metrics.get("histograms")
    if not isinstance(histograms, dict):
        errors.append("metrics.histograms: must be an object")
    else:
        for name, value in histograms.items():
            if not isinstance(value, dict):
                errors.append(f"metrics.histograms[{name!r}]: must be an object")
                continue
            count = value.get("count")
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                errors.append(
                    f"metrics.histograms[{name!r}].count: must be an integer >= 0"
                )
            for key in ("total", "mean"):
                if not _is_number(value.get(key)):
                    errors.append(
                        f"metrics.histograms[{name!r}].{key}: must be a number"
                    )
            for key in ("min", "max"):
                bound = value.get(key)
                if bound is not None and not _is_number(bound):
                    errors.append(
                        f"metrics.histograms[{name!r}].{key}: "
                        "must be a number or null"
                    )
            # Percentiles are a v1.1 addition: optional, but typed when
            # present, so v1.0 documents keep validating.
            for key in _PERCENTILE_KEYS:
                if key not in value:
                    continue
                quantile = value[key]
                if quantile is not None and not _is_number(quantile):
                    errors.append(
                        f"metrics.histograms[{name!r}].{key}: "
                        "must be a number or null"
                    )


def validation_errors(document) -> list[str]:
    """Every way *document* deviates from the run-report contract."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["report: must be a JSON object"]
    if document.get("report") != RUN_REPORT_KIND:
        errors.append(f"report: must be {RUN_REPORT_KIND!r}")
    if document.get("version") != RUN_REPORT_VERSION:
        errors.append(f"version: must be {RUN_REPORT_VERSION}")
    minor = document.get("minor_version")
    if minor is not None and (
        not isinstance(minor, int) or isinstance(minor, bool) or minor < 0
    ):
        errors.append("minor_version: must be an integer >= 0 when present")
    if not isinstance(document.get("context"), dict):
        errors.append("context: must be an object")
    trace = document.get("trace")
    if not isinstance(trace, list):
        errors.append("trace: must be an array")
    else:
        for index, span in enumerate(trace):
            _check_span(span, f"trace[{index}]", errors)
    _check_metrics(document.get("metrics"), errors)
    return errors


def validate_report(document) -> dict:
    """Return *document* if it is a valid run report, else raise ValueError."""
    errors = validation_errors(document)
    if errors:
        raise ValueError(
            "invalid run report:\n" + "\n".join(f"  - {error}" for error in errors)
        )
    return document


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.2f}ms"


def _render_span(span: dict, depth: int, lines: list[str]) -> None:
    attributes = " ".join(
        f"{key}={value}" for key, value in sorted(span["attributes"].items())
    )
    label = f"{'  ' * depth}{span['name']}"
    lines.append(
        f"  {label:<44} {_format_duration(span['duration_seconds']):>10}"
        + (f"  [{attributes}]" if attributes else "")
    )
    for child in span["children"]:
        _render_span(child, depth + 1, lines)


def render_report(document: dict) -> str:
    """The human-readable summary table of a run report."""
    version = f"v{document['version']}"
    if document.get("minor_version") is not None:
        version += f".{document['minor_version']}"
    lines = [f"run report {version}"]
    context = document.get("context") or {}
    if context:
        rendered = " ".join(
            f"{key}={value}" for key, value in sorted(context.items())
        )
        lines.append(f"context: {rendered}")
    trace = document.get("trace") or []
    if trace:
        lines.append("spans:")
        for span in trace:
            _render_span(span, 0, lines)
    metrics = document.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<{width}}  {value}")
    gauges = metrics.get("gauges") or {}
    if gauges:
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name, value in sorted(gauges.items()):
            lines.append(f"  {name:<{width}}  {value}")
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("histograms:")
        for name, stats in sorted(histograms.items()):
            line = (
                f"  {name}  count={stats['count']} mean={stats['mean']:.4g} "
                f"min={stats['min']} max={stats['max']}"
            )
            percentiles = " ".join(
                f"{key}={stats[key]:.4g}"
                for key in _PERCENTILE_KEYS
                if stats.get(key) is not None
            )
            if percentiles:
                line += " " + percentiles
            lines.append(line)
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Validate a run-report file and print its summary (CI entry point)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Validate a repro.obs run report and print its summary.",
    )
    parser.add_argument("report", help="path to a run-report JSON file")
    parser.add_argument(
        "--quiet", action="store_true", help="validate only, print nothing"
    )
    args = parser.parse_args(argv)
    try:
        with open(args.report) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"repro.obs.report: {error}", file=sys.stderr)
        return 1
    try:
        validate_report(document)
    except ValueError as error:
        print(f"repro.obs.report: {args.report}: {error}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(render_report(document))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
