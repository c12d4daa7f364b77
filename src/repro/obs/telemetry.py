"""Spans, metric instruments, and the :class:`Telemetry` façade.

Everything here is plain stdlib. The design splits into two halves:

- the *recording* half (:class:`Telemetry`): spans build a trace tree via
  a context-manager stack, instruments accumulate in a
  :class:`MetricsRegistry`;
- the *no-op* half (:class:`NoopTelemetry`, exported as
  :data:`NOOP_TELEMETRY`): spans still measure wall time — instrumented
  code derives its ``elapsed_seconds`` from the span either way — but
  nothing is retained and every instrument is a shared do-nothing
  singleton, so the default-configured pipeline pays two
  ``perf_counter`` calls per phase and nothing per event.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from typing import Any

from repro.obs.progress import NULL_PROGRESS, ProgressEvent, ProgressSink

#: Attribute values a span or gauge may carry (JSON scalars).
Scalar = bool | int | float | str


class NullSpan:
    """A timer without a trace: measures duration, records nothing."""

    __slots__ = ("_started", "_ended")

    def __enter__(self) -> "NullSpan":
        self._ended = None
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._ended = time.perf_counter()
        return False

    def annotate(self, **attributes: Scalar) -> None:
        """Discard attributes (trace-recording spans keep them)."""

    @property
    def duration(self) -> float:
        """Seconds between entry and exit (or until now while open)."""
        ended = self._ended if self._ended is not None else time.perf_counter()
        return ended - self._started


class Span:
    """One node of the trace tree: a named, attributed timed region.

    Entering pushes the span onto its telemetry's stack (becoming a child
    of the currently open span, or a root); exiting pops it and stamps
    the end time. Exit is exception-safe — a raising body still closes
    and records the span, annotated with the exception type under the
    ``"error"`` attribute.
    """

    __slots__ = ("name", "attributes", "children", "_telemetry", "_started", "_ended")

    def __init__(self, telemetry: "Telemetry", name: str, attributes: dict):
        self.name = name
        self.attributes: dict[str, Scalar] = dict(attributes)
        self.children: list[Span] = []
        self._telemetry = telemetry
        self._started: float | None = None
        self._ended: float | None = None

    def __enter__(self) -> "Span":
        self._telemetry._push(self)
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._ended = time.perf_counter()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self._telemetry._pop(self)
        return False

    def annotate(self, **attributes: Scalar) -> None:
        """Attach (or overwrite) attributes on the open span."""
        self.attributes.update(attributes)

    @property
    def duration(self) -> float:
        """Seconds between entry and exit (or until now while open)."""
        ended = self._ended if self._ended is not None else time.perf_counter()
        return ended - (self._started or ended)

    def to_dict(self, origin: float = 0.0) -> dict:
        """JSON-ready rendering; ``start`` is relative to *origin*.

        Children are rendered first, so a span still open is measured
        after its open children and still ends no earlier than they do.
        """
        children = [child.to_dict(origin) for child in self.children]
        return {
            "name": self.name,
            "start": (self._started or origin) - origin,
            "duration_seconds": self.duration,
            "attributes": dict(self.attributes),
            "children": children,
        }


class Counter:
    """A monotonically-growing tally (``add``), with one escape hatch:
    ``set`` syncs the registry view from an externally-kept total (the
    SMC oracles keep plain ints on their hot path and publish here)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def set(self, value: int) -> None:
        self.value = value


class Gauge:
    """A last-value-wins instrument; the value may be any JSON scalar."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: Scalar | None = None

    def set(self, value: Scalar) -> None:
        self.value = value


#: Values retained per histogram for percentile estimation. Up to this
#: many observations the percentiles are exact; beyond it they come from
#: a uniform reservoir sample (algorithm R), which bounds memory.
HISTOGRAM_RESERVOIR_SIZE = 512

#: The percentiles every snapshot reports.
HISTOGRAM_PERCENTILES = (50, 95, 99)


class Histogram:
    """Streaming summary of observed values: count/total/min/max/pXX.

    Percentiles are computed over a bounded reservoir
    (:data:`HISTOGRAM_RESERVOIR_SIZE` values, uniform over the stream).
    The replacement RNG is seeded from the instrument name, so a given
    observation sequence always yields the same reservoir — runs are
    reproducible without threading the project RNG through every
    ``observe`` call.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_reservoir", "_rng")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._reservoir: list[float] = []
        self._rng = random.Random(zlib.crc32(name.encode()))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if len(self._reservoir) < HISTOGRAM_RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < HISTOGRAM_RESERVOIR_SIZE:
                self._reservoir[slot] = value

    def percentile(self, q: float) -> float | None:
        """The nearest-rank *q*-th percentile of the (sampled) stream."""
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        rank = max(math.ceil(q / 100.0 * len(ordered)), 1) - 1
        return ordered[min(rank, len(ordered) - 1)]

    def snapshot(self) -> dict:
        mean = self.total / self.count if self.count else 0.0
        summary = {
            "count": self.count,
            "total": self.total,
            "mean": mean,
            "min": self.min,
            "max": self.max,
        }
        for q in HISTOGRAM_PERCENTILES:
            summary[f"p{q}"] = self.percentile(q)
        return summary


class MetricsRegistry:
    """Named instruments, created on first use, one namespace per kind."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def snapshot(self) -> dict:
        """Final metric values, JSON-ready, keys sorted."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value
                for name, gauge in sorted(self._gauges.items())
                if gauge.value is not None
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }


class Telemetry:
    """The object the pipeline threads: spans + metrics + report access.

    One instance spans one logical run (a linkage, a bench invocation, a
    sweep). It is not thread-safe — each concurrent pipeline should own
    its own instance.
    """

    enabled = True

    def __init__(self):
        self.metrics = MetricsRegistry()
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self._origin = time.perf_counter()
        #: Attached progress sink (see :mod:`repro.obs.progress`). The
        #: default discards events before they are even constructed.
        self.progress: ProgressSink = NULL_PROGRESS

    # -- spans ------------------------------------------------------------
    def span(self, name: str, **attributes: Scalar) -> Span:
        """A context-manager span; nest by entering inside another span."""
        return Span(self, name, attributes)

    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def _push(self, span: Span) -> None:
        parent = self._stack[-1] if self._stack else None
        (parent.children if parent is not None else self.roots).append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order teardown
            self._stack.remove(span)

    def trace(self) -> list[dict]:
        """The recorded span tree as JSON-ready dicts."""
        return [span.to_dict(self._origin) for span in self.roots]

    # -- instruments ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str) -> Histogram:
        return self.metrics.histogram(name)

    # -- progress ---------------------------------------------------------
    def emit_progress(
        self,
        phase: str,
        completed: int,
        total: int | None = None,
        unit: str = "",
        **attrs: Scalar,
    ) -> None:
        """Report phase advancement to the attached progress sink.

        With the default :data:`~repro.obs.progress.NULL_PROGRESS` sink
        this is a single identity check — hot loops may call it per chunk
        or per class pair without measurable overhead.
        """
        if self.progress is not NULL_PROGRESS:
            self.progress.emit(
                ProgressEvent(phase, completed, total, unit, attrs)
            )

    # -- reports ----------------------------------------------------------
    def run_report(self, context: dict | None = None) -> dict:
        """The versioned run-report document (see :mod:`repro.obs.report`)."""
        from repro.obs.report import build_report

        return build_report(self, context)

    def write_report(self, path: str, context: dict | None = None) -> dict:
        """Serialize :meth:`run_report` to *path*; returns the document."""
        import json

        document = self.run_report(context)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        return document


class _NoopCounter:
    __slots__ = ()
    name = "noop"
    value = 0

    def add(self, amount: int = 1) -> None:
        pass

    def set(self, value: int) -> None:
        pass


class _NoopGauge:
    __slots__ = ()
    name = "noop"
    value = None

    def set(self, value: Any) -> None:
        pass


class _NoopHistogram:
    __slots__ = ()
    name = "noop"
    count = 0
    total = 0.0
    min = None
    max = None

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float):
        return None

    def snapshot(self) -> dict:
        summary = {"count": 0, "total": 0.0, "mean": 0.0, "min": None, "max": None}
        for q in HISTOGRAM_PERCENTILES:
            summary[f"p{q}"] = None
        return summary


_NOOP_COUNTER = _NoopCounter()
_NOOP_GAUGE = _NoopGauge()
_NOOP_HISTOGRAM = _NoopHistogram()


class _NoopMetricsRegistry(MetricsRegistry):
    def counter(self, name: str):
        return _NOOP_COUNTER

    def gauge(self, name: str):
        return _NOOP_GAUGE

    def histogram(self, name: str):
        return _NOOP_HISTOGRAM


class NoopTelemetry(Telemetry):
    """The zero-overhead default: timed spans, no trace, inert metrics."""

    enabled = False

    def __init__(self):
        super().__init__()
        self.metrics = _NoopMetricsRegistry()

    def span(self, name: str, **attributes: Scalar) -> NullSpan:  # type: ignore[override]
        return NullSpan()

    def counter(self, name: str):
        return _NOOP_COUNTER

    def gauge(self, name: str):
        return _NOOP_GAUGE

    def histogram(self, name: str):
        return _NOOP_HISTOGRAM


#: The shared default telemetry; safe to use from any number of pipelines.
NOOP_TELEMETRY = NoopTelemetry()
