"""Live progress events for long pipeline phases.

The run report (:mod:`repro.obs.report`) tells you where the time *went*;
this module tells you where it is *going* while a run is still alive. The
paper's own cost profile motivates it: at 1024-bit keys the SMC step
dominates wall time by orders of magnitude (Section VI), and a
several-minute Paillier run with no feedback is indistinguishable from a
hang.

The design mirrors the telemetry split:

- the *event* half: instrumented code calls
  :meth:`repro.obs.Telemetry.emit_progress`, which builds a
  :class:`ProgressEvent` and hands it to the telemetry's attached
  :class:`ProgressSink`. The default sink is :data:`NULL_PROGRESS`, and
  the emit path early-outs on an identity check, so un-opted-in pipelines
  pay one attribute load per potential event;
- the *rendering* half: :class:`ProgressRenderer` draws a live
  carriage-return status line when its stream is a TTY and degrades to
  periodic plain log lines otherwise (CI logs stay readable). The
  ``repro-link --progress`` / ``repro-bench --progress`` flags attach one
  to stderr.

Emitters in the pipeline: the blocking kernel (per chunk of the class-
pair cross product), heuristic selection (scored-pair counts), and the
SMC loop (pairs compared, allowance consumed — the renderer derives rate
and ETA).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

#: Attribute values an event may carry (JSON scalars).
Scalar = bool | int | float | str


@dataclass(frozen=True)
class ProgressEvent:
    """One observation of a phase's advancement.

    ``completed`` counts finished work units out of ``total`` (``None``
    when the total is unknown); ``attrs`` carries phase-specific extras
    (matches found so far, the heuristic name, …).
    """

    phase: str
    completed: int
    total: int | None = None
    unit: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def fraction(self) -> float | None:
        """Completed fraction in [0, 1], or ``None`` without a total."""
        if not self.total:
            return None
        return min(self.completed / self.total, 1.0)

    @property
    def finished(self) -> bool:
        """True once ``completed`` has reached a known ``total``."""
        return self.total is not None and self.completed >= self.total


class ProgressSink:
    """Receives :class:`ProgressEvent` objects; subclasses render them."""

    def emit(self, event: ProgressEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush any partial output (end-of-run hook; default no-op)."""


class NullProgressSink(ProgressSink):
    """The default sink: discards everything."""

    def emit(self, event: ProgressEvent) -> None:
        pass


#: Shared do-nothing sink; ``Telemetry.emit_progress`` skips event
#: construction entirely while this is the attached sink.
NULL_PROGRESS = NullProgressSink()


class CollectingProgress(ProgressSink):
    """Keeps every event in a list (tests and programmatic consumers)."""

    def __init__(self):
        self.events: list[ProgressEvent] = []

    def emit(self, event: ProgressEvent) -> None:
        self.events.append(event)

    def for_phase(self, phase: str) -> list[ProgressEvent]:
        return [event for event in self.events if event.phase == phase]


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressRenderer(ProgressSink):
    """Renders events to a stream, adapting to whether it is a TTY.

    On a TTY the current phase is drawn as a single carriage-return
    status line (bar, counts, percentage, rate-derived ETA) refreshed at
    most every *min_interval* seconds (default 0.1). On a plain stream
    the same information prints as ordinary log lines, throttled to one
    per *min_interval* seconds (default 5.0) per phase — phase
    transitions and completions always print.
    """

    BAR_WIDTH = 24

    def __init__(
        self,
        stream=None,
        *,
        min_interval: float | None = None,
        clock=time.monotonic,
    ):
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", None)
        self.tty = bool(isatty()) if callable(isatty) else False
        if min_interval is None:
            min_interval = 0.1 if self.tty else 5.0
        self.min_interval = min_interval
        self._clock = clock
        self._last_rendered: float | None = None
        self._phase: str | None = None
        self._phase_started: float | None = None
        self._phase_first_completed = 0
        self._line_open = False

    # -- sink interface ---------------------------------------------------
    def emit(self, event: ProgressEvent) -> None:
        now = self._clock()
        phase_change = event.phase != self._phase
        if phase_change:
            self._finish_line()
            self._phase = event.phase
            self._phase_started = now
            self._phase_first_completed = event.completed
            self._last_rendered = None
        due = (
            self._last_rendered is None
            or now - self._last_rendered >= self.min_interval
        )
        if not (due or event.finished):
            return
        self._last_rendered = now
        line = self._render(event, now)
        if self.tty:
            self.stream.write("\r" + line.ljust(79))
            self._line_open = True
            if event.finished:
                self._finish_line()
        else:
            self.stream.write(line + "\n")
        flush = getattr(self.stream, "flush", None)
        if callable(flush):
            flush()

    def close(self) -> None:
        self._finish_line()

    # -- rendering --------------------------------------------------------
    def _finish_line(self) -> None:
        if self._line_open:
            self.stream.write("\n")
            self._line_open = False

    def _eta(self, event: ProgressEvent, now: float) -> float | None:
        if event.total is None or self._phase_started is None:
            return None
        elapsed = now - self._phase_started
        done = event.completed - self._phase_first_completed
        if elapsed <= 0 or done <= 0:
            return None
        rate = done / elapsed
        return max(event.total - event.completed, 0) / rate

    def _render(self, event: ProgressEvent, now: float) -> str:
        parts = [f"{event.phase}:"]
        fraction = event.fraction
        if self.tty and fraction is not None:
            filled = int(round(fraction * self.BAR_WIDTH))
            parts.append("[" + "#" * filled + "-" * (self.BAR_WIDTH - filled) + "]")
        if event.total is not None:
            counts = f"{event.completed}/{event.total}"
        else:
            counts = str(event.completed)
        if event.unit:
            counts += f" {event.unit}"
        parts.append(counts)
        if fraction is not None:
            parts.append(f"({fraction:.0%})")
        eta = self._eta(event, now)
        if eta is not None and not event.finished:
            parts.append(f"ETA {_format_eta(eta)}")
        for key, value in sorted(event.attrs.items()):
            parts.append(f"{key}={value}")
        line = " ".join(parts)
        if not self.tty:
            line = "progress: " + line
        return line
