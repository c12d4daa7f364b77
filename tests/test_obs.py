"""The observability subsystem: spans, metrics, run reports.

Covers the contracts the pipeline relies on — span nesting and
exception-safe exit, monotonic counters with the ``set`` escape hatch,
registry snapshots, report building/validation/rendering, and the no-op
default being inert (records nothing, still times).
"""

import json

import pytest

from repro.obs import (
    NOOP_TELEMETRY,
    RUN_REPORT_KIND,
    RUN_REPORT_VERSION,
    NoopTelemetry,
    NullSpan,
    Telemetry,
    build_report,
    render_report,
    validate_report,
    validation_errors,
)
from repro.obs.report import main as report_main


class TestSpans:
    def test_nesting_builds_a_tree(self):
        telemetry = Telemetry()
        with telemetry.span("outer") as outer:
            with telemetry.span("middle") as middle:
                with telemetry.span("inner"):
                    pass
            with telemetry.span("sibling"):
                pass
        assert [span.name for span in telemetry.roots] == ["outer"]
        assert [span.name for span in outer.children] == ["middle", "sibling"]
        assert [span.name for span in middle.children] == ["inner"]

    def test_current_span_tracks_the_stack(self):
        telemetry = Telemetry()
        assert telemetry.current_span() is None
        with telemetry.span("outer") as outer:
            assert telemetry.current_span() is outer
            with telemetry.span("inner") as inner:
                assert telemetry.current_span() is inner
            assert telemetry.current_span() is outer
        assert telemetry.current_span() is None

    def test_attributes_and_annotate(self):
        telemetry = Telemetry()
        with telemetry.span("work", engine="numpy") as span:
            span.annotate(chunks=3)
        assert span.attributes == {"engine": "numpy", "chunks": 3}

    def test_exception_closes_and_records_span(self):
        telemetry = Telemetry()
        with pytest.raises(ValueError):
            with telemetry.span("doomed"):
                raise ValueError("boom")
        assert telemetry.current_span() is None
        (doomed,) = telemetry.roots
        assert doomed.attributes["error"] == "ValueError"
        assert doomed.duration >= 0.0
        # The telemetry remains usable: the next span is a new root.
        with telemetry.span("after"):
            pass
        assert [span.name for span in telemetry.roots] == ["doomed", "after"]

    def test_duration_is_positive_and_frozen_after_exit(self):
        telemetry = Telemetry()
        with telemetry.span("timed") as span:
            pass
        first = span.duration
        assert first >= 0.0
        assert span.duration == first

    def test_trace_is_json_ready(self):
        telemetry = Telemetry()
        with telemetry.span("outer", engine="python"):
            with telemetry.span("inner"):
                pass
        (root,) = telemetry.trace()
        assert root["name"] == "outer"
        assert root["attributes"] == {"engine": "python"}
        assert root["start"] >= 0.0
        (child,) = root["children"]
        assert child["name"] == "inner"
        assert child["children"] == []
        json.dumps(telemetry.trace())  # serializable as-is


class TestMetrics:
    def test_counter_accumulates(self):
        telemetry = Telemetry()
        telemetry.counter("pairs").add()
        telemetry.counter("pairs").add(4)
        assert telemetry.metrics.snapshot()["counters"] == {"pairs": 5}

    def test_counter_set_syncs_external_totals(self):
        telemetry = Telemetry()
        telemetry.counter("pairs").add(7)
        telemetry.counter("pairs").set(3)
        assert telemetry.metrics.snapshot()["counters"] == {"pairs": 3}

    def test_gauge_last_value_wins(self):
        telemetry = Telemetry()
        telemetry.gauge("engine").set("python")
        telemetry.gauge("engine").set("numpy")
        assert telemetry.metrics.snapshot()["gauges"] == {"engine": "numpy"}

    def test_unset_gauges_are_omitted(self):
        telemetry = Telemetry()
        telemetry.gauge("engine")
        assert telemetry.metrics.snapshot()["gauges"] == {}

    def test_histogram_summary(self):
        telemetry = Telemetry()
        for value in (2.0, 4.0, 6.0):
            telemetry.histogram("rows").observe(value)
        stats = telemetry.metrics.snapshot()["histograms"]["rows"]
        assert stats == {
            "count": 3, "total": 12.0, "mean": 4.0, "min": 2.0, "max": 6.0,
            "p50": 4.0, "p95": 6.0, "p99": 6.0,
        }

    def test_histogram_percentiles_exact_below_reservoir(self):
        histogram = Telemetry().histogram("exact")
        for value in range(1, 101):
            histogram.observe(float(value))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(99) == 99.0

    def test_histogram_reservoir_is_deterministic_and_bounded(self):
        from repro.obs import HISTOGRAM_RESERVOIR_SIZE

        def run():
            histogram = Telemetry().histogram("stream")
            for value in range(5 * HISTOGRAM_RESERVOIR_SIZE):
                histogram.observe(float(value))
            return histogram

        first, second = run(), run()
        assert len(first._reservoir) == HISTOGRAM_RESERVOIR_SIZE
        assert first._reservoir == second._reservoir
        # The sampled median of a uniform ramp lands near the true median.
        midpoint = 5 * HISTOGRAM_RESERVOIR_SIZE / 2
        assert abs(first.percentile(50) - midpoint) < midpoint / 2

    def test_empty_histogram_percentiles_are_null(self):
        stats = Telemetry().histogram("empty").snapshot()
        assert stats["p50"] is None
        assert stats["p95"] is None
        assert stats["p99"] is None

    def test_instruments_are_shared_by_name(self):
        telemetry = Telemetry()
        assert telemetry.counter("x") is telemetry.counter("x")
        assert telemetry.gauge("y") is telemetry.gauge("y")
        assert telemetry.histogram("z") is telemetry.histogram("z")


class TestNoopTelemetry:
    def test_records_nothing(self):
        telemetry = NoopTelemetry()
        with telemetry.span("ignored", engine="numpy"):
            telemetry.counter("pairs").add(100)
            telemetry.gauge("engine").set("numpy")
            telemetry.histogram("rows").observe(5.0)
        assert telemetry.roots == []
        assert telemetry.trace() == []
        assert telemetry.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_null_span_still_times(self):
        with NOOP_TELEMETRY.span("timed") as span:
            assert isinstance(span, NullSpan)
        assert span.duration >= 0.0

    def test_null_span_is_exception_safe(self):
        with pytest.raises(RuntimeError):
            with NOOP_TELEMETRY.span("doomed") as span:
                raise RuntimeError("boom")
        assert span.duration >= 0.0

    def test_disabled_flag(self):
        assert Telemetry().enabled
        assert not NOOP_TELEMETRY.enabled


class TestRunReport:
    def _sample(self):
        telemetry = Telemetry()
        with telemetry.span("run", engine="numpy"):
            with telemetry.span("phase"):
                telemetry.counter("pairs").add(9)
        telemetry.gauge("engine").set("numpy")
        telemetry.histogram("rows").observe(3.0)
        return telemetry

    def test_build_and_validate_round_trip(self):
        telemetry = self._sample()
        document = build_report(telemetry, {"tool": "test"})
        assert document["report"] == RUN_REPORT_KIND
        assert document["version"] == RUN_REPORT_VERSION
        assert document["context"] == {"tool": "test"}
        assert validate_report(document) is document
        # Survives a JSON round trip unchanged.
        assert validate_report(json.loads(json.dumps(document)))

    def test_run_report_method_matches_builder(self):
        telemetry = self._sample()
        assert telemetry.run_report({"a": 1}) == build_report(telemetry, {"a": 1})

    def test_minor_version_stamped_and_optional(self):
        from repro.obs import RUN_REPORT_MINOR_VERSION

        document = build_report(self._sample(), {})
        assert document["minor_version"] == RUN_REPORT_MINOR_VERSION
        # A v1.0 document (no minor_version, no percentile keys) still
        # validates — the minor bump is backwards compatible.
        del document["minor_version"]
        for stats in document["metrics"]["histograms"].values():
            for key in ("p50", "p95", "p99"):
                stats.pop(key, None)
        assert validate_report(document) is document

    def test_minor_version_must_be_nonnegative_int(self):
        document = build_report(self._sample(), {})
        document["minor_version"] = -1
        assert any(
            "minor_version" in error for error in validation_errors(document)
        )
        document["minor_version"] = True
        assert any(
            "minor_version" in error for error in validation_errors(document)
        )

    def test_write_report(self, tmp_path):
        telemetry = self._sample()
        path = tmp_path / "report.json"
        document = telemetry.write_report(str(path), {"tool": "test"})
        assert json.loads(path.read_text()) == document

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda d: d.update(report="wrong"), "report:"),
            (lambda d: d.update(version=99), "version:"),
            (lambda d: d.update(context=[]), "context:"),
            (lambda d: d.update(trace={}), "trace:"),
            (lambda d: d["trace"][0].update(name=""), "name"),
            (lambda d: d["trace"][0].update(duration_seconds=-1), "duration"),
            (lambda d: d["trace"][0].update(attributes={"x": [1]}), "scalar"),
            (lambda d: d["trace"][0].update(children="no"), "children"),
            (lambda d: d["metrics"]["counters"].update(bad=-1), "counters"),
            (lambda d: d["metrics"]["gauges"].update(bad=[]), "gauges"),
            (
                lambda d: d["metrics"]["histograms"]["rows"].update(count=-1),
                "count",
            ),
            (
                lambda d: d["metrics"]["histograms"]["rows"].update(p50="mid"),
                "p50",
            ),
        ],
    )
    def test_validator_rejects(self, mutate, fragment):
        document = build_report(self._sample(), {})
        mutate(document)
        errors = validation_errors(document)
        assert errors and any(fragment in error for error in errors)
        with pytest.raises(ValueError):
            validate_report(document)

    @staticmethod
    def _nested_report(child_start, child_duration):
        """A hand-built report: ``run`` over 1.0–3.0 s with one child."""

        def span(name, start, duration, children=()):
            return {
                "name": name,
                "start": start,
                "duration_seconds": duration,
                "attributes": {},
                "children": list(children),
            }

        return {
            "report": RUN_REPORT_KIND,
            "version": RUN_REPORT_VERSION,
            "context": {},
            "trace": [
                span(
                    "run",
                    1.0,
                    2.0,
                    [span("ok", 1.0, 2.0), span("phase", child_start, child_duration)],
                )
            ],
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }

    @pytest.mark.parametrize(
        "start, duration, fragment",
        [
            (0.5, 1.0, "before its parent"),
            (2.5, 1.0, "after its parent"),
            (0.0, 4.0, "before its parent"),
        ],
    )
    def test_validator_rejects_span_outside_its_parent(
        self, start, duration, fragment
    ):
        document = self._nested_report(start, duration)
        errors = validation_errors(document)
        assert any(
            error.startswith("trace[0].children[1]") and fragment in error
            for error in errors
        ), errors
        with pytest.raises(ValueError):
            validate_report(document)

    def test_validator_accepts_children_within_tolerance(self):
        from repro.obs.report import NESTING_TOLERANCE_SECONDS

        slack = NESTING_TOLERANCE_SECONDS / 2
        assert validation_errors(self._nested_report(1.0 - slack, 2.0)) == []
        assert validation_errors(self._nested_report(1.5, 1.5 + slack)) == []

    def test_open_spans_still_nest(self):
        telemetry = Telemetry()
        with telemetry.span("run"):
            with telemetry.span("phase"):
                document = telemetry.run_report()
        assert validate_report(document) is document

    def test_render_mentions_spans_and_metrics(self):
        text = render_report(build_report(self._sample(), {"tool": "test"}))
        for fragment in ("run", "phase", "pairs", "engine", "rows", "tool=test"):
            assert fragment in text

    def test_cli_validates_and_prints(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        self._sample().write_report(str(path))
        assert report_main([str(path)]) == 0
        assert "run report v1" in capsys.readouterr().out
        assert report_main([str(path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_cli_rejects_bad_files(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert report_main([str(missing)]) == 1
        invalid = tmp_path / "invalid.json"
        invalid.write_text('{"report": "nope"}')
        assert report_main([str(invalid)]) == 1
        assert "invalid run report" in capsys.readouterr().err
