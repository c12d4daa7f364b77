"""Export-layer tests: Chrome traces, event logs, progress plumbing.

The contract under test: any run report — including one from a run that
died mid-SMC — renders to a structurally valid Chrome trace (every span
exactly once, parents before children, monotonic timestamps, one
pid/tid) and to a schema-clean JSONL event log; and the progress events
the pipeline emits agree with the kernel's own counters.
"""

from __future__ import annotations

import json

import pytest

from repro.crypto.smc.oracle import CountingPlaintextOracle
from repro.linkage.blocking import block
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.obs import (
    CollectingProgress,
    ProgressEvent,
    ProgressRenderer,
    Telemetry,
    event_log_errors,
    to_chrome_trace,
    to_event_log,
    validate_report,
)
from repro.obs.export import iter_spans, main as export_main


def _span_names(trace):
    return [span["name"] for span, _, _ in iter_spans(trace)]


@pytest.fixture()
def linkage_report(toy_rule, toy_generalized):
    """A run report from a real toy linkage with a recording telemetry."""
    left, right = toy_generalized
    telemetry = Telemetry()
    config = LinkageConfig(toy_rule, allowance=0.2, telemetry=telemetry)
    result = HybridLinkage(config).run(left, right)
    return telemetry.run_report({"tool": "test"}), result


class TestChromeTrace:
    def test_every_span_appears_exactly_once(self, linkage_report):
        document, _ = linkage_report
        trace = to_chrome_trace(document)
        x_names = sorted(
            event["name"]
            for event in trace["traceEvents"]
            if event["ph"] == "X"
        )
        assert x_names == sorted(_span_names(document["trace"]))

    def test_timestamps_monotonic_and_parent_before_child(self, linkage_report):
        document, _ = linkage_report
        events = [
            event
            for event in to_chrome_trace(document)["traceEvents"]
            if event["ph"] == "X"
        ]
        last_ts = -1.0
        seen: set[str] = set()
        for event in events:
            assert event["ts"] >= last_ts
            last_ts = event["ts"]
            parent = event["args"].get("parent")
            if parent is not None:
                assert parent in seen, f"{event['name']} before parent {parent}"
            seen.add(event["name"])

    def test_single_pid_tid_and_metadata(self, linkage_report):
        document, _ = linkage_report
        trace = to_chrome_trace(document, pid=7, tid=9)
        assert all(
            event["pid"] == 7 and event["tid"] == 9
            for event in trace["traceEvents"]
        )
        metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert {e["name"] for e in metadata} == {"process_name", "thread_name"}
        process = next(e for e in metadata if e["name"] == "process_name")
        assert process["args"]["name"] == "test"

    def test_counters_become_counter_events_at_trace_end(self, linkage_report):
        document, _ = linkage_report
        trace = to_chrome_trace(document)
        counter_events = {
            event["name"]: event
            for event in trace["traceEvents"]
            if event["ph"] == "C"
        }
        counters = document["metrics"]["counters"]
        assert set(counters) <= set(counter_events)
        end_ts = max(
            event["ts"] + event["dur"]
            for event in trace["traceEvents"]
            if event["ph"] == "X"
        )
        for name, value in counters.items():
            assert counter_events[name]["args"]["value"] == value
            assert counter_events[name]["ts"] == pytest.approx(end_ts)

    def test_durations_are_nonnegative_microseconds(self, linkage_report):
        document, _ = linkage_report
        for event in to_chrome_trace(document)["traceEvents"]:
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert event["ts"] >= 0


class TestEventLog:
    def test_log_passes_its_own_validator(self, linkage_report):
        document, _ = linkage_report
        assert event_log_errors(to_event_log(document)) == []

    def test_span_start_end_pairing(self, linkage_report):
        document, _ = linkage_report
        events = to_event_log(document)
        names = _span_names(document["trace"])
        starts = [e["phase"] for e in events if e["event"] == "span.start"]
        ends = [e["phase"] for e in events if e["event"] == "span.end"]
        assert sorted(starts) == sorted(names)
        assert sorted(ends) == sorted(names)
        # A span's start precedes its end.
        for name in names:
            first_start = next(
                i for i, e in enumerate(events)
                if e["event"] == "span.start" and e["phase"] == name
            )
            first_end = next(
                i for i, e in enumerate(events)
                if e["event"] == "span.end" and e["phase"] == name
            )
            assert first_start < first_end

    def test_metric_records_cover_all_instruments(self, linkage_report):
        document, _ = linkage_report
        metric_phases = {
            e["phase"] for e in to_event_log(document) if e["event"] == "metric"
        }
        metrics = document["metrics"]
        expected = (
            set(metrics["counters"])
            | set(metrics["gauges"])
            | set(metrics["histograms"])
        )
        assert metric_phases == expected

    def test_validator_flags_bad_records(self):
        good = {"ts": 0.0, "event": "metric", "phase": "x", "attrs": {}}
        assert event_log_errors([good]) == []
        assert event_log_errors("nope")
        assert event_log_errors([{"ts": 0.0}])
        assert event_log_errors(
            [good, {"ts": -1.0, "event": "metric", "phase": "x", "attrs": {}}]
        )
        assert event_log_errors(
            [{"ts": 0.0, "event": "bogus", "phase": "x", "attrs": {}}]
        )
        assert event_log_errors(
            [{"ts": 0.0, "event": "metric", "phase": "", "attrs": {}}]
        )
        assert event_log_errors(
            [{"ts": 0.0, "event": "metric", "phase": "x", "attrs": {"v": [1]}}]
        )
        out_of_order = [
            {"ts": 2.0, "event": "metric", "phase": "x", "attrs": {}},
            {"ts": 1.0, "event": "metric", "phase": "x", "attrs": {}},
        ]
        assert any("monotonic" in error for error in event_log_errors(out_of_order))


class TestProgressPlumbing:
    def test_numpy_blocking_progress_matches_chunk_counter(
        self, toy_rule, toy_generalized
    ):
        left, right = toy_generalized
        telemetry = Telemetry()
        sink = CollectingProgress()
        telemetry.progress = sink
        block(toy_rule, left, right, chunk_cells=3, telemetry=telemetry)
        chunks = telemetry.metrics.snapshot()["counters"]["blocking.kernel_chunks"]
        events = sink.for_phase("blocking")
        assert len(events) == chunks
        assert events[-1].finished
        assert [event.completed for event in events] == list(
            range(1, chunks + 1)
        )
        assert all(event.total == chunks for event in events)

    def test_smc_progress_one_event_per_observation(
        self, toy_rule, toy_generalized
    ):
        left, right = toy_generalized
        telemetry = Telemetry()
        sink = CollectingProgress()
        telemetry.progress = sink
        config = LinkageConfig(toy_rule, allowance=0.2, telemetry=telemetry)
        result = HybridLinkage(config).run(left, right)
        events = sink.for_phase("smc")
        assert len(events) == len(result.sample.pairs)
        consumed = result.allowance_pairs - result.sample.compared.sum()
        if events:
            assert events[-1].completed == result.allowance_pairs - consumed
            assert events[-1].total == result.allowance_pairs
        assert sink.for_phase("select")

    def test_null_progress_keeps_noop_cost(self, toy_rule, toy_generalized):
        left, right = toy_generalized
        telemetry = Telemetry()
        # No sink attached: emit_progress must not build events.
        result = block(toy_rule, left, right, telemetry=telemetry)
        assert result.total_pairs == 36


class _BoomOracle(CountingPlaintextOracle):
    """Raises partway through the SMC step (after the first lease)."""

    def compare_block(self, left, right, leases):
        super().compare_block(left, right, leases[:1])
        raise RuntimeError("oracle died")


class TestExceptionSafety:
    def test_raising_oracle_still_yields_valid_partial_trace(
        self, toy_rule, toy_generalized
    ):
        left, right = toy_generalized
        telemetry = Telemetry()
        config = LinkageConfig(
            toy_rule,
            allowance=0.5,
            oracle_factory=_BoomOracle,
            telemetry=telemetry,
        )
        with pytest.raises(RuntimeError, match="oracle died"):
            HybridLinkage(config).run(left, right)
        document = telemetry.run_report({"tool": "crashed"})
        assert validate_report(document) is document
        events = to_event_log(document)
        assert event_log_errors(events) == []
        errors = [
            e for e in events
            if e["event"] == "span.end" and "error" in e["attrs"]
        ]
        assert errors, "failed spans should carry the error attribute"
        chrome = to_chrome_trace(document)
        x_names = [
            event["name"]
            for event in chrome["traceEvents"]
            if event["ph"] == "X"
        ]
        assert sorted(x_names) == sorted(_span_names(document["trace"]))


class _FakeStream:
    def __init__(self, tty):
        self._tty = tty
        self.chunks: list[str] = []

    def isatty(self):
        return self._tty

    def write(self, text):
        self.chunks.append(text)

    def flush(self):
        pass


class TestProgressRenderer:
    def test_tty_renders_carriage_return_bar(self):
        stream = _FakeStream(tty=True)
        clock = iter(float(i) for i in range(100))
        renderer = ProgressRenderer(
            stream, min_interval=0.0, clock=lambda: next(clock)
        )
        renderer.emit(ProgressEvent("blocking", 1, 4, unit="chunks"))
        renderer.emit(ProgressEvent("blocking", 4, 4, unit="chunks"))
        text = "".join(stream.chunks)
        assert "\r" in text
        assert "#" in text and "blocking:" in text
        assert text.endswith("\n")  # finished event closes the line

    def test_non_tty_prints_throttled_log_lines(self):
        stream = _FakeStream(tty=False)
        times = iter([0.0, 1.0, 60.0])
        renderer = ProgressRenderer(
            stream, min_interval=50.0, clock=lambda: next(times)
        )
        renderer.emit(ProgressEvent("smc", 10, 100, unit="pairs"))
        renderer.emit(ProgressEvent("smc", 20, 100, unit="pairs"))  # throttled
        renderer.emit(ProgressEvent("smc", 90, 100, unit="pairs"))
        lines = "".join(stream.chunks).splitlines()
        assert len(lines) == 2
        assert all(line.startswith("progress: smc:") for line in lines)
        assert "\r" not in "".join(stream.chunks)

    def test_finished_event_bypasses_throttle(self):
        stream = _FakeStream(tty=False)
        times = iter([0.0, 0.001])
        renderer = ProgressRenderer(
            stream, min_interval=999.0, clock=lambda: next(times)
        )
        renderer.emit(ProgressEvent("select", 1, 10))
        renderer.emit(ProgressEvent("select", 10, 10))
        assert len("".join(stream.chunks).splitlines()) == 2

    def test_eta_appears_once_rate_is_known(self):
        stream = _FakeStream(tty=False)
        times = iter([0.0, 10.0])
        renderer = ProgressRenderer(
            stream, min_interval=0.0, clock=lambda: next(times)
        )
        renderer.emit(ProgressEvent("smc", 0, 100, unit="pairs"))
        renderer.emit(ProgressEvent("smc", 50, 100, unit="pairs"))
        assert "ETA" in "".join(stream.chunks)


class TestExportCli:
    def test_chrome_and_events_outputs(self, tmp_path, linkage_report, capsys):
        document, _ = linkage_report
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(document))
        trace_path = tmp_path / "trace.json"
        assert export_main(
            [str(report_path), "--format", "chrome", "--out", str(trace_path)]
        ) == 0
        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        events_path = tmp_path / "events.jsonl"
        assert export_main(
            [str(report_path), "--format", "events", "--out", str(events_path)]
        ) == 0
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
            if line
        ]
        assert event_log_errors(events) == []
        capsys.readouterr()

    def test_stdout_default(self, tmp_path, linkage_report, capsys):
        document, _ = linkage_report
        report_path = tmp_path / "report.json"
        report_path.write_text(json.dumps(document))
        assert export_main([str(report_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "traceEvents" in payload

    def test_rejects_missing_and_invalid_reports(self, tmp_path, capsys):
        assert export_main([str(tmp_path / "absent.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"report": "nope"}')
        assert export_main([str(bad)]) == 1
        assert "invalid run report" in capsys.readouterr().err
