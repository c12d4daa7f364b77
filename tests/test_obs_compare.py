"""Comparator / history / perf-gate tests for ``repro.obs.compare``."""

from __future__ import annotations

import json

import pytest

from repro.obs import Telemetry
from repro.obs.compare import (
    Metric,
    append_history,
    compare_metrics,
    extract_metrics,
    history_record,
    load_document,
    machine_info,
    main as compare_main,
    parse_tolerance,
    regressions,
)


def _e2e_line(link_s=0.25, setup_s=0.4, peak_rss_mb=80.0, correct=True):
    """The last stdout line of ``e2ebench/run.py --trace 0``."""
    return {
        "correct": correct,
        "attempted": 12,
        "failed": 0 if correct else 1,
        "metrics": {
            "link_s": {"value": link_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def _sample_report():
    telemetry = Telemetry()
    with telemetry.span("blocking"):
        with telemetry.span("blocking.kernel.numpy"):
            pass
    telemetry.counter("smc.record_pairs").add(40)
    telemetry.counter("blocking.class_pairs").add(900)
    return telemetry.run_report({"tool": "test"})


class TestTolerance:
    def test_percent_and_fraction_forms(self):
        assert parse_tolerance("25%") == pytest.approx(0.25)
        assert parse_tolerance("0.1") == pytest.approx(0.1)
        assert parse_tolerance(" 5% ") == pytest.approx(0.05)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            parse_tolerance("-1%")


class TestExtraction:
    def test_run_report_spans_and_counters(self):
        metrics = extract_metrics(_sample_report())
        assert "span.blocking.seconds" in metrics
        assert "span.blocking.kernel.numpy.seconds" in metrics
        assert not metrics["span.blocking.seconds"].higher_is_better
        # Cost counters gate; structural tallies are informational.
        assert metrics["counter.smc.record_pairs"].gated
        assert not metrics["counter.blocking.class_pairs"].gated

    def test_e2e_result_line(self):
        metrics = extract_metrics(_e2e_line())
        assert set(metrics) == {"link_s", "setup_s", "peak_rss_mb"}
        assert metrics["link_s"].value == 0.25
        assert metrics["peak_rss_mb"].value == 80.0
        assert not any(metric.higher_is_better for metric in metrics.values())
        assert all(metric.gated for metric in metrics.values())

    def test_incorrect_e2e_run_rejected(self):
        with pytest.raises(ValueError, match="not correct"):
            extract_metrics(_e2e_line(correct=False))

    def test_history_record_unwraps(self):
        record = history_record(_e2e_line(), sha="abc", timestamp="t")
        assert set(extract_metrics(record)) == set(extract_metrics(_e2e_line()))

    def test_paired_record_reads_its_change_side_medians(self):
        def run(link_s, setup_s, peak_rss_mb):
            return {"link_s": link_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}

        payload = {
            "benchmark": "e2e-paired",
            "workload": "lib-full",
            "outputs_both_sides": {"correct": True, "failed": 0},
            "pairs": [
                {"seed": seed, "parent": run(9.0, 9.0, 900.0), "change": change}
                for seed, change in enumerate(
                    [run(0.3, 2.0, 80.0), run(0.1, 1.0, 82.0), run(0.2, 3.0, 81.0)]
                )
            ],
        }
        record = history_record(payload, sha="abc", timestamp="t")
        metrics = extract_metrics(record)
        assert {name: metric.value for name, metric in metrics.items()} == {
            "link_s": 0.2,
            "setup_s": 2.0,
            "peak_rss_mb": 81.0,
        }
        assert all(metric.gated for metric in metrics.values())
        payload["outputs_both_sides"]["correct"] = False
        with pytest.raises(ValueError, match="not correct"):
            extract_metrics(record)

    def test_unknown_document_rejected(self):
        with pytest.raises(ValueError):
            extract_metrics({"something": "else"})
        with pytest.raises(ValueError):
            extract_metrics([1, 2])


class TestHistory:
    def test_record_carries_provenance(self):
        record = history_record({"x": 1}, timestamp="2026-08-05T00:00:00+00:00")
        assert record["payload"] == {"x": 1}
        assert record["ts"] == "2026-08-05T00:00:00+00:00"
        assert set(record["machine"]) == set(machine_info())

    def test_append_and_load_entries(self, tmp_path):
        path = str(tmp_path / "BENCH_history.jsonl")
        append_history(path, history_record({"run": 1}, sha="a", timestamp="t1"))
        append_history(path, history_record({"run": 2}, sha="b", timestamp="t2"))
        assert load_document(path)["payload"] == {"run": 2}
        assert load_document(path, entry=0)["payload"] == {"run": 1}

    def test_empty_history_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_document(str(path))


class TestCompare:
    def test_within_tolerance_passes(self):
        baseline = {"a.seconds": Metric(1.0)}
        current = {"a.seconds": Metric(1.2)}
        deltas = compare_metrics(baseline, current, 0.25)
        assert not regressions(deltas)

    def test_lower_is_better_regression(self):
        deltas = compare_metrics(
            {"a.seconds": Metric(1.0)}, {"a.seconds": Metric(1.5)}, 0.25
        )
        assert [delta.name for delta in regressions(deltas)] == ["a.seconds"]
        assert deltas[0].change == pytest.approx(0.5)

    def test_higher_is_better_regression(self):
        deltas = compare_metrics(
            {"speedup": Metric(10.0, higher_is_better=True)},
            {"speedup": Metric(6.0, higher_is_better=True)},
            0.25,
        )
        assert regressions(deltas)
        # A higher speedup is an improvement, not a regression.
        deltas = compare_metrics(
            {"speedup": Metric(10.0, higher_is_better=True)},
            {"speedup": Metric(20.0, higher_is_better=True)},
            0.25,
        )
        assert not regressions(deltas)
        assert deltas[0].improved

    def test_ungated_metrics_never_fail(self):
        deltas = compare_metrics(
            {"pairs": Metric(100.0, gated=False)},
            {"pairs": Metric(1000.0, gated=False)},
            0.25,
        )
        assert not regressions(deltas)

    def test_zero_baseline(self):
        deltas = compare_metrics({"c": Metric(0.0)}, {"c": Metric(5.0)}, 0.25)
        assert regressions(deltas)
        deltas = compare_metrics({"c": Metric(0.0)}, {"c": Metric(0.0)}, 0.25)
        assert not regressions(deltas)

    def test_disjoint_metrics_ignored(self):
        deltas = compare_metrics({"a": Metric(1.0)}, {"b": Metric(9.0)}, 0.25)
        assert deltas == []


class TestGateCli:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identical_documents_pass(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _e2e_line())
        assert compare_main([base, base]) == 0
        assert "ok" in capsys.readouterr().out

    def test_seconds_regression_fails(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _e2e_line())
        slow = self._write(tmp_path, "slow.json", _e2e_line(link_s=0.75))
        assert compare_main([base, slow, "--tolerance", "25%"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed" in captured.err

    def test_metric_filter_scopes_the_gate(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _e2e_line())
        # Link time tripled, set-up and memory unchanged: only a gate that
        # reads link_s fails.
        slow = self._write(tmp_path, "slow.json", _e2e_line(link_s=0.75))
        assert compare_main([base, slow, "--metric", "*setup_s"]) == 0
        assert compare_main([base, slow, "--metric", "*link_s"]) == 1
        capsys.readouterr()

    def test_incorrect_run_is_a_usage_error(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _e2e_line())
        wrong = self._write(tmp_path, "wrong.json", _e2e_line(correct=False))
        assert compare_main([base, wrong, "--metric", "*link_s"]) == 2
        assert "not correct" in capsys.readouterr().err

    def test_history_jsonl_inputs(self, tmp_path, capsys):
        history = str(tmp_path / "BENCH_history.jsonl")
        append_history(history, history_record(_e2e_line(), sha="a"))
        append_history(
            history, history_record(_e2e_line(link_s=0.75), sha="b")
        )
        assert compare_main([history, history, "--entry", "-1"]) == 0
        base_only = str(tmp_path / "first.jsonl")
        append_history(base_only, history_record(_e2e_line(), sha="a"))
        assert compare_main([base_only, history, "--metric", "*link_s"]) == 1
        capsys.readouterr()

    def test_run_report_inputs(self, tmp_path, capsys):
        report = self._write(tmp_path, "report.json", _sample_report())
        assert compare_main([report, report]) == 0
        capsys.readouterr()

    def test_unreadable_input_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert compare_main([missing, missing]) == 2
        assert "repro.obs.compare" in capsys.readouterr().err
