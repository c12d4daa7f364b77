"""Comparator / history / perf-gate tests for ``repro.obs.compare``."""

from __future__ import annotations

import json
import sys

import pytest

from repro.linkage.blocking import block
from repro.obs import Telemetry
from repro.obs.compare import (
    SYNTHETIC_SLOWDOWN_ENV,
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
    synthetic_slowdown,
)


def _bench_payload(python_s=1.0, numpy_s=0.1, speedup=10.0):
    return {
        "benchmark": "blocking-engines",
        "python_version": "3.x",
        "scales": [
            {
                "left_classes": 150,
                "right_classes": 150,
                "class_pairs": 22500,
                "python": {"seconds": python_s},
                "numpy": {"seconds": numpy_s},
                "speedup": speedup,
            }
        ],
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

    def test_bench_payload_per_scale(self):
        metrics = extract_metrics(_bench_payload())
        assert metrics["blocking.150x150.python.seconds"].value == 1.0
        assert metrics["blocking.150x150.numpy.seconds"].value == 0.1
        speedup = metrics["blocking.150x150.speedup"]
        assert speedup.value == 10.0
        assert speedup.higher_is_better

    def test_history_record_unwraps(self):
        record = history_record(_bench_payload(), sha="abc", timestamp="t")
        assert set(extract_metrics(record)) == set(
            extract_metrics(_bench_payload())
        )

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
        base = self._write(tmp_path, "base.json", _bench_payload())
        assert compare_main([base, base]) == 0
        assert "ok" in capsys.readouterr().out

    def test_seconds_regression_fails(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _bench_payload())
        slow = self._write(
            tmp_path, "slow.json", _bench_payload(python_s=2.0, numpy_s=0.2)
        )
        assert compare_main([base, slow, "--tolerance", "25%"]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed" in captured.err

    def test_metric_filter_scopes_the_gate(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _bench_payload())
        # Seconds doubled but speedup preserved: the speedup-only gate
        # (what CI uses against a committed cross-machine baseline) passes.
        slow = self._write(
            tmp_path, "slow.json", _bench_payload(python_s=2.0, numpy_s=0.2)
        )
        assert compare_main(
            [base, slow, "--metric", "blocking.*.speedup"]
        ) == 0
        assert compare_main(
            [base, slow, "--metric", "blocking.*.seconds"]
        ) == 1
        capsys.readouterr()

    def test_speedup_drop_fails_even_with_filter(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", _bench_payload())
        worse = self._write(
            tmp_path, "worse.json", _bench_payload(numpy_s=0.5, speedup=2.0)
        )
        assert compare_main(
            [base, worse, "--metric", "blocking.*.speedup"]
        ) == 1
        capsys.readouterr()

    def test_history_jsonl_inputs(self, tmp_path, capsys):
        history = str(tmp_path / "BENCH_history.jsonl")
        append_history(history, history_record(_bench_payload(), sha="a"))
        append_history(
            history,
            history_record(_bench_payload(python_s=2.0, numpy_s=0.2), sha="b"),
        )
        assert compare_main([history, history, "--entry", "-1"]) == 0
        base_only = str(tmp_path / "first.jsonl")
        append_history(base_only, history_record(_bench_payload(), sha="a"))
        assert compare_main(
            [base_only, history, "--metric", "blocking.*.seconds"]
        ) == 1
        capsys.readouterr()

    def test_run_report_inputs(self, tmp_path, capsys):
        report = self._write(tmp_path, "report.json", _sample_report())
        assert compare_main([report, report]) == 0
        capsys.readouterr()

    def test_unreadable_input_is_a_usage_error(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert compare_main([missing, missing]) == 2
        assert "repro.obs.compare" in capsys.readouterr().err


class TestSyntheticSlowdown:
    def test_parse_forms(self, monkeypatch):
        monkeypatch.delenv(SYNTHETIC_SLOWDOWN_ENV, raising=False)
        assert synthetic_slowdown("blocking") == 1.0
        monkeypatch.setenv(SYNTHETIC_SLOWDOWN_ENV, "blocking=2.0")
        assert synthetic_slowdown("blocking") == 2.0
        assert synthetic_slowdown("smc") == 1.0
        monkeypatch.setenv(SYNTHETIC_SLOWDOWN_ENV, "smc=1.5,blocking=3")
        assert synthetic_slowdown("blocking") == 3.0
        assert synthetic_slowdown("smc") == 1.5

    def test_malformed_and_sub_unity_values_ignored(self, monkeypatch):
        monkeypatch.setenv(SYNTHETIC_SLOWDOWN_ENV, "blocking=fast")
        assert synthetic_slowdown("blocking") == 1.0
        monkeypatch.setenv(SYNTHETIC_SLOWDOWN_ENV, "blocking=0.25")
        assert synthetic_slowdown("blocking") == 1.0

    def test_blocking_sleeps_proportionally(
        self, monkeypatch, toy_rule, toy_generalized
    ):
        left, right = toy_generalized
        slept: list[float] = []
        monkeypatch.setattr("time.sleep", slept.append)
        monkeypatch.setenv(SYNTHETIC_SLOWDOWN_ENV, "blocking=3.0")
        result = block(toy_rule, left, right, engine="python")
        assert len(slept) == 1
        assert slept[0] > 0.0
        # Decisions are untouched — only the span gets longer.
        assert result.total_pairs == 36

    def test_no_sleep_without_the_env(
        self, monkeypatch, toy_rule, toy_generalized
    ):
        left, right = toy_generalized
        slept: list[float] = []
        monkeypatch.setattr("time.sleep", slept.append)
        monkeypatch.delenv(SYNTHETIC_SLOWDOWN_ENV, raising=False)
        block(toy_rule, left, right, engine="python")
        assert slept == []

    def test_unset_hook_skips_the_compare_import(
        self, monkeypatch, toy_rule, toy_generalized
    ):
        """Without the env the blocking span never pays for the import."""
        from repro.linkage import blocking

        assert blocking._SYNTHETIC_SLOWDOWN_ENV == SYNTHETIC_SLOWDOWN_ENV
        left, right = toy_generalized
        monkeypatch.delenv(SYNTHETIC_SLOWDOWN_ENV, raising=False)
        monkeypatch.setitem(sys.modules, "repro.obs.compare", None)
        block(toy_rule, left, right, engine="python")
        monkeypatch.setenv(SYNTHETIC_SLOWDOWN_ENV, "blocking=2.0")
        with pytest.raises(ImportError):
            block(toy_rule, left, right, engine="python")
