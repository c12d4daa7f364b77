"""Tests for the bench harness: config, runner, drivers and the CLI."""

import pytest

from repro.bench.config import BenchConfig, ExperimentData, source_record_count
from repro.bench.experiments import (
    EXPERIMENTS,
    ablation_anonymizers_blocking,
    ablation_selection,
    ablation_strategies,
    baselines,
    fig2_anonymizers,
    fig3_blocking_vs_k,
    fig4_recall_vs_k,
    fig6_blocking_vs_qids,
    smc_timing,
    toy_example,
)
from repro.bench.runner import ExperimentTable, as_percent, render_table
from repro.bench.cli import build_parser, main


@pytest.fixture(scope="module")
def tiny_data():
    """A small experiment context so driver tests run in seconds."""
    return ExperimentData(BenchConfig(source_records=450, seed=99))


class TestConfig:
    def test_env_scale_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert source_record_count() == 4500

    def test_env_scale_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert source_record_count() == 30162

    def test_env_scale_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1234")
        assert source_record_count() == 1234

    def test_qids(self):
        config = BenchConfig(source_records=100)
        assert config.qids() == (
            "age", "workclass", "education", "marital_status", "occupation",
        )
        assert len(config.qids(8)) == 8

    def test_caching(self, tiny_data):
        assert tiny_data.pair is tiny_data.pair
        first = tiny_data.anonymized(k=8)
        assert tiny_data.anonymized(k=8) is first
        blocking = tiny_data.blocking(k=8)
        assert tiny_data.blocking(k=8) is blocking
        truth = tiny_data.ground_truth()
        assert tiny_data.ground_truth() is truth

    def test_rule_parameters(self, tiny_data):
        rule = tiny_data.rule(theta=0.1, qid_count=3)
        assert len(rule) == 3
        assert all(attribute.threshold == 0.1 for attribute in rule)


class TestRunner:
    def test_render_table_alignment(self):
        text = render_table(("a", "bb"), [(1, 2.5), (10, 0.25)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_as_percent(self):
        assert as_percent(0.9757) == 97.57
        assert as_percent(0.5) == 50.0

    def test_table_column(self):
        table = ExperimentTable(
            "x", "title", ("k", "value"), ((1, 10), (2, 20))
        )
        assert table.column("value") == [10, 20]
        with pytest.raises(ValueError):
            table.column("missing")

    def test_table_render_contains_title(self):
        table = ExperimentTable("x", "My Title", ("a",), ((1,),))
        assert "My Title" in table.render()


class TestDrivers:
    def test_toy_is_exact(self):
        table = toy_example()
        for row in table.rows:
            assert row[1] == row[2]

    def test_fig2_shape(self, tiny_data):
        table = fig2_anonymizers(tiny_data, k_values=(2, 8, 32))
        assert table.column("k") == [2, 8, 32]
        assert all(value >= 1 for value in table.column("Entropy (ours)"))

    def test_fig3_shape(self, tiny_data):
        table = fig3_blocking_vs_k(tiny_data, k_values=(2, 32))
        efficiency = table.column("blocking efficiency %")
        assert efficiency[0] >= efficiency[1]

    def test_fig4_runs(self, tiny_data):
        table = fig4_recall_vs_k(tiny_data, k_values=(2, 16))
        for name in ("maxLast", "minFirst", "minAvgFirst"):
            for value in table.column(name):
                assert 0.0 <= value <= 100.0

    def test_fig6_runs(self, tiny_data):
        table = fig6_blocking_vs_qids(tiny_data, counts=(3, 5))
        assert len(table.rows) == 2

    def test_ablation_strategies(self, tiny_data):
        table = ablation_strategies(tiny_data)
        rows = {row[0]: row for row in table.rows}
        assert rows["maximize-precision"][1] == 100.0
        assert rows["maximize-recall"][2] == 100.0

    def test_ablation_selection(self, tiny_data):
        table = ablation_selection(tiny_data)
        assert {row[0] for row in table.rows} == {
            "maxLast", "minFirst", "minAvgFirst", "random",
        }

    def test_ablation_anonymizers(self, tiny_data):
        table = ablation_anonymizers_blocking(tiny_data)
        assert len(table.rows) == 5  # incl. the Incognito extension row

    def test_ablation_noise(self, tiny_data):
        from repro.bench.experiments import ablation_noise

        table = ablation_noise(tiny_data)
        precision = table.column("precision %")
        assert precision[0] == 100.0
        assert precision[-1] <= precision[0]

    def test_baselines(self, tiny_data):
        table = baselines(tiny_data)
        rows = {row[0]: row for row in table.rows}
        assert rows["pure SMC"][2] == 100.0
        assert rows["hybrid (ours)"][1] == 100.0

    def test_baselines_share_one_ground_truth(self, monkeypatch):
        from repro.linkage import ground_truth

        built = []
        build = ground_truth.GroundTruth.__init__
        monkeypatch.setattr(
            ground_truth.GroundTruth,
            "__init__",
            lambda self, *args: built.append(args) or build(self, *args),
        )
        baselines(ExperimentData(BenchConfig(source_records=450, seed=99)))
        assert len(built) == 1

    def test_smc_timing_small_key(self, tiny_data):
        table = smc_timing(key_bits=256, samples=2, data=tiny_data)
        values = dict((row[0], row[1]) for row in table.rows)
        assert values["secure distance / attribute (s)"] > 0
        assert values["blinded comparison, online / pair (s)"] > 0
        assert values["equality test, online / pair (s)"] > 0
        assert values["randomizer table build (s)"] > 0

    def test_experiment_registry_complete(self):
        expected = {
            "toy", "timing", "fig2", "fig3", "fig4", "fig5", "fig6",
            "fig7", "fig8", "ablation-strategies", "ablation-selection",
            "ablation-anonymizers", "ablation-noise", "baselines",
        }
        assert set(EXPERIMENTS) == expected


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "fig3" in output and "toy" in output

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_run_toy(self, capsys):
        assert main(["toy", "--records", "450"]) == 0
        output = capsys.readouterr().out
        assert "Section III worked example" in output
        assert "completed in" in output

    def test_run_fig3_small(self, capsys):
        assert main(["fig6", "--records", "450", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "Figure 6" in output

    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args([])
        assert args.experiments == []
        assert args.seed == 2008

    def test_json_output(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "results.json")
        assert main(["toy", "--records", "450", "--json", path]) == 0
        with open(path) as handle:
            payload = json.load(handle)
        assert payload["experiments"][0]["experiment"] == "toy"
        assert payload["experiments"][0]["rows"]

    def test_metrics_out_writes_valid_report(self, tmp_path, capsys):
        import json

        from repro.obs import validate_report

        path = str(tmp_path / "run_report.json")
        assert main(["fig6", "--records", "450", "--metrics-out", path]) == 0
        assert "wrote run report" in capsys.readouterr().out
        with open(path) as handle:
            document = validate_report(json.load(handle))
        assert document["context"]["tool"] == "repro-bench"
        assert document["context"]["experiments"] == ["fig6"]
        names = {span["name"] for span in document["trace"]}
        assert "experiment.fig6" in names
        assert document["metrics"]["counters"]["blocking.class_pairs"] > 0
