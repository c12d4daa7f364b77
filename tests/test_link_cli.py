"""Tests for the ``repro-link`` CSV linkage tool."""

import argparse
import csv

import pytest

from repro.data.adult import generate_adult
from repro.data.partition import build_linkage_pair
from repro.tools.link_cli import (
    build_hierarchies,
    build_parser,
    load_csv,
    main,
    parse_attr_spec,
)


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    directory = tmp_path_factory.mktemp("linkcli")
    relation = generate_adult(450, seed=61)
    pair = build_linkage_pair(relation, seed=62)
    left_path = directory / "left.csv"
    right_path = directory / "right.csv"
    pair.left.write_csv(str(left_path))
    pair.right.write_csv(str(right_path))
    return str(left_path), str(right_path), pair


class TestAttrSpec:
    def test_parse(self):
        spec = parse_attr_spec("age=continuous:0.05")
        assert spec.name == "age"
        assert spec.kind == "continuous"
        assert spec.theta == 0.05

    @pytest.mark.parametrize(
        "bad",
        ["age", "age=continuous", "age=interval:0.1", "age=continuous:-1",
         "age=continuous:x"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_attr_spec(bad)


class TestLoading:
    def test_load_types_columns(self, csv_pair):
        left_path, _, pair = csv_pair
        specs = {"age": parse_attr_spec("age=continuous:0.05")}
        relation = load_csv(left_path, specs)
        assert relation.schema["age"].is_continuous
        assert not relation.schema["education"].is_continuous
        assert len(relation) == len(pair.left)

    def test_field_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1\n")
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            load_csv(str(path), {})

    def test_build_hierarchies_kinds(self, csv_pair):
        left_path, right_path, _ = csv_pair
        specs = [
            parse_attr_spec("age=continuous:0.05"),
            parse_attr_spec("education=categorical:0.5"),
            parse_attr_spec("native_country=string:1"),
        ]
        spec_map = {spec.name: spec for spec in specs}
        left = load_csv(left_path, spec_map)
        right = load_csv(right_path, spec_map)
        hierarchies = build_hierarchies(specs, left, right)
        from repro.data.strings import PrefixHierarchy
        from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy

        assert isinstance(hierarchies["age"], IntervalHierarchy)
        assert isinstance(hierarchies["education"], CategoricalHierarchy)
        assert isinstance(hierarchies["native_country"], PrefixHierarchy)
        # Every observed value is covered.
        for value in left.distinct_values("education"):
            assert hierarchies["education"].is_leaf(value)


class TestEndToEnd:
    def test_link_run(self, csv_pair, tmp_path, capsys):
        left_path, right_path, pair = csv_pair
        out_path = str(tmp_path / "matches.csv")
        code = main(
            [
                left_path,
                right_path,
                "--attr", "age=continuous:0.05",
                "--attr", "education=categorical:0.5",
                "--attr", "occupation=categorical:0.5",
                "--k", "8",
                "--allowance", "0.05",
                "--out", out_path,
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "blocking efficiency" in output
        with open(out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["left_index", "right_index"]
        # Every reported match really matches under the rule.
        matches = [(int(a), int(b)) for a, b in rows[1:]]
        for left_index, right_index in matches[:200]:
            left_record = pair.left[left_index]
            right_record = pair.right[right_index]
            assert abs(left_record[0] - right_record[0]) <= 0.05 * 74 + 1e-9
            assert left_record[2] == right_record[2]
            assert left_record[4] == right_record[4]

    def test_metrics_out_writes_valid_report(self, csv_pair, tmp_path, capsys):
        import json

        from repro.obs import validate_report

        left_path, right_path, _ = csv_pair
        report_path = str(tmp_path / "run_report.json")
        code = main(
            [
                left_path,
                right_path,
                "--attr", "age=continuous:0.05",
                "--attr", "education=categorical:0.5",
                "--k", "8",
                "--allowance", "0.02",
                "--metrics-out", report_path,
            ]
        )
        assert code == 0
        assert "wrote run report" in capsys.readouterr().out
        with open(report_path) as handle:
            document = validate_report(json.load(handle))
        assert document["context"]["tool"] == "repro-link"
        names = {span["name"] for span in document["trace"]}
        assert {"anonymize", "linkage.run"} <= names
        counters = document["metrics"]["counters"]
        assert counters["blocking.class_pairs"] > 0
        assert counters["smc.record_pair_comparisons"] > 0

    def test_header_mismatch_fails_cleanly(self, csv_pair, tmp_path, capsys):
        left_path, _, __ = csv_pair
        other = tmp_path / "other.csv"
        other.write_text("x,y\n1,2\n")
        code = main(
            [left_path, str(other), "--attr", "age=continuous:0.05"]
        )
        assert code == 1
        assert "repro-link:" in capsys.readouterr().err

    def test_unknown_attribute_fails_cleanly(self, csv_pair, capsys):
        left_path, right_path, _ = csv_pair
        code = main(
            [left_path, right_path, "--attr", "zipcode=categorical:0.5"]
        )
        assert code == 1
        assert "zipcode" in capsys.readouterr().err

    def test_parser_requires_attrs(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["a.csv", "b.csv"])
