"""Tests for the Adult data source (generator and loader)."""

import collections
import hashlib
import random

import pytest

from repro.data import hierarchies as h
from repro.data.adult import adult_schema, generate_adult, load_adult
from repro.errors import SchemaError


class TestSchema:
    def test_qids_first_in_paper_order(self):
        schema = adult_schema()
        assert schema.names[:8] == h.ADULT_QID_ORDER

    def test_payload_columns(self):
        schema = adult_schema()
        assert "hours_per_week" in schema
        assert "income" in schema


class TestGenerator:
    @pytest.fixture(scope="class")
    def relation(self):
        return generate_adult(4000, seed=99)

    def test_count(self, relation):
        assert len(relation) == 4000

    def test_deterministic_in_seed(self):
        assert generate_adult(50, seed=1) == generate_adult(50, seed=1)
        assert generate_adult(50, seed=1) != generate_adult(50, seed=2)

    def test_values_are_hierarchy_leaves(self, relation):
        catalog = h.adult_hierarchies()
        for name in h.ADULT_QID_ORDER[1:]:
            hierarchy = catalog[name]
            for value in relation.distinct_values(name):
                assert hierarchy.is_leaf(value), (name, value)

    def test_ages_in_domain(self, relation):
        ages = relation.column("age")
        assert min(ages) >= h.AGE_MIN
        assert max(ages) < h.AGE_MAX

    def test_marginals_roughly_match_adult(self, relation):
        """The generator preserves the real data's dominant categories."""
        workclass = collections.Counter(relation.column("workclass"))
        assert workclass.most_common(1)[0][0] == "Private"
        assert workclass["Private"] / len(relation) > 0.6
        education = collections.Counter(relation.column("education"))
        assert education.most_common(1)[0][0] == "HS-grad"
        country = collections.Counter(relation.column("native_country"))
        assert country["United-States"] / len(relation) > 0.85
        sex = collections.Counter(relation.column("sex"))
        assert sex["Male"] > sex["Female"]

    def test_education_occupation_dependency(self, relation):
        """University-educated records skew white-collar."""
        white_collar = {
            "Exec-managerial", "Prof-specialty", "Adm-clerical", "Sales",
            "Tech-support",
        }
        university = {"Bachelors", "Masters", "Prof-school", "Doctorate"}
        by_tier = {True: [0, 0], False: [0, 0]}
        for record in relation:
            tier = record[2] in university
            by_tier[tier][record[4] in white_collar] += 1
        rate_university = by_tier[True][1] / sum(by_tier[True])
        rate_secondary = by_tier[False][1] / sum(by_tier[False])
        assert rate_university > rate_secondary

    def test_age_marital_dependency(self, relation):
        """Young adults are mostly never-married."""
        young = [record for record in relation if record[0] < 23]
        if young:
            never = sum(
                1 for record in young if record[3] == "Never-married"
            )
            assert never / len(young) > 0.5


def _records_digest(relation) -> str:
    return hashlib.sha256(repr(relation.records).encode()).hexdigest()


class TestGeneratorPins:
    """Seeded records and RNG consumption, pinned byte for byte.

    Every benchmark workload, figure and pinned match digest starts from
    these records, so any change to how the generator draws (a different
    sampling expression, one extra ``random()`` call) shows here first.
    ``577090037`` is the seed ``e2ebench``'s ``make_pair(n, 1)`` derives
    (``random.Random(1).getrandbits(32)``); smaller workloads take a prefix
    of the same stream.
    """

    @pytest.mark.parametrize(
        "count, seed, expected",
        [
            (
                30_162,
                None,
                "ae007ec641cd261a7608fae928f77677f96714f5fde411878fe3c2366fc78c31",
            ),
            (
                600,
                2008,
                "c6e118c4423f42e1bb8ecf5e62edfb9ca47cba53a8a897dddc58b09864d74687",
            ),
            (
                30_162,
                577090037,
                "d4571adbf06fd31b9b69c76ec1f757c3aa79f74291d0c1b0b0f7da07b3dec4e8",
            ),
        ],
    )
    def test_records_pinned(self, count, seed, expected):
        assert _records_digest(generate_adult(count, seed)) == expected

    def test_derived_workload_seed(self):
        assert random.Random(1).getrandbits(32) == 577090037

    @pytest.mark.parametrize(
        "count, seed, expected",
        [(600, 2008, 0.49998231213212474), (4500, 7, 0.2507144419491243)],
    )
    def test_shared_random_state_pinned(self, count, seed, expected):
        rng = random.Random(seed)
        generate_adult(count, rng)
        assert rng.random() == expected


class TestLoader:
    def test_parses_adult_format(self, tmp_path):
        raw = (
            "39, State-gov, 77516, Bachelors, 13, Never-married, "
            "Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, "
            "United-States, <=50K\n"
            "50, ?, 83311, Bachelors, 13, Married-civ-spouse, "
            "Exec-managerial, Husband, White, Male, 0, 0, 13, "
            "United-States, <=50K\n"
            "\n"
        )
        path = tmp_path / "adult.data"
        path.write_text(raw)
        relation = load_adult(str(path))
        # The second row carries a missing value and must be dropped.
        assert len(relation) == 1
        record = relation.to_dicts()[0]
        assert record["age"] == 39
        assert record["workclass"] == "State-gov"
        assert record["education"] == "Bachelors"
        assert record["income"] == "<=50K"
        assert record["hours_per_week"] == 40

    def test_adult_test_trailing_dot(self, tmp_path):
        raw = (
            "25, Private, 226802, 11th, 7, Never-married, "
            "Machine-op-inspct, Own-child, Black, Male, 0, 0, 40, "
            "United-States, <=50K.\n"
        )
        path = tmp_path / "adult.test"
        path.write_text(raw)
        relation = load_adult(str(path))
        assert relation.to_dicts()[0]["income"] == "<=50K"

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "adult.data"
        path.write_text("1, 2, 3\n")
        with pytest.raises(SchemaError):
            load_adult(str(path))
