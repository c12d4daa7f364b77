"""Tests for the ground-truth oracle against brute force."""

import random

import numpy as np
import pytest

from repro.data.hierarchies import adult_hierarchies
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.ground_truth import GroundTruth


@pytest.fixture(scope="module")
def catalog():
    return adult_hierarchies()


def brute_force_matches(rule, left, right):
    bound = rule.bind(left.schema)
    return {
        (i, j)
        for i, left_record in enumerate(left)
        for j, right_record in enumerate(right)
        if bound.matches(left_record, right_record)
    }


class TestAgainstBruteForce:
    def test_default_rule(self, adult_rule, adult_pair):
        left = adult_pair.left.take(range(120))
        right = adult_pair.right.take(range(120))
        truth = GroundTruth(adult_rule, left, right)
        expected = brute_force_matches(adult_rule, left, right)
        assert set(truth.iter_matches()) == expected
        assert truth.total_matches() == len(expected)

    def test_loose_categorical_thresholds(self, catalog, adult_pair):
        """theta >= 1 on categorical attributes must not constrain."""
        rule = MatchRule(
            [
                MatchAttribute("age", catalog["age"], 0.05),
                MatchAttribute("workclass", catalog["workclass"], 1.0),
            ]
        )
        left = adult_pair.left.take(range(80))
        right = adult_pair.right.take(range(80))
        truth = GroundTruth(rule, left, right)
        expected = brute_force_matches(rule, left, right)
        assert truth.total_matches() == len(expected)

    def test_categorical_only_rule(self, catalog, adult_pair):
        rule = MatchRule(
            [
                MatchAttribute("education", catalog["education"], 0.05),
                MatchAttribute("sex", catalog["sex"], 0.05),
            ]
        )
        left = adult_pair.left.take(range(60))
        right = adult_pair.right.take(range(60))
        truth = GroundTruth(rule, left, right)
        expected = brute_force_matches(rule, left, right)
        assert truth.total_matches() == len(expected)

    def test_two_continuous_attributes(self, catalog, adult_pair):
        from repro.data.vgh import IntervalHierarchy

        hours = IntervalHierarchy.equi_width("hours_per_week", 1, 99, 8, 3)
        rule = MatchRule(
            [
                MatchAttribute("age", catalog["age"], 0.05),
                MatchAttribute("hours_per_week", hours, 0.05),
                MatchAttribute("education", catalog["education"], 0.05),
            ]
        )
        left = adult_pair.left.take(range(100))
        right = adult_pair.right.take(range(100))
        truth = GroundTruth(rule, left, right)
        expected = brute_force_matches(rule, left, right)
        assert set(truth.iter_matches()) == expected


    def test_continuous_rule_without_categorical_key(self, catalog, adult_pair):
        from repro.data.vgh import IntervalHierarchy

        hours = IntervalHierarchy.equi_width("hours_per_week", 1, 99, 8, 3)
        rule = MatchRule(
            [
                MatchAttribute("age", catalog["age"], 0.02),
                MatchAttribute("hours_per_week", hours, 0.03),
            ]
        )
        left = adult_pair.left.take(range(150))
        right = adult_pair.right.take(range(150))
        truth = GroundTruth(rule, left, right)
        expected = brute_force_matches(rule, left, right)
        assert set(truth.iter_matches()) == expected
        assert truth.total_matches() == len(expected)

    @pytest.mark.parametrize("budget", [1.0, 2.0])
    def test_edit_budget_rule(self, budget):
        """A string attribute with an edit budget beside a join key."""
        from repro.data.schema import Attribute, Relation, Schema
        from repro.data.strings import PrefixHierarchy
        from repro.data.vgh import CategoricalHierarchy, IntervalHierarchy

        rng = random.Random(int(budget))
        names = ["ann", "anne", "anna", "jon", "john", "joan", "jo", ""]
        schema = Schema(
            [
                Attribute.categorical("surname"),
                Attribute.categorical("city"),
                Attribute.continuous("age"),
            ]
        )

        def relation(count):
            return Relation(
                schema,
                [
                    (rng.choice(names), rng.choice("AB"), float(rng.randint(20, 40)))
                    for _ in range(count)
                ],
            )

        cities = CategoricalHierarchy("city", {"*": ["A", "B"]})
        ages = IntervalHierarchy.from_tree("age", (0, 100))
        rule = MatchRule(
            [
                MatchAttribute("surname", PrefixHierarchy("surname", 8), budget),
                MatchAttribute("city", cities, 0),
                MatchAttribute("age", ages, 0.05),
            ]
        )
        left, right = relation(70), relation(60)
        truth = GroundTruth(rule, left, right)
        expected = brute_force_matches(rule, left, right)
        assert any(
            left[i][0] != right[j][0] for i, j in expected
        ), "the budget admits no inexact name"
        assert set(truth.iter_matches()) == expected
        assert truth.total_matches() == len(expected)


class TestSubsets:
    def test_count_matches_on_index_subsets(self, adult_rule, adult_pair):
        left = adult_pair.left.take(range(100))
        right = adult_pair.right.take(range(100))
        truth = GroundTruth(adult_rule, left, right)
        expected = brute_force_matches(adult_rule, left, right)
        left_subset = list(range(0, 100, 3))
        right_subset = list(range(0, 100, 2))
        restricted = {
            (i, j)
            for (i, j) in expected
            if i in set(left_subset) and j in set(right_subset)
        }
        assert truth.count_matches(left_subset, right_subset) == len(restricted)

    def test_planted_matches_are_found(self, adult_rule, adult_pair):
        """Every shared d3 record pair satisfies the rule (identical records)."""
        truth = GroundTruth(adult_rule, adult_pair.left, adult_pair.right)
        found = set(truth.iter_matches())
        for left_index, right_index in zip(
            adult_pair.shared_left, adult_pair.shared_right
        ):
            assert (left_index, right_index) in found

    def test_class_pair_blocks(self, adult_rule, adult_pair):
        """Counting many blocks at once sums the per-block counts."""
        left = adult_pair.left.take(range(90))
        right = adult_pair.right.take(range(90))
        truth = GroundTruth(adult_rule, left, right)
        expected = brute_force_matches(adult_rule, left, right)
        blocks = [
            (range(start, 90, 4), range(start, 90, 2)) for start in range(4)
        ] + [([], range(90)), (range(90), [])]
        assert truth.count_block_matches(blocks) == sum(
            len({(i, j) for i, j in expected if i in set(lefts) and j in set(rights)})
            for lefts, rights in blocks
        )

    @pytest.mark.parametrize("lease_rows, call_pairs", [(1, 1), (7, 500), (64, 1)])
    def test_queries_across_lease_and_call_bounds(
        self, adult_rule, adult_pair, lease_rows, call_pairs
    ):
        """Shrunk lease and batch bounds split queries into many calls."""
        from unittest import mock

        from repro.linkage import ground_truth as ground_truth_module

        left = adult_pair.left.take(range(100))
        right = adult_pair.right.take(range(100))
        expected = brute_force_matches(adult_rule, left, right)
        left_subset = list(range(0, 100, 3))
        with mock.patch.multiple(
            ground_truth_module, _LEASE_ROWS=lease_rows, _CALL_PAIRS=call_pairs
        ):
            truth = GroundTruth(adult_rule, left, right)
            assert set(truth.iter_matches()) == expected
            assert truth.match_codes().tolist() == sorted(
                i * len(right) + j for i, j in expected
            )
            assert truth.count_matches(left_subset) == sum(
                1 for i, _ in expected if i % 3 == 0
            )

    def test_match_codes(self, adult_rule, adult_pair):
        left = adult_pair.left.take(range(100))
        right = adult_pair.right.take(range(80))
        truth = GroundTruth(adult_rule, left, right)
        expected = sorted(
            i * len(right) + j for i, j in brute_force_matches(adult_rule, left, right)
        )
        codes = truth.match_codes()
        assert codes.dtype == np.int64
        assert codes.tolist() == expected


class TestWindowRounding:
    """The window agrees with the rule's ``abs(l - r) <= t`` in floating point.

    ``l ± t`` and ``l - r`` round differently, so a pair can sit inside
    the window while failing the exact test, or pass the test just outside
    the window; ground truth must follow the test either way.
    """

    @pytest.mark.parametrize(
        "domain, theta, left_value, right_value, matches",
        [
            # 53.0 - 49.9 rounds above 3.1, but 53.0 - 3.1 rounds to 49.9.
            ((0, 100), 0.031, 53.0, 49.9, False),
            # 6.0 - 1.7 rounds to 4.3, but 6.0 - 4.3 rounds above 1.7.
            ((0, 10), 0.43, 6.0, 1.7, True),
        ],
    )
    def test_boundary_pair(self, domain, theta, left_value, right_value, matches):
        from repro.data.schema import Attribute, Relation, Schema
        from repro.data.vgh import IntervalHierarchy

        schema = Schema([Attribute.continuous("x")])
        rule = MatchRule(
            [MatchAttribute("x", IntervalHierarchy.from_tree("x", domain), theta)]
        )
        left = Relation(schema, [(left_value,)])
        right = Relation(schema, [(right_value,)])
        assert rule.bind(schema).matches((left_value,), (right_value,)) is matches
        truth = GroundTruth(rule, left, right)
        assert list(truth.iter_matches()) == ([(0, 0)] if matches else [])
        assert truth.total_matches() == len(brute_force_matches(rule, left, right))


def test_total_matches_memory_is_bounded_without_a_categorical_key():
    """A continuous-only rule over a 3,000 x 3,000 cross product.

    Every pair is a join candidate, but the query goes out as leases of a
    bounded number of left rows and the join expands candidates a bounded
    slice at a time: peak traced allocation stays under 2 MB, where one
    dense float matrix of the cross product would take 72 MB.
    """
    import tracemalloc

    from repro.data.schema import Attribute, Relation, Schema
    from repro.data.vgh import IntervalHierarchy

    schema = Schema([Attribute.continuous("x")])
    rule = MatchRule(
        [MatchAttribute("x", IntervalHierarchy.from_tree("x", (0, 30_000)), 1e-5)]
    )
    size = 3_000
    left = Relation(schema, [(row * 10.0,) for row in range(size)])
    right = Relation(
        schema,
        [(row * 10.0 + (0.1 if row % 100 == 0 else 5.0),) for row in range(size)],
    )
    truth = GroundTruth(rule, left, right)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        total = truth.total_matches()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert total == size // 100
    assert peak < 2 * 2**20, f"total_matches peaked at {peak / 2**20:.1f} MB"
