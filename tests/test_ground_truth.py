"""Tests for the grouped ground-truth oracle."""

import pytest

from repro.data.hierarchies import adult_hierarchies
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.ground_truth import GroundTruth, count_true_matches


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

    def test_convenience_wrapper(self, adult_rule, adult_pair):
        left = adult_pair.left.take(range(50))
        right = adult_pair.right.take(range(50))
        assert count_true_matches(adult_rule, left, right) == GroundTruth(
            adult_rule, left, right
        ).total_matches()


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
