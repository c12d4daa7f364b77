"""Tests for the SMC selection heuristics."""

import pytest

from repro.anonymize import MaxEntropyTDS
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.linkage.blocking import block
from repro.linkage.expected import expected_distance_vector
from repro.linkage.heuristics import (
    HEURISTICS,
    MaxLast,
    MinAvgFirst,
    MinFirst,
    RandomSelection,
    heuristic_by_name,
)

QIDS = ADULT_QID_ORDER[:5]


def expected_vector(rule, left, right, pair):
    """The scalar per-attribute expected-distance vector of *pair*."""
    left_positions = [left.qids.index(name) for name in rule.names]
    right_positions = [right.qids.index(name) for name in rule.names]
    return expected_distance_vector(
        rule.attributes,
        [pair.left.sequence[p] for p in left_positions],
        [pair.right.sequence[p] for p in right_positions],
    )


@pytest.fixture(scope="module")
def setup(adult_pair, adult_hierarchy_catalog, adult_rule):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left = anonymizer.anonymize(adult_pair.left, QIDS, 32)
    right = anonymizer.anonymize(adult_pair.right, QIDS, 32)
    blocking = block(adult_rule, left, right)
    assert blocking.unknown, "test setup needs unknown class pairs"
    return left, right, blocking


class TestScores:
    def test_min_first(self):
        assert MinFirst().score((0.2, 0.8)) == 0.2

    def test_max_last(self):
        assert MaxLast().score((0.2, 0.8)) == 0.8

    def test_min_avg_first(self):
        assert MinAvgFirst().score((0.2, 0.8)) == pytest.approx(0.5)


class TestOrdering:
    @pytest.mark.parametrize("name", ["minFirst", "maxLast", "minAvgFirst"])
    def test_order_is_a_permutation(self, name, setup, adult_rule):
        left, right, blocking = setup
        heuristic = heuristic_by_name(name)
        ordered = heuristic.order(blocking.unknown, adult_rule, left, right)
        assert len(ordered) == len(blocking.unknown)
        assert {id(pair) for pair in ordered} == {
            id(pair) for pair in blocking.unknown
        }

    @pytest.mark.parametrize("name", ["minFirst", "maxLast", "minAvgFirst"])
    def test_scores_non_decreasing(self, name, setup, adult_rule):
        left, right, blocking = setup
        heuristic = heuristic_by_name(name)
        ordered = heuristic.order(blocking.unknown, adult_rule, left, right)
        scores = [
            heuristic.score(expected_vector(adult_rule, left, right, pair))
            for pair in ordered
        ]
        assert scores == sorted(scores)

    def test_ordering_is_deterministic(self, setup, adult_rule):
        left, right, blocking = setup
        first = MinAvgFirst().order(blocking.unknown, adult_rule, left, right)
        second = MinAvgFirst().order(blocking.unknown, adult_rule, left, right)
        assert [id(p) for p in first] == [id(p) for p in second]

    def test_random_selection_seeded(self, setup, adult_rule):
        left, right, blocking = setup
        first = RandomSelection(seed=5).order(
            blocking.unknown, adult_rule, left, right
        )
        second = RandomSelection(seed=5).order(
            blocking.unknown, adult_rule, left, right
        )
        assert [id(p) for p in first] == [id(p) for p in second]
        other = RandomSelection(seed=6).order(
            blocking.unknown, adult_rule, left, right
        )
        assert [id(p) for p in other] != [id(p) for p in first]

    def test_heuristics_differ(self, setup, adult_rule):
        """On real data the three orderings should not coincide."""
        left, right, blocking = setup
        orders = {
            name: tuple(
                id(pair)
                for pair in heuristic.order(
                    blocking.unknown, adult_rule, left, right
                )
            )
            for name, heuristic in HEURISTICS.items()
        }
        assert len(set(orders.values())) > 1


class TestLookup:
    def test_by_name(self):
        assert heuristic_by_name("minFirst").name == "minFirst"
        assert heuristic_by_name("random").name == "random"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            heuristic_by_name("bogus")
