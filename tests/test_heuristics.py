"""Tests for the SMC selection heuristics."""

import random

import pytest

from repro.anonymize import MaxEntropyTDS
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.linkage.blocking import block_positions
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


def expected_vector(rule, left, right, position):
    """The scalar per-attribute expected-distance vector of a class pair."""
    left_class = left.classes[position[0]]
    right_class = right.classes[position[1]]
    left_positions = [left.qids.index(name) for name in rule.names]
    right_positions = [right.qids.index(name) for name in rule.names]
    return expected_distance_vector(
        rule.attributes,
        [left_class.sequence[p] for p in left_positions],
        [right_class.sequence[p] for p in right_positions],
    )


@pytest.fixture(scope="module")
def setup(adult_pair, adult_hierarchy_catalog, adult_rule):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left = anonymizer.anonymize(adult_pair.left, QIDS, 32)
    right = anonymizer.anonymize(adult_pair.right, QIDS, 32)
    verdicts = block_positions(adult_rule, left, right)
    assert len(verdicts.unknown), "test setup needs unknown class pairs"
    return left, right, verdicts


class TestScores:
    def test_min_first(self):
        assert MinFirst().score((0.2, 0.8)) == 0.2

    def test_max_last(self):
        assert MaxLast().score((0.2, 0.8)) == 0.8

    def test_min_avg_first(self):
        assert MinAvgFirst().score((0.2, 0.8)) == pytest.approx(0.5)


class TestOrdering:
    @pytest.mark.parametrize("name", ["minFirst", "maxLast", "minAvgFirst"])
    def test_order_is_a_permutation(self, name, setup):
        _, __, verdicts = setup
        order = heuristic_by_name(name).order(verdicts.unknown, verdicts.tables)
        assert sorted(order.tolist()) == list(range(len(verdicts.unknown)))

    @pytest.mark.parametrize("name", ["minFirst", "maxLast", "minAvgFirst"])
    def test_scores_non_decreasing(self, name, setup, adult_rule):
        left, right, verdicts = setup
        heuristic = heuristic_by_name(name)
        order = heuristic.order(verdicts.unknown, verdicts.tables)
        scores = [
            heuristic.score(expected_vector(adult_rule, left, right, position))
            for position in verdicts.unknown[order].tolist()
        ]
        assert scores == sorted(scores)

    def test_ordering_is_deterministic(self, setup):
        _, __, verdicts = setup
        first = MinAvgFirst().order(verdicts.unknown, verdicts.tables)
        second = MinAvgFirst().order(verdicts.unknown, verdicts.tables)
        assert first.tolist() == second.tolist()

    def test_random_selection_seeded(self, setup):
        _, __, verdicts = setup
        unknown = verdicts.unknown
        first = RandomSelection(seed=5).order(unknown, verdicts.tables)
        second = RandomSelection(seed=5).order(unknown, verdicts.tables)
        assert first.tolist() == second.tolist()
        other = RandomSelection(seed=6).order(unknown, verdicts.tables)
        assert other.tolist() != first.tolist()
        # The same draws as shuffling the row-major class pairs themselves.
        pairs = [tuple(position) for position in unknown.tolist()]
        random.Random(5).shuffle(pairs)
        assert [tuple(position) for position in unknown[first].tolist()] == pairs

    def test_heuristics_differ(self, setup):
        """On real data the three orderings should not coincide."""
        _, __, verdicts = setup
        orders = {
            name: tuple(
                heuristic.order(verdicts.unknown, verdicts.tables).tolist()
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
