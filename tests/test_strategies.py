"""Tests for the leftover labeling strategies (Section V-B)."""

import pytest

from repro.anonymize import MaxEntropyTDS
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.linkage.blocking import block
from repro.linkage.strategies import (
    LearnedClassifier,
    MaximizePrecision,
    MaximizeRecall,
    SMCObservation,
    strategy_by_name,
)

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def setup(adult_pair, adult_hierarchy_catalog, adult_rule):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left = anonymizer.anonymize(adult_pair.left, QIDS, 32)
    right = anonymizer.anonymize(adult_pair.right, QIDS, 32)
    blocking = block(adult_rule, left, right)
    return left, right, blocking


class TestMaximizePrecision:
    def test_claims_nothing(self, setup, adult_rule):
        left, right, blocking = setup
        claimed = MaximizePrecision().claim_matches(
            blocking.unknown, [], adult_rule, left, right
        )
        assert claimed == []


class TestMaximizeRecall:
    def test_claims_everything(self, setup, adult_rule):
        left, right, blocking = setup
        claimed = MaximizeRecall().claim_matches(
            blocking.unknown, [], adult_rule, left, right
        )
        assert claimed == list(blocking.unknown)


class TestLearnedClassifier:
    def test_requires_random_selection_flag(self):
        assert LearnedClassifier().requires_random_selection
        assert not MaximizePrecision().requires_random_selection

    def test_no_observations_claims_nothing(self, setup, adult_rule):
        left, right, blocking = setup
        claimed = LearnedClassifier().claim_matches(
            blocking.unknown, [], adult_rule, left, right
        )
        assert claimed == []

    def test_all_negative_observations_claim_nothing(self, setup, adult_rule):
        left, right, blocking = setup
        observations = [
            SMCObservation(pair, min(pair.size, 10), 0)
            for pair in blocking.unknown[:5]
        ]
        claimed = LearnedClassifier().claim_matches(
            blocking.unknown[5:], observations, adult_rule, left, right
        )
        assert claimed == []

    def test_learns_a_threshold_from_separable_observations(
        self, setup, adult_rule
    ):
        """Low-score pairs observed matching, high-score pairs not."""
        from repro.linkage.expected import expected_distance_vector

        left, right, blocking = setup
        left_positions = [left.qids.index(name) for name in adult_rule.names]
        right_positions = [right.qids.index(name) for name in adult_rule.names]

        def score(pair):
            vector = expected_distance_vector(
                adult_rule.attributes,
                [pair.left.sequence[p] for p in left_positions],
                [pair.right.sequence[p] for p in right_positions],
            )
            return sum(vector) / len(adult_rule)

        scored = sorted(blocking.unknown, key=score)
        assert len(scored) >= 8
        low = scored[:2]
        high = scored[-2:]
        observations = [
            SMCObservation(pair, 10, 9) for pair in low
        ] + [
            SMCObservation(pair, 10, 0) for pair in high
        ]
        leftovers = scored[2:-2]
        claimed = LearnedClassifier().claim_matches(
            leftovers, observations, adult_rule, left, right
        )
        # Everything claimed must score at or below everything not claimed.
        claimed_ids = {id(pair) for pair in claimed}
        claimed_scores = [
            score(pair) for pair in leftovers if id(pair) in claimed_ids
        ]
        rejected_scores = [
            score(pair) for pair in leftovers if id(pair) not in claimed_ids
        ]
        if claimed_scores and rejected_scores:
            assert max(claimed_scores) <= min(rejected_scores) + 1e-12

    def test_best_threshold_logic(self):
        # (score, positives, negatives)
        examples = [(0.1, 9, 1), (0.5, 1, 9)]
        threshold = LearnedClassifier._best_threshold(examples)
        assert threshold == pytest.approx(0.1)

    def test_best_threshold_prefers_claiming_nothing(self):
        examples = [(0.1, 1, 9), (0.5, 0, 10)]
        assert LearnedClassifier._best_threshold(examples) is None


class TestLookup:
    def test_by_name(self):
        assert strategy_by_name("maximize-precision").name == "maximize-precision"
        assert strategy_by_name("maximize-recall").name == "maximize-recall"
        assert strategy_by_name("learned-classifier").name == "learned-classifier"

    def test_unknown(self):
        with pytest.raises(KeyError):
            strategy_by_name("bogus")
