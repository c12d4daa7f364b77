"""Tests for the leftover labeling strategies (Section V-B)."""

import numpy as np
import pytest

from repro.anonymize import MaxEntropyTDS
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.linkage.blocking import block_positions
from repro.linkage.strategies import (
    LearnedClassifier,
    MaximizePrecision,
    MaximizeRecall,
    SMCSample,
    strategy_by_name,
)

QIDS = ADULT_QID_ORDER[:5]
NO_SAMPLE = SMCSample(np.empty((0, 2), dtype=np.intp), np.empty(0), np.empty(0))


@pytest.fixture(scope="module")
def setup(adult_pair, adult_hierarchy_catalog, adult_rule):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left = anonymizer.anonymize(adult_pair.left, QIDS, 32)
    right = anonymizer.anonymize(adult_pair.right, QIDS, 32)
    return left, right, block_positions(adult_rule, left, right)


class TestMaximizePrecision:
    def test_claims_nothing(self, setup):
        _, __, verdicts = setup
        claimed = MaximizePrecision().claim_matches(
            verdicts.unknown, NO_SAMPLE, verdicts.tables
        )
        assert claimed.tolist() == []


class TestMaximizeRecall:
    def test_claims_everything(self, setup):
        _, __, verdicts = setup
        claimed = MaximizeRecall().claim_matches(
            verdicts.unknown, NO_SAMPLE, verdicts.tables
        )
        assert claimed.tolist() == list(range(len(verdicts.unknown)))


class TestLearnedClassifier:
    def test_requires_random_selection_flag(self):
        assert LearnedClassifier().requires_random_selection
        assert not MaximizePrecision().requires_random_selection

    def test_no_observations_claims_nothing(self, setup):
        _, __, verdicts = setup
        claimed = LearnedClassifier().claim_matches(
            verdicts.unknown, NO_SAMPLE, verdicts.tables
        )
        assert claimed.tolist() == []

    def test_all_negative_observations_claim_nothing(self, setup):
        _, __, verdicts = setup
        unknown = verdicts.unknown
        observed = unknown[:5]
        sizes = (
            verdicts.tables.left_sizes[observed[:, 0]]
            * verdicts.tables.right_sizes[observed[:, 1]]
        )
        observations = SMCSample(
            observed, np.minimum(sizes, 10), np.zeros(len(observed), dtype=int)
        )
        claimed = LearnedClassifier().claim_matches(
            unknown[5:], observations, verdicts.tables
        )
        assert claimed.tolist() == []

    def test_learns_a_threshold_from_separable_observations(
        self, setup, adult_rule
    ):
        """Low-score pairs observed matching, high-score pairs not."""
        from repro.linkage.expected import expected_distance_vector

        left, right, verdicts = setup
        left_positions = [left.qids.index(name) for name in adult_rule.names]
        right_positions = [right.qids.index(name) for name in adult_rule.names]

        def score(position):
            left_class = left.classes[position[0]]
            right_class = right.classes[position[1]]
            vector = expected_distance_vector(
                adult_rule.attributes,
                [left_class.sequence[p] for p in left_positions],
                [right_class.sequence[p] for p in right_positions],
            )
            return sum(vector) / len(adult_rule)

        scored = np.array(sorted(verdicts.unknown.tolist(), key=score))
        assert len(scored) >= 8
        low = scored[:2]
        high = scored[-2:]
        observations = SMCSample(
            np.concatenate([low, high]),
            np.full(4, 10),
            np.array([9, 9, 0, 0]),
        )
        leftovers = scored[2:-2]
        claimed = set(
            LearnedClassifier()
            .claim_matches(leftovers, observations, verdicts.tables)
            .tolist()
        )
        # Everything claimed must score at or below everything not claimed.
        claimed_scores = [
            score(pair) for row, pair in enumerate(leftovers) if row in claimed
        ]
        rejected_scores = [
            score(pair) for row, pair in enumerate(leftovers) if row not in claimed
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
