"""Tests for the blocking step beyond the golden paper example."""

import pytest

from repro.anonymize import MaxEntropyTDS, identity_generalization
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.errors import ConfigurationError
import numpy as np

from repro.linkage.blocking import block
from repro.linkage.codes import CodeTables
from repro.linkage.ground_truth import GroundTruth

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def generalized_pair(adult_pair, adult_hierarchy_catalog):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    left = anonymizer.anonymize(adult_pair.left, QIDS, 16)
    right = anonymizer.anonymize(adult_pair.right, QIDS, 16)
    return left, right


class TestBlockInvariants:
    def test_partition_of_all_pairs(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        assert (
            result.matched_pairs
            + result.nonmatch_pairs
            + result.unknown_pairs
            == result.total_pairs
        )

    def test_soundness_of_matched_class_pairs(
        self, adult_rule, generalized_pair, adult_pair
    ):
        """Every record pair inside a blocking-M class pair truly matches."""
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        bound = adult_rule.bind(adult_pair.left.schema)
        for i, j in result.matched.tolist():
            for left_index in left.classes[i].indices:
                for right_index in right.classes[j].indices:
                    assert bound.matches(
                        adult_pair.left[left_index],
                        adult_pair.right[right_index],
                    )

    def test_soundness_of_nonmatch_decisions(
        self, adult_rule, generalized_pair, adult_pair
    ):
        """No true match is ever blocked as a non-match."""
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        truth = GroundTruth(adult_rule, adult_pair.left, adult_pair.right)
        undecided_or_matched = 0
        for i, j in np.concatenate([result.matched, result.unknown]).tolist():
            undecided_or_matched += truth.count_matches(
                left.classes[i].indices, right.classes[j].indices
            )
        assert undecided_or_matched == truth.total_matches()

    def test_identity_generalization_blocks_everything(
        self, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """Paper scenario (1): with k=1 every pair is decided at no SMC cost."""
        left = identity_generalization(
            adult_pair.left, QIDS, adult_hierarchy_catalog
        )
        right = identity_generalization(
            adult_pair.right, QIDS, adult_hierarchy_catalog
        )
        result = block(adult_rule, left, right)
        assert result.unknown_pairs == 0
        assert result.blocking_efficiency == 1.0
        truth = GroundTruth(adult_rule, adult_pair.left, adult_pair.right)
        assert result.matched_pairs == truth.total_matches()

    def test_higher_k_lowers_efficiency(
        self, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """Figure 3's trend: blocking efficiency decreases with k."""
        anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
        efficiencies = []
        for k in (1, 8, 64):
            left = anonymizer.anonymize(adult_pair.left, QIDS, k)
            right = anonymizer.anonymize(adult_pair.right, QIDS, k)
            efficiencies.append(
                block(adult_rule, left, right).blocking_efficiency
            )
        assert efficiencies[0] >= efficiencies[1] >= efficiencies[2]

    def test_rule_attribute_must_be_a_qid(self, adult_rule, adult_pair, adult_hierarchy_catalog):
        left = identity_generalization(
            adult_pair.left, QIDS[:3], adult_hierarchy_catalog
        )
        right = identity_generalization(
            adult_pair.right, QIDS[:3], adult_hierarchy_catalog
        )
        with pytest.raises(ConfigurationError):
            block(adult_rule, left, right)

    def test_elapsed_time_recorded(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        assert result.elapsed_seconds > 0


class TestExpectedDistanceCache:
    """The code tables' cached expected-distance matrices."""

    def test_vector_matches_direct_computation(
        self, adult_rule, generalized_pair
    ):
        from repro.linkage.expected import expected_distance_vector

        left, right = generalized_pair
        tables = CodeTables(adult_rule, left, right)
        left_positions = [left.qids.index(name) for name in adult_rule.names]
        right_positions = [right.qids.index(name) for name in adult_rule.names]
        direct = expected_distance_vector(
            adult_rule.attributes,
            [left.classes[0].sequence[p] for p in left_positions],
            [right.classes[1].sequence[p] for p in right_positions],
        )
        [row] = tables.expected_for_pairs(np.array([0]), np.array([1]))
        assert tuple(row.tolist()) == direct

    def test_cache_is_consistent_across_calls(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        tables = CodeTables(adult_rule, left, right)
        positions = np.array([0]), np.array([0])
        first = tables.expected_for_pairs(*positions)
        assert (tables.expected_for_pairs(*positions) == first).all()
        assert tables.expected_matrix(0) is tables.expected_matrix(0)
