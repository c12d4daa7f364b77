"""Tests for the pure-SMC and pure-sanitization baselines."""

import pytest

from repro.anonymize import MaxEntropyTDS, identity_generalization
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.errors import ConfigurationError
from repro.linkage.baselines import pure_sanitization_linkage, pure_smc_linkage
from repro.linkage.ground_truth import GroundTruth
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.linkage.metrics import evaluate

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def generalized_pair(adult_pair, adult_hierarchy_catalog):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    return (
        anonymizer.anonymize(adult_pair.left, QIDS, 32),
        anonymizer.anonymize(adult_pair.right, QIDS, 32),
    )


class TestPureSMC:
    def test_perfect_accuracy_full_cost(self, adult_rule, adult_pair):
        outcome = pure_smc_linkage(adult_rule, adult_pair.left, adult_pair.right)
        assert outcome.evaluation.precision == 1.0
        assert outcome.evaluation.recall == 1.0
        assert outcome.smc_invocations == adult_pair.total_pairs

    def test_shared_ground_truth_must_match(self, adult_rule, adult_pair):
        truth = GroundTruth(adult_rule, adult_pair.left, adult_pair.right)
        shared = pure_smc_linkage(
            adult_rule, adult_pair.left, adult_pair.right, truth
        )
        assert shared == pure_smc_linkage(
            adult_rule, adult_pair.left, adult_pair.right
        )
        with pytest.raises(ConfigurationError, match="another rule"):
            pure_smc_linkage(adult_rule, adult_pair.right, adult_pair.left, truth)
        with pytest.raises(ConfigurationError, match="another rule"):
            pure_smc_linkage(
                adult_rule.with_thresholds(0.5),
                adult_pair.left,
                adult_pair.right,
                truth,
            )

    def test_hybrid_is_cheaper(self, adult_rule, adult_pair, generalized_pair):
        """The paper's headline: 'costs are usually lower than, and at
        worst, equal to the costs of existing cryptographic techniques'."""
        left, right = generalized_pair
        smc = pure_smc_linkage(adult_rule, adult_pair.left, adult_pair.right)
        hybrid = HybridLinkage(LinkageConfig(adult_rule, allowance=1.0)).run(
            left, right
        )
        assert hybrid.smc_invocations <= smc.smc_invocations

    def test_summary(self, adult_rule, adult_pair):
        outcome = pure_smc_linkage(adult_rule, adult_pair.left, adult_pair.right)
        assert "pure-SMC" in outcome.summary()


class TestPureSanitization:
    def test_zero_smc_cost(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        outcome = pure_sanitization_linkage(adult_rule, left, right)
        assert outcome.smc_invocations == 0

    def test_less_accurate_than_hybrid(
        self, adult_rule, adult_pair, generalized_pair
    ):
        """The paper: hybrid 'yields much more accurate matching results
        compared to sanitization techniques'."""
        left, right = generalized_pair
        sanitized = pure_sanitization_linkage(adult_rule, left, right)
        hybrid = HybridLinkage(LinkageConfig(adult_rule, allowance=1.0)).run(
            left, right
        )
        hybrid_eval = evaluate(hybrid, adult_rule, adult_pair.left, adult_pair.right)
        assert hybrid_eval.f1 >= sanitized.evaluation.f1

    def test_exact_on_identity_generalization(
        self, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """With k=1 the anonymized data is the original: perfect accuracy."""
        left = identity_generalization(
            adult_pair.left, QIDS, adult_hierarchy_catalog
        )
        right = identity_generalization(
            adult_pair.right, QIDS, adult_hierarchy_catalog
        )
        outcome = pure_sanitization_linkage(adult_rule, left, right)
        assert outcome.evaluation.precision == 1.0
        assert outcome.evaluation.recall == 1.0

    def test_imperfect_on_coarse_generalization(
        self, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """At large k the representative guesses must err somewhere."""
        anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
        left = anonymizer.anonymize(adult_pair.left, QIDS, 128)
        right = anonymizer.anonymize(adult_pair.right, QIDS, 128)
        outcome = pure_sanitization_linkage(adult_rule, left, right)
        assert (
            outcome.evaluation.precision < 1.0
            or outcome.evaluation.recall < 1.0
        )
