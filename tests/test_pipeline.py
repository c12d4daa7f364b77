"""Tests of the SMC step's budget: the leases and the oracle's invoice.

The allowance becomes greedy prefix budget leases over the ordered class
pairs (:func:`~repro.linkage.columns.plan_leases`), and the oracle must
bill exactly the record pairs those leases grant: a
:class:`~repro.linkage.hybrid.HybridLinkage` run whose oracle bills one
invocation more or less raises :class:`~repro.errors.PipelineError`.
"""

from __future__ import annotations

import pytest

from repro.anonymize import MaxEntropyTDS
from repro.crypto.smc.oracle import CountingPlaintextOracle
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.errors import PipelineError
from repro.linkage.columns import plan_leases
from repro.linkage.hybrid import HybridLinkage, LinkageConfig

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def generalized_pair(adult_pair, adult_hierarchy_catalog):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    return (
        anonymizer.anonymize(adult_pair.left, QIDS, 32),
        anonymizer.anonymize(adult_pair.right, QIDS, 32),
    )


class TestPlanLeases:
    def test_prefix_with_partial_tail(self):
        takes, consumed = plan_leases([4, 4, 4], 10)
        assert takes == [4, 4, 2]
        assert consumed == 10

    def test_exact_boundary_has_no_partial(self):
        takes, consumed = plan_leases([4, 4, 4], 8)
        assert takes == [4, 4]
        assert consumed == 8

    def test_zero_budget(self):
        assert plan_leases([3, 3], 0) == ([], 0)

    def test_budget_exceeds_work(self):
        takes, consumed = plan_leases([3, 3], 100)
        assert takes == [3, 3]
        assert consumed == 6


class _MisbillingOracle(CountingPlaintextOracle):
    """Bills ``error`` invocations more than it compared, once."""

    error = 0

    def compare_block(self, left, right, leases):
        matched = super().compare_block(left, right, leases)
        self.invocations += self.error
        self.error = 0
        return matched


def _oracle_billing(error):
    def factory(rule, schema):
        oracle = _MisbillingOracle(rule, schema)
        oracle.error = error
        return oracle

    return factory


class TestBudgetLedger:
    """The SMC step checks the oracle's invoice against the leases."""

    def test_reconcile_accepts_matching_books(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule, allowance=0.01, oracle_factory=_oracle_billing(0)
        )
        result = HybridLinkage(config).run(left, right)
        assert result.smc_invocations > 0
        assert result.smc_invocations == sum(
            observation.compared for observation in result.observations
        )
        assert result.smc_invocations <= result.allowance_pairs

    def test_billing_mismatch_raises(self, adult_rule, generalized_pair):
        """An oracle that under-bills by one invocation fails the run."""
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule, allowance=0.01, oracle_factory=_oracle_billing(-1)
        )
        with pytest.raises(PipelineError, match="billed"):
            HybridLinkage(config).run(left, right)

    def test_overbilling_raises(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule, allowance=0.01, oracle_factory=_oracle_billing(1)
        )
        with pytest.raises(PipelineError, match="billed"):
            HybridLinkage(config).run(left, right)
