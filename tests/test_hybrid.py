"""End-to-end tests of the hybrid linkage orchestrator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.anonymize import MaxEntropyTDS, identity_generalization
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.errors import ConfigurationError
from repro.linkage.columns import RecordColumns
from repro.linkage import hybrid
from repro.linkage.ground_truth import GroundTruth
from repro.linkage.heuristics import RandomSelection, heuristic_by_name
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.linkage.metrics import evaluate
from repro.linkage.strategies import (
    LearnedClassifier,
    MaximizeRecall,
)

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def generalized_pair(adult_pair, adult_hierarchy_catalog):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    return (
        anonymizer.anonymize(adult_pair.left, QIDS, 32),
        anonymizer.anonymize(adult_pair.right, QIDS, 32),
    )


class TestConfig:
    def test_allowance_bounds(self, adult_rule):
        with pytest.raises(ConfigurationError):
            LinkageConfig(adult_rule, allowance=-0.1)
        with pytest.raises(ConfigurationError):
            LinkageConfig(adult_rule, allowance=1.5)

    def test_strategy_three_requires_random_heuristic(self, adult_rule):
        with pytest.raises(ConfigurationError):
            LinkageConfig(adult_rule, strategy=LearnedClassifier())
        LinkageConfig(
            adult_rule,
            strategy=LearnedClassifier(),
            heuristic=RandomSelection(seed=1),
        )

    def test_schema_mismatch_rejected(
        self, adult_rule, adult_pair, adult_hierarchy_catalog, toy_generalized
    ):
        left = identity_generalization(
            adult_pair.left, QIDS, adult_hierarchy_catalog
        )
        _, toy_right = toy_generalized
        with pytest.raises(ConfigurationError):
            HybridLinkage(LinkageConfig(adult_rule)).run(left, toy_right)


class TestPrecisionInvariant:
    """The paper's headline guarantee: precision is always 100%."""

    @pytest.mark.parametrize("allowance", [0.0, 0.005, 0.02, 1.0])
    @pytest.mark.parametrize("name", ["minFirst", "maxLast", "minAvgFirst"])
    def test_precision_always_one(
        self, allowance, name, adult_rule, generalized_pair, adult_pair
    ):
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule, allowance=allowance, heuristic=heuristic_by_name(name)
        )
        result = HybridLinkage(config).run(left, right)
        evaluation = evaluate(result, adult_rule, adult_pair.left, adult_pair.right)
        assert evaluation.precision == 1.0

    def test_verified_matches_are_true(
        self, adult_rule, generalized_pair, adult_pair
    ):
        left, right = generalized_pair
        config = LinkageConfig(adult_rule, allowance=0.01)
        result = HybridLinkage(config).run(left, right)
        bound = adult_rule.bind(adult_pair.left.schema)
        verified = list(result.iter_verified_matches())
        assert len(verified) == result.verified_match_pairs
        for left_index, right_index in verified:
            assert bound.matches(
                adult_pair.left[left_index], adult_pair.right[right_index]
            )


class TestScenarioExtremes:
    def test_k_equals_one_needs_no_smc(
        self, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """Paper scenario (1): k=1 -> all pairs labeled by blocking."""
        left = identity_generalization(
            adult_pair.left, QIDS, adult_hierarchy_catalog
        )
        right = identity_generalization(
            adult_pair.right, QIDS, adult_hierarchy_catalog
        )
        result = HybridLinkage(LinkageConfig(adult_rule, allowance=0.0)).run(
            left, right
        )
        assert result.smc_invocations == 0
        evaluation = evaluate(result, adult_rule, adult_pair.left, adult_pair.right)
        assert evaluation.recall == 1.0
        assert evaluation.precision == 1.0

    def test_full_allowance_reaches_full_recall(
        self, adult_rule, generalized_pair, adult_pair
    ):
        left, right = generalized_pair
        result = HybridLinkage(LinkageConfig(adult_rule, allowance=1.0)).run(
            left, right
        )
        evaluation = evaluate(result, adult_rule, adult_pair.left, adult_pair.right)
        assert evaluation.recall == 1.0
        # All unknown pairs were compared.
        assert result.smc_invocations == result.blocking.unknown_pairs

    def test_zero_allowance_recall_from_blocking_only(
        self, adult_rule, generalized_pair, adult_pair
    ):
        left, right = generalized_pair
        result = HybridLinkage(LinkageConfig(adult_rule, allowance=0.0)).run(
            left, right
        )
        assert result.smc_invocations == 0
        assert result.verified_match_pairs == result.blocked_match_pairs


class TestBudgetAccounting:
    def test_invocations_never_exceed_allowance(
        self, adult_rule, generalized_pair
    ):
        left, right = generalized_pair
        config = LinkageConfig(adult_rule, allowance=0.003)
        result = HybridLinkage(config).run(left, right)
        assert result.smc_invocations <= result.allowance_pairs
        # The budget is spent fully when there is enough unknown work.
        if result.blocking.unknown_pairs >= result.allowance_pairs:
            assert result.smc_invocations == result.allowance_pairs

    def test_pair_partition_accounting(self, adult_rule, generalized_pair):
        """decided + compared + leftover = total."""
        left, right = generalized_pair
        config = LinkageConfig(adult_rule, allowance=0.003)
        result = HybridLinkage(config).run(left, right)
        assert (
            result.blocking.decided_pairs
            + result.smc_invocations
            + result.leftover_pairs
            == result.total_pairs
        )

    def test_monotone_recall_in_allowance(
        self, adult_rule, generalized_pair, adult_pair
    ):
        """Figure 8's trend: recall grows with the SMC allowance."""
        left, right = generalized_pair
        recalls = []
        for allowance in (0.0, 0.01, 0.05, 1.0):
            config = LinkageConfig(adult_rule, allowance=allowance)
            result = HybridLinkage(config).run(left, right)
            evaluation = evaluate(
                result, adult_rule, adult_pair.left, adult_pair.right
            )
            recalls.append(evaluation.recall)
        assert recalls == sorted(recalls)
        assert recalls[-1] == 1.0


def _decision_fingerprint(result):
    """Decision-relevant LinkageResult fields, keyed by class positions."""
    sample = result.sample
    return {
        "allowance_pairs": result.allowance_pairs,
        "smc_invocations": result.smc_invocations,
        "attribute_comparisons": result.attribute_comparisons,
        "smc_matched_pairs": list(result.smc_matched_pairs),
        "sample": np.column_stack(
            (sample.pairs, sample.compared, sample.matches)
        ).tolist(),
        "leftovers": result.leftovers.tolist(),
        "claimed": result.claimed.tolist(),
        "verified": list(result.iter_verified_matches()),
        "summary": result.summary(),
    }


def _sample_rows(result):
    """``(left, right, compared, size)`` of each leased class pair."""
    sample = result.sample
    return [
        (left, right, compared, result.blocking.record_pairs(sample.pairs[[row]]))
        for row, ((left, right), compared) in enumerate(
            zip(sample.pairs.tolist(), sample.compared.tolist())
        )
    ]


class TestAllowanceBoundary:
    """Leftover bookkeeping at (and around) the exact budget boundary."""

    def _boundary_budgets(self, adult_rule, generalized_pair):
        """An allowance landing exactly on a class-pair boundary."""
        left, right = generalized_pair
        probe = HybridLinkage(
            LinkageConfig(adult_rule, allowance=0.01)
        ).run(left, right)
        rows = _sample_rows(probe)
        assert len(rows) >= 2, "test needs several SMC pairs"
        full = [size for _, _, compared, size in rows if compared == size]
        assert full, "test needs at least one fully-compared pair"
        return probe.total_pairs, sum(full)

    def test_no_duplicate_leftovers_at_exact_boundary(
        self, adult_rule, generalized_pair
    ):
        left, right = generalized_pair
        total_pairs, exact = self._boundary_budgets(adult_rule, generalized_pair)
        config = LinkageConfig(
            adult_rule, allowance=(exact + 0.5) / total_pairs
        )
        result = HybridLinkage(config).run(left, right)
        assert result.allowance_pairs == exact
        assert result.smc_invocations == exact
        # The budget ran out exactly between two class pairs: every leased
        # class pair is complete and no pair shows up twice as leftover.
        for _, _, compared, size in _sample_rows(result):
            assert compared == size
        leftovers = [tuple(pair) for pair in result.leftovers.tolist()]
        assert len(set(leftovers)) == len(leftovers)
        leased = {tuple(pair) for pair in result.sample.pairs.tolist()}
        assert leased.isdisjoint(leftovers)
        assert result.leftover_pairs == result.blocking.record_pairs(
            result.leftovers
        )

    def test_partial_pair_listed_once_in_leftovers(
        self, adult_rule, generalized_pair
    ):
        left, right = generalized_pair
        total_pairs, exact = self._boundary_budgets(adult_rule, generalized_pair)
        config = LinkageConfig(
            adult_rule, allowance=(exact - 0.5) / total_pairs
        )
        result = HybridLinkage(config).run(left, right)
        assert result.smc_invocations == exact - 1
        partial = [
            (left, right, compared, size)
            for left, right, compared, size in _sample_rows(result)
            if compared < size
        ]
        assert len(partial) == 1
        [(left, right, compared, size)] = partial
        leftovers = [tuple(pair) for pair in result.leftovers.tolist()]
        assert len(set(leftovers)) == len(leftovers)
        # The exhausted pair is both leased and (for its remainder)
        # leftover — exactly once each, first among the leftovers.
        assert leftovers.count((left, right)) == 1
        assert leftovers[0] == (left, right)
        assert result.leftover_pairs == size - compared + (
            result.blocking.record_pairs(result.leftovers[1:])
        )


def _reference_blocking(config, left, right):
    """A BlockingResult assembled from the scalar loop of tests/reference.py."""
    from reference import reference_link

    from repro.linkage.blocking import BlockingResult
    from repro.linkage.codes import CodeTables

    link = reference_link(config.rule, config.heuristic, left, right, 0.0)

    def positions(pairs):
        return np.array(pairs, dtype=np.intp).reshape(-1, 2)

    return BlockingResult(
        tables=CodeTables(config.rule, left, right),
        matched=positions(link.matched_class_pairs),
        unknown=positions(link.unknown_class_pairs),
        nonmatch_pairs=link.blocked_nonmatch_pairs,
        total_pairs=sum(c.size for c in left.classes)
        * sum(c.size for c in right.classes),
    )


class TestRunFromBlocking:
    """run_from_blocking on a precomputed BlockingResult == run().

    The blocking result comes from the numpy kernel (``block``) or from
    the plain per-class-pair Python loop the kernel is checked against.
    """

    @pytest.mark.parametrize("source", ["python", "numpy"])
    def test_matches_full_run(self, source, adult_rule, generalized_pair):
        from repro.linkage.blocking import block

        left, right = generalized_pair
        config = LinkageConfig(adult_rule, allowance=0.01)
        full = HybridLinkage(config).run(left, right)
        if source == "numpy":
            blocking = block(adult_rule, left, right)
        else:
            blocking = _reference_blocking(config, left, right)
        assert blocking.matched_pairs == full.blocking.matched_pairs
        assert blocking.unknown_pairs == full.blocking.unknown_pairs
        resumed = HybridLinkage(config).run_from_blocking(blocking, left, right)
        assert _decision_fingerprint(resumed) == _decision_fingerprint(full)
        assert resumed.total_pairs == full.total_pairs

    def test_one_blocking_serves_several_heuristics(
        self, adult_rule, generalized_pair, monkeypatch
    ):
        """A sweep reuses one block() result: same decisions as fresh
        runs, and the shared code tables build each expected-distance
        matrix once for all of its runs."""
        from repro.linkage import codes
        from repro.linkage.blocking import block

        left, right = generalized_pair
        configs = [
            LinkageConfig(adult_rule, allowance=0.01, heuristic=heuristic_by_name(name))
            for name in ("minAvgFirst", "maxLast")
        ]
        fresh = [HybridLinkage(config).run(left, right) for config in configs]
        builds = []
        build = codes.pairwise_expected_distances
        monkeypatch.setattr(
            codes,
            "pairwise_expected_distances",
            lambda *args: builds.append(args[0].name) or build(*args),
        )
        blocking = block(adult_rule, left, right)
        resumed = [
            HybridLinkage(config).run_from_blocking(blocking, left, right)
            for config in configs
        ]
        for result, reference in zip(resumed, fresh):
            assert result.blocking is blocking
            assert _decision_fingerprint(result) == _decision_fingerprint(reference)
        assert sorted(builds) == sorted(adult_rule.names)


class TestStrategies:
    def test_maximize_recall_reaches_full_recall(
        self, adult_rule, generalized_pair, adult_pair
    ):
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule, allowance=0.002, strategy=MaximizeRecall()
        )
        result = HybridLinkage(config).run(left, right)
        evaluation = evaluate(result, adult_rule, adult_pair.left, adult_pair.right)
        assert evaluation.recall == 1.0
        # ... at the price of precision (there are unverified claims).
        assert evaluation.claimed_pairs > 0
        assert evaluation.precision < 1.0

    def test_learned_classifier_runs(self, adult_rule, generalized_pair, adult_pair):
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule,
            allowance=0.005,
            strategy=LearnedClassifier(),
            heuristic=RandomSelection(seed=2),
        )
        result = HybridLinkage(config).run(left, right)
        evaluation = evaluate(result, adult_rule, adult_pair.left, adult_pair.right)
        assert 0.0 <= evaluation.precision <= 1.0
        assert 0.0 <= evaluation.recall <= 1.0


class TestResultReporting:
    def test_summary_mentions_key_figures(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        result = HybridLinkage(LinkageConfig(adult_rule)).run(left, right)
        text = result.summary()
        assert "blocking efficiency" in text
        assert "SMC invocations" in text

    def test_smc_matches_subset_of_ground_truth(
        self, adult_rule, generalized_pair, adult_pair
    ):
        left, right = generalized_pair
        result = HybridLinkage(LinkageConfig(adult_rule)).run(left, right)
        truth = set(
            GroundTruth(
                adult_rule, adult_pair.left, adult_pair.right
            ).iter_matches()
        )
        assert set(result.smc_matched_pairs) <= truth


    def test_smc_matches_are_one_index_array(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        result = HybridLinkage(LinkageConfig(adult_rule, allowance=0.02)).run(
            left, right
        )
        matches = result.smc_matches
        assert matches.shape == (result.smc_match_count, 2)
        assert result.smc_match_count > 0
        pairs = result.smc_matched_pairs
        assert pairs == [tuple(row) for row in matches.tolist()]
        # A fresh list per read: editing it leaves the result alone.
        pairs.clear()
        assert len(result.smc_matched_pairs) == result.smc_match_count
        with pytest.raises(AttributeError):
            result.smc_matched_pairs = []
        verified = list(result.iter_verified_matches())
        assert verified[len(verified) - len(matches) :] == result.smc_matched_pairs

    @pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
    def test_verified_matches_expand_blocked_class_pairs_in_order(
        self, monkeypatch, chunk_rows, adult_rule, generalized_pair
    ):
        """Blocked-M class pairs yield their cross products in blocking
        order, row-major within each, then the SMC matches; chunks of any
        size cut across rows and class pairs without changing the pairs."""
        left, right = generalized_pair
        result = HybridLinkage(LinkageConfig(adult_rule, allowance=0.02)).run(
            left, right
        )
        # Scrambled class pairs, a repeat among them, stand in for blocking's.
        rng = np.random.default_rng(5)
        matched = np.stack(
            (
                rng.integers(len(left.classes), size=40),
                rng.integers(len(right.classes), size=40),
            ),
            axis=1,
        )
        matched[-1] = matched[0]
        result = replace(result, blocking=replace(result.blocking, matched=matched))
        expected = [
            (left_index, right_index)
            for i, j in matched.tolist()
            for left_index in left.classes[i].indices
            for right_index in right.classes[j].indices
        ]
        assert len(expected) > 4096
        monkeypatch.setattr(hybrid, "_CHUNK_ROWS", chunk_rows)
        assert list(result.iter_verified_matches()) == (
            expected + result.smc_matched_pairs
        )


class TestColumnCache:
    def test_relations_are_encoded_once(
        self, monkeypatch, adult_rule, adult_pair, adult_hierarchy_catalog
    ):
        """Runs on the same relations reuse each relation's columns."""
        anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
        left = anonymizer.anonymize(adult_pair.left, QIDS, 32)
        right = anonymizer.anonymize(adult_pair.right, QIDS, 32)
        encoded = []
        from_relation = RecordColumns.from_relation.__func__

        def counting(cls, relation, names):
            encoded.append(relation)
            return from_relation(cls, relation, names)

        monkeypatch.setattr(RecordColumns, "from_relation", classmethod(counting))
        linkage = HybridLinkage(LinkageConfig(adult_rule, allowance=0.02))
        first = linkage.run(left, right)
        second = linkage.run(left, right)
        assert [id(relation) for relation in encoded] == [
            id(left.source),
            id(right.source),
        ]
        assert first.smc_match_count > 0
        assert first.smc_matched_pairs == second.smc_matched_pairs
        assert first.summary() == second.summary()
