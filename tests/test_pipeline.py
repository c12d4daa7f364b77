"""Tests of the staged pipeline core: sharding, executors, parity.

The pipeline's contract is *reconciliation*: for every execution plan
(executor backend x shard count x engine) the merged result is
bit-identical to the classic serial path — same verified matches, same
observation sequence, same leftovers, same oracle invoice. These tests
pin that contract at every layer: the partitioner, the budget ledger,
the executor backends, the full :class:`~repro.linkage.hybrid.HybridLinkage`
run and the ``repro-link`` CSV output.
"""

from __future__ import annotations

import csv

import pytest

from repro.anonymize import MaxEntropyTDS
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.errors import ConfigurationError, PipelineError
from repro.linkage.blocking import block
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.pipeline import (
    EXECUTORS,
    BudgetLedger,
    Partitioner,
    ProcessExecutor,
    RunContext,
    SerialExecutor,
    ThreadExecutor,
    resolve_executor,
    validate_executor,
    validate_shards,
)
from repro.pipeline.shards import plan_leases

QIDS = ADULT_QID_ORDER[:5]


@pytest.fixture(scope="module")
def generalized_pair(adult_pair, adult_hierarchy_catalog):
    anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
    return (
        anonymizer.anonymize(adult_pair.left, QIDS, 32),
        anonymizer.anonymize(adult_pair.right, QIDS, 32),
    )


def _square(value):
    return value * value


class TestPartitioner:
    def test_slices_cover_range_contiguously(self):
        for shards in (1, 2, 3, 7):
            for count in (0, 1, 2, 6, 7, 50):
                bounds = Partitioner(shards).slices(count)
                flat = [
                    index
                    for start, stop in bounds
                    for index in range(start, stop)
                ]
                assert flat == list(range(count))

    def test_balanced_divmod_rule(self):
        bounds = Partitioner(3).slices(7)
        sizes = [stop - start for start, stop in bounds]
        # 7 over 3: the first 7 % 3 = 1 shard gets the extra item.
        assert sizes == [3, 2, 2]

    def test_never_more_slices_than_items(self):
        assert len(Partitioner(8).slices(3)) == 3
        assert Partitioner(8).slices(0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Partitioner(2).slices(-1)

    def test_split_matches_slices(self):
        items = list("abcdefg")
        parts = Partitioner(3).split(items)
        assert [len(part) for part in parts] == [3, 2, 2]
        assert [item for part in parts for item in part] == items

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            Partitioner(0)


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


class TestBudgetLedger:
    def test_reconcile_accepts_matching_books(self):
        ledger = BudgetLedger(allowance_pairs=10)
        ledger.grant([4, 4, 2])
        ledger.bill(6)
        ledger.bill(4)
        ledger.reconcile()
        assert ledger.granted == 10
        assert ledger.remaining == 0

    def test_overgrant_raises(self):
        ledger = BudgetLedger(allowance_pairs=5)
        with pytest.raises(PipelineError):
            ledger.grant([4, 4])

    def test_billing_mismatch_raises(self):
        ledger = BudgetLedger(allowance_pairs=10)
        ledger.grant([5])
        ledger.bill(4)
        with pytest.raises(PipelineError):
            ledger.reconcile()


class TestExecutors:
    def test_validate_executor(self):
        for name in EXECUTORS:
            assert validate_executor(name) == name
        with pytest.raises(ConfigurationError):
            validate_executor("cluster")

    def test_validate_shards(self):
        assert validate_shards(3) == 3
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ConfigurationError):
                validate_shards(bad)

    @pytest.mark.parametrize("name", EXECUTORS)
    def test_map_preserves_task_order(self, name):
        with resolve_executor(name, shards=4) as executor:
            assert executor.map(_square, list(range(20))) == [
                value * value for value in range(20)
            ]

    def test_resolve_executor_types(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        assert isinstance(resolve_executor("process"), ProcessExecutor)

    def test_close_is_idempotent(self):
        executor = resolve_executor("thread", shards=2)
        executor.map(_square, [1, 2, 3])
        executor.close()
        executor.close()
        # A closed pool is rebuilt lazily on the next map.
        assert executor.map(_square, [3]) == [9]
        executor.close()

    def test_context_closes_lazy_executor(self):
        context = RunContext(config=None, executor_name="thread", shards=2)
        assert context.executor.map(_square, [2]) == [4]
        context.close()
        assert context._executor is None


def result_fingerprint(result):
    """Every decision-relevant field of a LinkageResult, order included."""
    return {
        "total_pairs": result.total_pairs,
        "allowance_pairs": result.allowance_pairs,
        "engine": result.blocking.engine,
        "blocking": (
            result.blocking.nonmatch_pairs,
            [
                (pair.left.sequence, pair.right.sequence)
                for pair in result.blocking.matched
            ],
            [
                (pair.left.sequence, pair.right.sequence)
                for pair in result.blocking.unknown
            ],
        ),
        "smc_invocations": result.smc_invocations,
        "attribute_comparisons": result.attribute_comparisons,
        "smc_matched_pairs": list(result.smc_matched_pairs),
        "observations": [
            (
                observation.pair.left.sequence,
                observation.pair.right.sequence,
                observation.compared,
                observation.matches,
            )
            for observation in result.observations
        ],
        "leftovers": [
            (pair.left.sequence, pair.right.sequence)
            for pair in result.leftovers
        ],
        "claimed": [
            (pair.left.sequence, pair.right.sequence)
            for pair in result.claimed
        ],
        "verified": list(result.iter_verified_matches()),
    }


class TestLinkageParity:
    """Sharded runs are bit-identical to the serial reference."""

    @pytest.fixture(scope="class")
    def references(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        return {
            engine: result_fingerprint(
                HybridLinkage(
                    LinkageConfig(adult_rule, allowance=0.01, engine=engine)
                ).run(left, right)
            )
            for engine in ("python", "numpy")
        }

    @pytest.mark.parametrize("engine", ["python", "numpy"])
    @pytest.mark.parametrize(
        "executor,shards",
        [("serial", 2), ("thread", 3), ("process", 2), ("process", 5)],
    )
    def test_execution_plans_reconcile(
        self, executor, shards, engine, adult_rule, generalized_pair, references
    ):
        left, right = generalized_pair
        config = LinkageConfig(
            adult_rule,
            allowance=0.01,
            engine=engine,
            executor=executor,
            shards=shards,
        )
        result = HybridLinkage(config).run(left, right)
        assert result_fingerprint(result) == references[engine]

    def test_sharded_blocking_matches_serial(
        self, adult_rule, generalized_pair
    ):
        from types import SimpleNamespace

        from repro.pipeline import BlockStage

        left, right = generalized_pair
        reference = block(adult_rule, left, right, engine="python")
        for executor in EXECUTORS:
            context = RunContext(
                config=SimpleNamespace(rule=adult_rule, engine="python"),
                executor_name=executor,
                shards=3,
            )
            try:
                sharded = BlockStage().run(context, left, right)
            finally:
                context.close()
            assert sharded.nonmatch_pairs == reference.nonmatch_pairs
            assert [
                (pair.left.sequence, pair.right.sequence)
                for pair in sharded.matched
            ] == [
                (pair.left.sequence, pair.right.sequence)
                for pair in reference.matched
            ]
            assert [
                (pair.left.sequence, pair.right.sequence)
                for pair in sharded.unknown
            ] == [
                (pair.left.sequence, pair.right.sequence)
                for pair in reference.unknown
            ]

    def test_random_heuristic_falls_back_to_serial_selection(
        self, adult_rule, generalized_pair
    ):
        """Unshardable heuristics still reconcile (serial selection path)."""
        from repro.linkage.heuristics import RandomSelection
        from repro.linkage.strategies import LearnedClassifier

        left, right = generalized_pair
        results = []
        for executor, shards in (("serial", 1), ("thread", 3)):
            config = LinkageConfig(
                adult_rule,
                allowance=0.01,
                heuristic=RandomSelection(seed=7),
                strategy=LearnedClassifier(),
                executor=executor,
                shards=shards,
            )
            results.append(
                result_fingerprint(HybridLinkage(config).run(left, right))
            )
        assert results[0] == results[1]


class TestLinkCliParity:
    """repro-link writes byte-identical CSVs for every executor."""

    @pytest.fixture(scope="class")
    def csv_pair(self, tmp_path_factory):
        from repro.data.adult import generate_adult
        from repro.data.partition import build_linkage_pair

        directory = tmp_path_factory.mktemp("pipeline-cli")
        relation = generate_adult(300, seed=71)
        pair = build_linkage_pair(relation, seed=72)
        left_path = directory / "left.csv"
        right_path = directory / "right.csv"
        pair.left.write_csv(str(left_path))
        pair.right.write_csv(str(right_path))
        return str(left_path), str(right_path)

    def test_csv_identical_across_executors(self, csv_pair, tmp_path, capsys):
        from repro.tools.link_cli import main

        left_path, right_path = csv_pair
        outputs = {}
        for executor in EXECUTORS:
            out_path = tmp_path / f"matches-{executor}.csv"
            code = main(
                [
                    left_path,
                    right_path,
                    "--attr", "age=continuous:0.05",
                    "--attr", "education=categorical:0.5",
                    "--k", "8",
                    "--allowance", "0.05",
                    "--executor", executor,
                    "--shards", "4",
                    "--out", str(out_path),
                ]
            )
            capsys.readouterr()
            assert code == 0
            with open(out_path, newline="") as handle:
                outputs[executor] = list(csv.reader(handle))
        assert outputs["thread"] == outputs["serial"]
        assert outputs["process"] == outputs["serial"]
        assert outputs["serial"][0] == ["left_index", "right_index"]
        assert len(outputs["serial"]) > 1
