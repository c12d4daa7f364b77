"""Kernel parity: the numpy kernel must match the scalar reference loop.

Blocking, heuristic ordering and leftover scoring run on the vectorized
kernel (``block_positions`` / ``CodeTables``). It is only admissible
because it computes what the plain per-class-pair loop of
``tests/reference.py`` computes: same decisions, same counts, same scores,
same ordering. These tests pin that contract, both on hypothesis-generated
random corpora (random equivalence classes over categorical, continuous
and prefix-string attributes, random thresholds, adversarial chunk sizes)
and on the shared Adult fixtures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.anonymize import MaxEntropyTDS
from repro.anonymize.base import EquivalenceClass, GeneralizedRelation
from repro.data.hierarchies import ADULT_QID_ORDER
from repro.data.schema import Attribute, Relation, Schema
from repro.data.strings import PrefixHierarchy
from repro.data.vgh import CategoricalHierarchy, Interval, IntervalHierarchy
from repro.errors import ConfigurationError
from repro.linkage.blocking import ClassPair, block, block_positions
from repro.linkage.codes import CodeTables
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.heuristics import HEURISTICS, MinAvgFirst

from reference import reference_link

EDUCATION = CategoricalHierarchy(
    "education", {"ANY": {"Low": ["a", "b"], "High": ["c", "d", "e"]}}
)
HOURS = IntervalHierarchy.equi_width("hours", 0.0, 64.0, 8.0, levels=3)
NAME = PrefixHierarchy("name", max_length=6)
HIERARCHIES = {"education": EDUCATION, "hours": HOURS, "name": NAME}
QIDS = ("education", "hours", "name")
SCHEMA = Schema(
    [
        Attribute.categorical("education"),
        Attribute.continuous("hours"),
        Attribute.categorical("name"),
    ]
)

CATEGORICAL_NODES = EDUCATION.nodes
CONTINUOUS_NODES = HOURS.nodes + tuple(
    Interval.point(float(value)) for value in (0, 7, 13, 40)
)
NAME_NODES = ("*", "a*", "ab*", "abc", "abd", "b*", "bc", "bcd*")


def _pair_keys(pairs):
    """Order-sensitive, identity-free rendering of a class-pair list."""
    return [(pair.left.indices, pair.right.indices) for pair in pairs]


def _positions(pairs, left, right):
    """``(left position, right position)`` of each class pair, in order."""
    left_index = {id(eq_class): i for i, eq_class in enumerate(left.classes)}
    right_index = {id(eq_class): i for i, eq_class in enumerate(right.classes)}
    return [(left_index[id(pair.left)], right_index[id(pair.right)]) for pair in pairs]


def _assert_blocking_matches_reference(rule, left, right, result):
    reference = reference_link(rule, MinAvgFirst(), left, right, 0.0)
    assert _positions(result.matched, left, right) == reference.matched_class_pairs
    assert _positions(result.unknown, left, right) == reference.unknown_class_pairs
    assert result.matched_pairs == reference.blocked_match_pairs
    assert result.nonmatch_pairs == reference.blocked_nonmatch_pairs
    assert result.unknown_pairs == reference.unknown_pairs
    assert result.total_pairs == len(left.source) * len(right.source)


def _assert_orderings_match_reference(rule, left, right, verdicts):
    for heuristic in HEURISTICS.values():
        order = heuristic.order(verdicts.unknown, verdicts.tables)
        reference = reference_link(rule, heuristic, left, right, 0.0)
        assert [tuple(pair) for pair in verdicts.unknown[order].tolist()] == [
            (left_id, right_id) for _, _, left_id, right_id in reference.ordered_unknown
        ], heuristic.name


@st.composite
def generalized_relation(draw):
    """A random GeneralizedRelation over the three-attribute schema."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=10))
    source = Relation(SCHEMA, [("a", 1.0, "abc")] * sum(sizes))
    classes = []
    start = 0
    for size in sizes:
        sequence = (
            draw(st.sampled_from(CATEGORICAL_NODES)),
            draw(st.sampled_from(CONTINUOUS_NODES)),
            draw(st.sampled_from(NAME_NODES)),
        )
        classes.append(
            EquivalenceClass(sequence, tuple(range(start, start + size)))
        )
        start += size
    return GeneralizedRelation(source, QIDS, HIERARCHIES, classes, k=1)


@st.composite
def linkage_case(draw):
    left = draw(generalized_relation())
    right = draw(generalized_relation())
    rule = MatchRule(
        [
            MatchAttribute(
                "education", EDUCATION, draw(st.sampled_from((0.0, 0.5, 1.0)))
            ),
            MatchAttribute(
                "hours", HOURS, draw(st.sampled_from((0.0, 0.05, 0.1, 0.3)))
            ),
            MatchAttribute("name", NAME, draw(st.sampled_from((0.0, 1.0, 3.0)))),
        ]
    )
    chunk_cells = draw(st.sampled_from((1, 7, 64, 1 << 22)))
    return left, right, rule, chunk_cells


class TestBlockingParity:
    @given(case=linkage_case())
    @settings(max_examples=40, deadline=None)
    def test_identical_decisions(self, case):
        left, right, rule, chunk_cells = case
        result = block(rule, left, right, chunk_cells=chunk_cells)
        _assert_blocking_matches_reference(rule, left, right, result)

    @given(case=linkage_case())
    @settings(max_examples=15, deadline=None)
    def test_heuristic_orderings_agree(self, case):
        left, right, rule, _ = case
        verdicts = block_positions(rule, left, right)
        _assert_orderings_match_reference(rule, left, right, verdicts)

    @given(case=linkage_case())
    @settings(max_examples=15, deadline=None)
    def test_average_scores_agree(self, case):
        """minAvgFirst's vectorized score, which the learned leftover
        classifier shares, equals the scalar loop's."""
        left, right, rule, _ = case
        verdicts = block_positions(rule, left, right)
        unknown = verdicts.unknown
        reference = reference_link(rule, MinAvgFirst(), left, right, 0.0)
        by_position = {
            (left_id, right_id): score
            for score, _, left_id, right_id in reference.ordered_unknown
        }
        matrix = verdicts.tables.expected_for_pairs(unknown[:, 0], unknown[:, 1])
        # Bit-identical, not approx.
        assert MinAvgFirst().score_array(matrix).tolist() == [
            by_position[tuple(position)] for position in unknown.tolist()
        ]

    def test_empty_relations(self):
        empty = GeneralizedRelation(
            Relation(SCHEMA, []), QIDS, HIERARCHIES, [], k=1
        )
        rule = MatchRule(
            [
                MatchAttribute("education", EDUCATION, 0.5),
                MatchAttribute("hours", HOURS, 0.05),
                MatchAttribute("name", NAME, 0.0),
            ]
        )
        result = block(rule, empty, empty)
        assert result.total_pairs == 0
        assert result.nonmatch_pairs == 0
        assert not result.matched and not result.unknown
        assert result.blocking_efficiency == 1.0


class TestAdultCorpusParity:
    """Parity on the shared Adult fixtures (the acceptance corpus)."""

    @pytest.fixture(scope="class")
    def generalized_pair(self, adult_pair, adult_hierarchy_catalog):
        qids = ADULT_QID_ORDER[:5]
        anonymizer = MaxEntropyTDS(adult_hierarchy_catalog)
        return (
            anonymizer.anonymize(adult_pair.left, qids, 16),
            anonymizer.anonymize(adult_pair.right, qids, 16),
        )

    def test_blocking_parity(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        result = block(adult_rule, left, right)
        _assert_blocking_matches_reference(adult_rule, left, right, result)

    def test_ordering_parity(self, adult_rule, generalized_pair):
        left, right = generalized_pair
        verdicts = block_positions(adult_rule, left, right)
        assert len(verdicts.unknown)
        _assert_orderings_match_reference(adult_rule, left, right, verdicts)


class TestForeignClassPairs:
    """A class pair outside the given relations is a config error."""

    def test_run_from_blocking_rejects_foreign_class(self, toy_rule, toy_generalized):
        """run_from_blocking cannot order a class it cannot place."""
        from repro.linkage.hybrid import HybridLinkage, LinkageConfig

        r_prime, s_prime = toy_generalized
        foreign = ClassPair(
            EquivalenceClass(r_prime.classes[0].sequence, (999,)),
            s_prime.classes[0],
        )
        blocking = block(toy_rule, r_prime, s_prime)
        blocking.unknown = [ClassPair(r_prime.classes[0], s_prime.classes[0]), foreign]
        for heuristic in HEURISTICS.values():
            linkage = HybridLinkage(LinkageConfig(toy_rule, heuristic=heuristic))
            with pytest.raises(ConfigurationError):
                linkage.run_from_blocking(blocking, r_prime, s_prime)

    def test_pair_positions_reject_foreign_class(self, toy_rule, toy_generalized):
        r_prime, s_prime = toy_generalized
        foreign = ClassPair(
            r_prime.classes[0],
            EquivalenceClass(s_prime.classes[0].sequence, (999,)),
        )
        tables = CodeTables(toy_rule, r_prime, s_prime)
        with pytest.raises(ConfigurationError):
            tables.pair_positions([foreign])


class TestEndToEndParity:
    """The full run follows the reference loop, not just blocking."""

    def test_hybrid_results_agree(self, toy_rule, toy_generalized):
        from repro.linkage.hybrid import HybridLinkage, LinkageConfig

        r_prime, s_prime = toy_generalized
        result = HybridLinkage(LinkageConfig(toy_rule, allowance=0.5)).run(
            r_prime, s_prime
        )
        reference = reference_link(toy_rule, MinAvgFirst(), r_prime, s_prime, 0.5)
        assert reference.leases
        assert [
            (*position, observation.compared)
            for position, observation in zip(
                _positions(
                    [o.pair for o in result.observations], r_prime, s_prime
                ),
                result.observations,
            )
        ] == [tuple(lease) for lease in reference.leases]
        assert result.smc_invocations == sum(lease.take for lease in reference.leases)
        leased = len(reference.leases)
        partial = reference.leases[-1].take < reference.ordered_unknown[leased - 1][1]
        expected_leftovers = [
            (left_id, right_id)
            for _, _, left_id, right_id in reference.ordered_unknown[
                leased - partial:
            ]
        ]
        assert _positions(result.leftovers, r_prime, s_prime) == expected_leftovers

    def test_telemetry_does_not_change_decisions(
        self, toy_rule, toy_generalized
    ):
        """Telemetry on vs off (the no-op default): identical outputs."""
        from repro.linkage.hybrid import HybridLinkage, LinkageConfig
        from repro.obs import Telemetry

        r_prime, s_prime = toy_generalized
        plain = HybridLinkage(
            LinkageConfig(toy_rule, allowance=0.5)
        ).run(r_prime, s_prime)
        observed = HybridLinkage(
            LinkageConfig(toy_rule, allowance=0.5, telemetry=Telemetry())
        ).run(r_prime, s_prime)
        assert plain.smc_matched_pairs == observed.smc_matched_pairs
        assert plain.smc_invocations == observed.smc_invocations
        assert plain.attribute_comparisons == observed.attribute_comparisons
        assert _pair_keys(plain.leftovers) == _pair_keys(observed.leftovers)
        assert _pair_keys(plain.claimed) == _pair_keys(observed.claimed)
        assert plain.reported_match_pairs == observed.reported_match_pairs
        assert [
            (o.pair.left.indices, o.pair.right.indices, o.compared, o.matches)
            for o in plain.observations
        ] == [
            (o.pair.left.indices, o.pair.right.indices, o.compared, o.matches)
            for o in observed.observations
        ]


class TestTelemetryAcceptance:
    """One instrumented end-to-end run produces the promised trace."""

    def test_run_report_depth_and_counters(self, toy_rule, toy_generalized):
        from repro.crypto.smc.oracle import PaillierSMCOracle
        from repro.linkage.hybrid import HybridLinkage, LinkageConfig
        from repro.obs import Telemetry, validate_report

        r_prime, s_prime = toy_generalized
        telemetry = Telemetry()
        config = LinkageConfig(
            toy_rule,
            allowance=0.5,
            oracle_factory=lambda rule, schema: PaillierSMCOracle(
                rule, schema, key_bits=256, rng=77
            ),
            telemetry=telemetry,
        )
        result = HybridLinkage(config).run(r_prime, s_prime)
        assert result.smc_invocations > 0

        def depth(span):
            return 1 + max((depth(child) for child in span["children"]), default=0)

        document = validate_report(telemetry.run_report({"suite": "parity"}))
        assert max(depth(span) for span in document["trace"]) >= 3
        names = set()

        def collect(span):
            names.add(span["name"])
            for child in span["children"]:
                collect(child)

        for span in document["trace"]:
            collect(span)
        assert {"linkage.run", "blocking", "linkage.link", "linkage.smc"} <= names
        counters = document["metrics"]["counters"]
        assert counters["blocking.class_pairs"] > 0
        assert (
            counters["blocking.matched_record_pairs"]
            + counters["blocking.nonmatch_record_pairs"]
            + counters["blocking.unknown_record_pairs"]
        ) == result.total_pairs
        assert counters["select.pairs_scored"] > 0
        assert counters["smc.record_pair_comparisons"] == result.smc_invocations
        assert (
            counters["smc.attribute_comparisons"]
            == result.attribute_comparisons
        )
        assert counters["channel.bytes_sent"] > 0
        assert counters["channel.messages"] > 0
        assert counters["crypto.encrypt"] > 0
