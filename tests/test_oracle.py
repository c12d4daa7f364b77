"""Tests for the SMC oracle backends."""

import numpy as np
import pytest

from repro.crypto.smc.oracle import (
    CountingPlaintextOracle,
    PaillierSMCOracle,
    SMCOracle,
)
from repro.data.hierarchies import adult_hierarchies, toy_education_vgh, toy_work_hrs_vgh
from repro.data.schema import Attribute, Schema
from repro.linkage.columns import BlockLease, RecordColumns
from repro.linkage.distances import MatchAttribute, MatchRule


@pytest.fixture(scope="module")
def toy_setup():
    schema = Schema(
        [Attribute.categorical("education"), Attribute.continuous("work_hrs")]
    )
    rule = MatchRule(
        [
            MatchAttribute("education", toy_education_vgh(), 0.5),
            MatchAttribute("work_hrs", toy_work_hrs_vgh(), 0.2),
        ]
    )
    return schema, rule


class TestCountingPlaintextOracle:
    def test_exactness(self, toy_setup):
        schema, rule = toy_setup
        oracle = CountingPlaintextOracle(rule, schema)
        assert oracle.compare(("Masters", 35), ("Masters", 36))
        assert not oracle.compare(("Masters", 35), ("9th", 36))
        assert not oracle.compare(("Masters", 35), ("Masters", 90))

    def test_invocation_counter(self, toy_setup):
        schema, rule = toy_setup
        oracle = CountingPlaintextOracle(rule, schema)
        for _ in range(5):
            oracle.compare(("Masters", 35), ("Masters", 36))
        assert oracle.invocations == 5
        assert oracle.attribute_comparisons == 10  # 2 billable attributes
        oracle.reset()
        assert oracle.invocations == 0

    def test_reset_zeroes_registry_view_too(self, toy_setup):
        """Between sweep points no cost may leak through the telemetry."""
        from repro.obs import Telemetry

        schema, rule = toy_setup
        telemetry = Telemetry()
        oracle = CountingPlaintextOracle(rule, schema, telemetry=telemetry)
        for _ in range(3):
            oracle.compare(("Masters", 35), ("Masters", 36))
        oracle.publish_metrics()
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["smc.record_pair_comparisons"] == 3
        assert counters["smc.attribute_comparisons"] == 6
        oracle.reset()
        assert oracle.invocations == 0
        assert oracle.attribute_comparisons == 0
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["smc.record_pair_comparisons"] == 0
        assert counters["smc.attribute_comparisons"] == 0

    def test_attach_telemetry_publishes_existing_costs(self, toy_setup):
        """Late binding syncs totals accumulated before attachment."""
        from repro.obs import Telemetry

        schema, rule = toy_setup
        oracle = CountingPlaintextOracle(rule, schema)
        oracle.compare(("Masters", 35), ("Masters", 36))
        telemetry = Telemetry()
        oracle.attach_telemetry(telemetry)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["smc.record_pair_comparisons"] == 1
        assert counters["smc.attribute_comparisons"] == 2

    def test_loose_categorical_not_billed(self):
        schema = Schema(
            [Attribute.categorical("education"), Attribute.continuous("work_hrs")]
        )
        rule = MatchRule(
            [
                MatchAttribute("education", toy_education_vgh(), 1.0),
                MatchAttribute("work_hrs", toy_work_hrs_vgh(), 0.2),
            ]
        )
        oracle = CountingPlaintextOracle(rule, schema)
        oracle.compare(("Masters", 35), ("9th", 36))
        assert oracle.attribute_comparisons == 1


class TestPaillierSMCOracle:
    @pytest.fixture(scope="class")
    def oracle(self, toy_setup):
        schema, rule = toy_setup
        return PaillierSMCOracle(rule, schema, key_bits=256, rng=13)

    def test_agrees_with_plaintext(self, toy_setup, oracle):
        schema, rule = toy_setup
        plaintext = CountingPlaintextOracle(rule, schema)
        cases = [
            (("Masters", 35), ("Masters", 36)),
            (("Masters", 35), ("Masters", 55)),
            (("Masters", 35), ("9th", 35)),
            (("9th", 28), ("9th", 28)),
            (("9th", 28), ("10th", 28)),
        ]
        for left, right in cases:
            assert oracle.compare(left, right) == plaintext.compare(left, right)

    def test_revealed_distance_variant(self, toy_setup):
        schema, rule = toy_setup
        oracle = PaillierSMCOracle(
            rule, schema, key_bits=256, hide_distances=False, rng=14
        )
        assert oracle.compare(("Masters", 35), ("Masters", 36))
        assert not oracle.compare(("Masters", 35), ("Masters", 90))

    def test_transcript_grows(self, toy_setup):
        schema, rule = toy_setup
        oracle = PaillierSMCOracle(rule, schema, key_bits=256, rng=15)
        before = oracle.session.transcript.bytes_sent
        oracle.compare(("Masters", 35), ("Masters", 36))
        assert oracle.session.transcript.bytes_sent > before

    def test_short_circuits_on_categorical_mismatch(self, toy_setup):
        schema, rule = toy_setup
        oracle = PaillierSMCOracle(rule, schema, key_bits=256, rng=16)
        oracle.compare(("Masters", 35), ("9th", 36))
        # Education mismatch stops before the continuous comparison.
        assert oracle.attribute_comparisons == 1

    def test_adult_schema_integration(self, adult_rule):
        from repro.data.adult import adult_schema, generate_adult

        relation = generate_adult(4, seed=3)
        oracle = PaillierSMCOracle(
            adult_rule, adult_schema(), key_bits=256, rng=17
        )
        plaintext = CountingPlaintextOracle(adult_rule, adult_schema())
        for left in relation:
            for right in relation:
                assert oracle.compare(left, right) == plaintext.compare(
                    left, right
                )


class TestCompareBlock:
    def test_vectorized_equals_scalar_loop(self, adult_rule):
        """The numpy fast path and the base loop agree pair for pair."""
        from repro.data.adult import adult_schema, generate_adult

        relation = generate_adult(40, seed=19)
        left = RecordColumns.from_relation(relation, adult_rule.names)
        rows = np.arange(40)
        fast = CountingPlaintextOracle(adult_rule, adult_schema())
        slow = CountingPlaintextOracle(adult_rule, adult_schema())
        for take in (1, 7, 20, 199, 400):
            fast.reset()
            slow.reset()
            lease = BlockLease(rows[:20], rows[20:], take)
            [vectorized] = fast.compare_block(left, left, [lease])
            [looped] = SMCOracle.compare_block(slow, left, left, [lease])
            assert vectorized.dtype == looped.dtype == np.int32
            assert vectorized.tolist() == looped.tolist(), take
            assert fast.invocations == slow.invocations == take
            assert fast.attribute_comparisons == slow.attribute_comparisons

    def test_string_rule_falls_back_to_loop(self):
        from repro.data.strings import PrefixHierarchy

        schema = Schema([Attribute.categorical("surname")])
        rule = MatchRule(
            [MatchAttribute("surname", PrefixHierarchy("surname", 12), 1.0)]
        )
        oracle = CountingPlaintextOracle(rule, schema)
        left = RecordColumns.from_rows(schema, ["surname"], [("smith",), ("jones",)])
        right = RecordColumns.from_rows(schema, ["surname"], [("smyth",), ("ng",)])
        [matches] = oracle.compare_block(
            left, right, [BlockLease(np.arange(2), np.arange(2), 4)]
        )
        assert matches.tolist() == [[0, 0]]
        assert oracle.invocations == 4
