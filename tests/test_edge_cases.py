"""Edge-case tests for paths the main suites exercise only implicitly."""

import numpy as np
import pytest

from repro.bench.runner import format_cell, render_table
from repro.data.vgh import Interval
from repro.linkage.slack import prefix_edit_slack
from repro.protocol import ProtocolOutcome


class TestRunnerFormatting:
    def test_tiny_floats_use_scientific(self):
        assert "e" in format_cell(0.0000123)

    def test_zero_stays_plain(self):
        assert format_cell(0.0) == "0"

    def test_bools_render_as_words(self):
        assert format_cell(True) == "True"

    def test_empty_table_renders_headers(self):
        text = render_table(("a", "b"), [])
        assert "a" in text and "b" in text


class TestProtocolOutcomeEdges:
    def test_zero_pairs_efficiency(self):
        outcome = ProtocolOutcome(
            total_pairs=0,
            blocked_match_pairs=0,
            blocked_nonmatch_pairs=0,
            unknown_pairs=0,
            smc_invocations=0,
            matched_handles=np.empty((0, 2, 2), dtype=np.int32),
            matched_class_pairs=np.empty((0, 2), dtype=np.int64),
        )
        assert outcome.blocking_efficiency == 1.0
        assert outcome.verified_match_pairs == 0


class TestPrefixSlackDefaults:
    def test_default_budget_path(self):
        lower, upper = prefix_edit_slack("ab*", "abc")
        assert lower == 0.0
        assert upper >= 1.0

    def test_closed_patterns_need_no_budget(self):
        lower, upper = prefix_edit_slack("abc", "abd", max_suffix=0)
        assert lower == upper == 1.0


class TestIntervalDegenerates:
    def test_point_to_point_geometry(self):
        a = Interval.point(5)
        b = Interval.point(5)
        assert a.overlaps(b)
        assert a.min_distance(b) == 0
        assert a.max_distance(b) == 0

    def test_point_outside_half_open_boundary(self):
        # [1,5) does not contain 5; the point 5 shares nothing with it.
        assert not Interval.point(5).overlaps(Interval(1, 5))
        assert Interval.point(5).min_distance(Interval(1, 5)) == 0


class TestHybridZeroUnknown:
    def test_no_unknown_pairs_short_circuits_smc(
        self, toy_rule, toy_generalized, toy_relations
    ):
        """With allowance > 0 but nothing unknown, no SMC runs."""
        from repro.anonymize import identity_generalization
        from repro.data.hierarchies import toy_education_vgh, toy_work_hrs_vgh
        from repro.linkage.hybrid import HybridLinkage, LinkageConfig

        r, s = toy_relations
        hierarchies = {
            "education": toy_education_vgh(),
            "work_hrs": toy_work_hrs_vgh(),
        }
        left = identity_generalization(r, ("education", "work_hrs"), hierarchies)
        right = identity_generalization(s, ("education", "work_hrs"), hierarchies)
        result = HybridLinkage(LinkageConfig(toy_rule, allowance=0.5)).run(
            left, right
        )
        assert result.blocking.unknown_pairs == 0
        assert result.smc_invocations == 0
        assert len(result.leftovers) == 0
