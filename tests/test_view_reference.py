"""The querying party's kernel blocking equals the scalar reference loop.

``QueryingParty.link`` blocks published views on the library's numpy
kernel. Against the scalar loop in ``tests/reference.py`` it must agree
on the blocked match / non-match / unknown record-pair counts, on the
order of ``matched_class_pairs`` and on the exact budget leases handed to
the bridge — on real published views and on hand-built views whose class
ids are permuted and gapped, so nothing may depend on ids being
positions.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.anonymize import MaxEntropyTDS
from repro.data.adult import generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import build_linkage_pair
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.heuristics import MaxLast, MinAvgFirst, MinFirst
from repro.protocol import DataHolder, QueryingParty, SMCBridge

from reference import reference_link

QIDS = ADULT_QID_ORDER[:5]
CATALOG = adult_hierarchies()
HEURISTICS = (MinFirst(), MaxLast(), MinAvgFirst())
#: Per-QID thresholds. "tight" leaves few unknown class pairs; the looser
#: age thresholds produce blocked matches, non-matches and unknowns.
RULES = {
    "tight": (0.05, 0.05, 0.05, 0.05, 0.05),
    "mixed": (0.5, 0.5, 1.0, 1.0, 1.0),
    "loose": (0.4, 1.0, 1.0, 1.0, 1.0),
}


class RecordingBridge:
    """Records every lease handed to ``compare_many``.

    With an *inner* bridge the leases run for real; without one every
    lease comes back with no matches, which is all a view-level check
    needs and works for views no holder published.
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.leases = []
        self.calls = 0

    def compare_many(self, leases):
        self.calls += 1
        self.leases.extend(map(tuple, leases.tolist()))
        if self.inner is None:
            return [np.empty((0, 2), dtype=np.int32) for _ in leases]
        return self.inner.compare_many(leases)

    @property
    def invocations(self):
        if self.inner is None:
            return sum(take for *_, take in self.leases)
        return self.inner.invocations


def make_rule(name):
    return MatchRule(
        MatchAttribute(qid, CATALOG[qid], theta)
        for qid, theta in zip(QIDS, RULES[name])
    )


@pytest.fixture(scope="module", params=[(400, 4), (1000, 4), (900, 16)])
def published(request):
    records, k = request.param
    pair = build_linkage_pair(generate_adult(records, seed=records), seed=k)
    alice = DataHolder("alice", pair.left)
    bob = DataHolder("bob", pair.right)
    left_view = alice.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    right_view = bob.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    return alice, bob, left_view, right_view


def assert_matches_reference(party, left_view, right_view, bridge):
    outcome = party.link(left_view, right_view, bridge)
    expected = reference_link(
        party.rule, party.heuristic, left_view, right_view, party.allowance
    )
    assert outcome.blocked_match_pairs == expected.blocked_match_pairs
    assert outcome.blocked_nonmatch_pairs == expected.blocked_nonmatch_pairs
    assert outcome.unknown_pairs == expected.unknown_pairs
    assert [
        tuple(pair) for pair in outcome.matched_class_pairs.tolist()
    ] == expected.matched_class_pairs
    assert bridge.calls == 1
    assert bridge.leases == expected.leases
    return outcome, expected


@pytest.mark.parametrize("heuristic", HEURISTICS, ids=lambda h: h.name)
@pytest.mark.parametrize("rule_name", sorted(RULES))
@pytest.mark.parametrize("allowance", [0.005, 0.05])
def test_published_views_match_the_reference_loop(
    published, heuristic, rule_name, allowance
):
    alice, bob, left_view, right_view = published
    rule = make_rule(rule_name)
    party = QueryingParty(rule, allowance=allowance, heuristic=heuristic)
    bridge = RecordingBridge(SMCBridge(alice, bob, rule))
    outcome, expected = assert_matches_reference(
        party, left_view, right_view, bridge
    )
    assert outcome.smc_invocations == sum(take for *_, take in expected.leases)
    assert (
        outcome.blocked_match_pairs
        + outcome.blocked_nonmatch_pairs
        + outcome.unknown_pairs
        == outcome.total_pairs
    )


def scramble(view, rng):
    """*view* with its classes shuffled and given permuted, gapped ids."""
    classes = list(view.classes)
    rng.shuffle(classes)
    ids = rng.sample(range(7, 10 * len(classes)), len(classes))
    return replace(
        view,
        classes=tuple(
            replace(published, class_id=class_id)
            for published, class_id in zip(classes, ids)
        ),
    )


@pytest.mark.parametrize("heuristic", HEURISTICS, ids=lambda h: h.name)
@pytest.mark.parametrize("seed", [1, 2])
def test_permuted_gapped_class_ids_match_the_reference_loop(
    published, heuristic, seed
):
    _, __, left_view, right_view = published
    rng = random.Random(seed)
    left_view = scramble(left_view, rng)
    right_view = scramble(right_view, rng)
    party = QueryingParty(make_rule("loose"), allowance=0.3, heuristic=heuristic)
    outcome, expected = assert_matches_reference(
        party, left_view, right_view, RecordingBridge()
    )
    assert outcome.matched_handles.shape == (0, 2, 2)
    assert len(outcome.matched_class_pairs)
    # The views hold (score, size) ties inside the leased prefix, so the
    # lease list pins the class_id tie-break, not just the score order.
    leased = expected.ordered_unknown[: len(expected.leases)]
    keys = [item[:2] for item in leased]
    assert len(set(keys)) < len(keys)
