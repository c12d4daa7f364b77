"""Every entry point returns the same verified match set.

``HybridLinkage`` over anonymized relations, the in-process
``QueryingParty`` over published views with an ``SMCBridge``, and the
loopback ``QueryingPartyClient`` against two ``DataHolderServer``s must
agree on the verified matches themselves — not just their count — on the
leftover record pairs, the SMC invocations spent and the record pairs the
leftover strategy claims, for every selection heuristic and leftover
strategy. Each entry point gets fresh heuristic and strategy instances,
so a seeded ``RandomSelection`` shuffles the same way in all three.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize import MaxEntropyTDS
from repro.data.adult import generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import build_linkage_pair
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.heuristics import MaxLast, MinAvgFirst, MinFirst, RandomSelection
from repro.linkage.hybrid import HybridLinkage, LinkageConfig
from repro.linkage.strategies import (
    LearnedClassifier,
    MaximizePrecision,
    MaximizeRecall,
)
from repro.net import DataHolderServer, NetRuntime, QueryingPartyClient, RemoteParty
from repro.protocol import (
    DataHolder,
    QueryingParty,
    SMCBridge,
    verified_match_handles,
)

QIDS = ADULT_QID_ORDER[:5]
CATALOG = adult_hierarchies()

#: Heuristic factories: each entry point builds its own instance.
HEURISTICS = {
    "minFirst": MinFirst,
    "maxLast": MaxLast,
    "minAvgFirst": MinAvgFirst,
    "random": lambda: RandomSelection(seed=7),
}
#: Strategy factories; the learned classifier trains on random selection.
STRATEGIES = {
    "maximize-precision": MaximizePrecision,
    "maximize-recall": MaximizeRecall,
    "learned-classifier": LearnedClassifier,
}
#: (heuristic, strategy) cases. Ids name the strategy only when it is
#: not the default, strategy 1.
CASES = [
    *(pytest.param(heuristic, "maximize-precision", id=heuristic)
      for heuristic in sorted(HEURISTICS)),
    *(pytest.param(heuristic, "maximize-recall", id=f"{heuristic}-maximize-recall")
      for heuristic in sorted(HEURISTICS)),
    pytest.param("random", "learned-classifier", id="random-learned-classifier"),
]


@pytest.fixture(scope="module")
def runtime():
    with NetRuntime() as active:
        yield active


def claimed_records(alice, bob, left_view, right_view, class_pairs):
    """Every record pair of the claimed class pairs, as the holders resolve it."""
    left_sizes = {c.class_id: c.size for c in left_view.classes}
    right_sizes = {c.class_id: c.size for c in right_view.classes}
    return {
        (left, right)
        for left_id, right_id in class_pairs
        for left in alice.resolve([(left_id, o) for o in range(left_sizes[left_id])])
        for right in bob.resolve([(right_id, o) for o in range(right_sizes[right_id])])
    }


def publish(pair, k):
    alice = DataHolder("alice", pair.left)
    bob = DataHolder("bob", pair.right)
    left_view = alice.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    right_view = bob.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    return alice, bob, left_view, right_view


def library_run(pair, rule, k, allowance, heuristic, strategy):
    anonymizer = MaxEntropyTDS(CATALOG)
    config = LinkageConfig(
        rule, allowance=allowance, heuristic=heuristic, strategy=strategy
    )
    result = HybridLinkage(config).run(
        anonymizer.anonymize(pair.left, QIDS, k),
        anonymizer.anonymize(pair.right, QIDS, k),
    )
    return (
        set(result.iter_verified_matches()),
        result.leftover_pairs,
        result.smc_invocations,
        {
            (left, right)
            for claimed in result.claimed
            for left in claimed.left.indices
            for right in claimed.right.indices
        },
    )


def protocol_run(pair, rule, k, allowance, heuristic, strategy):
    alice, bob, left_view, right_view = publish(pair, k)
    outcome = QueryingParty(
        rule, allowance=allowance, heuristic=heuristic, strategy=strategy
    ).link(left_view, right_view, SMCBridge(alice, bob, rule))
    handles = verified_match_handles(outcome, left_view, right_view)
    matches = set(
        zip(
            alice.resolve([handle[0] for handle in handles]),
            bob.resolve([handle[1] for handle in handles]),
        )
    )
    claimed = claimed_records(
        alice, bob, left_view, right_view, outcome.claimed_class_pairs
    )
    return matches, outcome.leftover_pairs, outcome.smc_invocations, claimed


def network_run(runtime, pair, rule, k, allowance, heuristic, strategy):
    servers = [
        runtime.call(
            DataHolderServer(name, relation, MaxEntropyTDS(CATALOG), QIDS, k).start()
        )
        for name, relation in (("alice", pair.left), ("bob", pair.right))
    ]
    try:
        alice, bob = (
            RemoteParty(server.name, server.host, server.port)
            for server in servers
        )
        result = QueryingPartyClient(
            rule,
            alice,
            bob,
            allowance=allowance,
            heuristic=heuristic,
            strategy=strategy,
            runtime=runtime,
        ).run()
    finally:
        for server in servers:
            runtime.call(server.stop())
    # The servers publish what in-process holders of the same records
    # publish, so those resolve the claimed class ids.
    holders = publish(pair, k)
    assert (result.left_view, result.right_view) == holders[2:]
    claimed = claimed_records(*holders, result.outcome.claimed_class_pairs)
    return (
        set(result.verified_matches),
        result.outcome.leftover_pairs,
        result.outcome.smc_invocations,
        claimed,
    )


@pytest.mark.parametrize("heuristic, strategy", CASES)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    k=st.sampled_from([4, 8]),
    theta=st.sampled_from([0.05, 0.1, 0.2]),
    allowance=st.floats(min_value=0.005, max_value=0.02),
)
def test_entry_points_return_the_same_match_set(
    runtime, heuristic, strategy, seed, k, theta, allowance
):
    pair = build_linkage_pair(generate_adult(400, seed=seed), seed=seed + 1)
    rule = MatchRule(MatchAttribute(name, CATALOG[name], theta) for name in QIDS)

    def make():
        return HEURISTICS[heuristic](), STRATEGIES[strategy]()

    library = library_run(pair, rule, k, allowance, *make())
    assert protocol_run(pair, rule, k, allowance, *make()) == library
    assert network_run(runtime, pair, rule, k, allowance, *make()) == library
