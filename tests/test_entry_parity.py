"""Every entry point returns the same verified match set.

``HybridLinkage`` over anonymized relations, the in-process
``QueryingParty`` over published views with an ``SMCBridge``, and the
loopback ``QueryingPartyClient`` against two ``DataHolderServer``s must
agree on the verified matches themselves — not just their count — and on
the leftover record pairs and the SMC invocations spent, for every
selection heuristic. Each entry point gets a fresh heuristic instance, so
a seeded ``RandomSelection`` shuffles the same way in all three.
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


@pytest.fixture(scope="module")
def runtime():
    with NetRuntime() as active:
        yield active


def library_run(pair, rule, k, allowance, heuristic):
    anonymizer = MaxEntropyTDS(CATALOG)
    config = LinkageConfig(rule, allowance=allowance, heuristic=heuristic)
    result = HybridLinkage(config).run(
        anonymizer.anonymize(pair.left, QIDS, k),
        anonymizer.anonymize(pair.right, QIDS, k),
    )
    return (
        set(result.iter_verified_matches()),
        result.leftover_pairs,
        result.smc_invocations,
    )


def protocol_run(pair, rule, k, allowance, heuristic):
    alice = DataHolder("alice", pair.left)
    bob = DataHolder("bob", pair.right)
    left_view = alice.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    right_view = bob.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    outcome = QueryingParty(rule, allowance=allowance, heuristic=heuristic).link(
        left_view, right_view, SMCBridge(alice, bob, rule)
    )
    handles = verified_match_handles(outcome, left_view, right_view)
    matches = set(
        zip(
            alice.resolve([handle[0] for handle in handles]),
            bob.resolve([handle[1] for handle in handles]),
        )
    )
    return matches, outcome.leftover_pairs, outcome.smc_invocations


def network_run(runtime, pair, rule, k, allowance, heuristic):
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
            runtime=runtime,
        ).run()
    finally:
        for server in servers:
            runtime.call(server.stop())
    return (
        set(result.verified_matches),
        result.outcome.leftover_pairs,
        result.outcome.smc_invocations,
    )


@pytest.mark.parametrize("heuristic", sorted(HEURISTICS))
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
    runtime, heuristic, seed, k, theta, allowance
):
    pair = build_linkage_pair(generate_adult(400, seed=seed), seed=seed + 1)
    rule = MatchRule(MatchAttribute(name, CATALOG[name], theta) for name in QIDS)
    make = HEURISTICS[heuristic]
    library = library_run(pair, rule, k, allowance, make())
    assert protocol_run(pair, rule, k, allowance, make()) == library
    assert network_run(runtime, pair, rule, k, allowance, make()) == library
