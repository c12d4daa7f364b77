"""Every entry point returns the same verified match set.

``HybridLinkage`` over anonymized relations, the in-process
``QueryingParty`` over published views with an ``SMCBridge``, and the
loopback ``QueryingPartyClient`` against two ``DataHolderServer``s must
agree on the verified matches themselves — not just their count — and on
the leftover record pairs and the SMC invocations spent.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anonymize import MaxEntropyTDS
from repro.data.adult import generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import build_linkage_pair
from repro.linkage.distances import MatchAttribute, MatchRule
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


@pytest.fixture(scope="module")
def runtime():
    with NetRuntime() as active:
        yield active


def library_run(pair, rule, k, allowance):
    anonymizer = MaxEntropyTDS(CATALOG)
    result = HybridLinkage(LinkageConfig(rule, allowance=allowance)).run(
        anonymizer.anonymize(pair.left, QIDS, k),
        anonymizer.anonymize(pair.right, QIDS, k),
    )
    return (
        set(result.iter_verified_matches()),
        result.leftover_pairs,
        result.smc_invocations,
    )


def protocol_run(pair, rule, k, allowance):
    alice = DataHolder("alice", pair.left)
    bob = DataHolder("bob", pair.right)
    left_view = alice.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    right_view = bob.publish(MaxEntropyTDS(CATALOG), QIDS, k)
    outcome = QueryingParty(rule, allowance=allowance).link(
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


def network_run(runtime, pair, rule, k, allowance):
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
            rule, alice, bob, allowance=allowance, runtime=runtime
        ).run()
    finally:
        for server in servers:
            runtime.call(server.stop())
    return (
        set(result.verified_matches),
        result.outcome.leftover_pairs,
        result.outcome.smc_invocations,
    )


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
    runtime, seed, k, theta, allowance
):
    pair = build_linkage_pair(generate_adult(400, seed=seed), seed=seed + 1)
    rule = MatchRule(MatchAttribute(name, CATALOG[name], theta) for name in QIDS)
    library = library_run(pair, rule, k, allowance)
    assert protocol_run(pair, rule, k, allowance) == library
    assert network_run(runtime, pair, rule, k, allowance) == library
