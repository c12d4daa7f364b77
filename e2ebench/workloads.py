"""The benchmark's workloads: inputs from a seed, one link call, output checks.

Every workload runs the paper's Section VI defaults unless its class says
otherwise: seeded synthetic Adult records split into the D1/D2 pair,
``MaxEntropyTDS`` at k=32, theta=0.05 on the top-5 QIDs, a 1.5% SMC
allowance, ``MinAvgFirst`` and ``MaximizePrecision``. Each one calls only
entry points the program keeps as its public surface:
``HybridLinkage(LinkageConfig(...)).run``, ``DataHolder.publish`` plus
``QueryingParty.link(views, SMCBridge)``, and ``DataHolderServer`` plus
``QueryingPartyClient``. None passes an engine, executor or shard count.

What a workload injects through those parameters comes from a
:class:`Layers`: the plain objects, or :class:`spans.Timed` proxies when the
run is traced or a layer carries the negative-control delay.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import pickle
import random
import subprocess
import sys

import numpy as np

from repro import HybridLinkage, LinkageConfig
from repro.anonymize import MaxEntropyTDS
from repro.crypto.smc.oracle import CountingPlaintextOracle, PaillierSMCOracle
from repro.data.adult import generate_adult
from repro.data.hierarchies import ADULT_QID_ORDER, adult_hierarchies
from repro.data.partition import LinkagePair, build_linkage_pair
from repro.linkage.distances import MatchAttribute, MatchRule
from repro.linkage.ground_truth import GroundTruth
from repro.linkage.heuristics import MinAvgFirst
from repro.linkage.strategies import MaximizePrecision
from repro.net import DataHolderServer, NetRuntime, QueryingPartyClient, RemoteParty
from repro.obs import NOOP_TELEMETRY, Telemetry
from repro.protocol import (
    DataHolder,
    QueryingParty,
    SMCBridge,
    verified_match_handles,
)

from spans import Timed, Tracer, find, graft

K = 32
THETA = 0.05
QIDS = ADULT_QID_ORDER[:5]
ALLOWANCE = 0.015
CATALOG = adult_hierarchies()


class Layers:
    """The objects a workload injects: plain, timed, or delayed.

    *delay* is ``(layer, seconds)``: the negative control, a fixed sleep
    on the first call into every injected object of that layer.
    """

    def __init__(self, tracer: Tracer | None = None, delay=(None, 0.0)):
        self.tracer = tracer
        self.delay_layer, self.delay_seconds = delay
        #: Every oracle the factories built, newest last (for its counters).
        self.oracles: list = []

    def wrap(
        self, target, layer: str, *methods: str, leaf: bool = True, timed: bool = True
    ):
        """*target* with *methods* timed as *layer*; *leaf* unless other
        injected objects are called inside them. With ``timed=False`` only
        the negative-control delay applies."""
        delay = self.delay_seconds if layer == self.delay_layer else 0.0
        tracer = self.tracer if timed else None
        if tracer is None and not delay:
            return target
        return Timed(target, layer, methods, tracer, delay, leaf)

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def oracle_factory(
        self, factory, build_layer: str | None = None, timed: bool = True
    ):
        """Wrap *factory* so each oracle it builds is kept and injected.

        With *build_layer* the factory call itself is a span of that layer
        (Paillier key generation happens there). With ``timed=False`` the
        oracle's calls are not timed: on the protocol path it is called once
        per record pair, too often to time without skewing the link.
        """

        def build(rule, schema):
            if build_layer is None:
                oracle = factory(rule, schema)
            else:
                with self.span(build_layer):
                    oracle = factory(rule, schema)
            self.oracles.append(oracle)
            return self.wrap(
                oracle, "oracle", "compare", "compare_block", timed=timed
            )

        return build


def make_rule() -> MatchRule:
    return MatchRule(MatchAttribute(name, CATALOG[name], THETA) for name in QIDS)


def make_pair(records: int, seed: int) -> LinkagePair:
    """The D1/D2 pair over *records* synthetic Adult records from *seed*."""
    rng = random.Random(seed)
    relation = generate_adult(records, rng.getrandbits(32))
    return build_linkage_pair(relation, rng.getrandbits(32))


def resolve(outcome, left_view, right_view, alice, bob) -> list[tuple[int, int]]:
    """The record-index pairs behind *outcome*'s verified matches, sorted,
    as the two holders resolve their own sides."""
    handles = verified_match_handles(outcome, left_view, right_view)
    lefts = alice.resolve([pair[0] for pair in handles])
    rights = bob.resolve([pair[1] for pair in handles])
    return sorted(set(zip(lefts, rights)))


def digest(codes: np.ndarray) -> str:
    """A short fingerprint of a match set given as :meth:`Workload.codes`."""
    return hashlib.sha256(np.sort(codes).tobytes()).hexdigest()[:16]


def fingerprint(value) -> str:
    """A fingerprint of a value whose ``repr`` is deterministic."""
    return hashlib.sha256(repr(value).encode()).hexdigest()


#: Run by :func:`in_child`: the parent's import path, then a function and
#: its arguments, arrive pickled on standard input; the result leaves on
#: standard output.
CHILD = (
    "import pickle, sys; sys.path[:0] = pickle.load(sys.stdin.buffer); "
    "function, args = pickle.load(sys.stdin.buffer); "
    "pickle.dump(function(*args), sys.stdout.buffer)"
)


def in_child(function, *args):
    """``function(*args)`` in a fresh interpreter, its result sent back.

    The check references (ground truth, in-process or plaintext reference
    runs) are built this way, from the seed, so their memory never counts
    towards the parent's ``peak_rss_mb``; the parent keeps only the compact
    result. The child is a new interpreter, not a fork, because
    ``net-4500``'s parent runs an event-loop thread.
    """
    message = pickle.dumps(sys.path) + pickle.dumps((function, args))
    child = subprocess.run(
        [sys.executable, "-c", CHILD], input=message, capture_output=True
    )
    if child.returncode:
        raise RuntimeError(
            f"building the check reference failed:\n{child.stderr.decode()}"
        )
    return pickle.loads(child.stdout)


def pair_codes(matches, width: int) -> np.ndarray:
    """Record-index pairs as one int64 each (a flat array the garbage
    collector never walks, unlike a set of tuples); *width* is |D2|."""
    return np.fromiter(
        (left * width + right for left, right in matches), dtype=np.int64
    )


def true_matches(records: int, data_seed: int) -> dict:
    """Every true match of the seed's inputs, as sorted codes."""
    pair = make_pair(records, data_seed)
    ground = GroundTruth(make_rule(), pair.left, pair.right)
    return {"truth": np.sort(pair_codes(ground.iter_matches(), len(pair.right)))}


def plaintext_reference(records: int, data_seed: int, allowance: float) -> dict:
    """The true matches plus the counting plaintext oracle's SMC matches."""
    pair = make_pair(records, data_seed)
    anonymizer = MaxEntropyTDS(CATALOG)
    plain = HybridLinkage(
        LinkageConfig(rule=make_rule(), allowance=allowance)
    ).run(
        anonymizer.anonymize(pair.left, QIDS, K),
        anonymizer.anonymize(pair.right, QIDS, K),
    )
    return {
        **true_matches(records, data_seed),
        "smc_matches": sorted(plain.smc_matched_pairs),
    }


def in_process_reference(
    records: int, data_seed: int, allowance: float, left_view, right_view
) -> dict:
    """The true matches plus ``QueryingParty.link`` in-process on the given
    views: its outcome's fingerprint and its verified matches as codes."""
    pair = make_pair(records, data_seed)
    alice = DataHolder("alice", pair.left)
    bob = DataHolder("bob", pair.right)
    alice.publish(MaxEntropyTDS(CATALOG), QIDS, K)
    bob.publish(MaxEntropyTDS(CATALOG), QIDS, K)
    rule = make_rule()
    outcome = QueryingParty(rule, allowance=allowance).link(
        left_view, right_view, SMCBridge(alice, bob, rule)
    )
    verified = resolve(outcome, left_view, right_view, alice, bob)
    return {
        **true_matches(records, data_seed),
        "outcome": fingerprint(outcome),
        "verified": pair_codes(verified, len(pair.right)),
    }


class Workload:
    """One workload: set-up, a link call, and the checks on its output."""

    name = ""
    records = 0
    allowance = ALLOWANCE
    #: The entry point and SMC backend, as recorded in the run report.
    entry = ""
    oracle = "CountingPlaintextOracle"
    #: Whether real cryptography runs (reports ms per attribute comparison).
    crypto = False

    def __init__(self, seed: int):
        self.seed = seed
        #: Seed of the records; only the Paillier workload pins it.
        self.data_seed = seed
        self.rule = make_rule()
        self.pair: LinkagePair | None = None
        #: What outputs are checked against, built once per run by
        #: :meth:`reference`. Every set-up rebuilds the same inputs from the
        #: seed, so it outlives :meth:`reset`.
        self._reference: dict | None = None

    def params(self) -> dict:
        """The workload's parameters, for the run report."""
        return {
            "entry": self.entry, "records": self.records, "k": K,
            "theta": THETA, "qids": list(QIDS), "allowance": self.allowance,
            "anonymizer": "MaxEntropyTDS", "heuristic": "MinAvgFirst",
            "strategy": "MaximizePrecision", "oracle": self.oracle,
            "data_seed": self.data_seed,
        }

    # -- lifecycle ---------------------------------------------------------
    def __enter__(self) -> "Workload":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def reset(self) -> None:
        """Drop the previous set-up's inputs before another one (untimed)."""
        self.pair = None

    def close(self) -> None:
        """Stop everything the workload started."""

    def setup(self, layers: Layers) -> None:
        raise NotImplementedError

    def link(self, layers: Layers):
        raise NotImplementedError

    # -- checks ------------------------------------------------------------
    @property
    def total_pairs(self) -> int:
        return len(self.pair.left) * len(self.pair.right)

    def codes(self, matches) -> np.ndarray:
        """Record-index pairs of the current inputs as :func:`pair_codes`."""
        return pair_codes(matches, len(self.pair.right))

    def reference(self, output) -> dict:
        """The check reference for *output*, built in a child process."""
        return in_child(true_matches, self.records, self.data_seed)

    def matches(self, output):
        """The verified matches of *output* as record-index pairs."""
        raise NotImplementedError

    def invocations(self, output) -> tuple[int, int]:
        """(SMC invocations, unknown record pairs) of *output*."""
        raise NotImplementedError

    def check(self, output) -> list[str]:
        """Problems with *output*; empty when it is correct."""
        if self._reference is None:
            self._reference = self.reference(output)
        return self.compare(output, self._reference)

    def compare(self, output, reference: dict) -> list[str]:
        """Problems with *output* against *reference*."""
        problems = []
        invocations, unknown = self.invocations(output)
        expected = min(math.floor(self.allowance * self.total_pairs), unknown)
        if invocations != expected:
            problems.append(
                f"{invocations} SMC invocations, expected {expected}"
            )
        codes, truth = self.codes(self.matches(output)), reference["truth"]
        if len(truth):
            found = np.searchsorted(truth, codes).clip(max=len(truth) - 1)
            false = np.count_nonzero(truth[found] != codes)
        else:
            false = len(codes)
        if false:
            problems.append(f"{false} verified matches are not true matches")
        return problems

    def wire_bytes(self, output) -> int | None:
        """Measured bytes on all links, for workloads with a network."""
        return None

    def counts(self, output, layers: Layers) -> dict[str, float]:
        """Per-layer counts of *output*, from the program's own counters."""
        raise NotImplementedError


class LibraryWorkload(Workload):
    """``HybridLinkage(LinkageConfig(...)).run`` on anonymized relations."""

    entry = "HybridLinkage(LinkageConfig(...)).run"

    def reset(self) -> None:
        super().reset()
        self.left = self.right = None

    def oracle_factory(self, layers: Layers):
        return layers.oracle_factory(CountingPlaintextOracle)

    def setup(self, layers: Layers) -> None:
        with layers.span("data.generate"):
            self.pair = make_pair(self.records, self.data_seed)
        anonymizer = layers.wrap(MaxEntropyTDS(CATALOG), "anonymize", "anonymize")
        self.left = anonymizer.anonymize(self.pair.left, QIDS, K)
        self.right = anonymizer.anonymize(self.pair.right, QIDS, K)

    def link(self, layers: Layers):
        config = LinkageConfig(
            rule=self.rule,
            allowance=self.allowance,
            heuristic=layers.wrap(MinAvgFirst(), "select", "order"),
            strategy=layers.wrap(
                MaximizePrecision(), "leftovers", "claim_matches"
            ),
            oracle_factory=self.oracle_factory(layers),
        )
        linkage = HybridLinkage(config)
        with layers.span("pipeline") as span:
            result = linkage.run(self.left, self.right)
        if span is not None:
            # Blocking is not injectable; the program times it itself.
            span.add_child("blocking", result.blocking.elapsed_seconds)
        return result

    def matches(self, result):
        return result.iter_verified_matches()

    def invocations(self, result):
        return result.smc_invocations, result.blocking.unknown_pairs

    def counts(self, result, layers):
        counts = {
            "anonymize.class_pairs": len(self.left.classes) * len(self.right.classes),
            "blocking.unknown_class_pairs": len(result.blocking.unknown),
            "blocking.decided_frac": result.blocking.blocking_efficiency,
            "select.pairs_scored": len(result.blocking.unknown),
            "oracle.invocations": result.smc_invocations,
            "oracle.attribute_comparisons": result.attribute_comparisons,
            "oracle.matches": result.smc_match_count,
            "leftovers.class_pairs": len(result.leftovers),
        }
        session = getattr(layers.oracles[-1], "session", None)
        if session is not None:
            counts["channel.messages"] = session.transcript.messages
            counts["channel.bytes_sent"] = session.transcript.bytes_sent
        return counts


class LibFull(LibraryWorkload):
    """The paper's operating point: all 30,162 records through the library."""

    name = "lib-full"
    records = 30_162


class Paillier600(LibraryWorkload):
    """Real 1024-bit Paillier, one fresh oracle (and key) per link call.

    Its inputs do not follow the workload seed: the records and the key
    and blinding randomness are fixed. The oracle stops at a pair's first
    failing attribute, so which 47 record pairs meet sets the crypto work;
    across data seeds it ranges from 47 to 80 attribute comparisons, and
    1024-bit key generation from 0.1 to 0.4 s across key seeds. Fixed
    inputs keep each link's crypto work identical from run to run.
    """

    name = "paillier-600"
    records = 600
    allowance = 0.0003
    oracle = "PaillierSMCOracle(key_bits=1024, rng=496), one per link call"
    crypto = True
    KEY_BITS = 1024
    DATA_SEED = 2008
    KEY_SEED = 496

    def __init__(self, seed: int):
        super().__init__(seed)
        self.data_seed = self.DATA_SEED

    def oracle_factory(self, layers: Layers):
        def paillier(rule, schema):
            return PaillierSMCOracle(
                rule, schema, key_bits=self.KEY_BITS, rng=self.KEY_SEED
            )

        return layers.oracle_factory(paillier, build_layer="crypto.keygen")

    def reference(self, result):
        return in_child(
            plaintext_reference, self.records, self.data_seed, self.allowance
        )

    def compare(self, result, reference):
        problems = super().compare(result, reference)
        if sorted(result.smc_matched_pairs) != reference["smc_matches"]:
            problems.append("SMC matches differ from the plaintext oracle's")
        return problems


class Protocol12k(Workload):
    """The in-process three-party protocol on 12,000 records."""

    name = "protocol-12k"
    records = 12_000
    entry = "DataHolder.publish + QueryingParty.link(views, SMCBridge)"

    def reset(self) -> None:
        super().reset()
        self.alice = self.bob = self.left_view = self.right_view = None

    def setup(self, layers: Layers) -> None:
        with layers.span("data.generate"):
            self.pair = make_pair(self.records, self.data_seed)
        anonymizer = layers.wrap(MaxEntropyTDS(CATALOG), "anonymize", "anonymize")
        self.alice = DataHolder("alice", self.pair.left)
        self.bob = DataHolder("bob", self.pair.right)
        with layers.span("protocol.publish"):
            self.left_view = self.alice.publish(anonymizer, QIDS, K)
            self.right_view = self.bob.publish(anonymizer, QIDS, K)

    def link(self, layers: Layers):
        bridge = SMCBridge(
            self.alice,
            self.bob,
            self.rule,
            oracle_factory=layers.oracle_factory(
                CountingPlaintextOracle, timed=False
            ),
        )
        party = QueryingParty(self.rule, allowance=self.allowance)
        with layers.span("protocol"):
            return party.link(
                self.left_view,
                self.right_view,
                layers.wrap(bridge, "bridge", "compare_many", leaf=False),
            )

    def matches(self, outcome):
        return resolve(
            outcome, self.left_view, self.right_view, self.alice, self.bob
        )

    def invocations(self, outcome):
        return outcome.smc_invocations, outcome.unknown_pairs

    def counts(self, outcome, layers):
        return {
            "anonymize.class_pairs": len(self.left_view.classes)
            * len(self.right_view.classes),
            "oracle.invocations": outcome.smc_invocations,
            "oracle.attribute_comparisons": layers.oracles[-1].attribute_comparisons,
            "oracle.matches": len(outcome.matched_handles),
        }


class Net4500(Workload):
    """``QueryingPartyClient`` against two loopback ``DataHolderServer``s.

    Client and holders share one interpreter; the holders run on the
    ``NetRuntime`` event-loop thread, so a link's time adds up all three
    parties' CPU. Each link call opens the protocol's three connections.
    """

    name = "net-4500"
    records = 4_500
    entry = "QueryingPartyClient.run against two DataHolderServers on 127.0.0.1"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.runtime = NetRuntime().start()
        self.servers: list[DataHolderServer] = []
        self._telemetry = NOOP_TELEMETRY
        self._layers = Layers()

    def reset(self) -> None:
        super().reset()
        for server in self.servers:
            self.runtime.call(server.stop())
        self.servers = []

    def close(self) -> None:
        try:
            self.reset()
        finally:
            self.runtime.stop()

    def setup(self, layers: Layers) -> None:
        with layers.span("data.generate"):
            self.pair = make_pair(self.records, self.data_seed)
        anonymizer = layers.wrap(MaxEntropyTDS(CATALOG), "anonymize", "anonymize")
        self._layers = layers
        with layers.span("net.server_start") as span:
            for name, relation in (("alice", self.pair.left), ("bob", self.pair.right)):
                server = DataHolderServer(
                    name, relation, anonymizer, QIDS, K, oracle_factory=self._oracle
                )
                self.servers.append(self.runtime.call(server.start()))
        if span is not None:
            layers.tracer.adopt_foreign(span)

    def _oracle(self, rule, schema):
        """The holders' oracle factory, injected by the current link call."""
        return self._layers.oracle_factory(CountingPlaintextOracle)(rule, schema)

    def link(self, layers: Layers):
        self._layers = layers
        alice, bob = (
            RemoteParty(server.name, server.host, server.port)
            for server in self.servers
        )
        self._telemetry = Telemetry() if layers.tracer else NOOP_TELEMETRY
        client = QueryingPartyClient(
            self.rule,
            alice,
            bob,
            allowance=self.allowance,
            telemetry=self._telemetry,
            runtime=self.runtime,
        )
        result = client.run()
        if layers.tracer is not None:
            # The client's phases come from the spans repro.obs records;
            # the holders' oracle calls ran on the event-loop thread.
            root = layers.tracer.current()
            graft(root, self._telemetry.trace())
            layers.tracer.adopt_foreign(find(root, "net.smc"))
        return result

    def matches(self, result):
        return result.verified_matches

    def invocations(self, result):
        return result.outcome.smc_invocations, result.outcome.unknown_pairs

    def reference(self, result):
        """Includes in-process ``QueryingParty.link`` on the client's views."""
        return in_child(
            in_process_reference, self.records, self.data_seed,
            self.allowance, result.left_view, result.right_view,
        )

    def compare(self, result, reference):
        problems = super().compare(result, reference)
        if fingerprint(result.outcome) != reference["outcome"]:
            problems.append("outcome differs from in-process QueryingParty.link")
        if not np.array_equal(
            self.codes(result.verified_matches), reference["verified"]
        ):
            problems.append("verified matches differ from the in-process run")
        return problems

    def wire_bytes(self, result):
        return result.bytes_on_wire

    def counts(self, result, layers):
        metrics = self._telemetry.metrics
        return {
            "anonymize.class_pairs": len(result.left_view.classes)
            * len(result.right_view.classes),
            "oracle.invocations": result.outcome.smc_invocations,
            "oracle.attribute_comparisons": layers.oracles[-1].attribute_comparisons,
            "oracle.matches": len(result.outcome.matched_handles),
            "net.query_bytes": result.transcript.bytes_on_wire,
            "net.peer_bytes": result.peer_wire_bytes,
            "net.frames": metrics.counter("net.frames_sent").value
            + metrics.counter("net.frames_received").value,
            "net.reconnects": result.reconnects,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (LibFull, Protocol12k, Net4500, Paillier600)
}
