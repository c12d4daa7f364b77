"""Micro-benchmarks of the primitives the macro experiments stand on.

These are classic pytest-benchmark targets (many rounds, statistics):
Paillier operations, the slack decision rule, the blocking kernel, the
code tables' verdict and expected-distance matrices, the ground-truth
oracle, the counting oracle's lease join and the
anonymizer's k sweep. They put concrete per-operation numbers behind the
cost-model discussion in DESIGN.md.
End-to-end timings of whole linkage runs come from ``e2ebench/run.py``.
"""

import random

import pytest

from repro.crypto.paillier import PaillierKeyPair
from repro.linkage.blocking import block
from repro.linkage.slack import slack_decision


@pytest.fixture(scope="module")
def keys():
    return PaillierKeyPair.generate(1024, random.Random(1))


@pytest.fixture(scope="module")
def rng():
    return random.Random(2)


class TestPaillierMicro:
    def test_encrypt(self, benchmark, keys, rng):
        benchmark(keys.public_key.encrypt, 123456, rng)

    def test_decrypt(self, benchmark, keys, rng):
        ciphertext = keys.public_key.encrypt(123456, rng)
        benchmark(keys.private_key.decrypt, ciphertext)

    def test_homomorphic_add(self, benchmark, keys, rng):
        a = keys.public_key.encrypt(1, rng)
        b = keys.public_key.encrypt(2, rng)
        benchmark(lambda: a + b)

    def test_scalar_multiply(self, benchmark, keys, rng):
        a = keys.public_key.encrypt(3, rng)
        benchmark(lambda: a * 987654321)


class TestLinkageMicro:
    def test_slack_decision(self, benchmark, data):
        rule = data.rule()
        left, right = data.anonymized()
        left_sequence = left.classes[0].sequence
        right_sequence = right.classes[0].sequence
        benchmark(slack_decision, rule, left_sequence, right_sequence)

    def test_blocking_step(self, benchmark, data):
        rule = data.rule()
        left, right = data.anonymized()
        result = benchmark.pedantic(
            block, args=(rule, left, right), rounds=3, iterations=1
        )
        assert result.total_pairs == data.pair.total_pairs

    def test_code_tables(self, benchmark, data):
        """Every verdict and expected-distance matrix of the anonymized
        pair, built from fresh code tables as each link builds them."""
        from repro.linkage.codes import CodeTables

        rule = data.rule()
        left, right = data.anonymized()

        def build():
            tables = CodeTables(rule, left, right)
            return [
                (tables.verdict_matrix(position), tables.expected_matrix(position))
                for position in range(len(rule))
            ]

        matrices = benchmark(build)
        assert len(matrices) == len(rule)

    def test_ground_truth_oracle(self, benchmark, data):
        from repro.linkage.ground_truth import GroundTruth

        rule = data.rule()

        def build_and_count():
            return GroundTruth(
                rule, data.pair.left, data.pair.right
            ).total_matches()

        total = benchmark.pedantic(build_and_count, rounds=3, iterations=1)
        assert total >= data.pair.planted_matches

    def test_plaintext_oracle_compare(self, benchmark, data):
        from repro.crypto.smc.oracle import CountingPlaintextOracle

        rule = data.rule()
        oracle = CountingPlaintextOracle(rule, data.pair.left.schema)
        left_record = data.pair.left[0]
        right_record = data.pair.right[0]
        benchmark(oracle.compare, left_record, right_record)

    def test_counting_compare_block(self, benchmark, data):
        """One counting-oracle call over the leases a library link plans."""
        from repro import HybridLinkage, LinkageConfig
        from repro.crypto.smc.oracle import CountingPlaintextOracle

        rule = data.rule()
        schema = data.pair.left.schema
        calls = []

        class Recording(CountingPlaintextOracle):
            def compare_block(self, left, right, leases):
                calls.append((left, right, leases))
                return super().compare_block(left, right, leases)

        config = LinkageConfig(
            rule=rule, allowance=data.config.allowance, oracle_factory=Recording
        )
        result = HybridLinkage(config).run(*data.anonymized())
        [(left, right, leases)] = calls

        def compare_block():
            return CountingPlaintextOracle(rule, schema).compare_block(
                left, right, leases
            )

        matches = benchmark.pedantic(compare_block, rounds=5, iterations=1)
        assert sum(map(len, matches)) == result.smc_match_count

    def test_secure_comparison_1024_bit(self, benchmark, keys):
        from repro.crypto.smc.channel import SMCSession
        from repro.crypto.smc.comparison import secure_within_threshold

        session = SMCSession(keys, rng=3)
        benchmark.pedantic(
            secure_within_threshold,
            args=(session, 40.0, 37.0, 3.7),
            rounds=5,
            iterations=1,
        )


#: The anonymizer's k sweep: k=1 and 2 split thousands of tiny partitions
#: (per-split overhead dominates), 32 is the paper's operating point and
#: 256 leaves few, large partitions (per-record counting dominates).
ANONYMIZE_K_SWEEP = (1, 2, 8, 32, 256)


class TestAnonymizeKSweep:
    @pytest.mark.parametrize("k", ANONYMIZE_K_SWEEP)
    def test_max_entropy_tds(self, benchmark, data, k):
        from repro.anonymize import MaxEntropyTDS

        relation = data.pair.left
        qids = data.config.qids()
        anonymizer = MaxEntropyTDS(data.hierarchies)
        generalized = benchmark.pedantic(
            anonymizer.anonymize, args=(relation, qids, k), rounds=3, iterations=1
        )
        assert generalized.is_k_anonymous(k)
