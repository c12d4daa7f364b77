"""Bench: Section VI cost accounting (per-attribute secure distance).

Paper (2.8 GHz PC, 2008, 1024-bit keys): 0.43 s per continuous-attribute
secure distance; anonymization + blocking together are worth roughly 13
secure comparisons. The online rows are the blinded comparison's and the
equality test's per-pair costs once Alice's ciphertexts exist (Bob's
steps plus the decryption or zero test);
the key's randomizer table is built, and reported, before either is timed.
Absolute times differ on modern hardware; the shape assertion is the
paper's point — crypto dominates non-crypto costs by orders of magnitude
per unit of work.
"""

from repro.bench.experiments import smc_timing


def test_smc_timing_1024_bit(benchmark, data, report):
    table = benchmark.pedantic(
        smc_timing, kwargs={"key_bits": 1024, "samples": 5, "data": data},
        rounds=1, iterations=1,
    )
    report.append(table)
    by_quantity = {row[0]: row[1] for row in table.rows}
    per_attribute = by_quantity["secure distance / attribute (s)"]
    online = by_quantity["blinded comparison, online / pair (s)"]
    equality_online = by_quantity["equality test, online / pair (s)"]
    blocking_seconds = by_quantity["blocking step (s)"]
    assert per_attribute > 0
    assert by_quantity["randomizer table build (s)"] > 0
    # With Alice's ciphertexts reused, a pair costs one re-randomization
    # and one decryption instead of two encryptions, a re-randomization
    # and a decryption.
    assert 0 < online < per_attribute
    # Bob's full-size rho over the table of a reused E(h_a), plus the
    # zero test: the largest per-pair cost of a categorical attribute.
    assert equality_online > 0
    # One secure comparison costs far more than a blocked *pair*: blocking
    # decides hundreds of thousands of pairs in the time one comparison
    # takes (this is the entire point of the hybrid method).
    blocking = data.blocking()
    pairs_per_second = blocking.decided_pairs / max(blocking_seconds, 1e-9)
    assert pairs_per_second * per_attribute > 1000
