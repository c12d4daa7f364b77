"""Secure token blocking — the Al-Lawati et al. approach ([6]).

The paper's closest related work "proposes a secure blocking scheme to
reduce costs. The approach has the disadvantage to work only for a
specific comparison function." We implement the idea in its natural form
so the comparison is executable:

1. each holder derives a *blocking token* per record from the attributes
   the classifier requires to agree exactly (categorical attributes with
   ``theta < 1`` and string attributes with ``theta = 0``);
2. the holders run the commutative-encryption equality join of
   :func:`repro.crypto.commutative.private_equality_groups` over the token
   multisets, learning which of their records share a token without
   revealing the tokens themselves;
3. only those *candidate* pairs go through the SMC step, which resolves
   the remaining (continuous / fuzzy) attributes exactly.

Properties, mirroring the paper's critique:

- recall is 100% *only because* every exact-agreement attribute is folded
  into the token — the method is tied to that specific comparison
  structure (no tokens exist for "age within 3.7 years", and an edit-
  distance budget breaks tokenization entirely);
- the candidate set size — and hence the SMC bill — is data-dependent and
  unbounded: heavy-hitter token values (think ``sex``) blow it up, whereas
  the hybrid method's allowance is a hard budget;
- privacy is weaker than the hybrid's: the parties learn the *equality
  graph* of their token multisets (which records cluster together),
  whereas k-anonymized views bound what any class reveals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro._rng import make_random
from repro.crypto.commutative import generate_safe_prime, private_equality_groups
from repro.crypto.smc.oracle import CountingPlaintextOracle
from repro.data.schema import Relation
from repro.errors import ConfigurationError
from repro.linkage.columns import BlockLease, RecordColumns
from repro.linkage.distances import MatchRule


@dataclass(frozen=True)
class SecureBlockingOutcome:
    """Result and invoice of a secure-token-blocking linkage."""

    total_pairs: int
    candidate_pairs: int
    matched_pairs: list[tuple[int, int]]
    smc_invocations: int
    commutative_encryptions: int

    @property
    def candidate_fraction(self) -> float:
        """Candidate pairs as a fraction of the cross product."""
        if self.total_pairs == 0:
            return 0.0
        return self.candidate_pairs / self.total_pairs


def blocking_token_positions(rule: MatchRule, relation: Relation) -> list[int]:
    """Column positions of the attributes folded into the token."""
    positions = []
    for attribute in rule:
        if attribute.is_continuous:
            continue
        if attribute.is_string and attribute.threshold >= 1:
            continue
        if attribute.threshold < 1:
            positions.append(relation.schema.position(attribute.name))
    return positions


def secure_token_blocking(
    rule: MatchRule,
    left: Relation,
    right: Relation,
    *,
    prime_bits: int = 96,
    rng: int | random.Random | None = None,
) -> SecureBlockingOutcome:
    """Run the full token-blocking linkage.

    The commutative-encryption join runs over real group arithmetic; the
    SMC resolution of candidates uses the counted oracle (the same cost
    model as the hybrid pipeline, so the invoices are comparable), one
    lease per token in one ``compare_block`` call. Matches come sorted.
    """
    if left.schema != right.schema:
        raise ConfigurationError("input relations must share a schema")
    positions = blocking_token_positions(rule, left)
    if not positions:
        raise ConfigurationError(
            "the rule has no exact-agreement attribute to tokenize; "
            "secure token blocking does not apply (the method's limitation)"
        )
    rng = make_random(rng)
    prime = generate_safe_prime(prime_bits, rng)
    left_tokens = [
        tuple(record[position] for position in positions) for record in left
    ]
    right_tokens = [
        tuple(record[position] for position in positions) for record in right
    ]
    # Each group of equal tokens is a whole class pair: one lease.
    leases = [
        BlockLease(np.array(lefts), np.array(rights), len(lefts) * len(rights))
        for lefts, rights in private_equality_groups(
            left_tokens, right_tokens, prime, rng
        )
    ]
    oracle = CountingPlaintextOracle(rule, left.schema)
    results = oracle.compare_block(
        RecordColumns.from_relation(left, rule.names),
        RecordColumns.from_relation(right, rule.names),
        leases,
    )
    matched = sorted(
        pair
        for lease, offsets in zip(leases, results)
        for pair in zip(
            lease.left_rows[offsets[:, 0]].tolist(),
            lease.right_rows[offsets[:, 1]].tolist(),
        )
    )
    return SecureBlockingOutcome(
        total_pairs=len(left) * len(right),
        candidate_pairs=sum(lease.take for lease in leases),
        matched_pairs=matched,
        smc_invocations=oracle.invocations,
        commutative_encryptions=2 * (len(left) + len(right)),
    )

