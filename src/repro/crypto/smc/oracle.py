"""The SMC oracle abstraction the hybrid pipeline consumes.

The blocking step hands unknown record pairs to "the SMC circuit", which
plays the role of the accurate-but-expensive domain expert (Section IV's
analogy). The pipeline only needs one operation — *does this record pair
match?* — so the oracle interface is exactly that, plus cost accounting.

Two interchangeable backends (DESIGN.md §4, substitution 3):

- :class:`PaillierSMCOracle` runs the real three-party protocols per
  attribute. Used in tests and the timing benchmark.
- :class:`CountingPlaintextOracle` returns the same (exact) answer while
  only *counting* invocations — mirroring the paper's own cost model,
  which "restricted ... to the number of SMC protocol invocations" because
  crypto cost dwarfs everything else. Used for the large recall sweeps.

Both count invocations identically, so every figure that reports costs is
backend-independent.
"""

from __future__ import annotations

import abc
import random
from collections.abc import Sequence

import numpy as np

from repro.crypto.paillier import PaillierKeyPair
from repro.crypto.smc.channel import SMCSession
from repro.crypto.smc.comparison import (
    default_magnitude_bound,
    finish_within_threshold,
)
from repro.crypto.smc.euclidean import alice_encrypts, finish_squared_distance
from repro.crypto.smc.hamming import alice_sends_hash, finish_equality
from repro.data.schema import Record, Schema
from repro.errors import ConfigurationError, ProtocolError
from repro.linkage.columns import (
    OFFSET_DTYPE,
    BlockLease,
    RecordColumns,
    check_leases,
    lease_shape,
    offset_pairs,
    shared_codes,
)
from repro.linkage.distances import MatchRule
from repro.obs import NOOP_TELEMETRY, Telemetry


class SMCOracle(abc.ABC):
    """Answers exact match queries for record pairs, counting costs.

    Cost counters are plain ints on the hot path; bind a
    :class:`repro.obs.Telemetry` (at construction or later via
    :meth:`attach_telemetry`) and :meth:`publish_metrics` mirrors them
    into its metrics registry as ``smc.record_pair_comparisons`` /
    ``smc.attribute_comparisons``. :meth:`reset` zeroes both views.
    """

    def __init__(
        self,
        rule: MatchRule,
        schema: Schema,
        *,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        self.rule = rule
        self.bound = rule.bind(schema)
        self.invocations = 0
        self.attribute_comparisons = 0
        self.telemetry = telemetry

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Bind *telemetry* and publish the current counter values."""
        self.telemetry = telemetry
        self.publish_metrics()

    def publish_metrics(self) -> None:
        """Sync the registry view of the oracle's cost counters."""
        self.telemetry.counter("smc.record_pair_comparisons").set(
            self.invocations
        )
        self.telemetry.counter("smc.attribute_comparisons").set(
            self.attribute_comparisons
        )

    def compare(self, left: Record, right: Record) -> bool:
        """True when the pair matches under the decision rule ``dr``."""
        self.invocations += 1
        return self._compare(
            self._left_row(self.bound.project(left)), self.bound.project(right)
        )

    def _left_row(self, left_values: tuple):
        """What :meth:`_compare` receives for one left record.

        :meth:`compare_block` calls this once per left row and passes the
        result to every pair of that row, so a backend can keep per-row
        state (the Paillier backend caches Alice's ciphertexts). By
        default it is the rule-ordered values themselves.
        """
        return left_values

    @abc.abstractmethod
    def _compare(self, left_row, right_values: tuple) -> bool:
        """Backend-specific comparison of one :meth:`_left_row` result
        with a rule-ordered right value tuple."""

    def compare_block(
        self,
        left: RecordColumns,
        right: RecordColumns,
        leases: Sequence[BlockLease],
    ) -> list[np.ndarray]:
        """Compare the first ``take`` pairs of each lease in row-major order.

        Returns, per lease, the matching ``(left_offset, right_offset)``
        positions within the lease's rows as one ``(m, 2)``
        :data:`~repro.linkage.columns.OFFSET_DTYPE` array, rows in
        row-major order (``(0, 2)`` when nothing matched). The base
        implementation runs :meth:`_compare` pair by pair on the original
        values, preparing each distinct left row once per call through
        :meth:`_left_row`; the counting backend overrides it with a
        vectorized path.
        Both charge exactly ``take`` invocations per lease, so the cost
        model is unaffected. A take outside ``1..`` the class pair's size
        raises :class:`ProtocolError` before any pair is compared.
        """
        check_leases(leases)
        left_positions = left.positions(self.rule.names)
        right_positions = right.positions(self.rule.names)
        left_rows: dict[int, object] = {}
        results = []
        for lease in leases:
            rows, columns, remainder = lease_shape(lease)
            right_values = [
                right.values(row, right_positions)
                for row in lease.right_rows[:columns]
            ]
            matches: list[int] = []
            for left_offset in range(rows):
                row = int(lease.left_rows[left_offset])
                left_row = left_rows.get(row)
                if left_row is None:
                    left_row = left_rows[row] = self._left_row(
                        left.values(row, left_positions)
                    )
                stop = remainder if remainder and left_offset == rows - 1 else columns
                for right_offset in range(stop):
                    self.invocations += 1
                    if self._compare(left_row, right_values[right_offset]):
                        matches += (left_offset, right_offset)
            results.append(offset_pairs(matches))
        return results

    def reset(self) -> None:
        """Zero the cost counters (e.g. between sweep points).

        The reset reaches the registry view too, so costs never leak
        across sweep points through a bound telemetry.
        """
        self.invocations = 0
        self.attribute_comparisons = 0
        self.publish_metrics()


class CountingPlaintextOracle(SMCOracle):
    """Exact answers, real invoice: counts what the crypto would cost.

    ``attribute_comparisons`` counts the secure comparisons a real backend
    would have executed (thresholds of 1 or more on categorical attributes
    never require a protocol run).
    """

    def __init__(
        self,
        rule: MatchRule,
        schema: Schema,
        *,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        super().__init__(rule, schema, telemetry=telemetry)
        self._billable = sum(
            1
            for attribute in rule
            if attribute.is_continuous
            or attribute.is_string
            or attribute.threshold < 1
        )
        self._projected = rule.bind(schema.project(rule.names))
        self._scalar = any(
            attribute.is_string and attribute.threshold >= 1 for attribute in rule
        )
        #: (left, right, columns) of the last column pair compared, so
        #: one-lease-at-a-time callers align the two sides only once.
        self._aligned: tuple | None = None

    def _compare(self, left_values: tuple, right_values: tuple) -> bool:
        self.attribute_comparisons += self._billable
        return self._projected.matches(left_values, right_values)

    def compare_block(self, left, right, leases):
        """Vectorized row-major lease comparison (numpy broadcasting).

        Rules containing an edit-distance attribute with a real budget
        fall back to the scalar loop (edit distance does not vectorize);
        everything else evaluates each lease as boolean matrices over the
        ``float64`` columns and the shared categorical codes. Billing is
        identical to ``take`` scalar invocations per lease.
        """
        if self._scalar:
            return super().compare_block(left, right, leases)
        check_leases(leases)
        columns = self._lease_columns(left, right)
        results = []
        for lease in leases:
            rows, width, remainder = lease_shape(lease)
            left_rows = lease.left_rows[:rows]
            right_rows = lease.right_rows[:width]
            matrix = np.ones((rows, width), dtype=bool)
            for continuous, left_column, right_column, threshold in columns:
                left_values = left_column[left_rows][:, None]
                right_values = right_column[right_rows][None, :]
                if continuous:
                    matrix &= np.abs(left_values - right_values) <= threshold
                else:
                    matrix &= left_values == right_values
            if remainder:
                matrix[-1, remainder:] = False
            self.invocations += lease.take
            self.attribute_comparisons += lease.take * self._billable
            results.append(np.argwhere(matrix).astype(OFFSET_DTYPE))
        return results

    def _lease_columns(self, left: RecordColumns, right: RecordColumns):
        """``(continuous, left, right, threshold)`` per constraining attribute.

        Categorical columns come back as codes in one vocabulary covering
        both sides; loose Hamming thresholds (>= 1) never constrain and are
        left out.
        """
        aligned = self._aligned
        if aligned is not None and aligned[0] is left and aligned[1] is right:
            return aligned[2]
        left_positions = left.positions(self.rule.names)
        right_positions = right.positions(self.rule.names)
        columns = []
        for attribute, left_position, right_position in zip(
            self.rule, left_positions, right_positions
        ):
            continuous = attribute.is_continuous
            if continuous != left.is_continuous(left_position) or (
                continuous != right.is_continuous(right_position)
            ):
                raise ConfigurationError(
                    f"attribute {attribute.name!r} is encoded with a "
                    "different kind than the match rule expects"
                )
            if continuous:
                columns.append(
                    (
                        True,
                        left.arrays[left_position],
                        right.arrays[right_position],
                        attribute.effective_threshold,
                    )
                )
            elif attribute.threshold < 1:
                left_codes, right_codes = shared_codes(
                    left, right, left_position, right_position
                )
                columns.append((False, left_codes, right_codes, None))
        self._aligned = (left, right, columns)
        return columns


class PaillierSMCOracle(SMCOracle):
    """The real three-party protocol stack.

    Within one :meth:`compare_block` call Alice encrypts each left row's
    value for an attribute at most once, when the first pair reaches that
    attribute, and Bob builds the fixed-base table of each ``E(h_a)`` as
    it arrives; Bob's steps and the querying party's decryption run per
    pair, and each ciphertext Bob forwards is re-randomized exactly once.

    Parameters
    ----------
    rule, schema:
        The match rule and the (shared) relation schema.
    key_bits:
        Paillier modulus size; the paper uses 1024.
    hide_distances:
        When true (default) continuous attributes use the blinded
        threshold comparison, so the querying party learns only match
        bits. When false, the basic Section V-A protocol runs and the
        querying party compares the revealed distance itself.
    rng:
        Seed or RNG for key generation and blinding (tests pass a seed;
        ``None`` uses system randomness).
    """

    def __init__(
        self,
        rule: MatchRule,
        schema: Schema,
        *,
        key_bits: int = 1024,
        hide_distances: bool = True,
        precision: int = 4,
        rng: int | random.Random | None = None,
        telemetry: Telemetry = NOOP_TELEMETRY,
    ):
        super().__init__(rule, schema, telemetry=telemetry)
        if isinstance(rng, int):
            rng = random.Random(rng)
        self._key_pair = PaillierKeyPair.generate(key_bits, rng)
        self.session = SMCSession(
            self._key_pair,
            precision=precision,
            rng=rng,
            telemetry=telemetry if telemetry.enabled else None,
        )
        self.hide_distances = hide_distances

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Bind *telemetry*, including the session's channel transcript."""
        super().attach_telemetry(telemetry)
        self.session.transcript.bind_telemetry(
            telemetry if telemetry.enabled else None
        )

    def _left_row(self, left_values: tuple) -> "_AliceRow":
        return _AliceRow(left_values, self.session)

    def _compare(self, left_row: "_AliceRow", right_values: tuple) -> bool:
        session = self.session
        for index, (attribute, right_value) in enumerate(
            zip(self.rule, right_values)
        ):
            left_value = left_row.values[index]
            if attribute.is_continuous:
                self.attribute_comparisons += 1
                alice = left_row.alice_step(index, alice_encrypts)
                threshold = attribute.effective_threshold
                if self.hide_distances:
                    within = finish_within_threshold(
                        session,
                        alice,
                        right_value,
                        threshold,
                        default_magnitude_bound(left_value, right_value, threshold),
                    )
                else:
                    squared = finish_squared_distance(session, alice, right_value)
                    within = squared <= threshold * threshold + 1e-9
                if not within:
                    return False
            elif attribute.is_string and attribute.threshold >= 1:
                # A secure *approximate* edit-distance protocol is the
                # open problem the paper's Section VIII names; only the
                # exact-equality case is supported cryptographically.
                raise ProtocolError(
                    f"no secure edit-distance protocol for "
                    f"{attribute.name!r} with threshold >= 1; use the "
                    "plaintext cost-model oracle for that configuration"
                )
            elif attribute.is_string or attribute.threshold < 1:
                self.attribute_comparisons += 1
                alice = left_row.alice_step(index, alice_sends_hash)
                if not finish_equality(session, alice, right_value):
                    return False
            # Hamming threshold >= 1 can never be exceeded: no protocol run.
        return True


class _AliceRow:
    """One left record's rule-ordered values and Alice's ciphertexts.

    Alice's step for an attribute depends only on her value, so it runs
    on first use and its ciphertexts go to Bob once; every later pair of
    the row reuses them, and Bob's forwarded ciphertexts stay fresh.
    Bob's fixed-base tables over ``E(h_a)`` live here too, and go with
    the row when :meth:`SMCOracle.compare_block` returns.
    """

    __slots__ = ("values", "_session", "_sent")

    def __init__(self, values: tuple, session: SMCSession):
        self.values = values
        self._session = session
        self._sent: dict[int, object] = {}

    def alice_step(self, index: int, step):
        """``step(session, value)`` for attribute *index*, run at most once."""
        sent = self._sent.get(index)
        if sent is None:
            sent = self._sent[index] = step(self._session, self.values[index])
        return sent
