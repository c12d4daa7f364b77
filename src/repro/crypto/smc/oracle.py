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
from typing import NamedTuple

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
    LeaseBatch,
    RecordColumns,
    check_leases,
    offset_pairs,
    run_offsets,
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
        leases: Sequence[BlockLease] | LeaseBatch,
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
        leases = LeaseBatch.of(leases)
        shapes = np.stack(check_leases(leases), axis=1).tolist()
        left_positions = left.positions(self.rule.names)
        right_positions = right.positions(self.rule.names)
        left_rows: dict[int, object] = {}
        results = []
        for lease, (rows, columns, remainder) in zip(leases, shapes):
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

    :meth:`compare_block` answers a call's leases with one sort-join
    instead of touching every leased pair: only pairs that agree on every
    constraining categorical attribute are ever formed, and its
    temporaries stay bounded whatever the rule (see :data:`_GROUP_PAIRS`
    and :data:`_SLICE_CANDIDATES`); it answers ground-truth queries too.
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
        #: (left, right, join columns) of the last column pair compared, so
        #: one-lease-at-a-time callers build the join keys only once.
        self._aligned: tuple | None = None

    def _compare(self, left_values: tuple, right_values: tuple) -> bool:
        self.attribute_comparisons += self._billable
        return self._projected.matches(left_values, right_values)

    def compare_block(self, left, right, leases):
        """Row-major lease comparison as one sort-join per call.

        Each record carries one integer join key fusing its constraining
        categorical codes; per group of leases the touched right rows are
        sorted by ``(lease, key)``, each touched left row finds its
        equal-key run with ``searchsorted``, and only those candidate pairs
        are expanded and tested ``abs(l - r) <= t`` on every continuous
        attribute. String attributes with an edit budget filter the
        survivors last, each distinct pair of values tested once
        (:func:`_edit_budget`). The answers, their row-major order and the
        billing (``take`` invocations per lease) are those of the scalar
        loop.
        """
        leases = LeaseBatch.of(leases)
        shapes = check_leases(leases)
        join = self._lease_columns(left, right)
        results: list[np.ndarray] = []
        takes = leases.takes
        ends = np.cumsum(takes)
        start = 0
        while start < len(leases):
            # A group ends with the lease whose take reaches _GROUP_PAIRS.
            base = ends[start] - takes[start]
            stop = int(np.searchsorted(ends, base + _GROUP_PAIRS)) + 1
            results += _join_group(
                join, leases[start:stop], *(shape[start:stop] for shape in shapes)
            )
            start = stop
        billed = int(ends[-1]) if len(ends) else 0
        self.invocations += billed
        self.attribute_comparisons += billed * self._billable
        return results

    def _lease_columns(self, left: RecordColumns, right: RecordColumns) -> "_Join":
        """The join key, continuous columns and edit budgets of one column pair.

        Categorical codes are first put in one vocabulary covering both
        sides; loose Hamming thresholds (>= 1) never constrain and are
        left out of the key.
        """
        aligned = self._aligned
        if aligned is not None and aligned[0] is left and aligned[1] is right:
            return aligned[2]
        left_positions = left.positions(self.rule.names)
        right_positions = right.positions(self.rule.names)
        continuous = []
        categorical = []
        edits = []
        for attribute, left_position, right_position in zip(
            self.rule, left_positions, right_positions
        ):
            is_continuous = attribute.is_continuous
            if is_continuous != left.is_continuous(left_position) or (
                is_continuous != right.is_continuous(right_position)
            ):
                raise ConfigurationError(
                    f"attribute {attribute.name!r} is encoded with a "
                    "different kind than the match rule expects"
                )
            if is_continuous:
                continuous.append(
                    (
                        left.arrays[left_position],
                        right.arrays[right_position],
                        attribute.effective_threshold,
                    )
                )
            elif attribute.is_string and attribute.threshold >= 1:
                edits.append(
                    _edit_budget(attribute, left, right, left_position, right_position)
                )
            elif attribute.threshold < 1:
                left_codes, right_codes = shared_codes(
                    left, right, left_position, right_position
                )
                radix = len(left.vocabularies[left_position]) + len(
                    right.vocabularies[right_position]
                )
                categorical.append((left_codes, right_codes, radix))
        left_key, right_key, span = _join_keys(
            categorical, len(left.arrays[0]), len(right.arrays[0])
        )
        join = _Join(continuous, edits, left_key, right_key, span)
        self._aligned = (left, right, join)
        return join


#: Leased record pairs one join stacks at a time: a call's leases are
#: joined in consecutive groups of at least this many pairs (a group ends
#: with the lease that reaches it), so the per-row arrays of a join stay
#: small however many leases one call carries.
_GROUP_PAIRS = 1 << 18

#: Candidate pairs expanded at a time (more only when one left row has
#: more): the join's per-candidate temporaries, about 40 bytes each, stay
#: under 1 MB even for a rule with no categorical constraint, where every
#: leased pair is a candidate. Slices of 2**13 to 2**16 candidates join
#: the leases of a full 30,162-record Adult link equally fast.
_SLICE_CANDIDATES = 1 << 14

#: Largest span a fused categorical key may reach before its values are
#: replaced by their ranks, so ``lease * span + key`` stays within int64.
_KEY_SPAN = 1 << 31


class _Join(NamedTuple):
    """What the counting join needs of one (left, right) column pair."""

    #: ``(left column, right column, threshold)`` per continuous attribute.
    continuous: list
    #: One :func:`_edit_budget` filter per string attribute with an edit budget.
    edits: list
    #: Per record, its constraining categorical codes fused into one key
    #: in ``0..span - 1``; equal keys mean equal codes on every attribute.
    left_key: np.ndarray
    right_key: np.ndarray
    span: int


def _edit_budget(attribute, left, right, left_position, right_position):
    """A string attribute with an edit budget, as a filter on join pairs.

    Edit distance does not vectorize, but depends only on the two values:
    the returned ``within(left rows, right rows)`` tests each distinct
    ``(left code, right code)`` among the pairs once.
    """
    left_codes, right_codes = left.arrays[left_position], right.arrays[right_position]
    left_values = left.vocabularies[left_position]
    right_values = right.vocabularies[right_position]

    def within(left_rows: np.ndarray, right_rows: np.ndarray) -> np.ndarray:
        codes = np.stack((left_codes[left_rows], right_codes[right_rows]), axis=1)
        distinct, inverse = np.unique(codes, axis=0, return_inverse=True)
        verdicts = [
            attribute.within_threshold(left_values[left_code], right_values[right_code])
            for left_code, right_code in distinct.tolist()
        ]
        return np.array(verdicts, dtype=bool)[inverse.reshape(-1)]

    return within


def _join_keys(
    categorical: Sequence[tuple[np.ndarray, np.ndarray, int]],
    left_count: int,
    right_count: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Fuse shared-vocabulary codes into one mixed-radix key per record.

    Each ``(left codes, right codes, radix)`` holds codes below *radix*.
    When the product of radices would pass :data:`_KEY_SPAN`, the key so
    far is replaced by its rank among both sides' distinct keys, so it
    never overflows; a rule without a constraining categorical attribute
    gives every record key 0.
    """
    left_key = np.zeros(left_count, dtype=np.int64)
    right_key = np.zeros(right_count, dtype=np.int64)
    span = 1
    for left_codes, right_codes, radix in categorical:
        if span * radix > _KEY_SPAN:
            left_key, right_key, span = _key_ranks(left_key, right_key)
        left_key *= radix
        left_key += left_codes
        right_key *= radix
        right_key += right_codes
        span *= radix
    if span > _KEY_SPAN:
        left_key, right_key, span = _key_ranks(left_key, right_key)
    return left_key, right_key, span


def _key_ranks(left_key: np.ndarray, right_key: np.ndarray):
    """Both sides' keys as ranks among their distinct values, and the count."""
    distinct, ranks = np.unique(
        np.concatenate((left_key, right_key)), return_inverse=True
    )
    ranks = ranks.reshape(-1).astype(np.int64)
    return ranks[: len(left_key)], ranks[len(left_key) :], len(distinct)


def _join_group(
    join: _Join,
    leases: LeaseBatch,
    rows: np.ndarray,
    widths: np.ndarray,
    remainders: np.ndarray,
) -> list[np.ndarray]:
    """The matching offsets of each of *leases*, found by one sort-join;
    *rows*, *widths* and *remainders* are their :func:`check_leases` shapes."""
    left_offsets = run_offsets(rows)
    right_offsets = run_offsets(widths)
    left_rows = leases.left_rows[np.repeat(leases.left_starts, rows) + left_offsets]
    right_rows = leases.right_rows[
        np.repeat(leases.right_starts, widths) + right_offsets
    ]
    # Sort the right rows by (lease, key). The sort is stable, so within
    # one equal-key run the right offsets ascend, and every left row's
    # candidates come out in row-major order.
    lease_keys = np.arange(len(leases), dtype=np.int64) * join.span
    right_keys = np.repeat(lease_keys, widths)
    right_keys += join.right_key[right_rows]
    order = np.argsort(right_keys, kind="stable")
    right_keys = right_keys[order]
    right_rows = right_rows[order]
    right_offsets = right_offsets[order]
    left_keys = np.repeat(lease_keys, rows)
    left_keys += join.left_key[left_rows]
    # Each left row's candidates are the run of its key, when there is one.
    run_starts = np.flatnonzero(np.diff(right_keys, prepend=-1))
    run_keys = right_keys[run_starts]
    runs = np.searchsorted(run_keys, left_keys).clip(max=len(run_keys) - 1)
    first = run_starts[runs]
    last = np.append(run_starts[1:], len(right_keys))[runs]
    missing = run_keys[runs] != left_keys
    last[missing] = first[missing]
    # A partial last row stops at its remainder: its run's offsets ascend,
    # so the pairs it may compare are a prefix of the run.
    last_rows = np.cumsum(rows) - 1
    for lease_index in np.flatnonzero(remainders):
        row = last_rows[lease_index]
        run = right_offsets[first[row] : last[row]]
        last[row] = first[row] + np.searchsorted(run, remainders[lease_index])
    counts = last - first
    ends = np.cumsum(counts)
    tests = [
        (left_column[left_rows], right_column[right_rows], threshold)
        for left_column, right_column, threshold in join.continuous
    ]
    row_ids = np.arange(len(left_rows), dtype=OFFSET_DTYPE)
    matched_rows = []
    matched_positions = []
    start = 0
    while start < len(left_rows):
        base = ends[start] - counts[start]
        stop = max(
            start + 1,
            int(np.searchsorted(ends, base + _SLICE_CANDIDATES, side="right")),
        )
        slice_counts = counts[start:stop]
        # Candidate j of left row i sits at right position
        # first[i] + (j - the row's first candidate).
        shift = first[start:stop] - (ends[start:stop] - slice_counts - base)
        candidate_rows = np.repeat(row_ids[start:stop], slice_counts)
        positions = np.repeat(shift.astype(OFFSET_DTYPE), slice_counts)
        positions += np.arange(len(positions), dtype=OFFSET_DTYPE)
        keep = None
        for left_values, right_values, threshold in tests:
            distance = np.repeat(left_values[start:stop], slice_counts)
            distance -= right_values[positions]
            within = np.abs(distance, out=distance) <= threshold
            keep = within if keep is None else np.logical_and(keep, within, out=keep)
        if keep is not None:
            kept = np.flatnonzero(keep)
            candidate_rows = candidate_rows[kept]
            positions = positions[kept]
        for within in join.edits:
            keep = within(left_rows[candidate_rows], right_rows[positions])
            candidate_rows, positions = candidate_rows[keep], positions[keep]
        matched_rows.append(candidate_rows)
        matched_positions.append(positions)
        start = stop
    matched_rows = np.concatenate(matched_rows)
    positions = np.concatenate(matched_positions)
    offsets = np.empty((len(matched_rows), 2), dtype=OFFSET_DTYPE)
    offsets[:, 0] = left_offsets[matched_rows]
    offsets[:, 1] = right_offsets[positions]
    bounds = np.searchsorted(matched_rows, np.cumsum(rows) - rows).tolist()
    bounds.append(len(offsets))
    return [offsets[start:stop] for start, stop in zip(bounds, bounds[1:])]


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
